import dataclasses
import functools
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import component_reference
from conftest import (family_values, glued_on, partial_s, same_bits, stack, steep_family,
                      three_component_family, with_zero_component, worked_family)
from coronaglue import glue, hnorm, jets, smoothness
from coronaglue.config import load_config
from coronaglue.errors import InternalInconsistency
from coronaglue.polyalg import CPoly
from coronaglue.cover_pou import PartitionOfUnity, build_cover
from coronaglue.polyalg import ParamFamily, SPoly, ZSPoly


def bezout_identity_jet(glued, z, s, order):
    """Jet of g^T f at (z, s): equals (1, 0, 0, ...) up to rounding because
    the identity holds exactly along the whole jet."""
    z_arr = np.asarray(z, dtype=complex)
    evaluator = glue.GluedEvaluator(glued.family, glued.cover, glued.points, z_arr)
    g = smoothness._solution_jets(
        evaluator, [np.atleast_1d(np.asarray(s, dtype=float))], order)[0]
    g = g[:, :, 0].reshape(g.shape[:2] + z_arr.shape)
    point = np.atleast_1d(np.asarray(s, dtype=float))
    f = glued.family.poly.taylor_coeffs(point[None], order, z_arr.reshape(1, -1))
    f = f[:, :, 0].reshape(f.shape[:2] + z_arr.shape)
    return jets.jet_mul(g, f, glued.family.dim, order).sum(axis=1)


def test_order_zero_matches_evaluator(worked_solution):
    glued = worked_solution
    z = np.array([0.2 + 0.1j, -0.7j, 0.99])
    for s in (0.1, 0.5, 0.9):
        d0 = smoothness.g_partial(glued, z, [s], (0,))
        direct = glue.g_eval(glued, z, [s])
        np.testing.assert_allclose(d0, direct, rtol=1e-14)


def test_s_independent_family_has_zero_derivatives():
    family = ParamFamily(
        ZSPoly([[SPoly([0.0]), SPoly([1.0])], [SPoly([2.0]), SPoly([-1.0])]]),
        [(0.0, 1.0)],
    )
    glued, _ = glue.solve(family)
    assert glued.cover.size == 1
    for alpha in ((1,), (2,)):
        d = smoothness.g_partial(glued, 0.3 + 0.2j, [0.5], alpha)
        assert np.abs(d).max() <= 1e-12


def test_forced_component_derivative():
    glued, _ = glue.solve(worked_family())
    # g_2(0, s) = 1/(2+s) is forced, so ds g_2(0, s) = -1/(2+s)^2
    for s in (0.0, 0.5, 1.0):
        d1 = smoothness.g_partial(glued, 0.0, [s], (1,))
        assert d1[1] == pytest.approx(-1.0 / (2.0 + s) ** 2, rel=1e-10)
    d_at_zero = smoothness.g_partial(glued, 0.0, [0.0], (1,))
    assert d_at_zero[1] == pytest.approx(-0.25, rel=1e-10)


def test_fd_check_tolerances(worked_solution, rng):
    glued = worked_solution
    for _ in range(10):
        s = [float(rng.uniform(0.1, 0.9))]
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        assert smoothness.fd_check(glued, z, s, (1,), 1e-4) <= 1e-6
        assert smoothness.fd_check(glued, z, s, (2,), 1e-3) <= 1e-4


def test_fd_check_s_independent_absolute():
    family = ParamFamily(
        ZSPoly([[SPoly([0.0]), SPoly([1.0])], [SPoly([2.0]), SPoly([-1.0])]]),
        [(0.0, 1.0)],
    )
    glued, _ = glue.solve(family)
    err = smoothness.fd_check(glued, 0.2, [0.5], (1,), 1e-4)
    assert err <= 1e-10


def test_fd_check_multi_center(steep_solution, rng):
    glued = steep_solution
    for _ in range(10):
        s = [float(rng.uniform(0.1, 0.9))]
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        assert smoothness.fd_check(glued, z, s, (1,), 1e-4) <= 1e-6
        assert smoothness.fd_check(glued, z, s, (2,), 1e-3) <= 1e-4



@pytest.mark.parametrize("alpha", [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)])
def test_fd_check_two_param(two_param_solution, rng, alpha):
    # the mixed stencil (1, 1) has four corners and no center
    h = 1e-4 if sum(alpha) == 1 else 1e-3
    for _ in range(5):
        s = rng.uniform(0.1, 0.9, 2).tolist()
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        assert smoothness.fd_check(two_param_solution, z, s, alpha, h) <= \
            (1e-6 if sum(alpha) == 1 else 1e-4)

def test_identity_jet_is_unit(steep_solution):
    glued = steep_solution
    jet = bezout_identity_jet(glued, 0.4 - 0.35j, [0.37], 3)
    assert abs(jet[0] - 1.0) <= 1e-10
    assert np.abs(jet[1:]).max() <= 1e-10


def test_cnorm_report_order_zero_bound(worked_solution):
    glued = worked_solution
    (row,) = smoothness.cnorm_report(glued, 0).per_order
    assert row["g"] <= 2.0 * glued.c0 * (1.0 + 1e-9)
    assert row["ratio"] > 0.0


def test_cnorm_report_s_independent():
    family = ParamFamily(
        ZSPoly([[SPoly([0.0]), SPoly([1.0])], [SPoly([2.0]), SPoly([-1.0])]]),
        [(0.0, 1.0)],
    )
    glued, _ = glue.solve(family)
    zero, one = smoothness.cnorm_report(glued, 1).per_order
    assert one["g"] == pytest.approx(zero["g"], rel=1e-12)


def test_cnorm_report_stable_under_refinement(steep_solution):
    glued = steep_solution
    a = smoothness.cnorm_report(glued, 1, axis_samples=33).per_order[1]["ratio"]
    b = smoothness.cnorm_report(glued, 1, axis_samples=65).per_order[1]["ratio"]
    assert abs(a - b) <= 0.10 * max(a, b)
    assert math.isfinite(a)


def test_cnorm_report_lexicographic_two_param():
    from conftest import two_param_family

    glued, _ = glue.solve(two_param_family())
    rep = smoothness.cnorm_report(glued, 1, axis_samples=9, boundary_samples=64)
    labels = [tuple(entry[0]) for entry in rep.per_index]
    assert labels == sorted(labels)
    assert (0, 0) in labels and (1, 0) in labels and (0, 1) in labels


def test_modulus_samples_respect_bound():
    # measured sup_z ||f(., s) - f(., s')|| against the Lipschitz bound
    # L |s - s'| for random parameter pairs, L the l2 norm of the
    # coefficient-sum bounds on the parameter gradient
    family = worked_family()
    bound = float(np.sqrt((hnorm.partial_bounds(family.poly, family.box) ** 2).sum()))
    assert bound == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    z = hnorm.boundary_points(256)
    worst = 0.0
    for _ in range(100):
        s1 = np.array([rng.uniform(a, b) for a, b in family.box])
        s2 = np.array([rng.uniform(a, b) for a, b in family.box])
        f1, f2 = family_values(family, z, s1)[0], family_values(family, z, s2)[0]
        diff = (np.abs(f1 - f2) ** 2).sum(axis=0)
        allowed = bound * float(np.linalg.norm(s1 - s2))
        if allowed > 0:
            worst = max(worst, float(np.sqrt(diff.max())) / allowed)
    assert worst <= 1.0 + 1e-9


def _with_point_solution(glued, k, transform):
    """The glued solution with center k's solution components transformed."""
    sols = list(glued.points.solutions)
    sols[k] = dataclasses.replace(sols[k], g=tuple(transform(gm) for gm in sols[k].g))
    return dataclasses.replace(
        glued, points=glue.PointSolutionSet(tuple(sols)))


def _interior_block(rng, glued, n):
    lows, highs = np.array(glued.family.box).T
    return rng.uniform(lows + 0.05, highs - 0.05, (n, glued.family.dim))


@pytest.mark.parametrize("which", ["steep", "two_param"])
def test_solution_jets_block_equals_points_bit_for_bit(rng, steep_solution,
                                                      two_param_solution, which):
    glued = steep_solution if which == "steep" else two_param_solution
    block = _interior_block(rng, glued, 7)
    z = hnorm.boundary_points(16)
    own = 0.8 * np.exp(2j * np.pi * rng.uniform(0, 1, (len(block), 3)))
    for order in (0, 1, 2):
        shared = glue.GluedEvaluator(glued.family, glued.cover, glued.points, z)
        mine = glue.GluedEvaluator(glued.family, glued.cover, glued.points, own)
        got = smoothness._solution_jets(shared, block, order)[0]
        got_own = smoothness._solution_jets(mine, block, order, own_z=True)[0]
        for i, s in enumerate(block):
            alone = glue.GluedEvaluator(glued.family, glued.cover, glued.points, own[i])
            assert same_bits(got[:, :, i:i + 1],
                             smoothness._solution_jets(shared, block[i:i + 1], order)[0])
            assert same_bits(got_own[:, :, i:i + 1],
                             smoothness._solution_jets(alone, block[i:i + 1], order)[0])


@pytest.mark.parametrize("case", ["steep", "three-component", "zero-component"])
def test_solution_jets_match_the_per_component_reference(rng, case):
    # one table for every component gives the bits of one Taylor shift and
    # one jet product per component, up to the sign of zero, at every order
    # and for shared or own z values (one per point: one-column products)
    family = {"steep": steep_family, "three-component": three_component_family,
              "zero-component": lambda: with_zero_component(steep_family())}[case]()
    cover = build_cover(family.box, 0.2)
    points = glue.solve_at_samples(family, cover)
    lows, highs = np.array(family.box).T
    block = rng.uniform(lows, highs, (5, family.dim))
    own = 0.8 * np.exp(2j * np.pi * rng.uniform(0, 1, len(block)))
    for order in (0, 1, 2):
        for z, own_z in ((hnorm.boundary_points(16), False), (own, True)):
            evaluator = glue.GluedEvaluator(family, cover, points, z)
            got = smoothness._solution_jets(evaluator, block, order, own_z)
            want = component_reference.solution_jets(evaluator, block, order, own_z)
            for a, b in zip(got, want):
                assert a.shape[1] == family.size == len(b)
                assert same_bits(a + 0.0, np.stack(b, axis=1) + 0.0)


def test_derivative_checks_raise_or_return_a_tripped_phi_guard(steep_solution):
    # center 1's solution scaled by 0.1 leaves |phi| < 1/2 where its bump
    # carries the weight: fd_check and g_partial raise the guard, the Taylor
    # test returns the first point's, and the C^k report, whose norms stay
    # finite, carries the first grid point's
    glued = _with_point_solution(steep_solution, 1, lambda gm: CPoly(0.1 * gm.coeffs))
    center = glued.cover.centers[1]
    with pytest.raises(InternalInconsistency) as info:
        smoothness.fd_check(glued, 0.3, center, (2,), 1e-3)
    with pytest.raises(InternalInconsistency) as partial:
        smoothness.g_partial(glued, 0.3, center, (1,))
    _, breach = smoothness.taylor_orders(glued, [center], [0.3], [[1.0]], 2, 1e-3)
    for witness in (info.value.witness, partial.value.witness, breach.witness):
        phi, _ = glue.phi_eval(glued.family, glued.cover, glued.points,
                               complex(*witness["z"]), witness["s"])
        assert abs(phi) < 0.5 and abs(witness["s"][0] - center[0]) <= 1.5e-3
    assert str(breach).startswith("|phi| = ")
    rep = smoothness.cnorm_report(glued, 2, axis_samples=20)
    assert all(math.isfinite(row["g"]) for row in rep.per_order)
    witness = rep.breach.witness
    phi, _ = glue.phi_eval(glued.family, glued.cover, glued.points,
                           complex(*witness["z"]), witness["s"])
    assert abs(phi) < 0.5
    _, none = smoothness.taylor_orders(steep_solution, [center], [0.3], [[1.0]], 2, 1e-3)
    assert none is None
    assert smoothness.cnorm_report(steep_solution, 2, axis_samples=20).breach is None


def _per_point_maxima(glued, order, axis_samples, boundary_samples=256):
    """Reference: the C^k report's g and f maxima, one grid point at a time."""
    family = glued.family
    z = hnorm.boundary_points(boundary_samples)
    evaluator = glue.GluedEvaluator(family, glued.cover, glued.points, z)
    best = np.zeros((2, len(jets.multi_indices(family.dim, order))))
    for s in itertools.product(*[np.linspace(a, b, axis_samples) for a, b in family.box]):
        for half, jet in enumerate(smoothness._solution_jets(evaluator, [s], order)[:2]):
            sq = functools.reduce(np.add, [np.abs(jets.jet_derivatives(c, family.dim, order))
                                           ** 2 for c in np.moveaxis(jet, 1, 0)])
            best[half] = np.maximum(best[half], np.sqrt(sq[:, 0].max(axis=1)))
    return best


@pytest.mark.parametrize("which, axis_samples",
                         [("steep", 17), ("two_param", 6), ("curved", 6)])
def test_cnorm_report_equals_per_point_reference_bit_for_bit(request, which, axis_samples):
    glued = request.getfixturevalue(f"{which}_solution")
    for order in (0, 2):
        rep = smoothness.cnorm_report(glued, order, axis_samples=axis_samples)
        got = np.array([[g for _, g, _ in rep.per_index], [f for _, _, f in rep.per_index]])
        assert same_bits(got, _per_point_maxima(glued, order, axis_samples))


@pytest.mark.parametrize("which", ["steep", "two_param", "curved"])
def test_cnorm_report_rows_equal_the_lower_orders_bit_for_bit(request, which):
    # a coefficient has the same bits at every truncation order, in the data
    # jets as in the solution jets, so one order-6 pass holds every lower report
    glued = request.getfixturevalue(f"{which}_solution")
    top = smoothness.cnorm_report(glued, 6, axis_samples=7, boundary_samples=64)
    rows = top.per_order
    assert [row["order"] for row in rows] == list(range(7))
    for order in range(6):
        want = smoothness.cnorm_report(glued, order, axis_samples=7, boundary_samples=64)
        got = [e for e in top.per_index if sum(e[0]) <= order]
        assert [ix for ix, _, _ in got] == [ix for ix, _, _ in want.per_index]
        for half in (1, 2):
            assert same_bits(np.array([e[half] for e in got]),
                             np.array([e[half] for e in want.per_index]))
        for key in ("g", "f", "ratio"):
            assert same_bits(rows[order][key], want.per_order[-1][key])
        assert rows[:order + 1] == want.per_order


def _formal_f_maxima(family, order, axis_samples, boundary_samples):
    """Reference: per multi-index, the sampled l2 maximum of the formally
    differentiated data on the report's grid."""
    z = hnorm.boundary_points(boundary_samples)
    return np.array([hnorm.sampled_extreme(partial_s(family, ix).poly, z,
                                           family.box, axis_samples)[0]
                     for ix in jets.multi_indices(family.dim, order)])


def _random_curved_family(rng, dim):
    """(z, p(s) - z) / 3 with p of degree 2 to 5 in each parameter, constant
    term 2 and every other coefficient in [-0.2, 0.2]."""
    table = rng.uniform(-0.2, 0.2, tuple(rng.integers(3, 7, dim)))
    table.flat[0] = 2.0
    f1 = ZSPoly([[SPoly(np.zeros((1,) * dim)), SPoly(np.full((1,) * dim, 1.0 / 3.0))]])
    f2 = ZSPoly([[SPoly(table / 3.0), SPoly(np.full((1,) * dim, -1.0 / 3.0))]])
    return ParamFamily(stack(f1, f2), [(0.0, 1.0)] * dim)


@pytest.mark.parametrize("dim, seed", [(2, None), (1, 0), (1, 3), (2, 2), (2, 3)])
def test_cnorm_report_f_maxima_match_the_formal_derivatives(curved_solution, dim, seed):
    # the data's jets and its formal derivatives differ only by rounding;
    # each random family has some maxima that differ in the last bits
    glued = curved_solution if seed is None else \
        glue.solve(_random_curved_family(np.random.default_rng(seed), dim))[0]
    rep = smoothness.cnorm_report(glued, 4, axis_samples=7, boundary_samples=64)
    got = np.array([f for _, _, f in rep.per_index])
    want = _formal_f_maxima(glued.family, 4, 7, 64)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_cnorm_report_nan_sticks(steep_solution):
    # one infinite point-solution coefficient makes g NaN where that
    # center's bump is live; the report must not drop those samples, and a
    # NaN phi trips the |phi| guard
    glued = _with_point_solution(steep_solution, 0, lambda gm: CPoly(
        np.where(np.arange(gm.coeffs.size) == 0, math.inf, gm.coeffs)))
    with np.errstate(all="ignore"):
        with pytest.raises(InternalInconsistency, match=r"^\|phi\| = nan < 1/2"):
            smoothness.g_partial(glued, 0.0, [0.0], (1,))
        rep = smoothness.cnorm_report(glued, 2, axis_samples=9)
    assert all(math.isnan(row["g"]) and math.isnan(row["ratio"]) for row in rep.per_order)
    assert any(math.isnan(g) for _, g, _ in rep.per_index)
    assert str(rep.breach).startswith("|phi| = nan < 1/2")


def _four_center_2d_solution():
    """((z + 2 + 2.4 s1) / 6, (2 - z + 2.4 s2) / 6) on [0, 1]^2, glued on
    four centers."""
    sixth = 1.0 / 6.0
    f1 = ZSPoly([[SPoly([[2 * sixth], [0.4]]), SPoly([[sixth]])]])
    f2 = ZSPoly([[SPoly([[2 * sixth, 0.4]]), SPoly([[-sixth]])]])
    cover = PartitionOfUnity(((0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)),
                             0.41666666666666674)
    return glued_on(ParamFamily(stack(f1, f2), [(0.0, 1.0), (0.0, 1.0)]), cover)


@pytest.mark.parametrize("which", ["steep", "four-center-2d"])
def test_the_sampled_sups_lie_on_the_circle(request, which):
    # |1 - phi|, ||gtilde|| and ||g|| = ||gtilde|| / |phi| with |phi| >= 1/2
    # are subharmonic in z, so verify samples them on |z| = 1 alone: no
    # inner ring exceeds the circle at any parameter point
    glued = (request.getfixturevalue("steep_solution") if which == "steep"
             else _four_center_2d_solution())
    axes = hnorm.box_axes(glued.family.box, 9)

    def maxima(z):
        evaluator = glue.GluedEvaluator(glued.family, glued.cover, glued.points, z)
        return np.concatenate([
            np.stack([np.abs(1.0 - block.phi).max(1), hnorm.l2(block.gtilde, 1).max(1),
                      hnorm.l2(block.g(), 1).max(1)])
            for block in evaluator.sweep(axes)], axis=1)

    circle = maxima(hnorm.boundary_points(4096))
    for r in (0.0, 0.5, 0.9):
        assert (maxima(r * hnorm.boundary_points(256)) <= circle * (1.0 + 1e-12)).all(), r


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SOLVING = sorted(p.name for p in CONFIGS.glob("*.json")
                 if not p.name.startswith(("negative_", "corrupted_")))


@pytest.mark.parametrize("which", [*SOLVING, "steep", "four-center-2d"])
def test_g_partial_at_order_zero_is_g_eval_bit_for_bit(request, which):
    # one quotient gtilde / phi: the order-0 entry of g's jet, the plain
    # evaluator and the C^k report's ||g|| all read it
    if which == "steep":
        glued = request.getfixturevalue("steep_solution")
    elif which == "four-center-2d":
        glued = _four_center_2d_solution()
    else:
        config = load_config(CONFIGS / which)
        glued, _ = glue.solve(config.to_family(), config.solver)
    rng = np.random.default_rng(33)
    lows, highs = np.array(glued.family.box).T
    z = np.concatenate([hnorm.boundary_points(64), 0.9 * hnorm.disc_points(4, 8)])
    for s in [lows, highs, *rng.uniform(lows, highs, (20, glued.family.dim))]:
        assert same_bits(smoothness.g_partial(glued, z, s, (0,) * glued.family.dim),
                         glue.g_eval(glued, z, s)), s
    rep = smoothness.cnorm_report(glued, 2, axis_samples=9, boundary_samples=64)
    assert same_bits(np.float64(rep.per_order[0]["g"]), np.float64(rep.g_norm.value))
