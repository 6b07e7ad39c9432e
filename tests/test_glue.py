import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import (bump_values, constant_family, family_values, frozen_values,
                      rational_gcd_family, stack, steep_family, two_param_family,
                      worked_family)
from coronaglue import cli, glue, hnorm
from coronaglue.bezout_point import EXACT_RESIDUAL, PointSolution
from coronaglue.config import SolverSettings
from coronaglue.cover_pou import PartitionOfUnity, build_cover
from coronaglue.errors import (
    CoronaUncertified,
    CoronaViolation,
    InternalInconsistency,
    RefinementExhausted,
)
from coronaglue.glue import PointSolutionSet
from coronaglue.polyalg import CPoly, ParamFamily, SPoly, ZSPoly


def test_solve_at_samples_single_center():
    family = worked_family()
    cover = PartitionOfUnity(((0.5,),), 0.5)
    points = glue.solve_at_samples(family, cover)
    np.testing.assert_allclose(points.solutions[0].g[0].coeffs, [0.4], atol=1e-12)
    np.testing.assert_allclose(points.solutions[0].g[1].coeffs, [0.4], atol=1e-12)
    assert points.c0 == pytest.approx(math.sqrt(2) * 0.4)


def test_solve_at_samples_s_independent_all_identical():
    family = ParamFamily(
        ZSPoly([[SPoly([0.0]), SPoly([1.0])], [SPoly([2.0]), SPoly([-1.0])]]),
        [(0.0, 1.0)],
    )
    cover = build_cover(family.box, 0.2)
    points = glue.solve_at_samples(family, cover)
    first = points.solutions[0]
    for sol in points.solutions[1:]:
        for a, b in zip(first.g, sol.g):
            assert a == b


def test_solve_at_samples_surfaces_corona_violation():
    # (z, z^2 - s) has a common zero at the origin when s = 0
    family = ParamFamily(
        ZSPoly([[SPoly([0.0]), SPoly([1.0])],
                [SPoly([0.0, -1.0]), SPoly([0.0]), SPoly([1.0])]]),
        [(0.0, 1.0)],
    )
    cover = PartitionOfUnity(((0.0,), (1.0,)), 0.6)
    with pytest.raises(CoronaViolation):
        glue.solve_at_samples(family, cover)


def _point_set(cover, family, options=SolverSettings()):
    return glue.solve_at_samples(family, cover, options)


def _reference_phi(family, pou, points, z, s):
    """Reference: the evaluator one point at a time by the formulas, weights
    from the mollifier (``bump_values``), gtilde term by term in cover order,
    f through freeze and CPoly.eval; returns (phi, gtilde)."""
    z = np.asarray(z, dtype=complex)
    bumps = bump_values(pou, s)
    gt = np.zeros((len(points.solutions[0].g),) + z.shape, dtype=complex)
    for w, sol in zip(bumps / bumps.sum(), points.solutions):
        if w == 0.0:
            continue
        for m, gm in enumerate(sol.g):
            gt[m] += w * np.asarray(gm.eval(z))
    return (gt * frozen_values(family, z, [s])[0]).sum(axis=0), gt


def _two_param_points():
    family = two_param_family()
    cover = build_cover(family.box, 0.3)
    assert cover.size > 4
    return family, cover, _point_set(cover, family)


def _steep_points(steep_solution):
    return steep_solution.family, steep_solution.cover, steep_solution.points


def _flat_points():
    glued, _ = glue.solve(ParamFamily(
        ZSPoly([[SPoly([0.0]), SPoly([1.0])], [SPoly([2.0]), SPoly([-1.0])]]),
        [(0.0, 1.0)]))
    assert math.isinf(glued.cover.radius)
    return glued.family, glued.cover, glued.points


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("case", ["steep-1d", "two-param-2d", "infinite-radius"])
def test_evaluator_matches_per_point_reference(steep_solution, monkeypatch, case, split):
    family, pou, points = {
        "steep-1d": lambda: _steep_points(steep_solution),
        "two-param-2d": _two_param_points,
        "infinite-radius": _flat_points,
    }[case]()
    z = (np.linspace(0, 1, 5)[:, None]
         * np.exp(2j * np.pi * np.arange(8) / 8)[None, :]).ravel()[4:]
    z = np.concatenate([[0.0], z])
    if split:  # blocks of three points, so block boundaries split the s-grid
        monkeypatch.setattr(glue, "EVAL_BUDGET", 3 * family.size * z.size)
    axes = [np.linspace(a, b, 7) for a, b in family.box]
    evaluator = glue.GluedEvaluator(family, pou, points, z)
    grid = list(itertools.product(*axes))
    assert evaluator.block_size == (3 if split else glue.EVAL_BUDGET // (2 * z.size))
    seen = 0
    for block in evaluator.sweep(axes):
        assert len(block.s) <= evaluator.block_size
        for i, s in enumerate(block.s):
            assert tuple(s) == grid[seen]
            # a point of a block has the bits it has alone
            alone = glue.GluedEvaluator(family, pou, points, z).at([s])
            for name in ("gtilde", "f", "phi"):
                assert getattr(block, name)[i].tobytes() == getattr(alone, name)[0].tobytes()
            # and the formulas' values to within 1e-14 (values are O(1))
            phi, gt = _reference_phi(family, pou, points, z, s)
            np.testing.assert_allclose(block.phi[i], phi, rtol=0, atol=1e-14)
            np.testing.assert_allclose(block.gtilde[i], gt, rtol=0, atol=1e-14)
            seen += 1
    assert seen == len(grid)


@pytest.mark.parametrize("which", ["steep", "two_param"])
def test_values_are_the_order_0_entries_of_every_jet(rng, steep_solution,
                                                     two_param_solution, which):
    # one evaluator: a value is the order-0 jet, and a jet of any order
    # holds the same bits in its order-0 entry
    glued = steep_solution if which == "steep" else two_param_solution
    evaluator = glue.GluedEvaluator(glued.family, glued.cover, glued.points,
                                    hnorm.boundary_points(32))
    s = rng.uniform(*np.array(glued.family.box).T, (9, glued.family.dim))
    block = evaluator.at(s)
    for order in range(5):
        gtilde, f, phi = evaluator.jets(s, order)
        assert gtilde[0].swapaxes(0, 1).tobytes() == block.gtilde.tobytes()
        assert f[0].swapaxes(0, 1).tobytes() == block.f.tobytes()
        assert phi[0].tobytes() == block.phi.tobytes()


def test_batched_weights_match_per_point_bit_for_bit(rng):
    for box, radius in (([(0.0, 1.0)], 0.05), ([(0.0, 1.0), (-1.0, 2.0)], 0.2),
                        ([(0.0, 1.0)], math.inf)):
        pou = build_cover(box, radius)
        lows, highs = np.array(box).T
        s = rng.uniform(lows, highs, (300, len(box)))
        batched = pou.weights(s)
        for row, total, point in zip(batched, batched.sum(-1), s):
            assert row.tobytes() == pou.weights(point[None])[0].tobytes()
            assert total == pou.weights(point[None])[0].sum()  # verify's pou_sum per row


def test_blocked_uniform_draws_match_scalar_draws():
    # verify draws its PoU sum points in blocks of its own default_rng(0)
    # stream; the stream, and so every later random point, must match
    # numpy's one-at-a-time draws
    box = [(0.0, 1.0), (-0.5, 2.5)]
    one, blocked = np.random.default_rng(0), cli._Stream()
    scalar = np.array([[one.uniform(a, b) for a, b in box] for _ in range(1000)])
    lows, highs = np.array(box).T
    drawn = np.concatenate(list(cli._uniform_blocks(blocked, lows, highs, 1000, 300)))
    assert drawn.tobytes() == scalar.tobytes()
    assert one.uniform(0, 1) == blocked.random(1)[0]


def test_gtilde_convexity_and_locality(steep_solution):
    glued = steep_solution
    rng = np.random.default_rng(3)
    z = np.exp(2j * np.pi * rng.uniform(0, 1, 64))
    for s in rng.uniform(0, 1, 50):
        _, gt = glue.phi_eval(glued.family, glued.cover, glued.points, z, [s])
        norms = np.sqrt((np.abs(gt) ** 2).sum(axis=0))
        assert norms.max() <= glued.c0 + 1e-9

    # a point covered by a single bump reproduces that center's solution up
    # to the scalar division
    w = glued.cover.weights([[0.02]])[0]
    assert np.count_nonzero(w) == 1
    k = int(np.argmax(w))
    _, gt = glue.phi_eval(glued.family, glued.cover, glued.points, 0.37 + 0.21j, [0.02])
    direct = np.array([g.eval(0.37 + 0.21j) for g in glued.points.solutions[k].g])
    np.testing.assert_allclose(gt, direct, rtol=1e-12)


def test_gtilde_mean_of_two_centers():
    family = worked_family()
    cover = PartitionOfUnity(((0.4,), (0.6,)), 0.3)
    points = _point_set(cover, family)
    w = cover.weights([[0.5]])[0]
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-14)
    _, gt = glue.phi_eval(family, cover, points, 0.2, [0.5])
    mean = 0.5 * (np.array([g.eval(0.2) for g in points.solutions[0].g])
                  + np.array([g.eval(0.2) for g in points.solutions[1].g]))
    np.testing.assert_allclose(gt, mean, rtol=1e-14)


def test_residual_certify_brackets_brute_force(steep_solution):
    glued = steep_solution
    cert = glued.residual_cert
    assert cert.hi <= glue.RESIDUAL_GATE
    # brute-force oracle on grids refining the certificate's own sample sets
    # (alignment keeps the dense maximum at or above the certified lo)
    z = np.exp(2j * np.pi * np.arange(1024) / 1024)
    worst = 0.0
    for s in np.linspace(0.0, 1.0, 961):
        phi, _ = glue.phi_eval(glued.family, glued.cover, glued.points, z, [s])
        worst = max(worst, float(np.abs(1 - phi).max()))
    assert cert.lo - 1e-12 <= worst <= cert.hi + 1e-12


def test_residual_certify_corrupted_center_fails():
    family = worked_family(1.0 / 3.0)
    cover = build_cover(family.box, 0.35)
    points = _point_set(cover, family)
    good = glue.residual_certify(family, cover, points)
    assert good.hi <= glue.RESIDUAL_GATE

    zeroed = list(points.solutions)
    zeroed[0] = PointSolution(
        (CPoly.zero(), CPoly.zero()),
        zeroed[0].norm_cert,
        zeroed[0].residual_cert,
    )
    broken = PointSolutionSet(tuple(zeroed))
    bad = glue.residual_certify(family, cover, broken)
    assert bad.hi > glue.RESIDUAL_GATE
    assert bad.lo > glue.RESIDUAL_GATE  # witnessed by direct sampling


def test_g_eval_forced_component():
    family = worked_family()
    glued, _ = glue.solve(family)
    # f(0, s) = (0, 2+s): the identity forces g_2(0, s) = 1/(2+s)
    for s in (0.0, 0.4, 1.0):
        g = glue.g_eval(glued, 0.0, [s])
        assert g[1] == pytest.approx(1.0 / (2.0 + s), rel=1e-13)


def test_g_eval_identity_grid(worked_solution):
    glued = worked_solution
    family = glued.family
    radii = np.linspace(0, 1, 20)
    angles = np.exp(2j * np.pi * np.arange(20) / 20)
    z = (radii[:, None] * angles[None, :]).ravel()
    worst = 0.0
    sup_norm = 0.0
    for s in np.linspace(0, 1, 20):
        g = glue.g_eval(glued, z, [s])
        f = family_values(family, z, [s])[0]
        worst = max(worst, float(np.abs((g * f).sum(axis=0) - 1.0).max()))
        sup_norm = max(sup_norm, float(np.sqrt((np.abs(g) ** 2).sum(axis=0)).max()))
    assert worst <= 1e-12
    assert sup_norm <= 2.0 * glued.c0 * (1.0 + 1e-9)


def test_g_eval_guards_small_phi(worked_solution):
    # a tampered solution drives phi to 0; the evaluator must refuse to
    # divide and report the witness instead of returning garbage
    glued = worked_solution
    zeroed = tuple(
        PointSolution((CPoly.zero(),) * len(sol.g), sol.norm_cert,
                      sol.residual_cert)
        for sol in glued.points.solutions
    )
    broken = glue.GluedSolution(
        glued.family,
        glued.cover,
        PointSolutionSet(zeroed),
        glued.delta_cert,
        glued.sup_cert,
        glued.residual_cert,
        glued.refinements,
    )
    with pytest.raises(InternalInconsistency):
        glue.g_eval(broken, 0.2 + 0.1j, [0.5])
    # NaN is no certified modulus either
    nan = tuple(
        PointSolution((CPoly([math.nan]),) * len(sol.g), sol.norm_cert,
                      sol.residual_cert)
        for sol in glued.points.solutions
    )
    with pytest.raises(InternalInconsistency):
        glue.g_eval(dataclasses.replace(broken, points=PointSolutionSet(nan)),
                    0.2 + 0.1j, [0.5])


def test_solve_constant_family():
    glued, _ = glue.solve(constant_family())
    assert glued.cover.size == 1
    g = glue.g_eval(glued, 0.3 + 0.3j, [0.8])
    np.testing.assert_allclose(g, [1.0])
    assert glued.residual_cert.hi <= 1e-12


def test_solve_worked_family_certificates(worked_solution):
    glued = worked_solution
    assert glued.delta_cert.lo > 0.4
    assert glued.residual_cert.hi <= 0.5
    assert glued.cover.size >= 1
    assert all(sol.residual_cert.hi <= EXACT_RESIDUAL for sol in glued.points.solutions)


def test_solve_corona_violating_family():
    f1 = ZSPoly([[SPoly([0.0]), SPoly([1.0])]])
    f2 = ZSPoly([[SPoly([0.0, -0.25]), SPoly([1.0])]])
    family = ParamFamily(stack(f1, f2), [(0.0, 1.0)])
    with pytest.raises(CoronaUncertified) as err:
        glue.solve(family)
    assert err.value.certificate.lo <= 0.0


def test_solve_two_parameter_family():
    glued, _ = glue.solve(two_param_family())
    z = 0.5 * np.exp(2j * np.pi * np.arange(16) / 16)
    for s in ([0.0, 0.0], [1.0, 0.0], [0.7, 0.9]):
        g = glue.g_eval(glued, z, s)
        f = family_values(glued.family, z, s)[0]
        assert float(np.abs((g * f).sum(axis=0) - 1.0).max()) <= 1e-12


def test_solve_deterministic():
    a, _ = glue.solve(steep_family())
    b, _ = glue.solve(steep_family())
    assert a.cover.centers == b.cover.centers
    for sa, sb in zip(a.points.solutions, b.points.solutions):
        for ga, gb in zip(sa.g, sb.g):
            assert ga == gb
    assert a.residual_cert == b.residual_cert


def test_point_solution_set_enforces_budget():
    family = worked_family()
    cover = PartitionOfUnity(((0.5,),), 0.5)
    points = glue.solve_at_samples(family, cover)
    bad = PointSolution(
        points.solutions[0].g,
        points.solutions[0].norm_cert,
        hnorm.NormCert(0.3, 0.3, "H-infinity norm", 8),
    )
    with pytest.raises(ValueError):
        PointSolutionSet((bad,))


class _Clock:
    """A stand-in for the time module whose perf_counter moves only when a
    stage wrapped by :meth:`ticking` runs, by that stage's fixed cost."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def ticking(self, fn, seconds):
        def wrapped(*args, **kwargs):
            self.now += seconds
            return fn(*args, **kwargs)
        return wrapped


def _clocked_solve(monkeypatch, family, certify=glue.residual_certify, **options):
    """glue.solve with each center-solve pass costing 1 s and each residual
    certificate 100 s on a fake clock."""
    clock = _Clock()
    monkeypatch.setattr(glue, "time", clock)
    monkeypatch.setattr(glue, "solve_at_samples", clock.ticking(glue.solve_at_samples, 1.0))
    monkeypatch.setattr(glue, "residual_certify", clock.ticking(certify, 100.0))
    return glue.solve(family, dataclasses.replace(SolverSettings(), **options))


def test_solve_timings_of_a_one_round_rational_gcd_solve(monkeypatch):
    # the residual certificate alone picks the cover: rational-gcd passes on
    # its first one, 2 centers
    glued, timings = _clocked_solve(monkeypatch, rational_gcd_family())
    (only,) = glued.rounds
    assert only.outcome == "passed" and glued.refinements == 0
    assert (only.radius, only.centers, only.c0) == (glued.cover.radius, 2, glued.c0)
    assert only.residual_cert == glued.residual_cert
    assert timings == {"corona_check": 0.0, "sup_norm": 0.0, "pilot_solves": 0.0,
                       "point_solves": 1.0, "residual_certify": 100.0}


def test_solve_timings_sum_over_a_residual_gate_failure(monkeypatch):
    forced = hnorm.NormCert(0.25, 0.75, "glued residual sup", 1)
    calls, real = [], glue.residual_certify

    def certify(*args, **kwargs):
        calls.append(None)
        return forced if len(calls) == 1 else real(*args, **kwargs)

    glued, timings = _clocked_solve(monkeypatch, steep_family(), certify)
    outcomes = [r.outcome for r in glued.rounds]
    assert outcomes[-2:] == ["residual_gate", "passed"]
    assert glued.rounds[-2].residual_cert is forced
    assert glued.rounds[-1].radius == glued.rounds[-2].radius / 2.0
    assert timings["point_solves"] == float(len(outcomes))
    assert timings["residual_certify"] == 200.0


def test_refinement_exhausted_carries_the_rounds(monkeypatch):
    forced = hnorm.NormCert(0.25, 0.75, "glued residual sup", 1)
    with pytest.raises(RefinementExhausted) as err:
        _clocked_solve(monkeypatch, rational_gcd_family(), lambda *a, **k: forced,
                       max_refinements=1)
    assert err.value.certificate is forced
    first, last = err.value.rounds
    assert (first.outcome, last.outcome) == ("residual_gate", "residual_gate")
    assert last.radius == first.radius / 2.0
    assert first.residual_cert is last.residual_cert is forced


def test_an_unbounded_cover_stops_after_one_round_and_says_so(monkeypatch):
    # data constant in s has one center of infinite radius, which halving
    # cannot refine: a failed gate ends the solve after its first round
    forced = hnorm.NormCert(0.25, 0.75, "glued residual sup", 1)
    monkeypatch.setattr(glue, "residual_certify", lambda *a, **k: forced)
    with pytest.raises(RefinementExhausted) as err:
        glue.solve(constant_family(), SolverSettings(max_refinements=6))
    (only,) = err.value.rounds
    assert math.isinf(only.radius) and only.outcome == "residual_gate"
    assert str(err.value).startswith("no passing cover after 1 round(s) ")
