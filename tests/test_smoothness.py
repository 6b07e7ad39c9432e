import math

import numpy as np
import pytest

from conftest import worked_family
from coronaglue import glue, hnorm, jets, smoothness
from coronaglue.cover_pou import lipschitz_s_bound
from coronaglue.polyalg import ParamFamily, SPoly, ZSPoly


def bezout_identity_jet(glued, z, s, order):
    """Jet of g^T f at (z, s): equals (1, 0, 0, ...) up to rounding because
    the identity holds exactly along the whole jet."""
    z_arr = np.asarray(z, dtype=complex)
    evaluator = glue.GluedEvaluator(glued.family, glued.pou, glued.points, z_arr)
    comps = smoothness._solution_jets(evaluator, s, order, z_arr.shape)
    point = tuple(np.atleast_1d(np.asarray(s, dtype=float)))
    dim = glued.family.dim
    return sum(jets.jet_mul(cj, comp.taylor_coeffs(point, order, z_arr), dim, order)
               for cj, comp in zip(comps, glued.family.components))


def test_order_zero_matches_evaluator(worked_solution):
    glued = worked_solution
    z = np.array([0.2 + 0.1j, -0.7j, 0.99])
    for s in (0.1, 0.5, 0.9):
        d0 = smoothness.g_partial(glued, z, [s], (0,))
        direct = glue.g_eval(glued, z, [s])
        np.testing.assert_allclose(d0, direct, rtol=1e-14)


def test_s_independent_family_has_zero_derivatives():
    family = ParamFamily(
        [ZSPoly([SPoly([0.0]), SPoly([1.0])]), ZSPoly([SPoly([2.0]), SPoly([-1.0])])],
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
        [ZSPoly([SPoly([0.0]), SPoly([1.0])]), ZSPoly([SPoly([2.0]), SPoly([-1.0])])],
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


def test_identity_jet_is_unit(steep_solution):
    glued = steep_solution
    jet = bezout_identity_jet(glued, 0.4 - 0.35j, [0.37], 3)
    assert abs(jet[0] - 1.0) <= 1e-10
    assert np.abs(jet[1:]).max() <= 1e-10


def test_cnorm_report_order_zero_bound(worked_solution):
    glued = worked_solution
    rep = smoothness.cnorm_report(glued, 0)
    assert rep.g_norm_estimate <= 2.0 * glued.c0 * (1.0 + 1e-9)
    assert rep.ratio > 0.0


def test_cnorm_report_s_independent():
    family = ParamFamily(
        [ZSPoly([SPoly([0.0]), SPoly([1.0])]), ZSPoly([SPoly([2.0]), SPoly([-1.0])])],
        [(0.0, 1.0)],
    )
    glued, _ = glue.solve(family)
    zero = smoothness.cnorm_report(glued, 0)
    one = smoothness.cnorm_report(glued, 1)
    assert one.g_norm_estimate == pytest.approx(zero.g_norm_estimate, rel=1e-12)


def test_cnorm_report_stable_under_refinement(steep_solution):
    glued = steep_solution
    a = smoothness.cnorm_report(glued, 1, axis_samples=33)
    b = smoothness.cnorm_report(glued, 1, axis_samples=65)
    assert abs(a.ratio - b.ratio) <= 0.10 * max(a.ratio, b.ratio)
    assert math.isfinite(a.ratio)


def test_cnorm_report_lexicographic_two_param():
    from conftest import two_param_family

    glued, _ = glue.solve(two_param_family())
    rep = smoothness.cnorm_report(glued, 1, axis_samples=9, boundary_samples=64)
    labels = [tuple(entry[0]) for entry in rep.per_index]
    assert labels == sorted(labels)
    assert (0, 0) in labels and (1, 0) in labels and (0, 1) in labels


def test_modulus_samples_respect_bound():
    # measured sup_z ||f(., s) - f(., s')|| against the Lipschitz bound
    # L |s - s'| for random parameter pairs
    family = worked_family()
    bound = lipschitz_s_bound(family)
    assert bound == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    z = hnorm.boundary_points(256)
    worst = 0.0
    for _ in range(100):
        s1 = np.array([rng.uniform(a, b) for a, b in family.box])
        s2 = np.array([rng.uniform(a, b) for a, b in family.box])
        diff = sum(np.abs(c.freeze(s1).eval(z) - c.freeze(s2).eval(z)) ** 2
                   for c in family.components)
        allowed = bound * float(np.linalg.norm(s1 - s2))
        if allowed > 0:
            worst = max(worst, float(np.sqrt(diff.max())) / allowed)
    assert worst <= 1.0 + 1e-9

