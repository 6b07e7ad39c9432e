import math

import numpy as np
import pytest

from conftest import random_cpoly
from coronaglue import bezout_point as bz
from coronaglue.errors import CoronaViolation, PointSolveFailure
from coronaglue.polyalg import CPoly


def _identity_residual(f, g):
    lhs = sum((fk * gk for fk, gk in zip(f, g)), CPoly([-1.0]))
    return np.abs(lhs.coeffs).sum()


def _within_ulps(poly, expected, ulps=4):
    expected = np.asarray(expected, dtype=complex)
    return (len(poly.coeffs) == len(expected) and bool(np.all(
        np.abs(poly.coeffs - expected) <= ulps * np.spacing(np.abs(expected)))))


def test_sylvester_worked_example():
    sol = bz.gcd_chain_bezout([CPoly([0, 1]), CPoly([1, -0.5])])
    assert _within_ulps(sol.g[0], [0.5])
    assert _within_ulps(sol.g[1], [1.0])


def test_sylvester_constant_components():
    # (c,), (c1, c2) and (c, f2) are exact at their Sylvester degrees: 0 for
    # every cofactor but c's, which gets deg f2 - 1
    q = CPoly([3.0, -2.0, 1.0])
    for f in ([CPoly([2.0 - 1.0j])], [CPoly([2.0]), CPoly([1.0j])],
              [CPoly([1.0]), q], [CPoly([0.5j]), q]):
        sol = bz.gcd_chain_bezout(f)
        assert sol.residual_cert.hi <= bz.EXACT_RESIDUAL
        assert _identity_residual(f, sol.g) <= 1e-14
        total = sum(p.degree for p in f)
        assert all(g.degree <= max(total - p.degree - 1, 0) for p, g in zip(f, sol.g))


def test_sylvester_random_coprime_pairs(rng):
    checked = 0
    while checked < 200:
        p = random_cpoly(rng, 8)
        q = random_cpoly(rng, 8)
        if p.is_zero or q.is_zero:
            continue
        sol = bz.gcd_chain_bezout([p, q])
        checked += 1
        a, b = sol.g
        resid = _identity_residual((p, q), (a, b))
        assert resid <= 1e-10 * (1.0 + np.abs(p.coeffs).sum() + np.abs(q.coeffs).sum())
        if p.degree >= 1 and q.degree >= 1:
            assert a.degree <= q.degree - 1
            assert b.degree <= p.degree - 1


def test_sylvester_three_components():
    # every pair shares a root, the triple does not: gcd 1 only overall
    f = [CPoly(np.convolve([0, 1], [-0.5, 1])), CPoly(np.convolve([-0.5, 1], [0.4, 1])),
         CPoly(np.convolve([0, 1], [0.4, 1]))]
    sol = bz.gcd_chain_bezout(f)
    assert sol.residual_cert.hi <= bz.EXACT_RESIDUAL
    assert _identity_residual(f, sol.g) <= 1e-12
    assert all(g.degree <= 3 for g in sol.g)


def test_gcd_chain_worked_example():
    sol = bz.gcd_chain_bezout([CPoly([0, 1]), CPoly([2, -1])])
    assert _within_ulps(sol.g[0], [0.5])
    assert _within_ulps(sol.g[1], [0.5])
    assert sol.residual_cert.lo <= sol.residual_cert.hi <= 1e-12


def test_gcd_chain_identity_case():
    sol = bz.gcd_chain_bezout([CPoly([1.0])])
    assert sol.g[0] == CPoly([1.0])


def test_gcd_chain_corona_violation():
    with pytest.raises(CoronaViolation) as err:
        bz.gcd_chain_bezout([CPoly([0, 1]), CPoly([0, 0, 1])])
    assert abs(err.value.witness) <= 1e-9
    # a double root of the lowest-degree component is found to ~1e-8
    w = CPoly([-0.5, 1.0])
    with pytest.raises(CoronaViolation) as err:
        bz.gcd_chain_bezout([w * w, w * CPoly([0.3, 1.0])])
    assert abs(err.value.witness - 0.5) <= 1e-6


def test_gcd_chain_rational_route():
    # common zero-free factor (z - 2): no exact polynomial solution, and the
    # failure carries the residual certificate for the ladder to improve on
    w = CPoly([-2.0, 1.0])
    f = [CPoly([0, 1]) * w, CPoly([1, -0.5]) * w]
    with pytest.raises(PointSolveFailure) as err:
        bz.gcd_chain_bezout(f)
    assert err.value.certificate.hi > bz.EXACT_RESIDUAL


def test_least_norm_examples():
    sol = bz.least_norm_bezout([CPoly([1.0])], 0)
    assert sol.g[0] == CPoly([1.0])
    assert sol.residual_cert.hi <= 1e-14

    sol = bz.least_norm_bezout([CPoly([0, 1]), CPoly([2, -1])], 0)
    np.testing.assert_allclose(sol.g[0].coeffs, [0.5], atol=1e-12)
    np.testing.assert_allclose(sol.g[1].coeffs, [0.5], atol=1e-12)

    sol = bz.least_norm_bezout([CPoly([0, 1]), CPoly([2.5, -1])], 0)
    np.testing.assert_allclose(sol.g[0].coeffs, [0.4], atol=1e-12)
    np.testing.assert_allclose(sol.g[1].coeffs, [0.4], atol=1e-12)


def test_least_norm_optimality(rng):
    # minimum-norm solutions are orthogonal to the constraint null space
    for _ in range(10):
        f = [random_cpoly(rng, 2), random_cpoly(rng, 2), random_cpoly(rng, 1)]
        degree = 3
        cols = degree + 1
        n_eq = max(p.degree for p in f) + degree + 1
        a_mat = np.zeros((n_eq, cols * len(f)), dtype=complex)
        for k, p in enumerate(f):
            for i in range(cols):
                a_mat[i : i + len(p.coeffs), k * cols + i] = p.coeffs
        sol = bz.least_norm_bezout(f, degree)
        x = np.concatenate([
            np.pad(g.coeffs, (0, cols - len(g.coeffs))) for g in sol.g
        ])
        _, _, vh = np.linalg.svd(a_mat)
        null = vh[np.linalg.matrix_rank(a_mat):].conj().T
        if null.size:
            proj = null.conj().T @ x
            assert np.abs(proj).max() <= 1e-8 * (1 + np.linalg.norm(x))
        for _ in range(5):
            delta = null @ (rng.standard_normal(null.shape[1])
                            + 1j * rng.standard_normal(null.shape[1])) \
                if null.size else 0.0
            assert np.linalg.norm(x + delta) >= np.linalg.norm(x) - 1e-9


def test_least_norm_residual_monotone_in_degree():
    # common root outside the disc: residual decays with degree, never to 0
    w = CPoly([-2.0, 1.0])
    f = [CPoly([0, 1]) * w, CPoly([1, -0.5]) * w]
    highs = [bz.least_norm_bezout(f, d).residual_cert.hi for d in (1, 2, 4, 8, 16)]
    for a, b in zip(highs, highs[1:]):
        assert b <= a + 1e-12
    assert highs[-1] > 0.0


def test_certify_examples():
    f = (CPoly([0, 1]), CPoly([2, -1]))
    g = (CPoly([0.5]), CPoly([0.5]))
    norm_cert, residual_cert = bz.certify(f, g)
    assert residual_cert.lo == residual_cert.hi == 0.0
    assert norm_cert.lo == norm_cert.hi == pytest.approx(math.sqrt(0.5))

    _, r0 = bz.certify(f, (CPoly.zero(), CPoly.zero()))
    assert r0.lo == r0.hi == pytest.approx(1.0)

    n1, r1 = bz.certify((CPoly([1.0]),), (CPoly([1.0]),))
    assert r1.hi == 0.0
    assert n1.lo == pytest.approx(1.0)


def test_solve_point_prefers_chain_then_falls_back():
    exact = bz.solve_point((CPoly([0, 1]), CPoly([2, -1])))
    assert exact.residual_cert.hi <= bz.EXACT_RESIDUAL

    w = CPoly([-2.0, 1.0])
    rational = bz.solve_point((CPoly([0, 1]) * w, CPoly([1, -0.5]) * w))
    assert rational.residual_cert.hi <= bz.RESIDUAL_ACCEPT
    assert rational.residual_cert.hi > bz.EXACT_RESIDUAL

    with pytest.raises(CoronaViolation):
        bz.solve_point((CPoly([0, 1]), CPoly([0, 0, 1])))


def test_solve_point_failure_when_cap_too_small():
    # root at 1.02: geometric decay is slow, a tiny cap cannot reach 1/4
    w = CPoly([-1.02, 1.0])
    f = (CPoly([0, 1]) * w, CPoly([1, -0.5]) * w)
    with pytest.raises(PointSolveFailure):
        bz.solve_point(f, degree_cap_factor=1)
