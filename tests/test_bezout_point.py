import math

import numpy as np
import pytest

from conftest import random_cpoly
from coronaglue import bezout_point as bz
from coronaglue.errors import (
    CoronaViolation,
    IllConditionedGcd,
    PointSolveFailure,
    RationalGcd,
)
from coronaglue.polyalg import CPoly


def _identity_residual(p, q, gcd, a, b):
    lhs = a * p + b * q - gcd
    return np.abs(lhs.coeffs).sum()


def test_xgcd_worked_example_exact():
    gcd, a, b = bz.xgcd(CPoly([0, 1]), CPoly([1, -0.5]))
    assert gcd == CPoly([1.0])
    assert a == CPoly([0.5])
    assert b == CPoly([1.0])


def test_xgcd_common_factor():
    gcd, a, b = bz.xgcd(CPoly([0, 0, 1]), CPoly([0, 1]))
    assert gcd == CPoly([0, 1])
    assert a == CPoly.zero()
    assert b == CPoly([1.0])


def test_xgcd_unit_input():
    q = CPoly([3.0, -2.0, 1.0])
    gcd, a, b = bz.xgcd(CPoly([1.0]), q)
    assert gcd == CPoly([1.0])
    assert a == CPoly([1.0])
    assert b == CPoly.zero()


def test_xgcd_random_coprime_pairs(rng):
    checked = 0
    while checked < 200:
        p = random_cpoly(rng, 8)
        q = random_cpoly(rng, 8)
        if p.is_zero or q.is_zero:
            continue
        try:
            gcd, a, b = bz.xgcd(p, q)
        except IllConditionedGcd:
            continue  # nearly degenerate pair: correctly routed to least-norm
        checked += 1
        resid = _identity_residual(p, q, gcd, a, b)
        assert resid <= 1e-10 * (1.0 + np.abs(p.coeffs).sum() + np.abs(q.coeffs).sum())
        if p.degree >= 1 and q.degree >= 1 and gcd.degree == 0:
            assert a.degree <= q.degree - 1
            assert b.degree <= p.degree - 1


def test_xgcd_gray_zone_detected():
    # nearly common roots land the last remainder between the zero and gray
    # thresholds, which must be flagged instead of silently divided through
    eps = 3e-9
    p = CPoly(np.convolve([-0.5, 1.0], [-0.3, 1.0]))
    q = CPoly(np.convolve([-0.5 - eps, 1.0], [0.7, 1.0]))
    with pytest.raises(IllConditionedGcd):
        bz.xgcd(p, q)


def test_gcd_chain_worked_example():
    sol = bz.gcd_chain_bezout([CPoly([0, 1]), CPoly([2, -1])])
    assert sol.g[0] == CPoly([0.5])
    assert sol.g[1] == CPoly([0.5])
    assert sol.residual_cert.lo == 0.0
    assert sol.residual_cert.hi <= 1e-12


def test_gcd_chain_identity_case():
    sol = bz.gcd_chain_bezout([CPoly([1.0])])
    assert sol.g[0] == CPoly([1.0])


def test_gcd_chain_corona_violation():
    with pytest.raises(CoronaViolation) as err:
        bz.gcd_chain_bezout([CPoly([0, 1]), CPoly([0, 0, 1])])
    assert abs(err.value.witness) <= 1e-9


def test_gcd_chain_rational_route():
    # common zero-free factor (z - 2): chain stops with a certificate
    w = CPoly([-2.0, 1.0])
    f = [CPoly([0, 1]) * w, CPoly([1, -0.5]) * w]
    with pytest.raises(RationalGcd) as err:
        bz.gcd_chain_bezout(f)
    assert err.value.certificate.lo > 0.5


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
