"""Solvers for g^T f = 1 at a frozen parameter value.

Two routes, exact first:

* ``gcd_chain_bezout`` -- iterated extended Euclidean algorithm.  Exact (up to
  rounding) whenever the tuple's gcd is constant.  A nonconstant gcd either
  has a root in the closed disc (genuine obstruction: no bounded solution
  exists) or is zero-free there (the exact solution is rational, so the
  polynomial chain cannot produce it and the least-norm route takes over).
* ``least_norm_bezout`` -- minimum-coefficient-norm solution of the linear
  system matching the coefficients of sum_k f_k g_k - 1, for a fixed solution
  degree.  Falls back to least squares when the system is inconsistent.

``solve_point`` is the driver used by the gluing pipeline: chain first, then
a degree ladder of least-norm solves until the residual certificate clears
the 1/4 acceptance threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hnorm
from .errors import CoronaViolation, IllConditionedGcd, PointSolveFailure, RationalGcd
from .hnorm import DiscKGrid, NormCert
from .polyalg import CPoly

RESIDUAL_ACCEPT = 0.25     # leaves room under the glued residual gate of 1/2
EXACT_RESIDUAL = 1e-9      # below this a solve counts as exact
_ZERO_TOL = 1e-12          # remainder treated as zero (rows kept at unit scale)
_GRAY_TOL = 1e-8           # zero/nonzero gray zone -> ill-conditioned
_PIVOT_REL = 1e-12         # relative trim threshold and lstsq cutoff


@dataclass(frozen=True)
class PointSolution:
    """A Bezout solution at one parameter point with its certificates."""

    g: tuple
    norm_cert: NormCert
    residual_cert: NormCert


def _trim_noise(coeffs: np.ndarray) -> np.ndarray:
    """Strip trailing coefficients below the relative pivot threshold."""
    mag = np.abs(coeffs)
    scale = mag.max() if mag.size else 0.0
    if scale == 0.0:
        return np.zeros(1, dtype=complex)
    n = len(coeffs)
    while n > 1 and mag[n - 1] <= _PIVOT_REL * scale:
        n -= 1
    return coeffs[:n]


def _divmod_poly(num: np.ndarray, den: np.ndarray):
    """Dense synthetic division; ``den`` must have a nonzero lead."""
    num = num.astype(complex).copy()
    dn = len(den)
    if len(num) < dn:
        return np.zeros(1, dtype=complex), num
    quot = np.zeros(len(num) - dn + 1, dtype=complex)
    lead = den[-1]
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + dn - 1] / lead
        quot[k] = c
        if c != 0:
            num[k : k + dn] -= c * den
    rem = num[: dn - 1] if dn > 1 else np.zeros(1, dtype=complex)
    return quot, rem


def _row_sub(row, quot, other):
    """(r, a, b) - quot * (r', a', b') componentwise in the Euclid identity."""
    out = []
    for x, y in zip(row, other):
        prod = np.convolve(quot, y)
        n = max(len(x), len(prod))
        acc = np.zeros(n, dtype=complex)
        acc[: len(x)] += x
        acc[: len(prod)] -= prod
        out.append(acc)
    return out


def _refine_cofactors(p: CPoly, q: CPoly, gcd: CPoly, a: CPoly, b: CPoly):
    """One least-squares correction of (a, b) against a*p + b*q = gcd.

    The Euclidean chain settles the gcd but long divisions across a degree
    gap amplify rounding in the cofactors; a single backward-stable solve of
    the convolution system restores them to working precision.  Exact inputs
    pass through unchanged (a zero residual yields a zero correction).
    """
    cols_a = max(1, q.degree)
    cols_b = max(1, p.degree)
    residual = gcd - (a * p + b * q)
    if residual.is_zero:
        return a, b
    n_eq = max(p.degree + cols_a - 1, q.degree + cols_b - 1,
               residual.degree) + 1
    mat = np.zeros((n_eq, cols_a + cols_b), dtype=complex)
    for i in range(cols_a):
        mat[i: i + len(p.coeffs), i] = p.coeffs
    for i in range(cols_b):
        mat[i: i + len(q.coeffs), cols_a + i] = q.coeffs
    rhs = np.zeros(n_eq, dtype=complex)
    rhs[: len(residual.coeffs)] = residual.coeffs
    x, *_ = np.linalg.lstsq(mat, rhs, rcond=_PIVOT_REL)
    return a + CPoly(_trim_noise(x[:cols_a])), b + CPoly(_trim_noise(x[cols_a:]))


def xgcd(p: CPoly, q: CPoly):
    """Extended Euclidean algorithm: returns (gcd, a, b) with
    a*p + b*q = gcd and the gcd normalized to be monic.

    Rows are rescaled to unit max-coefficient after every division step to
    limit floating-point growth, and the returned cofactors get one
    least-squares refinement pass.  A remainder whose magnitude falls
    between the zero threshold and the gray threshold cannot be classified
    reliably; that raises :class:`IllConditionedGcd` so callers can switch
    to the least-norm solver.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("xgcd needs at least one nonzero input")
    if p.is_zero or q.is_zero:
        nz, swap = (q, True) if p.is_zero else (p, False)
        lead = nz.coeffs[-1]
        unit = CPoly([1.0 / lead])
        a, b = (CPoly.zero(), unit) if swap else (unit, CPoly.zero())
        return CPoly(nz.coeffs / lead), a, b

    def normalized(row):
        m = max(np.abs(row[0]).max(), 1e-300)
        return [x / m for x in row]

    one = np.ones(1, dtype=complex)
    zero = np.zeros(1, dtype=complex)
    r0 = normalized([p.coeffs.astype(complex), one, zero])
    r1 = normalized([q.coeffs.astype(complex), zero, one])
    if len(r0[0]) < len(r1[0]):
        r0, r1 = r1, r0

    while True:
        quot, rem = _divmod_poly(r0[0], r1[0])
        new = _row_sub(r0, quot, r1)
        rem = _trim_noise(rem)
        new[0] = rem
        m = float(np.abs(rem).max())
        if m <= _ZERO_TOL:
            break
        if m <= _GRAY_TOL:
            raise IllConditionedGcd(
                "remainder pivot of magnitude "
                f"{m:.3e} is in the numerical gray zone; use the least-norm solver"
            )
        r0, r1 = r1, normalized(new)

    lead = r1[0][-1]
    gcd = CPoly(r1[0] / lead)
    a, b = CPoly(r1[1] / lead), CPoly(r1[2] / lead)
    a, b = _refine_cofactors(p, q, gcd, a, b)
    return gcd, a, b


def certify(f, g, samples: int = 512):
    """Certificates for a candidate solution: (norm_cert, residual_cert).

    The residual certificate brackets sup_z |1 - sum f_k g_k| using the fully
    expanded polynomial; the norm certificate brackets the l2 sup of g.
    """
    f, g = tuple(f), tuple(g)
    if len(f) != len(g):
        raise ValueError("tuples must have equal length")
    residual = CPoly([-1.0])
    for fk, gk in zip(f, g):
        residual = residual + fk * gk
    return hnorm.vec_sup_norm(g, samples), hnorm.sup_disc(residual, samples)


def _in_disc_root(gcd: CPoly, tol: float = 1e-9):
    roots = np.roots(gcd.coeffs[::-1])
    if roots.size == 0:
        return None
    idx = int(np.argmin(np.abs(roots)))
    root = roots[idx]
    return complex(root) if abs(root) <= 1.0 + tol else None


def gcd_chain_bezout(f, samples: int = 512, grid: DiscKGrid = DiscKGrid()):
    """Exact polynomial solution via an iterated Euclidean chain.

    Raises :class:`CoronaViolation` when the overall gcd has a root in the
    closed disc, :class:`RationalGcd` (with a zero-free certificate) when the
    gcd is nonconstant but zero-free there, and :class:`IllConditionedGcd`
    when the chain's arithmetic cannot be trusted.
    """
    f = tuple(f)
    if not f:
        raise ValueError("need at least one component")
    overall = f[0]
    hs = [CPoly.one()]
    for fk in f[1:]:
        overall, a, b = xgcd(overall, fk)
        hs = [a * h for h in hs] + [b]

    if overall.degree > 0:
        root = _in_disc_root(overall)
        if root is not None:
            raise CoronaViolation(
                "common zero inside the closed disc near "
                f"z = {root:.6g}: the corona condition fails at this parameter",
                witness=root,
            )
        raise RationalGcd(
            "tuple gcd is nonconstant but zero-free on the disc; "
            "the exact solution is rational",
            certificate=hnorm.inf_disc(overall, grid),
        )

    lead = overall.coeffs[0]
    g = tuple(h / lead for h in hs)
    norm_cert, residual_cert = certify(f, g, samples)
    if residual_cert.hi > EXACT_RESIDUAL:
        raise IllConditionedGcd(
            f"chain residual {residual_cert.hi:.3e} exceeds the exactness "
            "threshold; use the least-norm solver"
        )
    return PointSolution(g, norm_cert, residual_cert)


def least_norm_bezout(f, degree: int, samples: int = 512) -> PointSolution:
    """Minimum-coefficient-norm solution with every g_k of degree <= degree.

    Builds the linear map from stacked g-coefficients to the coefficients of
    sum f_k g_k - 1 and returns the minimum-norm (or least-squares, when
    inconsistent) solution via orthogonal factorization.
    """
    f = tuple(f)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    cols_per = degree + 1
    n_eq = max(p.degree for p in f) + degree + 1
    a_mat = np.zeros((n_eq, cols_per * len(f)), dtype=complex)
    for k, p in enumerate(f):
        for i in range(cols_per):
            a_mat[i : i + len(p.coeffs), k * cols_per + i] = p.coeffs
    rhs = np.zeros(n_eq, dtype=complex)
    rhs[0] = 1.0
    x, *_ = np.linalg.lstsq(a_mat, rhs, rcond=_PIVOT_REL)
    g = tuple(CPoly(_trim_noise(x[k * cols_per : (k + 1) * cols_per]))
              for k in range(len(f)))
    norm_cert, residual_cert = certify(f, g, samples)
    return PointSolution(g, norm_cert, residual_cert)


def solve_point(f, samples: int = 512, degree_cap_factor: int = 8,
                grid: DiscKGrid = DiscKGrid()) -> PointSolution:
    """Chain solver first, least-norm degree ladder as the fallback."""
    f = tuple(f)
    try:
        return gcd_chain_bezout(f, samples, grid)
    except (IllConditionedGcd, RationalGcd):
        pass
    base = max(1, max(p.degree for p in f))
    degree = base
    best = None
    while degree <= degree_cap_factor * base:
        sol = least_norm_bezout(f, degree, samples)
        if best is None or sol.residual_cert.hi < best.residual_cert.hi:
            best = sol
        if sol.residual_cert.hi <= RESIDUAL_ACCEPT:
            return sol
        degree *= 2
    raise PointSolveFailure(
        f"residual {best.residual_cert.hi:.3e} above {RESIDUAL_ACCEPT} at the "
        "degree cap; increase the cap or refine the data",
        certificate=best.residual_cert,
    )
