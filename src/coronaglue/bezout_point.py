"""Solvers for g^T f = 1 at a frozen parameter value.

Each solve is one ``lstsq`` on the convolution (Sylvester) matrix that maps
the coefficients of g_1 .. g_N, under degree bounds d_k, to those of
sum_k f_k g_k: the minimum-norm solution of "that sum is 1", or the
least-squares one when none exists.  ``gcd_chain_bezout`` takes the
Sylvester degrees d_k = sum_{j != k} deg f_j - 1, at which a tuple with gcd 1
has an exact solution; ``least_norm_bezout`` takes one uniform bound.
``solve_point``, the driver of the gluing pipeline, tries the former, then a
ladder of the latter until the residual certificate clears the 1/4
acceptance threshold: a gcd zero-free on the disc makes the exact solution
rational, and only its polynomial approximations are reachable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hnorm
from .errors import CoronaViolation, PointSolveFailure
from .hnorm import NormCert
from .polyalg import CPoly

RESIDUAL_ACCEPT = 0.25     # leaves room under the glued residual gate of 1/2
EXACT_RESIDUAL = 1e-9      # below this a solve counts as exact
_PIVOT_REL = 1e-12         # relative trim threshold and lstsq cutoff
_DISC_TOL = 1e-9           # a root this far outside the unit circle is on the disc
_ROOT_REL = 1e-6           # zero relative to sum_i |a_i| |z|^i; double roots come to ~1e-8
# the quantity of each certificate :func:`certify` returns, by its field of
# PointSolution, in order; a solution file derives them instead of storing them
CERT_QUANTITIES = {"norm_cert": hnorm.L2_SUP, "residual_cert": hnorm.H_INFINITY}


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


def _bezout_lstsq(f, degrees) -> tuple:
    """Minimum-norm (least-squares when inconsistent) g with deg g_k <=
    degrees[k] for sum_k f_k g_k = 1, trimmed of noise coefficients."""
    n_eq = max(p.degree + d for p, d in zip(f, degrees)) + 1
    starts = np.cumsum([0] + [d + 1 for d in degrees])
    a_mat = np.zeros((n_eq, starts[-1]), dtype=complex)
    for p, d, start in zip(f, degrees, starts):
        for i in range(d + 1):
            a_mat[i : i + len(p.coeffs), start + i] = p.coeffs
    rhs = np.zeros(n_eq, dtype=complex)
    rhs[0] = 1.0
    x, *_ = np.linalg.lstsq(a_mat, rhs, rcond=_PIVOT_REL)
    return tuple(CPoly(_trim_noise(x[start : start + d + 1]))
                 for d, start in zip(degrees, starts))


def certify(f, g, samples: int = 512):
    """Certificates for a candidate solution: (norm_cert, residual_cert), the
    l2 sup of g and sup_z |1 - sum f_k g_k| of the expanded polynomial."""
    f, g = tuple(f), tuple(g)
    if len(f) != len(g):
        raise ValueError("tuples must have equal length")
    residual = CPoly([-1.0])
    for fk, gk in zip(f, g):
        residual = residual + fk * gk
    return hnorm.vec_sup_norm(g, samples), hnorm.sup_disc(residual, samples)


def _common_disc_root(f):
    """A root of the lowest-degree nonzero component, in the closed disc, at
    which every component is below ``_ROOT_REL`` times the sum of its terms'
    moduli; None when there is none."""
    base = min(f, key=lambda p: (p.is_zero, p.degree))
    for root in sorted(np.roots(base.coeffs[::-1]), key=abs):
        if abs(root) > 1.0 + _DISC_TOL:
            return None
        if all(abs(np.polyval(p.coeffs[::-1], root))
               <= _ROOT_REL * np.polyval(np.abs(p.coeffs[::-1]), abs(root))
               for p in f):
            return complex(root)
    return None


def gcd_chain_bezout(f, samples: int = 512) -> PointSolution:
    """Exact polynomial solution from the Sylvester system.
    It keeps the Euclidean chain's name, which the benchmark tracer wraps.
    Returns it when its residual certificate is at most ``EXACT_RESIDUAL``;
    otherwise raises :class:`CoronaViolation` when the components share a
    root in the closed disc, and :class:`PointSolveFailure` with the residual
    certificate when they do not."""
    f = tuple(f)
    if not f:
        raise ValueError("need at least one component")
    total = sum(p.degree for p in f)
    g = _bezout_lstsq(f, [max(total - p.degree - 1, 0) for p in f])
    norm_cert, residual_cert = certify(f, g, samples)
    if residual_cert.hi <= EXACT_RESIDUAL:
        return PointSolution(g, norm_cert, residual_cert)
    root = _common_disc_root(f)
    if root is not None:
        raise CoronaViolation(f"common zero inside the closed disc near z = {root:.6g}: "
                              "the corona condition fails at this parameter", witness=root)
    raise PointSolveFailure(f"Sylvester residual {residual_cert.hi:.3e} above {EXACT_RESIDUAL}: "
                            "the gcd is zero-free on the disc, or the system is ill-conditioned",
                            certificate=residual_cert)


def least_norm_bezout(f, degree: int, samples: int = 512) -> PointSolution:
    """Minimum-coefficient-norm solution with every g_k of degree <= degree
    (least squares when no exact solution of that degree exists)."""
    f = tuple(f)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    g = _bezout_lstsq(f, [degree] * len(f))
    norm_cert, residual_cert = certify(f, g, samples)
    return PointSolution(g, norm_cert, residual_cert)


def solve_point(f, samples: int = 512, degree_cap_factor: int = 8) -> PointSolution:
    """Sylvester solve first, least-norm degree ladder as the fallback."""
    f = tuple(f)
    try:
        return gcd_chain_bezout(f, samples)
    except PointSolveFailure:
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
