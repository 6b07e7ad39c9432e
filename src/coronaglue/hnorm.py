"""Certified bounds for suprema and infima of polynomial data.

Every bound is a :class:`NormCert` interval produced by sampling plus a
rigorous Lipschitz slack term built from coefficient sums.  Suprema of
moduli are sampled on the boundary circle only (|p|^2 and l2 sums of |f_k|^2
are subharmonic, so their maxima sit on the boundary); infima may be interior,
so they are sampled on a polar grid of the full closed disc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .polyalg import CPoly, ParamFamily


@dataclass(frozen=True)
class NormCert:
    """Interval certificate: the bracketed quantity lies in [lo, hi], both
    finite."""

    lo: float
    hi: float
    quantity: str
    samples_used: int

    def __post_init__(self):
        # written so that NaN fails: an overflowed bound certifies nothing
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"{self.quantity} is not finite: "
                              f"[{self.lo}, {self.hi}]")
        if not self.lo <= self.hi:
            raise DomainError(f"{self.quantity} certificate needs lo <= hi")

    def to_dict(self):
        return {
            "lo": self.lo,
            "hi": self.hi,
            "quantity": self.quantity,
            "samples_used": self.samples_used,
        }


@dataclass(frozen=True)
class DiscKGrid:
    """Sample counts: polar grid on the disc plus a uniform grid per box axis."""

    radial: int = 64
    angular: int = 128
    axis: int = 33

    def __post_init__(self):
        if self.radial < 2 or self.angular < 4 or self.axis < 2:
            raise ValueError("grid too coarse to certify anything")


def boundary_points(samples: int) -> np.ndarray:
    theta = 2.0 * math.pi * np.arange(samples) / samples
    return np.exp(1j * theta)


def disc_points(radial: int, angular: int) -> np.ndarray:
    """Polar grid of the closed disc, radii 0..1 inclusive."""
    radii = np.linspace(0.0, 1.0, radial)
    return (radii[:, None] * boundary_points(angular)[None, :]).ravel()


def disc_mesh_radius(radial: int, angular: int) -> float:
    """Covering radius of the polar grid: every disc point is within this
    distance of a node (half radial spacing plus half angular arc)."""
    return 0.5 / (radial - 1) + math.pi / angular


def axis_samples(box, count: int):
    return [np.linspace(a, b, count) for a, b in box]


def axis_mesh_radii(box, count: int):
    return [(b - a) / (2.0 * (count - 1)) for a, b in box]


def coeff_lipschitz_bound(p: CPoly) -> float:
    """L with |p(z) - p(w)| <= L |z - w| on the closed disc: sum_j j |a_j|."""
    j = np.arange(len(p.coeffs))
    return float(np.sum(j * np.abs(p.coeffs)))


def sup_disc(p: CPoly, samples: int = 512) -> NormCert:
    """Bracket sup_{|z|<=1} |p(z)| from boundary samples."""
    if samples < 8:
        raise ValueError("need at least 8 boundary samples")
    values = np.abs(p.eval(boundary_points(samples)))
    lo = float(values.max())
    hi = lo + (math.pi / samples) * coeff_lipschitz_bound(p)
    return NormCert(lo, hi, "H-infinity norm", samples)


def vec_sup_norm(polys, samples: int = 512) -> NormCert:
    """Bracket sup_{|z|<=1} (sum_k |p_k(z)|^2)^(1/2) for a tuple of
    polynomials; the slack sums the componentwise Lipschitz constants."""
    polys = tuple(polys)
    if not polys:
        raise ValueError("empty tuple")
    z = boundary_points(samples)
    sq = np.zeros(samples)
    for p in polys:
        sq += np.abs(p.eval(z)) ** 2
    lo = float(np.sqrt(sq.max()))
    lip = sum(coeff_lipschitz_bound(p) for p in polys)
    hi = lo + (math.pi / samples) * lip
    return NormCert(lo, hi, "l2 sup norm", samples)


def inf_disc(p: CPoly, grid: DiscKGrid = DiscKGrid()) -> NormCert:
    """Bracket inf_{|z|<=1} |p(z)|; the minimum can be interior, so the full
    polar grid is used."""
    z = disc_points(grid.radial, grid.angular)
    values = np.abs(p.eval(z))
    hi = float(values.min())
    lo = hi - disc_mesh_radius(grid.radial, grid.angular) * coeff_lipschitz_bound(p)
    return NormCert(lo, hi, "inf modulus", z.size)


def _family_modulus_on_grid(family: ParamFamily, axes, z: np.ndarray) -> np.ndarray:
    """(sum_k |f_k|^2)^(1/2) on (tensor s-grid) x (z array)."""
    sq = None
    for comp in family.components:
        vals = np.abs(comp.eval_sgrid(axes, z)) ** 2
        sq = vals if sq is None else sq + vals
    return np.sqrt(sq)


def _family_z_lipschitz(family: ParamFamily) -> float:
    return sum(c.z_lipschitz_bound(family.box) for c in family.components)


def _family_s_lipschitz_per_axis(family: ParamFamily):
    """Per-axis bounds on sum_k sup |d f_k / d s_i| over disc x box."""
    out = []
    for axis in range(family.dim):
        total = 0.0
        for comp in family.components:
            total += float(np.sum(comp.partial(axis).coeff_bounds(family.box)))
        out.append(total)
    return out


def delta_lower(family: ParamFamily, grid: DiscKGrid = DiscKGrid()) -> NormCert:
    """Bracket inf over (closed disc) x K of the l2 modulus of the data tuple.

    The corona lower bound is certified iff ``lo > 0``; a nonpositive ``lo``
    means either genuine failure or an insufficient grid.
    """
    axes = axis_samples(family.box, grid.axis)
    z = disc_points(grid.radial, grid.angular)
    modulus = _family_modulus_on_grid(family, axes, z)
    hi = float(modulus.min())
    slack = disc_mesh_radius(grid.radial, grid.angular) * _family_z_lipschitz(family)
    for lip, h in zip(_family_s_lipschitz_per_axis(family),
                      axis_mesh_radii(family.box, grid.axis)):
        slack += lip * h
    lo = hi - slack
    return NormCert(lo, hi, "corona lower bound", modulus.size)


def sup_family(family: ParamFamily, grid: DiscKGrid = DiscKGrid(),
               boundary: int = 512) -> NormCert:
    """Bracket sup over (closed disc) x K of the l2 modulus (boundary circle
    sampling in z, uniform grid in the parameter)."""
    axes = axis_samples(family.box, grid.axis)
    z = boundary_points(boundary)
    modulus = _family_modulus_on_grid(family, axes, z)
    lo = float(modulus.max())
    slack = (math.pi / boundary) * _family_z_lipschitz(family)
    for lip, h in zip(_family_s_lipschitz_per_axis(family),
                      axis_mesh_radii(family.box, grid.axis)):
        slack += lip * h
    hi = lo + slack
    return NormCert(lo, hi, "l2 sup norm", modulus.size)
