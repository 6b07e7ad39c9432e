"""Finite ball covers of the parameter box and the smooth partition of unity.

The bump profile is the classical mollifier beta(t) = exp(-1/(1-t^2)) for
|t| < 1 and 0 otherwise, scaled to the cover radius.  Radial slots are laid
out on an axis-aligned grid whose spacing keeps every box point strictly
inside some bump: centers are spread evenly with per-axis count
ceil(width * sqrt(d) / (2 r')), where r' is the radius shrunk by a 0.5%
safety margin.  Without the margin, box corners can land exactly on a support
boundary, where every bump vanishes and the normalization is undefined.

Derivatives of the normalized weights are computed by truncated-jet
arithmetic (see :mod:`coronaglue.jets`); no symbolic differentiation and no
finite differencing.  At a point s only the bumps whose support holds s (at
most 2^d of them) are built; every other weight and all of its derivatives
are exactly zero there.  A block of points is one batched jet pass over its
live (point, center) pairs, and each point's jets keep the bits they have
when the point is alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import hnorm, jets
from .errors import DomainError, InternalInconsistency
from .polyalg import ParamFamily, as_alpha, sum_in_order

BUMP_CLAMP = 1e-6      # t >= 1 - this evaluates to exactly 0
COVER_MARGIN = 0.995   # effective radius factor used for center spacing


def lipschitz_s_bound(family: ParamFamily) -> float:
    """L with ||f(., s) - f(., s')|| <= L |s - s'| over disc x box, from
    coefficient-sum bounds on the parameter gradient: the squared bounds
    added one component after another, each over its axes in turn."""
    bounds = hnorm.partial_bounds(family.poly, family.box)
    return math.sqrt(float(sum_in_order((bounds.T ** 2).ravel())))


@dataclass(frozen=True)
class Cover:
    """Centers plus a common ball radius covering the box."""

    centers: tuple
    radius: float
    box: tuple

    @property
    def size(self) -> int:
        return len(self.centers)

    def to_dict(self):
        return {
            "centers": [list(c) for c in self.centers],
            "radius": self.radius if math.isfinite(self.radius) else "inf",
            "box": [list(b) for b in self.box],
        }

    @staticmethod
    def from_dict(d):
        radius = d["radius"]
        radius = math.inf if radius == "inf" else float(radius)
        return Cover(
            tuple(tuple(c) for c in d["centers"]),
            radius,
            tuple(tuple(b) for b in d["box"]),
        )


def build_cover(box, radius: float) -> Cover:
    """Axis-aligned grid cover: per-axis counts ceil(width sqrt(d)/(2 r')),
    centers spread evenly so the worst point sits strictly inside a bump."""
    box = tuple((float(a), float(b)) for a, b in box)
    if radius <= 0:
        raise DomainError("cover radius must be positive")
    d = len(box)
    if math.isinf(radius):
        center = tuple((a + b) / 2.0 for a, b in box)
        return Cover((center,), radius, box)
    spacing = 2.0 * (COVER_MARGIN * radius) / math.sqrt(d)
    axis_centers = []
    for a, b in box:
        n = max(1, math.ceil((b - a) / spacing))
        axis_centers.append([a + (b - a) * (2 * j + 1) / (2 * n) for j in range(n)])
    centers = tuple(tuple(c) for c in itertools.product(*axis_centers))
    return Cover(centers, radius, box)


def bump(t):
    """Mollifier profile exp(-1/(1-t^2)) with exact compact support."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    inside = np.abs(t) < 1.0 - BUMP_CLAMP
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out if out.ndim else float(out)


class PartitionOfUnity:
    """Normalized bumps subordinate to a cover: eta_k(s) =
    beta(|s - s_k| / r) / sum_j beta(|s - s_j| / r)."""

    __slots__ = ("cover",)

    def __init__(self, cover: Cover):
        self.cover = cover

    @property
    def size(self) -> int:
        return self.cover.size

    def _point(self, s) -> np.ndarray:
        """One point as a (d,) array, or a block of points as (n, d)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if s.ndim > 2 or s.shape[-1] != len(self.cover.box):
            raise DomainError("point dimension does not match the box")
        return s

    def bump_values(self, s) -> np.ndarray:
        """beta(|s - s_k| / r) for every center; shape s.shape[:-1] + (K,)."""
        s = self._point(s)
        centers = np.asarray(self.cover.centers)
        if math.isinf(self.cover.radius):
            t = np.zeros(s.shape[:-1] + (len(centers),))
        else:
            t = np.sqrt(((s[..., None, :] - centers) ** 2).sum(-1)) / self.cover.radius
        return np.asarray(bump(t))

    def weights(self, s) -> np.ndarray:
        """Normalized weight vector at one point, or one row per point of an
        (n, d) block; every row sums to 1 on the box."""
        b = self.bump_values(s)
        total = b.sum(-1)
        empty = np.flatnonzero(total <= 0.0)
        if empty.size:
            witness = np.atleast_2d(s)[empty[0]].tolist()
            raise InternalInconsistency(
                f"cover invariant violated: no bump is positive at {witness}",
                witness=witness,
            )
        return b / total[..., None]

    def weight_jets(self, s, order) -> np.ndarray:
        """Taylor-coefficient jets of every weight, truncated at total order
        ``order``: shape (centers, jet size) at one point ``s``, or
        (centers, jet size, n) at an (n, d) block of points.  Only the
        (point, center) pairs whose bump support holds the point are built,
        in one batched pass; every other entry is exactly zero."""
        s = self._point(s)
        block = np.atleast_2d(s)
        dim, order = block.shape[1], int(order)
        centers = np.asarray(self.cover.centers)
        r = self.cover.radius
        diff = block[:, None, :] - centers
        if math.isinf(r):
            live = np.ones(diff.shape[:2], dtype=bool)
            bumps = jets.jet_const(math.exp(-1.0), dim, order, batch=(live.size,))
        else:
            live = (diff ** 2).sum(-1) < ((1.0 - BUMP_CLAMP) * r) ** 2
            bumps = self._bump_jets(diff[live], order)
        points, live_centers = np.nonzero(live)
        # each point adds its live bumps one term at a time in cover order, as
        # the jet kernels add: the first live bump of every point, then the
        # second, and so on
        rank = np.arange(len(points)) - np.searchsorted(points, points)
        total = jets.jet_const(0.0, dim, order, batch=(len(block),))
        for term in range(rank.max(initial=-1) + 1):
            pairs = np.flatnonzero(rank == term)
            total[:, points[pairs]] += bumps[:, pairs]
        empty = np.flatnonzero(total[0] <= 0.0)
        if empty.size:
            witness = block[empty[0]]
            raise InternalInconsistency(
                "cover invariant violated: no bump is positive at "
                f"{witness.tolist()}",
                witness=tuple(witness),
            )
        inv = jets.jet_reciprocal(total, dim, order)
        out = np.zeros((len(centers), len(total), len(block)))
        out[live_centers, :, points] = np.moveaxis(
            jets.jet_mul(bumps, inv[:, points], dim, order), -1, 0)
        return out if s.ndim == 2 else out[..., 0]

    def _bump_jets(self, diff, order) -> np.ndarray:
        """Jets of beta(|s - c| / r) for the offsets ``diff`` = s - c, one
        per row, batched along the trailing axis."""
        batch, dim = diff.shape[:1], diff.shape[1]
        u = jets.jet_const(0.0, dim, order, batch)
        for axis in range(dim):
            xi = jets.jet_variable(diff[:, axis], axis, dim, order, batch)
            u += jets.jet_mul(xi, xi, dim, order)
        u /= self.cover.radius * self.cover.radius
        v = jets.jet_const(1.0, dim, order, batch) - u
        return jets.jet_exp(-jets.jet_reciprocal(v, dim, order), dim, order)

    def derivs(self, s, alpha) -> np.ndarray:
        """Partial derivative d^alpha of every weight at an interior point.
        Orders with |alpha| >= 1 sum to zero across centers."""
        alpha = as_alpha(alpha, len(self.cover.box))
        wj = np.moveaxis(self.weight_jets(s, sum(alpha)), 0, -1)
        return jets.jet_extract(wj, alpha, sum(alpha))
