"""Finite ball covers of the parameter box and the smooth partition of unity.

The cover is the partition of unity: :class:`PartitionOfUnity` holds the
centers and the one radius, which fix the bumps completely, and
:func:`build_cover` returns one.  Every weight method takes its points as an
(n, d) block, one point per row; a single point is a block of one.

The bump profile is the classical mollifier beta(t) = exp(-1/(1-t^2)) for
|t| < 1 and 0 otherwise, scaled to the cover radius.  Radial slots are laid
out on an axis-aligned grid whose spacing keeps every box point strictly
inside some bump: centers are spread evenly with per-axis count
ceil(width * sqrt(d) / (2 r')), where r' is the radius shrunk by a 0.5%
safety margin.  Without the margin, box corners can land exactly on a support
boundary, where every bump vanishes and the normalization is undefined.
The solve's first cover is one ball over the box, and each halving of its
radius doubles the centers on the widest axis.

The bump exists only as jets: :meth:`PartitionOfUnity.weight_jets` builds
the Taylor-coefficient jets of the normalized weights by truncated-jet
arithmetic (see :mod:`coronaglue.jets`), a weight is the order-0 entry and
its derivatives are read off one jet; no symbolic differentiation and no
finite differencing.  At a point s only the bumps whose support holds s (at
most 2^d of them) are built; every other weight and all of its derivatives
are exactly zero there.  A block of points is one batched jet pass over its
live (point, center) pairs, and each point's jets keep the bits they have
in a block of one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import DomainError, InternalInconsistency
from .polyalg import as_alpha, sum_in_order

BUMP_CLAMP = 1e-6      # t >= 1 - this evaluates to exactly 0
COVER_MARGIN = 0.995   # effective radius factor used for center spacing


def build_cover(box, radius: float, max_size: float = math.inf) -> PartitionOfUnity:
    """Axis-aligned grid cover: per-axis counts ceil(width sqrt(d)/(2 r')),
    centers spread evenly so the worst point sits strictly inside a bump.
    A radius that needs more than ``max_size`` centers raises DomainError
    before any center is laid out."""
    box = tuple((float(a), float(b)) for a, b in box)
    if radius <= 0:
        raise DomainError("cover radius must be positive")
    spacing = 2.0 * (COVER_MARGIN * radius) / math.sqrt(len(box))
    # a count above max_size is clipped to max_size + 1: still too many
    counts = [max(1, math.ceil(min((b - a) / spacing, max_size + 1))) for a, b in box]
    if math.prod(counts) > max_size:
        raise DomainError(f"cover radius {radius!r} needs more than {max_size} centers")
    axis_centers = [[a + (b - a) * (2 * j + 1) / (2 * n) for j in range(n)]
                    for (a, b), n in zip(box, counts)]
    centers = tuple(tuple(c) for c in itertools.product(*axis_centers))
    return PartitionOfUnity(centers, radius)


@dataclass(frozen=True)
class PartitionOfUnity:
    """The cover: centers s_k (a tuple of coordinate tuples) and one ball
    radius r, and the normalized bumps subordinate to it, eta_k(s) =
    beta(|s - s_k| / r) / sum_j beta(|s - s_j| / r).  An infinite radius,
    which solution files of earlier versions hold for data constant in s,
    makes every bump live on the whole box."""

    centers: tuple
    radius: float
    _centers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_centers", np.asarray(self.centers, dtype=float))

    @property
    def size(self) -> int:
        return len(self.centers)

    def weights(self, s) -> np.ndarray:
        """Normalized weights at the (n, d) block of points ``s``: one row
        per point, each row contiguous so that its sum adds as at a block of
        one: the order-0 :meth:`weight_jets`."""
        return np.ascontiguousarray(self.weight_jets(s, 0)[:, 0].T)

    def weight_jets(self, s, order) -> np.ndarray:
        """Taylor-coefficient jets of every weight, truncated at total order
        ``order`` at the (n, d) block of points ``s``: shape (centers, jet
        size, n).  Only the (point, center) pairs whose bump support holds
        the point are built, in one batched pass; every other entry is
        exactly zero."""
        block = np.asarray(s, dtype=float)
        if block.ndim != 2 or block.shape[1] != self._centers.shape[1]:
            raise DomainError(f"points of shape {block.shape} do not match the cover")
        dim, order = block.shape[1], int(order)
        centers, r = self._centers, self.radius
        # |s - c|^2 added over the axes in order, one (point, center) table
        # per axis; an infinite radius keeps every pair live
        sq = sum_in_order([(x[:, None] - c) ** 2 for x, c in zip(block.T, centers.T)])
        live = sq < ((1.0 - BUMP_CLAMP) * r) ** 2
        points, live_centers = np.nonzero(live)
        bumps = self._bump_jets(block[points] - centers[live_centers], sq[live], order)
        # each point adds its live bumps one term at a time in cover order to
        # +0.0, as the jet kernels add: the first live bump of every point,
        # then the second, and so on; a point with fewer adds +0.0, which
        # leaves a sum that starts at +0.0 unchanged
        rank = np.arange(len(points)) - np.searchsorted(points, points)
        terms = np.zeros((rank.max(initial=-1) + 2, len(bumps), len(block)))
        terms[rank + 1, :, points] = bumps.T
        total = sum_in_order(terms)
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
        out[live_centers, :, points] = jets.jet_mul(bumps, inv[:, points], dim, order).T
        return out

    def _bump_jets(self, diff, sq, order) -> np.ndarray:
        """Jets of beta(|s - c| / r) for the offsets ``diff`` = s - c, one
        per row, batched along the trailing axis; ``sq`` is |s - c|^2.
        u = |s - c|^2 / r^2 is a quadratic, so its jet is written down
        exactly: sq / r^2, then 2 (s_i - c_i) / r^2 on s_i and 1 / r^2 on
        s_i^2."""
        batch, dim = diff.shape[:1], diff.shape[1]
        r2 = self.radius * self.radius
        u = jets.jet_const(sq / r2, dim, order, batch)
        for axis, unit in enumerate(np.eye(dim, dtype=int) if order else ()):
            u[jets.position(unit, order)] = 2.0 * diff[:, axis] / r2
            if order >= 2:
                u[jets.position(2 * unit, order)] = 1.0 / r2
        v = jets.jet_const(1.0, dim, order, batch) - u
        return jets.jet_exp(-jets.jet_reciprocal(v, dim, order), dim, order)

    def derivs(self, s, alphas) -> list:
        """d^alpha of every weight for each multi-index in ``alphas``, all
        read off one weight jet whose order covers them: (n, K) each at the
        (n, d) block of points ``s``, each point's K values contiguous so
        that a sum over them adds as at a block of one.  Orders
        with |alpha| >= 1 sum to zero across centers."""
        alphas = [as_alpha(alpha, self._centers.shape[1]) for alpha in alphas]
        order = max(map(sum, alphas))
        wj = np.moveaxis(self.weight_jets(s, order), 0, -1)
        return [np.ascontiguousarray(jets.jet_extract(wj, alpha, order)) for alpha in alphas]
