"""Certified bounds for suprema and infima of polynomial data.

One engine, :func:`bracket`, makes every sampled :class:`NormCert`.  It
samples the l2 modulus (sum_k |p_k|^2)^(1/2) of a tuple of polynomials (|p|
itself for one polynomial) on an array of z nodes, crossed, for ``ZSPoly``
data, with a uniform grid of ``axis`` points per parameter axis of a box.
It then widens the sampled extreme by a rigorous Lipschitz slack with one
term per direction:

* in z: z_mesh * sum_k sum_j j * b_kj, where every point of the z domain is
  within z_mesh of a node and b_kj bounds the modulus of the z^j coefficient
  of p_k (on the box for ``ZSPoly``);
* per parameter axis i: the coefficient-sum bound on d p_k / d s_i, summed
  over k, times the half step of the axis grid.

A supremum keeps the sampled maximum as ``lo`` and adds the slack for ``hi``;
an infimum keeps the sampled minimum as ``hi`` and subtracts it for ``lo``.

Suprema of moduli are sampled on the boundary circle only (|p|^2 and l2 sums
of |f_k|^2 are subharmonic, so their maxima sit on the boundary), with
z_mesh = pi / samples; infima may be interior, so they are sampled on a
polar grid of the full closed disc, with z_mesh = :func:`disc_mesh_radius`.

A ``ball`` (center, radius) narrows the parameter region to the open ball
within the box.  The grid and the slack stay the same; only the nodes whose
half-step cell, the product of the [x_i - h_i, x_i + h_i], meets the ball
(:func:`ball_mask`) count toward the extreme.  The bound stays true: a
point of the ball within the box lies within h_i, per axis, of its nearest
node; that node's cell holds the point, so it meets the ball and the node
is kept; and the slack, whose partial bounds hold on the whole box, covers
the step from that node to the point.  In 1-D the box clipped to the ball
is the ball, so every node is kept.

The extreme is streamed (:func:`sampled_extreme`): the grid is sampled in
blocks, each a run of rows of the first parameter axis crossed with the rest
of the grid and a chunk of the z nodes, and the running min or max and
sample count are kept.  A block holds O(BLOCK_BUDGET) values whatever the
grid (:func:`_modulus_blocks`), so peak memory is one block plus the s-grid
tables, not O(axis^d * n_z).  Blocks are rows and columns of one matrix
product and min/max are exact, so the extreme has the whole grid's bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .polyalg import CPoly, ParamFamily, ZSPoly

BLOCK_BUDGET = 1 << 14  # complex elements in one sampled block, or in its z-power table


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


def boundary_mesh_radius(samples: int) -> float:
    """Covering radius of the boundary grid along the circle: half the arc
    between neighbouring nodes, which bounds the chord."""
    return math.pi / samples


def _l2(values):
    """The l2 modulus (sum_k |v_k|^2)^(1/2) of a list of value arrays; one
    array gives |v| itself."""
    if len(values) == 1:
        return np.abs(values[0])
    return np.sqrt(functools.reduce(np.add, (np.abs(v) ** 2 for v in values)))


def _runs(total: int, step: int, unit: int = 1):
    """Slices of ``step`` items each over range(``total``), where an item
    holds ``unit`` values.  A lone last value joins the slice before it, so
    that no block is a single grid point or z node, the case numpy hands to
    BLAS gemv, whose sums round apart from gemm's (see
    :meth:`ZSPoly.eval_sgrid`); with ``unit`` 1 that needs ``step`` >= 2."""
    start = 0
    while start < total:
        stop = start + step
        if (total - stop) * unit == 1:
            stop = total
        yield slice(start, stop)
        start = stop


def _modulus_blocks(polys, z, box, axis, ball):
    """The l2 modulus of ``polys`` on the sampled nodes, one block at a time:
    ``CPoly`` values on the z nodes in one block; ``ZSPoly`` values on (a
    run of rows of the first axis of the tensor grid of ``axis`` points per
    axis of ``box``, crossed with the rest of the grid) x (a chunk of the z
    nodes), the nodes outside :func:`ball_mask` dropped when there is a
    ``ball``.  The chunks are the outer loop: each is BLOCK_BUDGET //
    max(2 * rest, n_c) nodes wide, for ``rest`` grid points per row and n_c
    z-powers, so that two rows of a block and the chunk's z powers, built
    before its first block, each fit BLOCK_BUDGET.  Within a chunk, runs of
    rows fill BLOCK_BUDGET.  Neither a run nor a chunk holds a single grid
    point or z node (see :func:`_runs`).  The s-grid coefficient tables are
    built once, before the first block."""
    if box is None:
        yield _l2([p.eval(z) for p in polys])
        return
    axes = [np.linspace(a, b, axis) for a, b in box]
    tables = [p.sgrid_table(axes) for p in polys]
    mask = None if ball is None else ball_mask(box, axis, ball)
    z = np.ravel(z)
    rest = axis ** (len(box) - 1)
    width = max(BLOCK_BUDGET // max(2 * rest, *(len(p.coeffs) for p in polys)), 2)
    for cols in _runs(z.size, width):
        chunk = z[cols]
        powers = [p.z_powers(chunk) for p in polys]
        step = max(BLOCK_BUDGET // (rest * chunk.size), 1 if rest > 1 else 2)
        for rows in _runs(axis, step, rest):
            block = _l2([p.eval_sgrid(t[rows], w)
                         for p, t, w in zip(polys, tables, powers)])
            yield block if mask is None else block[mask[rows]]


def sampled_extreme(polys, z, box=None, axis: int = 0, inf: bool = False,
                    ball=None):
    """(max, or with ``inf`` min, of the l2 modulus of the tuple ``polys``
    over the sampled nodes, number of samples), reduced block by block (see
    :func:`_modulus_blocks`): the peak memory is that of one block, of
    O(BLOCK_BUDGET) values, not of the whole grid.  ``np.maximum`` and
    ``np.minimum`` keep a NaN sample of any block; with no sample the
    extreme is infinite."""
    reduce = np.minimum if inf else np.maximum
    best, count = (math.inf if inf else -math.inf), 0
    for block in _modulus_blocks(tuple(polys), z, box, axis, ball):
        if block.size:
            best = reduce(best, block.min() if inf else block.max())
            count += block.size
    return float(best), count


def partial_bounds(p: ZSPoly, box):
    """Per parameter axis i, sum_j of a bound on the z^j coefficient of
    d p / d s_i over the box: a Lipschitz constant of p in s_i over
    disc x box."""
    return [float(np.sum(p.partial(axis).coeff_bounds(box)))
            for axis in range(p.dim)]


def _z_lipschitz(p, box) -> float:
    """sum_j j * (bound on |coefficient of z^j|): a Lipschitz constant of p
    in z on the closed disc (for every s in the box)."""
    bounds = np.abs(p.coeffs) if box is None else p.coeff_bounds(box)
    return float(np.sum(np.arange(len(bounds)) * bounds))


def _half_step(a: float, b: float, axis: int) -> float:
    """Half the spacing of the uniform grid of ``axis`` nodes on [a, b]:
    every point of [a, b] is within this distance of a node."""
    return (b - a) / (2.0 * (axis - 1))


def ball_mask(box, axis: int, ball) -> np.ndarray:
    """Over the tensor grid of ``axis`` nodes per axis of ``box``, True
    where the node's half-step cell meets the open ball ``ball`` =
    (center, radius): the squared distances from the center to the cell,
    summed over the axes, fall below radius^2."""
    center, radius = ball
    dist2 = np.zeros(())
    for (a, b), c in zip(box, center):
        nodes = np.linspace(a, b, axis)
        gap = np.maximum(np.abs(nodes - c) - _half_step(a, b, axis), 0.0)
        dist2 = np.add.outer(dist2, gap * gap)
    return dist2 < radius * radius


def bracket(polys, z, z_mesh: float, quantity: str, box=None, axis: int = 0,
            inf: bool = False, ball=None) -> NormCert:
    """The certificate engine: bracket the sup (or, with ``inf``, the inf)
    of the l2 modulus of ``polys`` over (z domain) x box, or, given a
    ``ball`` (center, radius), over (z domain) x (ball x box).

    Every point of the z domain must lie within ``z_mesh`` of a node of
    ``z``.  The sampled extreme, over the nodes :func:`ball_mask` keeps when
    there is a ball, is widened by the Lipschitz slack
    z_mesh * sum_k sum_j j * b_kj plus, per parameter axis, the summed
    :func:`partial_bounds` over the box times the axis grid's half step;
    ``samples_used`` counts the kept samples.  Every point of the ball
    within the box has its nearest node kept (the node's cell holds the
    point, so it meets the ball), and the slack over the box covers the
    step between them, so the bracket holds over the ball too.

    The extreme is reduced block by block (:func:`sampled_extreme`), so the
    peak memory is one block of O(BLOCK_BUDGET) values plus the s-grid
    coefficient tables, whatever z.size, not O(axis^d * z.size).  A NaN
    sample in any block, or an empty sample, leaves a non-finite bound,
    which :class:`NormCert` refuses."""
    polys = tuple(polys)
    if not polys:
        raise ValueError("empty tuple")
    extreme, count = sampled_extreme(polys, z, box, axis, inf, ball)
    slack = z_mesh * sum(_z_lipschitz(p, box) for p in polys)
    if box is not None:
        per_poly = [partial_bounds(p, box) for p in polys]
        for i, (a, b) in enumerate(box):
            lip = sum((bounds[i] for bounds in per_poly), 0.0)
            slack += lip * _half_step(a, b, axis)
    if inf:
        return NormCert(extreme - slack, extreme, quantity, count)
    return NormCert(extreme, extreme + slack, quantity, count)


def sup_disc(p: CPoly, samples: int = 512) -> NormCert:
    """Bracket sup_{|z|<=1} |p(z)| from boundary samples."""
    if samples < 8:
        raise ValueError("need at least 8 boundary samples")
    return bracket((p,), boundary_points(samples), boundary_mesh_radius(samples),
                   "H-infinity norm")


def vec_sup_norm(polys, samples: int = 512) -> NormCert:
    """Bracket sup_{|z|<=1} (sum_k |p_k(z)|^2)^(1/2) for a tuple of
    polynomials."""
    return bracket(polys, boundary_points(samples), boundary_mesh_radius(samples),
                   "l2 sup norm")


def inf_disc(p: CPoly, grid: DiscKGrid = DiscKGrid()) -> NormCert:
    """Bracket inf_{|z|<=1} |p(z)|; the minimum can be interior, so the full
    polar grid is used."""
    return bracket((p,), disc_points(grid.radial, grid.angular),
                   disc_mesh_radius(grid.radial, grid.angular), "inf modulus",
                   inf=True)


def delta_lower(family: ParamFamily, grid: DiscKGrid = DiscKGrid()) -> NormCert:
    """Bracket inf over (closed disc) x K of the l2 modulus of the data tuple.

    The corona lower bound is certified iff ``lo > 0``; a nonpositive ``lo``
    means either genuine failure or an insufficient grid.
    """
    return bracket(family.components, disc_points(grid.radial, grid.angular),
                   disc_mesh_radius(grid.radial, grid.angular),
                   "corona lower bound", family.box, grid.axis, inf=True)


def sup_family(family: ParamFamily, grid: DiscKGrid = DiscKGrid(),
               boundary: int = 512) -> NormCert:
    """Bracket sup over (closed disc) x K of the l2 modulus (boundary circle
    sampling in z, uniform grid in the parameter)."""
    return bracket(family.components, boundary_points(boundary),
                   boundary_mesh_radius(boundary), "l2 sup norm", family.box,
                   grid.axis)
