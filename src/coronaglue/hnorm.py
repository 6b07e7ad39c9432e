"""Certified bounds for suprema and infima of polynomial data.

One engine, :func:`bracket`, makes every sampled :class:`NormCert`.  It
samples the l2 modulus (sum_k |p_k|^2)^(1/2) of a tuple of polynomials (|p|
itself for one polynomial) on an array of z nodes, crossed, for the
components of one ``ZSPoly``, with a uniform grid of ``axis`` points per
parameter axis of a box.
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

Every sample node set of the program comes from here: the circle
(:func:`boundary_points`, also the ring of verify's Taylor test), the polar
disc grid (:func:`disc_points`, also verify's and the CSV's z nodes), each
parameter grid (:func:`box_axes`) and verify's points of a cover
(:func:`centers_and_midpoints`).

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
sample count are kept.  A block holds O(BLOCK_BUDGET) values per component
whatever the grid (:func:`_modulus_blocks`), so peak memory is one block
plus the s-grid table, not O(axis^d * n_z).  Blocks are rows and columns of
one matrix product and min/max are exact, so the extreme has the whole
grid's bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .polyalg import CPoly, ParamFamily, ZSPoly, sum_in_order

BLOCK_BUDGET = 1 << 14  # complex elements per component in one sampled block, or in its z powers
L2_SUP = "l2 sup norm"          # the quantity of vec_sup_norm and sup_family
H_INFINITY = "H-infinity norm"  # the quantity of sup_disc
CORONA_LOWER = "corona lower bound"    # the quantity of delta_lower
GLUED_RESIDUAL = "glued residual sup"  # the quantity of glue.residual_certify


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


def boundary_points(samples: int) -> np.ndarray:
    theta = 2.0 * math.pi * np.arange(samples) / samples
    return np.exp(1j * theta)


def disc_points(radial: int, angular: int) -> np.ndarray:
    """Polar grid of the closed disc, radii 0..1 inclusive, then angles:
    radial x angular nodes, none when either count is 0."""
    radii = np.linspace(0.0, 1.0, radial)
    return (radii[:, None] * boundary_points(angular)[None, :]).ravel()


def box_axes(box, n: int) -> list:
    """The uniform grid of ``n`` nodes per axis of ``box``, ends included,
    one array per axis; empty arrays for ``n`` = 0."""
    return [np.linspace(a, b, n) for a, b in box]


def centers_and_midpoints(centers) -> np.ndarray:
    """The centers of a product grid, one per row, then the midpoints of its
    cells: the product over the axes of the midpoints between neighbouring
    center coordinates (an axis with one center keeps it), so every ball of
    a grid cover and every overlap of two holds a point.  A grid of one
    center is its center."""
    centers = np.asarray(centers, dtype=float)
    axes = [np.array(sorted(set(c))) for c in centers.T.tolist()]
    if all(len(a) == 1 for a in axes):
        return centers
    mids = [(a[1:] + a[:-1]) / 2.0 if len(a) > 1 else a for a in axes]
    return np.concatenate([centers, np.array(list(itertools.product(*mids)))])


def disc_mesh_radius(radial: int, angular: int) -> float:
    """Covering radius of the polar grid: every disc point is within this
    distance of a node (half radial spacing plus half angular arc)."""
    return 0.5 / (radial - 1) + math.pi / angular


def boundary_mesh_radius(samples: int) -> float:
    """Covering radius of the boundary grid along the circle: half the arc
    between neighbouring nodes, which bounds the chord."""
    return math.pi / samples


def _l2(values):
    """The l2 modulus (sum_k |v_k|^2)^(1/2) over the leading component axis
    of ``values``; one component gives |v| itself."""
    if len(values) == 1:
        return np.abs(values[0])
    return np.sqrt(sum_in_order(np.abs(values) ** 2))


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


def _modulus_blocks(data, z, box, axis, ball):
    """The l2 modulus of ``data`` on the sampled nodes, one block at a time:
    the values of a tuple of ``CPoly`` on the z nodes in one block; of the
    components of a ``ZSPoly`` on (a run of rows of the first axis of the
    tensor grid of ``axis`` points per axis of ``box``, crossed with the
    rest of the grid) x (a chunk of the z nodes), the nodes outside
    :func:`ball_mask` dropped when there is a ``ball``.  The chunks are the
    outer loop: each is BLOCK_BUDGET // max(2 * rest, n_z) nodes wide, for
    ``rest`` grid points per row and n_z z-powers, so that two rows of a
    component and the chunk's z powers each fit BLOCK_BUDGET.  Within a
    chunk, runs of rows fill BLOCK_BUDGET per component, in one
    :meth:`ZSPoly.eval_sgrid` call.  Neither a run nor a chunk holds a
    single grid point or z node (see :func:`_runs`).  The s-grid
    coefficient table is built once, before the first block."""
    if box is None:
        yield _l2(np.stack([p.eval(z) for p in data]))
        return
    table = data.sgrid_table(box_axes(box, axis))
    mask = None if ball is None else ball_mask(box, axis, ball)
    z = np.ravel(z)
    rest = axis ** (len(box) - 1)
    width = max(BLOCK_BUDGET // max(2 * rest, data.coeffs.shape[1]), 2)
    for cols in _runs(z.size, width):
        chunk = z[cols]
        powers = data.z_powers(chunk)
        step = max(BLOCK_BUDGET // (rest * chunk.size), 1 if rest > 1 else 2)
        for rows in _runs(axis, step, rest):
            block = _l2(data.eval_sgrid(table[:, rows], powers))
            yield block if mask is None else block[mask[rows]]


def sampled_extreme(data, z, box=None, axis: int = 0, inf: bool = False,
                    ball=None):
    """(max, or with ``inf`` min, of the l2 modulus of ``data`` over the
    sampled nodes, number of samples), reduced block by block (see
    :func:`_modulus_blocks`): the peak memory is that of one block, of
    O(BLOCK_BUDGET) values per component, not of the whole grid.
    ``np.maximum`` and ``np.minimum`` keep a NaN sample of any block; with
    no sample the extreme is infinite."""
    reduce = np.minimum if inf else np.maximum
    best, count = (math.inf if inf else -math.inf), 0
    for block in _modulus_blocks(data, z, box, axis, ball):
        if block.size:
            best = reduce(best, block.min() if inf else block.max())
            count += block.size
    return float(best), count


def _own_bounds(p: ZSPoly, box):
    """Per component, its :meth:`ZSPoly.coeff_bounds` over its own z-count
    (:meth:`ZSPoly.z_groups`): the row it has alone, whose numpy sums zero
    padding would regroup."""
    bounds = p.coeff_bounds(box)
    return [b[:n] for run, n in p.z_groups() for b in bounds[run]]


def partial_bounds(p: ZSPoly, box):
    """Per parameter axis i and component k, sum_j of a bound on the z^j
    coefficient of d p_k / d s_i over the box: a Lipschitz constant of p_k
    in s_i over disc x box; shape (d, N)."""
    return np.array([[float(np.sum(b)) for b in _own_bounds(p.partial(axis), box)]
                     for axis in range(p.dim)])


def _z_lipschitz(data, box):
    """Per component, sum_j j * (bound on |coefficient of z^j|): a
    Lipschitz constant of it in z on the closed disc (for every s in the
    box)."""
    rows = [np.abs(p.coeffs) for p in data] if box is None else _own_bounds(data, box)
    return np.array([float(np.sum(np.arange(len(b)) * b)) for b in rows])


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
    for (a, b), c, nodes in zip(box, center, box_axes(box, axis)):
        gap = np.maximum(np.abs(nodes - c) - _half_step(a, b, axis), 0.0)
        dist2 = np.add.outer(dist2, gap * gap)
    return dist2 < radius * radius


def bracket(data, z, z_mesh: float, quantity: str, box=None, axis: int = 0,
            inf: bool = False, ball=None) -> NormCert:
    """The certificate engine: bracket the sup (or, with ``inf``, the inf)
    of the l2 modulus of ``data`` over (z domain) x box, or, given a
    ``ball`` (center, radius), over (z domain) x (ball x box).  ``data`` is
    a tuple of ``CPoly`` without a box, or one ``ZSPoly`` with one.

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
    peak memory is one block of O(BLOCK_BUDGET) values per component plus
    the s-grid coefficient table, whatever z.size, not O(axis^d * z.size).  A NaN
    sample in any block, or an empty sample, leaves a non-finite bound,
    which :class:`NormCert` refuses."""
    if box is None:
        data = tuple(data)
        if not data:
            raise ValueError("empty tuple")
    extreme, count = sampled_extreme(data, z, box, axis, inf, ball)
    slack = z_mesh * float(sum_in_order(_z_lipschitz(data, box)))
    if box is not None:
        lips = sum_in_order(partial_bounds(data, box), axis=1)
        for lip, (a, b) in zip(lips.tolist(), box):
            slack += lip * _half_step(a, b, axis)
    if inf:
        return NormCert(extreme - slack, extreme, quantity, count)
    return NormCert(extreme, extreme + slack, quantity, count)


def sup_disc(p: CPoly, samples: int = 512) -> NormCert:
    """Bracket sup_{|z|<=1} |p(z)| from boundary samples."""
    if samples < 8:
        raise ValueError("need at least 8 boundary samples")
    return bracket((p,), boundary_points(samples), boundary_mesh_radius(samples),
                   H_INFINITY)


def vec_sup_norm(polys, samples: int = 512) -> NormCert:
    """Bracket sup_{|z|<=1} (sum_k |p_k(z)|^2)^(1/2) for a tuple of
    polynomials."""
    return bracket(polys, boundary_points(samples), boundary_mesh_radius(samples),
                   L2_SUP)


def delta_lower(family: ParamFamily, radial: int, angular: int, axis: int) -> NormCert:
    """Bracket inf over (closed disc) x K of the l2 modulus of the data tuple
    on a polar grid of ``radial`` x ``angular`` disc nodes crossed with
    ``axis`` nodes per box axis.

    The corona lower bound is certified iff ``lo > 0``; a nonpositive ``lo``
    means either genuine failure or an insufficient grid.
    """
    if radial < 2 or angular < 4 or axis < 2:
        raise ValueError("grid too coarse to certify anything")
    return bracket(family.poly, disc_points(radial, angular),
                   disc_mesh_radius(radial, angular), CORONA_LOWER,
                   family.box, axis, inf=True)


def sup_family(family: ParamFamily, axis: int, boundary: int) -> NormCert:
    """Bracket sup over (closed disc) x K of the l2 modulus (``boundary``
    circle samples in z, ``axis`` nodes per box axis)."""
    if axis < 2 or boundary < 8:
        raise ValueError("grid too coarse to certify anything")
    return bracket(family.poly, boundary_points(boundary),
                   boundary_mesh_radius(boundary), L2_SUP, family.box, axis)
