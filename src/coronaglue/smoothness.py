"""Parameter derivatives of the glued solution and C^alpha norm reports.

One derivative mechanism everywhere: truncated jets in the parameter (see
:mod:`coronaglue.jets`).  :meth:`coronaglue.glue.GluedEvaluator.jets` is the
one pass that builds the jets of gtilde, f and phi (the weights through the
bump machinery, the data through exact Taylor coefficients of its parameter
polynomials); this module forms the jet of g = gtilde / phi, valid wherever
|phi| >= 1/2: the evaluator's one quotient at order 0, so that ``g_partial``
has :func:`coronaglue.glue.g_eval`'s bits there, the jet reciprocal above.

Every jet carries a trailing axis over a block of parameter points: the C^k
report, which verify alone runs, walks the evaluator's blocks of its s-grid
on |z| = 1 and reads verify's sampled maxima and the norms of both g and f
off that one pass (the data's jets are the ones phi is built from); the
single-point :func:`g_partial` is a block of one through the same code;
every point of a block gets the bits it gets alone.

:func:`taylor_orders` is verify's derivative check (Farrell, Ham, Funke and
Rognes, SIAM J. Sci. Comput. 35(4), 2013): the remainder of a right jet of
order K shrinks like h^(K+1) along a ladder of halving steps, and a wrong
coefficient of order k <= K shows as order k, with no tolerance tied to
the scale of g or of the cover.  Its jets and its ladder's values come from
the same evaluator, each point at its own z.  :func:`fd_check`, a
central-difference oracle at one point, stays for the tests.

The C^k report never asserts an inequality: its contract is finiteness (a
NaN sample makes a maximum NaN) and the |phi| >= 1/2 guard, with stability
under grid refinement and the g-to-f ratio left to the reader.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import hnorm, jets
from .errors import InternalInconsistency
from .glue import (EVAL_BUDGET, EvalBlock, GluedEvaluator, GluedSolution, _one_point,
                   grid_blocks)
from .polyalg import as_alpha, sum_in_order


def _solution_jets(evaluator: GluedEvaluator, s, order, own_z=False):
    """(g jets, f jets, values) at the (n, d) block of parameter points ``s``:
    jets of shape (jet size, N_f, n, q), g = gtilde / phi from those of
    :meth:`GluedEvaluator.jets` at the same ``order`` and ``own_z`` (order 0:
    the :meth:`EvalBlock.quotient` of ``values``), and ``values``, the
    :class:`EvalBlock` of their order-0 entries (:meth:`GluedEvaluator.at`'s bits)."""
    dim = evaluator.family.dim
    gt, f, phi = evaluator.jets(s, order, own_z)
    values = EvalBlock.of_jets(s, evaluator.z, gt, f, phi)
    g = jets.jet_mul(gt, jets.jet_reciprocal(phi, dim, order)[:, None], dim, order)
    g[0] = values.quotient().swapaxes(0, 1)
    return g, f, values


def g_partial(glued: GluedSolution, z, s, alpha) -> np.ndarray:
    """d^alpha_s of the glued solution at (z, s); order 0 returns
    :func:`g_eval`'s bits.  ``z`` may be scalar or an array.  Raises the |phi|
    guard's InternalInconsistency, as :func:`g_eval` does."""
    alpha = as_alpha(alpha, glued.family.dim)
    z = np.asarray(z, dtype=complex)
    evaluator = GluedEvaluator(glued.family, glued.cover, glued.points, z)
    g, _, values = _solution_jets(evaluator, _one_point(glued.family, s), sum(alpha))
    if (breach := values.breach()) is not None:
        raise breach
    return jets.jet_extract(g, alpha, sum(alpha))[:, 0].reshape((-1,) + z.shape)


TAYLOR_STEPS = 32   # halvings of the Taylor ladder
TAYLOR_FLOOR = 16   # remainders under this many eps times g's scale are rounding


def taylor_orders(glued: GluedSolution, s, z, directions, order: int, h0: float):
    """Observed convergence orders of the Taylor remainder of g at the
    (n, d) block of points ``s``, point i at z[i], along each row v of the
    (m, d) ``directions``.

    R(h) = ||g(z, s + h v) - sum_{|b| <= order} J_b (h v)^b||_2, with J the
    jet of g at (z, s) truncated at ``order``, on the ladder h_j = h0 2^-j,
    j < TAYLOR_STEPS; h v is the step from s to the rounded ladder point.
    A pair (point, direction) reads log2(R(h_{j-1}) / R(h_j)) at the largest
    j where both remainders lie above the floor TAYLOR_FLOOR eps (||g(z, s)||
    + sum_i max(|a_i|, |b_i|) ||d g / d s_i (z, s)||), [a_i, b_i] the box's
    axis i, whose second term (for order >= 1) is the rounding of the ladder
    point's coordinates: order + 1 where the jet is right, and the order of
    its first wrong coefficient where it is not.  A pair under the floor at
    every step is exact to rounding and reads +inf; a NaN remainder or floor
    reads NaN.

    Returns the (n, m) orders and the |phi| >= 1/2 guard's
    InternalInconsistency of the first block (``s``, then the ladder) to trip it, or None.
    The ladder is evaluated point-major, each row at its own point's z, in
    blocks of 8 EVAL_BUDGET (row, center) pairs, as verify's weights are:
    the cost per call is paid a few dozen times and the peak RSS does not
    move."""
    family, cover = glued.family, glued.cover
    s, z = np.asarray(s, dtype=float), np.asarray(z, dtype=complex)
    directions = np.asarray(directions, dtype=float)
    jet, _, values = _solution_jets(GluedEvaluator(family, cover, glued.points, z), s,
                                    order, own_z=True)
    jet, breach = jet[..., 0], values.breach()
    indices = np.array(jets.multi_indices(family.dim, order))
    h = h0 * 0.5 ** np.arange(TAYLOR_STEPS)
    shape = (len(s), len(directions), TAYLOR_STEPS)
    point, direction, step = np.unravel_index(np.arange(math.prod(shape)), shape)
    remainders = np.empty(math.prod(shape))
    size = max(1, 8 * EVAL_BUDGET // max(family.size, cover.size))
    for start in range(0, len(point), size):
        rows = slice(start, start + size)
        p, offset = point[rows], h[step[rows], None] * directions[direction[rows]]
        ladder = s[p] + offset
        # the step actually taken: the ladder point is rounded, and the
        # Taylor polynomial is evaluated where g is
        offset = ladder - s[p]
        block = EvalBlock.of_jets(
            ladder, z[p], *GluedEvaluator(family, cover, glued.points, z[p]).jets(ladder, 0, True))
        breach = breach or block.breach()
        # the Taylor polynomial at each row's step h v, term by term in
        # layout order
        monomials = np.prod(offset[:, None] ** indices, axis=2)
        taylor = sum_in_order(jet[:, :, p] * monomials.T[:, None])
        remainders[rows] = hnorm.l2(block.quotient()[..., 0].T - taylor)
    remainders = remainders.reshape(shape)
    # rounding a coordinate s_i moves g by up to eps max(|a_i|, |b_i|) times
    # its first derivative, so the floor's scale adds those terms
    scale = hnorm.l2(jet[0])
    for (a, b), unit in zip(family.box, np.eye(family.dim, dtype=int) if order else ()):
        scale = scale + max(abs(a), abs(b)) * hnorm.l2(jet[jets.position(unit, order)])
    floor = TAYLOR_FLOOR * np.finfo(float).eps * scale
    above = remainders > floor[:, None, None]
    pairs = above[..., 1:] & above[..., :-1]
    last = TAYLOR_STEPS - 1 - np.argmax(pairs[..., ::-1], axis=-1)[..., None]
    found = pairs.any(-1)
    orders = np.log2(np.divide(np.take_along_axis(remainders, last - 1, -1)[..., 0],
                               np.take_along_axis(remainders, last, -1)[..., 0],
                               out=np.full(found.shape, np.inf), where=found))
    orders[np.isnan(remainders).any(-1) | np.isnan(floor)[:, None]] = np.nan
    return orders, breach


_FD_FLOOR = 1e-8


def _stencil(alpha, h: float):
    """Central-difference offsets, their weights and the divisor for
    d^alpha, |alpha| in {1, 2}."""
    order = sum(alpha)
    if order not in (1, 2):
        raise ValueError("finite-difference check supports orders 1 and 2")
    steps = np.eye(len(alpha)) * h
    if order == 1:
        e = steps[alpha.index(1)]
        stencil, scale = ((e, 1.0), (-e, -1.0)), 2.0 * h
    elif 2 in alpha:
        e = steps[alpha.index(2)]
        stencil, scale = ((e, 1.0), (np.zeros(len(alpha)), -2.0), (-e, 1.0)), h * h
    else:
        ex, ey = steps
        stencil = ((ex + ey, 1.0), (ex - ey, -1.0), (-ex + ey, -1.0), (-ex - ey, 1.0))
        scale = 4.0 * h * h
    return np.array([delta for delta, _ in stencil]), [c for _, c in stencil], scale


def fd_check(glued: GluedSolution, z, s, alpha, h: float) -> float:
    """Central-difference check of :func:`g_partial` for d^alpha, |alpha| in
    {1, 2}, at one point (z, s): the relative deviation (absolute where the
    derivative is numerically zero).  Raises the |phi| guard's
    InternalInconsistency for a stencil point that trips it."""
    alpha = as_alpha(alpha, glued.family.dim)
    offsets, weights, scale = _stencil(alpha, h)
    point = np.atleast_1d(np.asarray(s, dtype=float))
    z = np.reshape(np.asarray(z, dtype=complex), 1)
    g = GluedEvaluator(glued.family, glued.cover, glued.points, z).at(point + offsets).g()
    fd = functools.reduce(np.add, [c * gj[:, 0] for c, gj in zip(weights, g)]) / scale
    analytic = g_partial(glued, z, point, alpha)[:, 0]
    size = np.linalg.norm(analytic)
    return float(np.linalg.norm(fd - analytic) / (size if size > _FD_FLOOR else 1.0))


@dataclass(frozen=True)
class CAlphaReport:
    """Grid estimates of the C^k norms of the solution and the data, k = 0..order:
    ``per_index`` holds (alpha, g, f) maxima in lexicographic alpha order; the
    :class:`hnorm.Worst` fields, the sampled maxima of |1 - phi|, ||gtilde||,
    |g^T f - 1| and ||g|| (g its jet's order 0, past a breach too) with (z, s)
    witnesses; ``breach`` the first block's tripped |phi| >= 1/2 guard, or None."""

    order: int
    axis_samples: int
    boundary_samples: int
    per_index: tuple
    residual: hnorm.Worst
    gtilde_norm: hnorm.Worst
    identity: hnorm.Worst
    g_norm: hnorm.Worst
    breach: InternalInconsistency | None = None

    @property
    def per_order(self) -> list:
        """Row k: ||g||_{C^k}, ||f||_{C^k} and their ratio, maxima over |alpha| <= k
        (a NaN sticks); a jet coefficient has the same bits at every truncation
        order, so row k is the order-k report's top row."""
        maxima = [np.max([(g, f) for a, g, f in self.per_index if sum(a) <= k], axis=0).tolist()
                  for k in range(self.order + 1)]
        return [{"order": k, "g": g, "f": f, "ratio": g / max(f, float(np.finfo(float).tiny))}
                for k, (g, f) in enumerate(maxima)]

    def to_dict(self):
        return {
            "order": self.order,
            "axis_samples": self.axis_samples,
            "boundary_samples": self.boundary_samples,
            "per_order": self.per_order,
            "per_index": [
                {"alpha": list(a), "g": g, "f": f} for a, g, f in self.per_index
            ],
        }


def cnorm_report(glued: GluedSolution, order: int, axis_samples: int = 33,
                 boundary_samples: int = 256) -> CAlphaReport:
    """Estimate ||g|| and ||f|| in the C^order(K; H-infinity, l2) sense by
    maximizing over an s-grid, all multi-indices of total order <= order, and
    boundary-circle z samples (each parameter derivative is analytic in z, so
    the maximum principle applies).  One jet pass per block of grid points
    gives both, at every order up to ``order``: the derivatives of f are those
    of the data jets that :func:`_solution_jets` builds phi from, reduced the
    same way as g's.  The same pass's order 0 gives verify's sampled maxima,
    whose sups over the disc sit on the circle too (|1 - phi|, ||gtilde||
    and ||g|| = ||gtilde|| / |phi| with |phi| >= 1/2 are subharmonic in z).
    Past a tripped |phi| guard the report carries it."""
    family = glued.family
    if order < 0:
        raise ValueError("order must be nonnegative")
    indices = jets.multi_indices(family.dim, order)

    def maxima(jet):
        # the l2 modulus per (point, z), its max over the block; NaN sticks
        return hnorm.l2(jets.jet_derivatives(jet, family.dim, order), axis=1).max(axis=(1, 2))

    evaluator = GluedEvaluator(family, glued.cover, glued.points,
                               hnorm.boundary_points(boundary_samples))
    g_best = f_best = np.zeros(len(indices))
    residual, gtilde_norm, identity, g_norm = (hnorm.Worst() for _ in range(4))
    breach = None
    for s in grid_blocks(hnorm.box_axes(family.box, axis_samples), evaluator.block_size):
        g_jets, f_jets, block = _solution_jets(evaluator, s, order)
        breach = breach or block.breach()
        g_best = np.maximum(g_best, maxima(g_jets))
        f_best = np.maximum(f_best, maxima(f_jets))
        g = g_jets[0].swapaxes(0, 1)
        residual.update(np.abs(1.0 - block.phi), block.point)
        gtilde_norm.update(hnorm.l2(block.gtilde, axis=1), block.point)
        identity.update(np.abs(sum_in_order(g * block.f, axis=1) - 1.0), block.point)
        g_norm.update(hnorm.l2(g, axis=1), block.point)
    return CAlphaReport(order, axis_samples, boundary_samples,
                        tuple(zip(indices, g_best.tolist(), f_best.tolist())),
                        residual, gtilde_norm, identity, g_norm, breach)
