"""Parameter derivatives of the glued solution and C^alpha norm reports.

One derivative mechanism everywhere: truncated jets in the parameter (see
:mod:`coronaglue.jets`).  :meth:`coronaglue.glue.GluedEvaluator.jets` is the
one pass that builds the jets of gtilde, f and phi (the weights through the
bump machinery, the data through exact Taylor coefficients of its parameter
polynomials); this module forms the quotient g = gtilde / phi through the
jet reciprocal, which is valid wherever |phi| >= 1/2.

Every jet carries a trailing axis over a block of parameter points: the C^k
report, which verify alone runs, sweeps the evaluator's blocks of its s-grid
and reads the norms of both g and f off the jets of that one pass (the
data's jets are the ones phi is built from), and the single-point
:func:`g_partial` is a block of one through the same code; every point of a
block gets the bits it gets alone.

:func:`taylor_orders` is verify's derivative check (Farrell, Ham, Funke and
Rognes, SIAM J. Sci. Comput. 35(4), 2013): the remainder of a right jet of
order K shrinks like h^(K+1) along a ladder of halving steps, and a wrong
coefficient of order k <= K shows as order k, with no tolerance tied to
the scale of g or of the cover.  Its jets and its ladder's values come from
the same evaluator, each point at its own z.  :func:`fd_check`, a
central-difference oracle at one point, stays for the tests.

The norm reports never assert an inequality: the contract is finiteness
(a NaN sample makes a maximum NaN) and stability under grid refinement, with
the g-to-f ratio left to the reader.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import hnorm, jets
from .glue import (EVAL_BUDGET, RESIDUAL_GATE, EvalBlock, GluedEvaluator, GluedSolution,
                   grid_blocks)
from .polyalg import as_alpha, sum_in_order


def _solution_jets(evaluator: GluedEvaluator, s, order, own_z=False):
    """(g jets, f jets) at the (n, d) block of parameter points ``s``, each
    of shape (jet size, N_f, n, q): g = gtilde / phi from the jets of
    :meth:`GluedEvaluator.jets`, with the same ``order`` and ``own_z``."""
    dim = evaluator.family.dim
    gt, f, phi = evaluator.jets(s, order, own_z)
    inv = jets.jet_reciprocal(phi, dim, order)
    return jets.jet_mul(gt, inv[:, None], dim, order), f


def g_partial(glued: GluedSolution, z, s, alpha) -> np.ndarray:
    """d^alpha_s of the glued solution at (z, s); order 0 reproduces the
    plain evaluator.  ``z`` may be scalar or an array."""
    alpha = as_alpha(alpha, glued.family.dim)
    z = np.asarray(z, dtype=complex)
    evaluator = GluedEvaluator(glued.family, glued.cover, glued.points, z)
    g, _ = _solution_jets(evaluator, [np.atleast_1d(np.asarray(s, dtype=float))],
                          sum(alpha))
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
    InternalInconsistency at the first ladder point that trips it, or None.
    The ladder is evaluated point-major, each row at its own point's z, in
    blocks of 8 EVAL_BUDGET (row, center) pairs, as verify's weights are:
    the cost per call is paid a few dozen times and the peak RSS does not
    move."""
    family, cover = glued.family, glued.cover
    s, z = np.asarray(s, dtype=float), np.asarray(z, dtype=complex)
    directions = np.asarray(directions, dtype=float)
    jet, _ = _solution_jets(GluedEvaluator(family, cover, glued.points, z), s, order,
                            own_z=True)
    jet = jet[..., 0]
    indices = np.array(jets.multi_indices(family.dim, order))
    h = h0 * 0.5 ** np.arange(TAYLOR_STEPS)
    shape = (len(s), len(directions), TAYLOR_STEPS)
    point, direction, step = np.unravel_index(np.arange(math.prod(shape)), shape)
    remainders, breach = np.empty(math.prod(shape)), None
    size = max(1, 8 * EVAL_BUDGET // max(family.size, cover.size))
    for start in range(0, len(point), size):
        rows = slice(start, start + size)
        p, offset = point[rows], h[step[rows], None] * directions[direction[rows]]
        ladder = s[p] + offset
        # the step actually taken: the ladder point is rounded, and the
        # Taylor polynomial is evaluated where g is
        offset = ladder - s[p]
        gt, f, phi = GluedEvaluator(family, cover, glued.points, z[p]).jets(ladder, 0, True)
        gt, f, phi = gt[0].swapaxes(0, 1), f[0].swapaxes(0, 1), phi[0]
        tripped = np.flatnonzero(~(np.abs(phi[:, 0]) >= RESIDUAL_GATE))
        if breach is None and tripped.size:
            i = tripped[:1]
            breach = EvalBlock(ladder[i], z[p[i]], gt[i], f[i], phi[i]).breach()
        # the Taylor polynomial at each row's step h v, term by term in
        # layout order
        monomials = np.prod(offset[:, None] ** indices, axis=2)
        taylor = sum_in_order(jet[:, :, p] * monomials.T[:, None])
        remainders[rows] = np.sqrt(sum_in_order(np.abs(gt[..., 0].T / phi[:, 0] - taylor) ** 2))
    remainders = remainders.reshape(shape)
    # rounding a coordinate s_i moves g by up to eps max(|a_i|, |b_i|) times
    # its first derivative, so the floor's scale adds those terms
    scale = np.sqrt(sum_in_order(np.abs(jet[0]) ** 2))
    for (a, b), unit in zip(family.box, np.eye(family.dim, dtype=int) if order else ()):
        partial = jet[jets.position(unit, order)]
        scale = scale + max(abs(a), abs(b)) * np.sqrt(sum_in_order(np.abs(partial) ** 2))
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
    """Grid estimates of the C^alpha norms of the solution and the data;
    ``per_index`` holds (alpha, g, f) maxima in lexicographic alpha order."""

    order: int
    g_norm_estimate: float
    f_norm_estimate: float
    ratio: float
    axis_samples: int
    boundary_samples: int
    per_index: tuple

    @staticmethod
    def from_per_index(order, per_index, axis_samples, boundary_samples):
        g_norm = float(np.max([g for _, g, _ in per_index]))  # NaN sticks
        f_norm = float(np.max([f for _, _, f in per_index]))
        ratio = g_norm / max(f_norm, float(np.finfo(float).tiny))
        return CAlphaReport(order, g_norm, f_norm, ratio, axis_samples,
                            boundary_samples, tuple(per_index))

    def restricted(self, order: int) -> "CAlphaReport":
        """The report of a lower order: each jet of order k holds every
        lower order, so its per-index maxima are those with |alpha| <= order."""
        return CAlphaReport.from_per_index(
            order, [e for e in self.per_index if sum(e[0]) <= order],
            self.axis_samples, self.boundary_samples)

    def to_dict(self):
        return {
            "order": self.order,
            "g_norm_estimate": self.g_norm_estimate,
            "f_norm_estimate": self.f_norm_estimate,
            "ratio": self.ratio,
            "axis_samples": self.axis_samples,
            "boundary_samples": self.boundary_samples,
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
    gives both: the derivatives of f are those of the data jets that
    :func:`_solution_jets` builds phi from, reduced the same way as g's."""
    family = glued.family
    if order < 0:
        raise ValueError("order must be nonnegative")
    indices = jets.multi_indices(family.dim, order)
    z = hnorm.boundary_points(boundary_samples)

    def maxima(jet):
        # the l2 modulus per (point, z), its max per point, then over the
        # block; a NaN sample sticks
        sq = sum_in_order(np.abs(jets.jet_derivatives(jet, family.dim, order)) ** 2, axis=1)
        return np.sqrt(sq.max(axis=2)).max(axis=1)

    evaluator = GluedEvaluator(family, glued.cover, glued.points, z)
    g_best = f_best = np.zeros(len(indices))
    for s in grid_blocks(hnorm.box_axes(family.box, axis_samples), evaluator.block_size):
        g_jets, f_jets = _solution_jets(evaluator, s, order)
        g_best = np.maximum(g_best, maxima(g_jets))
        f_best = np.maximum(f_best, maxima(f_jets))
    return CAlphaReport.from_per_index(
        order, list(zip(indices, g_best.tolist(), f_best.tolist())),
        axis_samples, boundary_samples)
