"""Parameter derivatives of the glued solution and C^alpha norm reports.

One derivative mechanism everywhere: truncated jets in the parameter (see
:mod:`coronaglue.jets`).  :meth:`coronaglue.glue.GluedEvaluator.jets` is the
one pass that builds the jets of gtilde, f and phi (the weights through the
bump machinery, the data through exact Taylor coefficients of its parameter
polynomials); this module forms the quotient g = gtilde / phi through the
jet reciprocal, which is valid wherever |phi| >= 1/2.

Every jet carries a trailing axis over a block of parameter points: the C^k
report sweeps the evaluator's blocks of its s-grid and reads the norms of
both g and f off the jets of that one pass (the data's jets are the ones phi
is built from), and the finite-difference spot checks take one jet pass and
one stencil block per derivative order, each point and each of its stencil
points at the point's own z.  The single-point :func:`g_partial` and
:func:`fd_check` are blocks of one through the same code, and every point of
a block gets the bits it gets alone.

The norm reports never assert an inequality: the contract is finiteness
(a NaN sample makes a maximum NaN) and stability under grid refinement, with
the g-to-f ratio left to the reader.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import hnorm, jets
from .glue import EvalBlock, GluedEvaluator, GluedSolution, grid_blocks
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
    evaluator = GluedEvaluator(glued.family, glued.pou, glued.points, z)
    g, _ = _solution_jets(evaluator, [np.atleast_1d(np.asarray(s, dtype=float))],
                          sum(alpha))
    return jets.jet_extract(g, alpha, sum(alpha))[:, 0].reshape((-1,) + z.shape)


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


def fd_deviations(glued: GluedSolution, z, s, alphas, h: float):
    """Central-difference verification of :func:`g_partial` for each
    multi-index in ``alphas`` (of order 1 or 2) at the (n, d) block of
    points ``s``, point i at z[i].  Returns the relative deviations, shape
    (n, len(alphas)) (absolute where the derivative is numerically zero),
    and per point, per multi-index, the |phi| >= 1/2 guard's
    InternalInconsistency for its stencil, or None.

    All stencils are one block on their own evaluator, each stencil point
    at its point's z only (``own_z``), and the derivatives come from one jet
    pass, so a (point, multi-index) pair has the bits it has alone, and the
    guard sees exactly its stencil's (point, z) pairs."""
    family = glued.family
    alphas = [as_alpha(alpha, family.dim) for alpha in alphas]
    stencils = [_stencil(alpha, h) for alpha in alphas]
    s = np.asarray(s, dtype=float)
    z = np.asarray(z, dtype=complex).ravel()
    stencil = s[:, None] + np.concatenate([offsets for offsets, _, _ in stencils])
    n, m = stencil.shape[:2]
    gtilde, f, phi = GluedEvaluator(family, glued.pou, glued.points, np.repeat(z, m)).jets(
        stencil.reshape(n * m, -1), 0, own_z=True)
    gtilde, f = (np.moveaxis(a[0], 0, 1).reshape(n, m, -1, 1) for a in (gtilde, f))
    phi = phi[0].reshape(n, m, 1)
    g = gtilde[..., 0] / phi

    order = max(map(sum, alphas))
    evaluator = GluedEvaluator(family, glued.pou, glued.points, z)
    jet, _ = _solution_jets(evaluator, s, order, own_z=True)
    devs, breaches = [], []
    ends = itertools.accumulate(len(weights) for _, weights, _ in stencils)
    for alpha, (_, weights, scale), end in zip(alphas, stencils, ends):
        run = slice(end - len(weights), end)
        breaches.append([EvalBlock(stencil[i, run], z[i:i + 1], gtilde[i, run], f[i, run],
                                   phi[i, run]).breach() for i in range(n)])
        fd = functools.reduce(np.add, [c * g[:, j] for j, c in
                                       enumerate(weights, run.start)]) / scale
        # one contiguous row per point, as each point alone has it
        analytic = np.ascontiguousarray(jets.jet_extract(jet, alpha, order)[..., 0].T)
        size = np.linalg.norm(analytic, axis=1)
        devs.append(np.linalg.norm(fd - analytic, axis=1) / np.where(size > _FD_FLOOR, size, 1.0))
    return np.stack(devs, axis=1), [list(point) for point in zip(*breaches)]


def fd_check(glued: GluedSolution, z, s, alpha, h: float) -> float:
    """:func:`fd_deviations` at one point, one z value and one multi-index;
    raises the |phi| guard's InternalInconsistency."""
    dev, ((breach,),) = fd_deviations(glued, np.reshape(np.asarray(z, dtype=complex), 1),
                                      [np.atleast_1d(np.asarray(s, dtype=float))], [alpha], h)
    if breach is not None:
        raise breach
    return float(dev[0, 0])


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

    evaluator = GluedEvaluator(family, glued.pou, glued.points, z)
    g_best = f_best = np.zeros(len(indices))
    for s in grid_blocks(hnorm.box_axes(family.box, axis_samples), evaluator.block_size):
        g_jets, f_jets = _solution_jets(evaluator, s, order)
        g_best = np.maximum(g_best, maxima(g_jets))
        f_best = np.maximum(f_best, maxima(f_jets))
    return CAlphaReport.from_per_index(
        order, list(zip(indices, g_best.tolist(), f_best.tolist())),
        axis_samples, boundary_samples)
