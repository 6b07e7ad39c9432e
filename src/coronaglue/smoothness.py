"""Parameter derivatives of the glued solution and C^alpha norm reports.

One derivative mechanism everywhere: truncated jets in the parameter (see
:mod:`coronaglue.jets`).  The weights contribute jets through the bump
machinery, the data through exact Taylor coefficients of its parameter
polynomials, and the quotient g = gtilde / phi through the jet reciprocal,
which is valid wherever |phi| >= 1/2.

The norm reports never assert an inequality: the contract is finiteness and
stability under grid refinement, with the g-to-f ratio left to the reader.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import hnorm, jets
from .glue import GluedEvaluator, GluedSolution
from .polyalg import as_alpha, partial_s


def _solution_jets(evaluator: GluedEvaluator, s, order, shape):
    """Jets of every component of g at (z, s), truncated at total order
    ``order``, for the evaluator's z array reshaped to ``shape``; a list of
    N_f arrays of shape (jet size,) + shape.  Each live center's solution
    values are its row of the evaluator's table."""
    family = evaluator.family
    dim = family.dim
    z_arr = evaluator.z.reshape(shape)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    family.require_inside(s)

    eta = evaluator.pou.weight_jets(s, order)
    gt = [jets.jet_const(0.0, dim, order, shape, complex) for _ in range(family.size)]
    # only the centers whose bump holds s contribute
    for k in np.flatnonzero(eta[:, 0]):
        ej = eta[k].reshape(eta[k].shape + (1,) * len(shape))
        for m, gkm in enumerate(evaluator.row(k)):
            gt[m] = gt[m] + ej * gkm.reshape(shape)

    phi = jets.jet_const(0.0, dim, order, shape, complex)
    for m, comp in enumerate(family.components):
        fj = comp.taylor_coeffs(tuple(s), order, z_arr)
        phi = phi + jets.jet_mul(gt[m], fj, dim, order)
    inv = jets.jet_reciprocal(phi, dim, order)
    return [jets.jet_mul(g, inv, dim, order) for g in gt]


def g_partial(glued: GluedSolution, z, s, alpha) -> np.ndarray:
    """d^alpha_s of the glued solution at (z, s); order 0 reproduces the
    plain evaluator.  ``z`` may be scalar or an array."""
    alpha = as_alpha(alpha, glued.family.dim)
    z = np.asarray(z, dtype=complex)
    evaluator = GluedEvaluator(glued.family, glued.pou, glued.points, z)
    comps = _solution_jets(evaluator, s, sum(alpha), z.shape)
    return np.stack([jets.jet_extract(c, alpha, sum(alpha)) for c in comps])


_FD_FLOOR = 1e-8


def fd_check(glued: GluedSolution, z, s, alpha, h: float) -> float:
    """Central-difference verification of :func:`g_partial` for |alpha| in
    {1, 2}; returns the relative deviation (absolute when the derivative is
    numerically zero)."""
    alpha = as_alpha(alpha, glued.family.dim)
    order = sum(alpha)
    if order not in (1, 2):
        raise ValueError("finite-difference check supports orders 1 and 2")
    s = np.atleast_1d(np.asarray(s, dtype=float))
    steps = np.eye(len(s)) * h
    if order == 1:
        e = steps[alpha.index(1)]
        stencil, scale = ((e, 1.0), (-e, -1.0)), 2.0 * h
    elif 2 in alpha:
        e = steps[alpha.index(2)]
        stencil, scale = ((e, 1.0), (np.zeros(len(s)), -2.0), (-e, 1.0)), h * h
    else:
        ex, ey = steps
        stencil = ((ex + ey, 1.0), (ex - ey, -1.0), (-ex + ey, -1.0), (-ex - ey, 1.0))
        scale = 4.0 * h * h
    # the stencil points form one evaluator block, behind its |phi| guard
    z = np.asarray(z, dtype=complex)
    g = GluedEvaluator(glued.family, glued.pou, glued.points, z).at(
        [s + delta for delta, _ in stencil]).g()
    fd = (functools.reduce(np.add, [c * gi for (_, c), gi in zip(stencil, g)])
          / scale).reshape((-1,) + z.shape)

    analytic = g_partial(glued, z, s, alpha)
    err = float(np.linalg.norm(np.ravel(fd - analytic)))
    scale = float(np.linalg.norm(np.ravel(analytic)))
    return err / scale if scale > _FD_FLOOR else err


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
        g_norm = max(g for _, g, _ in per_index)
        f_norm = max(f for _, _, f in per_index)
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
    the maximum principle applies)."""
    family = glued.family
    if order < 0:
        raise ValueError("order must be nonnegative")
    indices = jets.multi_indices(family.dim, order)
    z = hnorm.boundary_points(boundary_samples)
    axes = [np.linspace(a, b, axis_samples) for a, b in family.box]

    evaluator = GluedEvaluator(family, glued.pou, glued.points, z)
    g_best = np.zeros(len(indices))
    for s in itertools.product(*axes):
        comps = _solution_jets(evaluator, s, order, z.shape)
        sq = functools.reduce(np.add, [np.abs(jets.jet_derivatives(cj, family.dim, order)) ** 2
                                       for cj in comps])
        # fmax: a NaN sample leaves the maximum as it was
        g_best = np.fmax(g_best, np.sqrt(sq.max(axis=1)))

    per_index = []
    for ix, g in zip(indices, g_best.tolist()):
        modulus = hnorm.sample_modulus(partial_s(family, ix).components, z,
                                       family.box, axis_samples)
        per_index.append((ix, g, float(modulus.max())))
    return CAlphaReport.from_per_index(order, per_index, axis_samples,
                                       boundary_samples)
