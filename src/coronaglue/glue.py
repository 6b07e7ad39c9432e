"""The gluing pipeline: pointwise solutions at cover centers, convex
combination, certified residual gate, and the division-normalized solution.

Stages of :func:`solve`:

1. certify the corona lower bound over disc x box (hard gate);
2. pilot norm bound from solves at the box corners and midpoint;
3. cover radius from the data's parameter Lipschitz bound and the pilot;
4. Bezout solves at every cover center, one after another;
5. perturbation check: Lipschitz-times-radius must fit the residual budget
   (1/2 when all centers solved exactly, 1/4 with the least-norm fallback in
   play, matching the 1/4 + 1/4 budget split);
6. residual certificate for sup |1 - gtilde^T f| over disc x box, gate 1/2;
7. on failure halve the radius and repeat, at most ``max_refinements`` times.

The final solution is an evaluator: g(z,s) = gtilde(z,s) / phi(z,s) with
phi = gtilde^T f computed pointwise, so g^T f = 1 holds to division rounding
at every evaluated point and ||g|| <= 2 C0 wherever |phi| >= 1/2.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import hnorm
from .bezout_point import PointSolution, RESIDUAL_ACCEPT, solve_point
from .cover_pou import (
    Cover,
    PartitionOfUnity,
    build_cover,
    lipschitz_s_bound,
    modulus_inverse,
)
from .errors import (
    CoronaGlueError,
    CoronaUncertified,
    InternalInconsistency,
    RefinementExhausted,
)
from .hnorm import DiscKGrid, NormCert
from .polyalg import CPoly, ParamFamily, ZSPoly, eval_family

RESIDUAL_GATE = 0.5


@dataclass(frozen=True)
class SolveOptions:
    boundary_samples: int = 512
    radial_samples: int = 64
    angular_samples: int = 128
    axis_samples: int = 33
    degree_cap_factor: int = 8
    max_refinements: int = 6

    @property
    def grid(self) -> DiscKGrid:
        return DiscKGrid(self.radial_samples, self.angular_samples,
                         self.axis_samples)


@dataclass(frozen=True)
class PointSolutionSet:
    """Solutions aligned with the cover centers; c0 is the uniform norm
    bound actually achieved (max of the certificate uppers)."""

    solutions: tuple
    c0: float

    def __post_init__(self):
        if not self.solutions:
            raise ValueError("empty solution set")
        worst = max(s.residual_cert.hi for s in self.solutions)
        if worst > RESIDUAL_ACCEPT:
            raise ValueError(
                f"point residual {worst:.3e} exceeds the {RESIDUAL_ACCEPT} budget"
            )

    @property
    def all_exact(self) -> bool:
        return all(s.is_exact for s in self.solutions)

    @staticmethod
    def from_solutions(solutions):
        solutions = tuple(solutions)
        c0 = max(s.norm_cert.hi for s in solutions)
        return PointSolutionSet(solutions, c0)


@dataclass(frozen=True)
class GluedSolution:
    family: ParamFamily
    pou: PartitionOfUnity
    points: PointSolutionSet
    delta_cert: NormCert
    sup_cert: NormCert
    residual_cert: NormCert
    refinements: int

    @property
    def cover(self) -> Cover:
        return self.pou.cover

    @property
    def c0(self) -> float:
        return self.points.c0


def _solve_at(family: ParamFamily, s, options: SolveOptions) -> PointSolution:
    return solve_point(family.freeze(np.asarray(s)), options.boundary_samples,
                       options.degree_cap_factor, options.grid)


def solve_at_samples(family: ParamFamily, cover: Cover,
                     options: SolveOptions = SolveOptions()) -> PointSolutionSet:
    """Freeze the family at every cover center and solve there."""
    try:
        solutions = [_solve_at(family, c, options) for c in cover.centers]
    except CoronaGlueError as exc:
        exc.args = (f"pointwise solve failed: {exc.args[0]}",) + exc.args[1:]
        raise
    return PointSolutionSet.from_solutions(solutions)


def radius_check(family: ParamFamily, cover: Cover, c0: float,
                 all_exact: bool):
    """Perturbation-budget check L_s * r * c0 <= threshold, with threshold
    1/2 for exact point solves and 1/4 when the fallback residual budget is
    in play.  Returns (passed, margin, threshold)."""
    threshold = RESIDUAL_GATE if all_exact else RESIDUAL_ACCEPT
    lip = lipschitz_s_bound(family)
    if lip == 0.0:
        return True, math.inf, threshold
    margin = threshold / c0 - lip * cover.radius
    return margin >= 0.0, margin, threshold


def gtilde_eval(pou: PartitionOfUnity, points: PointSolutionSet, z, s):
    """Convex combination sum_k eta_k(s) g_{s_k}(z); shape (N_f,) + z.shape."""
    weights = pou.weights(s)
    z_arr = np.asarray(z, dtype=complex)
    n_comp = len(points.solutions[0].g)
    out = np.zeros((n_comp,) + z_arr.shape, dtype=complex)
    for w, sol in zip(weights, points.solutions):
        if w == 0.0:
            continue
        for m, gm in enumerate(sol.g):
            out[m] += w * np.asarray(gm.eval(z_arr))
    return out


def phi_eval(family: ParamFamily, pou: PartitionOfUnity,
             points: PointSolutionSet, z, s):
    """phi = gtilde^T f at (z, s); returns (phi, gtilde)."""
    gt = gtilde_eval(pou, points, z, s)
    fv = eval_family(family, z, s)
    return (gt * fv).sum(axis=0), gt


def g_eval(glued: GluedSolution, z, s):
    """The glued solution g = gtilde / phi; requires |phi| >= 1/2, which the
    residual certificate guarantees -- a violation means the certificate was
    wrong and is reported as an internal inconsistency."""
    phi, gt = phi_eval(glued.family, glued.pou, glued.points, z, s)
    mods = np.abs(np.asarray(phi))
    if np.any(mods < RESIDUAL_GATE):
        if mods.ndim:
            bad = np.unravel_index(int(np.argmin(mods)), mods.shape)
            zv = complex(np.asarray(z, dtype=complex)[bad])
        else:
            zv = complex(z)
        raise InternalInconsistency(
            f"|phi| = {float(mods.min()):.4g} < 1/2 at z = {zv:.6g}, "
            f"s = {np.atleast_1d(s).tolist()}: residual certificate was wrong",
            witness=(zv, tuple(np.atleast_1d(s))),
        )
    return gt / phi


def residual_certify(family: ParamFamily, pou: PartitionOfUnity,
                     points: PointSolutionSet, boundary_samples: int = 256,
                     axis_samples: int = 33) -> NormCert:
    """Bracket sup over disc x box of |1 - gtilde^T f|.

    Upper end: for each center k the scalar q_k = g_{s_k}^T f(., s) is a
    polynomial in (z, s); |1 - gtilde^T f| is a convex combination of the
    |1 - q_k|, so it is bounded by the worst sup of |1 - q_k| over the bump's
    support box, certified by boundary sampling in z (maximum principle)
    plus coefficient-sum Lipschitz slack in z and s.  Lower end: direct
    sampling of |1 - gtilde^T f| on a global grid.
    """
    box = family.box
    radius = pou.cover.radius
    z = hnorm.boundary_points(boundary_samples)
    dim = family.dim
    one = ZSPoly.from_cpoly(CPoly.one(), dim)
    hi = 0.0
    count = 0
    for center, sol in zip(pou.cover.centers, points.solutions):
        if math.isinf(radius):
            supp = box
        else:
            supp = tuple(
                (max(a, c - radius), min(b, c + radius))
                for (a, b), c in zip(box, center)
            )
        resid = -one
        for gm, comp in zip(sol.g, family.components):
            resid = resid + ZSPoly.from_cpoly(gm, dim) * comp
        axes = [np.linspace(a, b, axis_samples) for a, b in supp]
        values = np.abs(resid.eval_sgrid(axes, z))
        count += values.size
        slack = (math.pi / boundary_samples) * resid.z_lipschitz_bound(supp)
        for axis in range(dim):
            half_step = (supp[axis][1] - supp[axis][0]) / (2.0 * (axis_samples - 1))
            slack += float(np.sum(resid.partial(axis).coeff_bounds(supp))) * half_step
        hi = max(hi, float(values.max()) + slack)

    lo = 0.0
    axes = [np.linspace(a, b, axis_samples) for a, b in box]
    for s in itertools.product(*axes):
        phi, _ = phi_eval(family, pou, points, z, np.asarray(s))
        lo = max(lo, float(np.abs(1.0 - phi).max()))
        count += z.size
    return NormCert(lo, max(hi, lo), "glued residual sup", count)


def _pilot_c0(family: ParamFamily, options: SolveOptions) -> float:
    """Norm bound from corner and midpoint solves; breaks the circular
    dependency between the cover radius and the point solutions."""
    pts = [tuple(p) for p in itertools.product(*family.box)]
    pts.append(tuple((a + b) / 2.0 for a, b in family.box))
    c0 = 0.0
    for s in pts:
        c0 = max(c0, _solve_at(family, s, options).norm_cert.hi)
    return c0


def solve(family: ParamFamily, options: SolveOptions = SolveOptions()):
    """Full pipeline; returns (GluedSolution, stage timings in seconds)."""
    timings = {}
    t0 = time.perf_counter()
    delta = hnorm.delta_lower(family, options.grid)
    timings["corona_check"] = time.perf_counter() - t0
    if delta.lo <= 0.0:
        raise CoronaUncertified(
            f"corona condition not certified: lower bound {delta.lo:.4g} <= 0 "
            "(genuine failure or insufficient grid)",
            certificate=delta,
        )
    sup = hnorm.sup_family(family, options.grid, options.boundary_samples)

    t0 = time.perf_counter()
    pilot = _pilot_c0(family, options)
    timings["pilot_solves"] = time.perf_counter() - t0

    lip = lipschitz_s_bound(family)
    radius = modulus_inverse(1.0 / (2.0 * pilot), lip)

    failure_stage, failure_cert = "radius_check", None
    t0 = time.perf_counter()
    for round_index in range(options.max_refinements + 1):
        cover = build_cover(family.box, radius)
        points = solve_at_samples(family, cover, options)
        passed, _margin, _threshold = radius_check(
            family, cover, points.c0, points.all_exact
        )
        if passed:
            pou = PartitionOfUnity(cover)
            timings["point_solves"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            cert = residual_certify(family, pou, points,
                                    max(256, options.angular_samples),
                                    options.axis_samples)
            timings["residual_certify"] = time.perf_counter() - t0
            if cert.hi <= RESIDUAL_GATE:
                return (
                    GluedSolution(family, pou, points, delta, sup, cert,
                                  round_index),
                    timings,
                )
            failure_stage, failure_cert = "residual_gate", cert
            t0 = time.perf_counter()
        if math.isinf(radius):
            break
        radius /= 2.0
    raise RefinementExhausted(
        f"no passing cover after {options.max_refinements} refinements "
        f"(last failure at {failure_stage})",
        stage=failure_stage,
        certificate=failure_cert,
    )
