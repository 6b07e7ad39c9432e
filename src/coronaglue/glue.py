"""The gluing pipeline: pointwise solutions at cover centers, convex
combination, certified residual gate, and the division-normalized solution.

Stages of :func:`solve`:

1. certify the corona lower bound (hard gate) and the data's sup norm
   over disc x box; a failed gate raises CoronaUncertified, which carries
   both certificates;
2. a first cover of one ball over the box;
3. Bezout solves at every cover center, one after another;
4. residual certificate for sup |1 - gtilde^T f| over disc x box, each
   center's term bounded over its bump's support ball, gate 1/2: the one
   gate that picks the cover, since |phi| >= 1/2 is all the gluing needs;
5. on failure halve the radius and repeat, at most ``max_refinements``
   times, so k halvings reach 2^k centers per axis; data constant in s
   stops after its first round, since a smaller ball changes nothing there.

The final solution is an evaluator: g(z,s) = gtilde(z,s) / phi(z,s) with
phi = gtilde^T f computed pointwise, so g^T f = 1 holds to division rounding
at every evaluated point and ||g|| <= 2 C0 wherever |phi| >= 1/2.

The cover is one object, a :class:`cover_pou.PartitionOfUnity`: its centers
and radius fix the weights, :func:`solve` builds it once per round, and a
:class:`GluedSolution` holds it as ``cover``.

One evaluator serves every reader of the solution.  :class:`GluedEvaluator`
holds the point solutions on one z array (the table G[k, m, z] =
g_{s_k, m}(z)) and computes the jets in s of gtilde, f and phi at an (n, d)
block of parameter points; a value is the order-0 jet.  The lower end of
:func:`residual_certify`, verify's sweep and the CSV export read values, each
array of a block within EVAL_BUDGET elements (one point per block when its z
array alone is larger); verify's C^k report and Taylor test and
``g_partial`` in :mod:`coronaglue.smoothness` read jets.
:meth:`EvalBlock.breach` is the one |phi| >= 1/2 guard (NaN fails it):
:func:`g_eval`, ``g_partial`` and the CSV export raise it, the C^k report
carries it, and verify records it as a failed check with its witness.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import hnorm, jets
from .bezout_point import RESIDUAL_ACCEPT, solve_point
from .config import SolverSettings
from .cover_pou import PartitionOfUnity, build_cover
from .errors import (
    CoronaGlueError,
    CoronaUncertified,
    DomainError,
    InternalInconsistency,
    RefinementExhausted,
)
from .hnorm import NormCert
from .polyalg import ParamFamily, ZSPoly, sum_in_order

RESIDUAL_GATE = 0.5
EVAL_BUDGET = 1 << 11   # complex elements in one array of an evaluator block


@dataclass(frozen=True)
class PointSolutionSet:
    """Solutions aligned with the cover centers; c0 is the uniform norm
    bound actually achieved (max of the certificate uppers)."""

    solutions: tuple

    def __post_init__(self):
        if not self.solutions:
            raise ValueError("empty solution set")
        worst = max(s.residual_cert.hi for s in self.solutions)
        if worst > RESIDUAL_ACCEPT:
            raise ValueError(
                f"point residual {worst:.3e} exceeds the {RESIDUAL_ACCEPT} budget"
            )

    @property
    def c0(self) -> float:
        return max(s.norm_cert.hi for s in self.solutions)


@dataclass(frozen=True)
class SolveRound:
    """One refinement round of :func:`solve`: the cover radius and center
    count it tried, the point solutions' c0, the residual certificate and
    the outcome, "passed" or "residual_gate"."""

    radius: float
    centers: int
    c0: float
    residual_cert: NormCert
    outcome: str


@dataclass(frozen=True)
class GluedSolution:
    """The glued solution; ``rounds`` is the refinement trace of the solve
    that built it (empty for a loaded one), which the solution file does
    not hold."""

    family: ParamFamily
    cover: PartitionOfUnity
    points: PointSolutionSet
    delta_cert: NormCert
    sup_cert: NormCert
    residual_cert: NormCert
    rounds: tuple = field(default=(), compare=False, repr=False)

    @property
    def c0(self) -> float:
        return self.points.c0

    @property
    def refinements(self) -> int:
        """The radius halvings of the solve that built it, its rounds but
        the first; -1 for a loaded solution, which has no rounds."""
        return len(self.rounds) - 1


def solve_at_samples(family: ParamFamily, cover: PartitionOfUnity,
                     options: SolverSettings = SolverSettings()) -> PointSolutionSet:
    """Freeze the family at every cover center and solve there."""
    try:
        solutions = [solve_point(family.freeze(np.asarray(c)), options.boundary_samples,
                                 options.degree_cap_factor) for c in cover.centers]
    except CoronaGlueError as exc:
        exc.args = (f"pointwise solve failed: {exc.args[0]}",) + exc.args[1:]
        raise
    return PointSolutionSet(tuple(solutions))


@dataclass(frozen=True)
class EvalBlock:
    """The glued solution on a block of parameter points times z values:
    ``s`` is (n, d), ``gtilde`` and ``f`` are (n, N_f, q) and ``phi`` is
    (n, q), each point at all q of ``z`` or at its own run of q of them."""

    s: np.ndarray
    z: np.ndarray
    gtilde: np.ndarray
    f: np.ndarray
    phi: np.ndarray

    def point(self, i: int) -> dict:
        """The (z, s) point of flat index ``i`` into an (n, q) array."""
        z, s = self.z[i % self.z.size], self.s[i // self.phi.shape[1]]
        return {"z": [float(z.real), float(z.imag)], "s": s.tolist()}

    def breach(self):
        """The |phi| >= 1/2 guard: an InternalInconsistency witnessed at the
        smallest |phi| if any falls below 1/2 (NaN counts), else None."""
        mods = np.abs(self.phi)
        if (mods >= RESIDUAL_GATE).all():
            return None
        i = int(np.argmin(mods))
        witness = self.point(i)
        return InternalInconsistency(
            f"|phi| = {mods.flat[i]:.4g} < 1/2 at z = {complex(*witness['z']):.6g}, "
            f"s = {witness['s']}: residual certificate was wrong", witness=witness)

    def g(self):
        """g = gtilde / phi behind the guard."""
        if (exc := self.breach()) is not None:
            raise exc
        return self.gtilde / self.phi[:, None]


class GluedEvaluator:
    """gtilde = sum_k eta_k(s) g_{s_k}, f and phi = gtilde^T f on one z array,
    for blocks of parameter points: their jets, and their values as the
    order-0 jets.

    Row k of the table G[k, m, z] = g_{s_k, m}(z) is built the first time a
    block needs center k and kept while the cache holds at most EVAL_BUDGET
    elements; a row-major sweep reuses nearly every row before it is
    dropped."""

    def __init__(self, family: ParamFamily, cover: PartitionOfUnity,
                 points: PointSolutionSet, z):
        self.family, self.cover, self.points = family, cover, points
        self.z = np.asarray(z, dtype=complex).ravel()
        self.block_size = max(1, EVAL_BUDGET // max(family.size * self.z.size,
                                                    cover.size))
        self._rows = {}

    def row(self, k: int) -> np.ndarray:
        """G[k]: every component of center k's solution on z; (N_f, nz)."""
        if k not in self._rows:
            if (len(self._rows) + 1) * self.family.size * self.z.size > EVAL_BUDGET:
                self._rows.clear()
            solution = self.points.solutions[k]
            self._rows[k] = np.stack([gm.eval(self.z) for gm in solution.g])
        return self._rows[k]

    def jets(self, s, order: int, own_z: bool = False):
        """(gtilde, f, phi): their jets in s, truncated at total order
        ``order``, at the (n, d) block of parameter points ``s``; gtilde and
        f of shape (jet size, N_f, n, q), phi of shape (jet size, n, q).
        Every point reads all q of the z values, or with ``own_z`` its own
        run of q = nz / n consecutive ones.  The weights come from one
        batched :meth:`PartitionOfUnity.weight_jets` call, and each point
        adds its centers to 0 in cover order, so it gets the bits it gets
        alone.  Raises ``DomainError`` for a block of another shape or a
        point outside the box."""
        family = self.family
        dim, size = family.dim, family.size
        s = np.asarray(s, dtype=float)
        family.require_inside(s)
        z = self.z.reshape(len(s) if own_z else 1, -1)
        batch = (size, len(s), z.shape[1])

        eta = self.cover.weight_jets(s, order)
        gt = jets.jet_const(0.0, dim, order, batch, complex)
        # each center adds to the points whose bump holds it, in cover order
        live = eta[:, 0] != 0.0
        for k in np.flatnonzero(live.any(axis=1)):
            rows = np.flatnonzero(live[k])
            gk = np.broadcast_to(self.row(k).reshape((size,) + z.shape), batch)
            gt[:, :, rows] += eta[k][:, None, rows, None] * gk[:, rows]

        f = family.poly.taylor_coeffs(s, order, z)
        return gt, f, sum_in_order(jets.jet_mul(gt, f, dim, order), axis=1)

    def at(self, s) -> EvalBlock:
        """The block at the (n, d) block of parameter points ``s``, one per
        row: the order-0 slice of :meth:`jets`.  Any other shape raises
        ``DomainError``."""
        s = np.asarray(s, dtype=float)
        gtilde, f, phi = self.jets(s, 0)
        return EvalBlock(s, self.z, gtilde[0].swapaxes(0, 1), f[0].swapaxes(0, 1), phi[0])

    def sweep(self, axes):
        """Blocks over the tensor grid of ``axes`` in row-major order."""
        return map(self.at, grid_blocks(axes, self.block_size))


def grid_blocks(axes, size: int):
    """The tensor grid of the 1-D arrays ``axes`` in row-major order, as
    (n, d) arrays of at most ``size`` rows."""
    grid = itertools.product(*axes)
    while block := list(itertools.islice(grid, size)):
        yield np.array(block, dtype=float)


def _one_point(family: ParamFamily, s) -> np.ndarray:
    """The parameter point ``s`` (a scalar in 1-D) as a block of one row;
    a point of another length raises ``DomainError``."""
    point = np.atleast_1d(np.asarray(s, dtype=float))
    if point.shape != (family.dim,):
        raise DomainError(f"a parameter point of shape {point.shape}, "
                          f"expected ({family.dim},)")
    return point[None]


def phi_eval(family: ParamFamily, cover: PartitionOfUnity,
             points: PointSolutionSet, z, s):
    """phi = gtilde^T f at (z, s), one parameter point; returns (phi,
    gtilde)."""
    z = np.asarray(z, dtype=complex)
    block = GluedEvaluator(family, cover, points, z).at(_one_point(family, s))
    return block.phi[0].reshape(z.shape), block.gtilde[0].reshape((-1,) + z.shape)


def g_eval(glued: GluedSolution, z, s):
    """The glued solution g = gtilde / phi at one parameter point; requires
    |phi| >= 1/2, which the residual certificate guarantees -- a violation
    means the certificate was wrong and is reported as an internal
    inconsistency."""
    z = np.asarray(z, dtype=complex)
    block = GluedEvaluator(glued.family, glued.cover, glued.points, z).at(
        _one_point(glued.family, s))
    return block.g()[0].reshape((-1,) + z.shape)


def residual_certify(family: ParamFamily, cover: PartitionOfUnity,
                     points: PointSolutionSet, boundary_samples: int = 256,
                     axis_samples: int = 33) -> NormCert:
    """Bracket sup over disc x box of |1 - gtilde^T f|.

    Upper end: for each center k the scalar q_k = g_{s_k}^T f(., s) is a
    polynomial in (z, s); |1 - gtilde^T f| is a convex combination of the
    |1 - q_k|, so it is bounded by the worst sup of |1 - q_k| over the bump's
    support ball (within the box), certified by :func:`hnorm.bracket` with
    that ball on the ball's bounding box (boundary sampling in z by the
    maximum principle, Lipschitz slack in z and s).  A bump is nonzero only
    where |s - s_k| < r (1 - ``cover_pou.BUMP_CLAMP``), so the ball of
    radius r leaves a margin of 1e-6 r against rounding in the node test.
    An infinite radius clips its ball to the whole box and keeps every node.
    Lower end: direct sampling of |1 - gtilde^T f| on a global grid.
    """
    box = family.box
    radius = cover.radius
    z = hnorm.boundary_points(boundary_samples)
    z_mesh = hnorm.boundary_mesh_radius(boundary_samples)
    hi, count = 0.0, 0
    for center, sol in zip(cover.centers, points.solutions):
        supp = tuple((max(a, c - radius), min(b, c + radius))
                     for (a, b), c in zip(box, center))
        # q_k - 1 = -1 + sum_m g_km f_m: one product for every component,
        # then one sum over them that starts at -1
        products = (ZSPoly.from_cpolys(sol.g, family.dim) * family.poly).coeffs
        terms = np.zeros((1 + len(products),) + products.shape[1:], dtype=complex)
        terms[(0,) * terms.ndim] = -1.0
        terms[1:] = products
        resid = ZSPoly(sum_in_order(terms)[None])
        cert = hnorm.bracket(resid, z, z_mesh, hnorm.GLUED_RESIDUAL, supp,
                             axis_samples, ball=(center, radius))
        hi = max(hi, cert.hi)
        count += cert.samples_used

    lo = 0.0
    for block in GluedEvaluator(family, cover, points, z).sweep(hnorm.box_axes(box, axis_samples)):
        lo = float(np.maximum(lo, np.abs(1.0 - block.phi).max()))  # NaN sticks
        count += block.phi.size
    return NormCert(lo, max(hi, lo), hnorm.GLUED_RESIDUAL, count)


def residual_boundary_samples(options: SolverSettings) -> int:
    """The z nodes on |z| = 1 of :func:`solve`'s residual certificates."""
    return max(256, options.angular_samples)


@contextlib.contextmanager
def _stage(timings: dict, key: str):
    """Add the wall time of the with-block to ``timings[key]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0


def solve(family: ParamFamily, options: SolverSettings = SolverSettings()):
    """Full pipeline; returns (GluedSolution, stage timings in seconds).

    ``point_solves`` (cover and center solves) and ``residual_certify`` sum
    over every refinement round.  Each round is recorded as a
    :class:`SolveRound`, in the solution's ``rounds`` or, when no round
    passes, in the ``rounds`` of the RefinementExhausted."""
    timings = {}
    with _stage(timings, "corona_check"):
        delta = hnorm.delta_lower(family, options.radial_samples,
                                  options.angular_samples, options.axis_samples)
    with _stage(timings, "sup_norm"):
        sup = hnorm.sup_family(family, options.axis_samples, options.boundary_samples)
    if not delta.lo > 0.0:
        raise CoronaUncertified(
            f"corona condition not certified: lower bound {delta.lo:.4g} <= 0 "
            "(genuine failure or insufficient grid)",
            certificate=delta, sup=sup,
        )

    # one ball over the box: build_cover spaces centers 2 COVER_MARGIN r /
    # sqrt(d) apart, and 0.99 < COVER_MARGIN keeps every axis at one center
    # through rounding
    radius = max(b - a for a, b in family.box) * math.sqrt(family.dim) / (2.0 * 0.99)
    constant = family.poly.coeffs.shape[2:] == (1,) * family.dim
    rounds = []
    for _ in range(options.max_refinements + 1):
        with _stage(timings, "point_solves"):
            cover = build_cover(family.box, radius)
            points = solve_at_samples(family, cover, options)
        with _stage(timings, "residual_certify"):
            cert = residual_certify(family, cover, points, residual_boundary_samples(options),
                                    options.axis_samples)
        outcome = "passed" if cert.hi <= RESIDUAL_GATE else "residual_gate"
        rounds.append(SolveRound(radius, cover.size, points.c0, cert, outcome))
        if outcome == "passed":
            return (
                GluedSolution(family, cover, points, delta, sup, cert, tuple(rounds)),
                timings,
            )
        if constant:
            break
        radius /= 2.0
    raise RefinementExhausted(
        f"no passing cover after {len(rounds)} round(s) "
        f"(last residual certificate hi = {cert.hi:.4g} > 1/2); from one ball over "
        f"the box, solver.max_refinements = {options.max_refinements} halvings reach "
        f"{2 ** options.max_refinements} center(s) per axis",
        certificate=cert,
        rounds=tuple(rounds),
    )
