"""Command-line front end: check, rescale, solve, verify, eval-grid.

Exit codes: 0 for a passing run, 1 for a failed gate or verification, 2 for
usage or configuration errors.  No command reads the environment.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import bezout_point, glue, hnorm, serialize, smoothness
from .config import MAX_ORDER, ProblemConfig, load_config, save_config, write_json
from .errors import (
    ConfigError,
    CoronaGlueError,
    CoronaUncertified,
    DomainError,
)
from .polyalg import sum_in_order

IDENTITY_TOL = 1e-12
NORM_SLACK = 1e-9


@dataclass
class RunReport:
    """Aggregate of certificates, measurements and the pass/fail verdict."""

    command: str
    delta_cert: dict | None = None
    sup_cert: dict | None = None
    c0: float | None = None
    cover_size: int | None = None
    r_final: float | None = None
    residual_cert: dict | None = None
    cnorm_reports: list = field(default_factory=list)   # verify only
    timings: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    verdict: str = "fail"
    rounds: list | None = None   # solve only: one glue.SolveRound per round

    def add_check(self, name, passed, detail, witness=None):
        """Record a check; a failing one keeps its witness."""
        entry = {"name": name, "passed": bool(passed), "detail": detail}
        if witness is not None and not passed:
            entry["witness"] = witness
        self.checks.append(entry)
        return passed

    def settle(self):
        """The verdict: pass when every recorded check passed."""
        self.verdict = "pass" if all(c["passed"] for c in self.checks) else "fail"
        return self.verdict

    def save(self, path):
        payload = asdict(self)
        if self.rounds is None:
            del payload["rounds"]
        write_json(payload, path)


def _make_parent(path: Path):
    """Create the directory of an output path; an OSError, or a path that is
    a directory, is a ConfigError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    if path.is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")


def _distinct(*paths):
    """Refuse, as a ConfigError, two of the input and output ``paths`` (None
    skipped) that name one file after ``Path.resolve()``: no command writes
    over a file it reads or over another of its own outputs."""
    seen = {}
    for path in filter(None, paths):
        key = Path(path).resolve()
        if key in seen:
            raise ConfigError(f"{path} and {seen[key]} name the same file; "
                              "a command never writes over its input or its other output")
        seen[key] = path


def _print_cert(label, cert):
    print(f"{label}: [{cert.lo:.6g}, {cert.hi:.6g}] "
          f"({cert.samples_used} samples)")


def _record_certs(report: RunReport, delta, sup):
    """Record the corona lower bound (hard gate) and the unit sup
    normalization (warning-level; `rescale` restores it)."""
    report.delta_cert = delta.to_dict()
    report.sup_cert = sup.to_dict()
    _print_cert("corona lower bound", delta)
    _print_cert("data sup norm", sup)
    certified = delta.lo > 0.0
    report.add_check(
        "corona_lower_bound", certified,
        f"certified lower bound {delta.lo:.6g}" if certified
        else f"not certified (lo = {delta.lo:.6g} <= 0); refine the grid or "
             "accept that the data violates the corona condition",
    )
    if certified:
        print(f"corona condition certified: delta >= {delta.lo:.6g}")
    else:
        print("corona condition NOT certified")
    if sup.hi > 1.0:
        factor = 1.0 / sup.hi
        warning = (
            f"data sup norm {sup.hi:.6g} exceeds the unit normalization; "
            f"consider `coronaglue rescale --factor {factor:.6g}`"
        )
        report.warnings.append(warning)
        print(f"warning: {warning}")


def cmd_check(args) -> int:
    _distinct(args.config, args.out)
    config = load_config(args.config)
    family = config.to_family()
    solver = config.solver
    report = RunReport(command="check")
    if args.out:
        _make_parent(Path(args.out))
    t0 = time.perf_counter()
    delta = hnorm.delta_lower(family, solver.radial_samples, solver.angular_samples,
                              solver.axis_samples)
    sup = hnorm.sup_family(family, solver.axis_samples, solver.boundary_samples)
    report.timings["check"] = time.perf_counter() - t0
    _record_certs(report, delta, sup)
    report.settle()
    if args.out:
        report.save(args.out)
    print(f"verdict: {report.verdict}")
    return 0 if report.verdict == "pass" else 1


def cmd_rescale(args) -> int:
    config = load_config(args.config)
    scaled = config.scaled(args.factor)
    out = Path(args.out) if args.out else \
        Path(args.config).with_name(Path(args.config).stem + ".rescaled.json")
    _make_parent(out)
    save_config(scaled, out)
    print(f"wrote {out} (accumulated factor {scaled.rescale_factor:.17g}; "
          "solution norms scale by the inverse)")
    return 0


def cmd_solve(args) -> int:
    out = Path(args.out or "solution.json")
    _distinct(args.config, out, args.report)
    config = load_config(args.config)
    family = config.to_family()
    solver = config.solver
    report = RunReport(command="solve")
    # refuse an unwritable output before the pipeline runs, not after
    for path in [out] + ([Path(args.report)] if args.report else []):
        _make_parent(path)
    t0 = time.perf_counter()
    try:
        glued, stage_timings = glue.solve(family, solver)
    except CoronaUncertified as exc:
        _record_certs(report, exc.certificate, exc.sup)
        report.settle()
        if args.report:
            report.save(args.report)
        print("verdict: fail (corona condition not certified)")
        return 1
    except CoronaGlueError as exc:
        report.add_check("pipeline", False, f"{type(exc).__name__}: {exc}")
        if hasattr(exc, "rounds"):
            report.rounds = list(exc.rounds)
        report.settle()
        if args.report:
            report.save(args.report)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    report.timings.update(stage_timings)
    report.timings["solve_total"] = time.perf_counter() - t0
    _record_certs(report, glued.delta_cert, glued.sup_cert)

    report.c0 = glued.c0
    report.cover_size = glued.cover.size
    report.r_final = glued.cover.radius
    report.residual_cert = glued.residual_cert.to_dict()
    report.rounds = list(glued.rounds)
    report.add_check(
        "residual_gate", glued.residual_cert.hi <= glue.RESIDUAL_GATE,
        f"certified residual hi = {glued.residual_cert.hi:.6g} <= 1/2",
    )

    serialize.save_solution(config, glued, out)
    report.settle()
    if args.report:
        report.save(args.report)
    print(f"cover: {glued.cover.size} center(s), radius "
          f"{report.r_final}, refinements {glued.refinements}")
    print(f"norm bound c0 = {glued.c0:.6g}")
    _print_cert("glued residual", glued.residual_cert)
    print(f"solution written to {out}")
    print(f"verdict: {report.verdict}")
    return 0 if report.verdict == "pass" else 1


def _directions(dim):
    """The Taylor test's directions: each axis, and both diagonals in 2-D,
    along which the mixed derivative shows."""
    return np.vstack([np.eye(dim)] + ([[1.0, 1.0], [1.0, -1.0]] if dim == 2 else []))


class _Worst:
    """The largest value seen so far and a witness of its first occurrence;
    a NaN sticks, so the check it feeds fails."""

    def __init__(self, value=-1.0):
        self.value, self.witness = value, None

    def update(self, values, witness_of):
        values = np.asarray(values)
        i = int(np.argmax(values))  # flat index; the first NaN wins
        v = float(values.flat[i])
        if not v <= self.value and self.value == self.value:
            self.value, self.witness = v, witness_of(i)


def _l2(values):
    return np.sqrt(sum_in_order(np.abs(values) ** 2, axis=1))


def _point_cert_mismatch(glued, samples):
    """Witness of the first stored point certificate whose ``lo`` and ``hi``
    the stored tables and coefficients do not reproduce exactly (the engine
    is deterministic); ``stored`` and ``recomputed`` in the file's form."""
    for k, (center, sol) in enumerate(zip(glued.cover.centers, glued.points.solutions)):
        try:
            fresh = [serialize.point_cert_dict(c) for c in bezout_point.certify(
                glued.family.freeze(np.asarray(center)), sol.g, samples)]
        except DomainError as exc:  # a non-finite coefficient bounds nothing
            fresh = [str(exc)] * 2
        for name, cert in zip(bezout_point.CERT_QUANTITIES, fresh):
            if cert != (stored := serialize.point_cert_dict(getattr(sol, name))):
                return {"field": f"point_solutions[{k}].{name}", "s": list(center),
                        "stored": stored, "recomputed": cert}
    return None


def run_verification(config: ProblemConfig, glued, radial: int, angular: int,
                     s_per_axis: int, alpha_max: int, report: RunReport):
    """Re-evaluate every invariant on a fresh grid; records checks, each
    failing one with a witness point.  A tripped |phi| >= 1/2 guard fails
    the check that met it and the other checks still run."""
    family = glued.family
    # the stored gates: the corona lower bound and the glued residual
    # certificate, as check and solve record them
    gate = glue.RESIDUAL_GATE
    delta_lo, stored_hi = glued.delta_cert.lo, glued.residual_cert.hi
    report.add_check("corona_lower_bound", delta_lo > 0.0,
                     f"stored delta_cert.lo = {delta_lo:.6g} (must be > 0)")
    report.add_check("residual_gate", stored_hi <= gate,
                     f"stored residual_cert.hi = {stored_hi:.6g} (gate {gate})")

    # the certificates' polar grid
    z_nodes = hnorm.disc_points(radial, angular)
    axes = hnorm.box_axes(family.box, s_per_axis)

    # residual, certificate consistency, Bezout identity and norm bounds in
    # one sweep
    resid, gt_norm, ident, g_norm = (_Worst() for _ in range(4))
    breach = None
    evaluator = glue.GluedEvaluator(family, glued.cover, glued.points, z_nodes)
    for block in evaluator.sweep(axes):
        resid.update(np.abs(1.0 - block.phi), block.point)
        gt_norm.update(_l2(block.gtilde), block.point)
        breach = breach or block.breach()
        g = block.gtilde / block.phi[:, None]  # past a breach too, for the norms
        ident.update(np.abs(sum_in_order(g * block.f, axis=1) - 1.0), block.point)
        g_norm.update(_l2(g), block.point)

    report.add_check(
        "residual_resample", resid.value <= gate,
        f"max |1 - gtilde^T f| = {resid.value:.6g} on the fresh grid (gate {gate})",
        resid.witness)
    # any sample above a stored upper bracket proves the certificate wrong,
    # e.g. after the coefficient tables were tampered with
    report.add_check(
        "residual_cert_consistent", resid.value <= stored_hi * (1.0 + 1e-12) + 1e-15,
        f"fresh-grid residual {resid.value:.6g} vs stored certificate "
        f"hi = {stored_hi:.6g}", resid.witness)
    report.add_check(
        "gtilde_norm_consistent", gt_norm.value <= glued.c0 * (1.0 + NORM_SLACK),
        f"sup ||gtilde|| = {gt_norm.value:.6g} vs stored c0 = {glued.c0:.6g}",
        gt_norm.witness)
    report.add_check(
        "bezout_identity", breach is None and ident.value <= IDENTITY_TOL,
        f"max |g^T f - 1| = {ident.value:.6g} (tolerance {IDENTITY_TOL})",
        {**breach.witness, "detail": str(breach)} if breach else ident.witness)
    bound = 2.0 * glued.c0 * (1.0 + NORM_SLACK)
    report.add_check(
        "norm_bound", g_norm.value <= bound,
        f"sup ||g|| = {g_norm.value:.6g} <= 2 c0 (1 + {NORM_SLACK}) = {bound:.6g}",
        g_norm.witness)
    mismatch = _point_cert_mismatch(glued, config.solver.boundary_samples)
    report.add_check("point_certificates", mismatch is None,
                     f"certificates of {glued.cover.size} point solution(s) recomputed", mismatch)

    # the partition-of-unity sum and the Taylor test at the cover's own
    # points, each at its own z on the ring |z| = 1/2
    cover = glued.cover
    points = hnorm.centers_and_midpoints(cover.centers)
    eps = np.finfo(float).eps
    # blocks of 8 EVAL_BUDGET (point, center) pairs
    size = max(1, 8 * glue.EVAL_BUDGET // cover.size)
    pou_sum = _Worst(0.0)
    for start in range(0, len(points), size):
        s = points[start:start + size]
        weights = cover.weights(s)
        total, live = weights.sum(-1), np.count_nonzero(weights, axis=-1)
        # the normalization rounds each of the m live weights once
        pou_sum.update(np.abs(total - 1.0) / ((2 * live + 1) * eps),
                       lambda i: {"s": s[i].tolist(), "sum": float(total[i]),
                                 "live": int(live[i])})
    report.add_check(
        "pou_sum", pou_sum.value <= 1.0,
        f"max |sum eta - 1| / ((2 m + 1) eps) = {pou_sum.value:.3g} over {len(points)} "
        "points, m the live bumps (bound 1)", pou_sum.witness)

    order = min(alpha_max, 2)
    zs = 0.5 * hnorm.boundary_points(len(points))
    directions = _directions(family.dim)
    h0 = 0.05 * min(cover.radius, min(b - a for a, b in family.box))
    orders, breach = smoothness.taylor_orders(glued, points, zs, directions, order, h0)
    exact = int(np.isposinf(orders).sum())
    worst = _Worst(-math.inf)  # the lowest order, as the largest -order

    def taylor_witness(i):
        point, direction = divmod(i, len(directions))
        return {"s": points[point].tolist(), "z": [zs[point].real, zs[point].imag],
                "v": directions[direction].tolist()}

    worst.update(-orders, taylor_witness)
    report.add_check(
        f"taylor_order_{order}", breach is None and -worst.value >= order + 0.5,
        f"worst observed order {-worst.value:.3g} (must be >= {order + 0.5}) over "
        f"{orders.size} (point, direction) pairs, {exact} exact to rounding (remainder "
        f"under {smoothness.TAYLOR_FLOOR} eps "
        f"{'(||g|| + sum_i max|s_i| ||dg/ds_i||)' if order else '||g||'} on "
        f"{smoothness.TAYLOR_STEPS} halvings of h0 = {h0:.3g})",
        {**breach.witness, "detail": str(breach)} if breach else worst.witness)

    # norm reports: finiteness is the contract
    top = smoothness.cnorm_report(glued, alpha_max, axis_samples=s_per_axis)
    for order in range(alpha_max + 1):
        rep = top.restricted(order)
        report.cnorm_reports.append(rep.to_dict())
        alpha, g, f = next((e for e in rep.per_index if not math.isfinite(e[1])),
                           max(rep.per_index, key=lambda e: e[1]))
        report.add_check(
            f"cnorm_finite_order_{order}",
            math.isfinite(rep.g_norm_estimate) and math.isfinite(rep.ratio),
            f"||g||_C{order} ~ {rep.g_norm_estimate:.6g}, "
            f"||f||_C{order} ~ {rep.f_norm_estimate:.6g}, ratio {rep.ratio:.6g}",
            {"alpha": list(alpha), "g": g, "f": f})


def cmd_verify(args) -> int:
    _distinct(args.solution, args.report)
    # one grid point per axis checks nothing between points
    for flag, value in (("--z-samples", args.z_samples), ("--s-samples", args.s_samples)):
        if value < 2:
            raise ConfigError(f"{flag} {value} is below 2, too coarse to check")
    if args.alpha > MAX_ORDER:
        raise ConfigError(f"--alpha {args.alpha} exceeds the largest order, {MAX_ORDER}")
    config, glued = serialize.load_solution(args.solution)
    report = RunReport(command="verify")
    report.delta_cert = glued.delta_cert.to_dict()
    report.sup_cert = glued.sup_cert.to_dict()
    report.residual_cert = glued.residual_cert.to_dict()
    report.c0 = glued.c0
    report.cover_size = glued.cover.size
    report.r_final = glued.cover.radius
    if args.report:
        _make_parent(Path(args.report))
    t0 = time.perf_counter()
    run_verification(config, glued, args.z_samples, args.z_samples,
                     args.s_samples, args.alpha, report)
    report.timings["verify"] = time.perf_counter() - t0
    report.settle()
    for check in report.checks:
        mark = "PASS" if check["passed"] else "FAIL"
        line = f"[{mark}] {check['name']}: {check['detail']}"
        if not check["passed"] and check.get("witness"):
            line += f" witness: {check['witness']}"
        print(line)
    if args.report:
        report.save(args.report)
    print(f"verdict: {report.verdict}")
    return 0 if report.verdict == "pass" else 1


def cmd_eval_grid(args) -> int:
    out = Path(args.out)
    _make_parent(out)
    summary_path = out.with_suffix(".summary.json")
    _distinct(args.solution, out, summary_path)
    _config, glued = serialize.load_solution(args.solution)
    rows, summary = serialize.export_grid_csv(
        glued, out, args.z_samples, args.z_samples, args.s_samples
    )
    try:
        serialize.save_summary(summary, summary_path)
    except BaseException:
        out.unlink()  # no CSV without its summary
        raise
    if rows == 0:
        print("warning: empty grid spec; wrote a header-only CSV")
    print(f"wrote {rows} data rows to {out}")
    return 0


def _nonnegative(text) -> int:
    """argparse type of the sample counts and --alpha: an integer >= 0."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coronaglue",
        description="Certified Bezout solutions on the disc with smooth "
                    "parameter dependence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify the corona condition and the "
                                     "unit normalization")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="write the report fragment to this path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("rescale", help="multiply the family by a factor")
    p.add_argument("--config", required=True)
    p.add_argument("--factor", type=float, required=True)
    p.add_argument("--out", help="output config path (default: sibling file)")
    p.set_defaults(func=cmd_rescale)

    p = sub.add_parser("solve", help="run the full gluing pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="solution file path")
    p.add_argument("--report", help="write the run report to this path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="re-check all invariants of a solution")
    p.add_argument("--solution", required=True)
    p.add_argument("--z-samples", type=_nonnegative, default=20,
                   help="polar grid: radii and angles per direction")
    p.add_argument("--s-samples", type=_nonnegative, default=20,
                   help="parameter samples per axis")
    p.add_argument("--alpha", type=_nonnegative, default=2,
                   help=f"max derivative order for the norm reports (at most {MAX_ORDER})")
    p.add_argument("--report", help="write the run report to this path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval-grid", help="export solution values as CSV")
    p.add_argument("--solution", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--z-samples", type=_nonnegative, default=8)
    p.add_argument("--s-samples", type=_nonnegative, default=8)
    p.set_defaults(func=cmd_eval_grid)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow ends in a refused non-finite bound or a failed check,
        # so numpy's warnings would only repeat it
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoronaGlueError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
