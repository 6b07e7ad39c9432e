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

from . import bezout_point, glue, hnorm, jets, serialize, smoothness
from .config import ProblemConfig, load_config, save_config, write_json
from .errors import (
    ConfigError,
    CoronaGlueError,
    CoronaUncertified,
    DomainError,
)
from .polyalg import sum_in_order

IDENTITY_TOL = 1e-12
NORM_SLACK = 1e-9
POU_SUM_TOL = 1e-12
POU_DERIV_TOL = 1e-9
FD_TOLS = {1: (1e-4, 1e-6), 2: (1e-3, 1e-4)}
_POU_RANDOM_SAMPLES = 10_000
_FD_RANDOM_POINTS = 20
# the seeded (state, increment) of numpy's default_rng(0), a PCG64 generator,
# and its 128-bit LCG multiplier
_PCG64_SEED0 = (0x1aa1b5345996452d09585eb7a69561e3, 0x418ddadb3af71a82588133bc447873a9)
_PCG64_MULT = 0x2360ed051fc65da44385df649fccf645


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
    cnorm_reports: list = field(default_factory=list)
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
    config = load_config(args.config)
    family = config.to_family()
    solver = config.solver
    report = RunReport(command="solve")
    out = Path(args.out) if args.out else \
        Path(config.output.directory) / "solution.json"
    _distinct(args.config, out, args.report)
    # refuse an unwritable output before the pipeline runs, not after
    for path in [out] + ([Path(args.report)] if args.report else []):
        _make_parent(path)
    t0 = time.perf_counter()
    try:
        glued, stage_timings = glue.solve(family, solver)
    except CoronaUncertified as exc:
        # glue.solve stops at the gate, before its sup certificate
        sup = hnorm.sup_family(family, solver.axis_samples, solver.boundary_samples)
        _record_certs(report, exc.certificate, sup)
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
    t0 = time.perf_counter()
    top = smoothness.cnorm_report(glued, config.solver.order,
                                  axis_samples=config.solver.axis_samples)
    report.cnorm_reports = [top.restricted(order).to_dict()
                            for order in range(top.order + 1)]
    report.timings["cnorm_reports"] = time.perf_counter() - t0

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


class _Stream:
    """The doubles of numpy's ``default_rng(0)``, bit for bit, without
    importing numpy.random: each draw steps the 128-bit LCG, takes the XSL-RR
    output rotr64(hi ^ lo, state >> 122) and returns (x >> 11) 2^-53."""

    def __init__(self):
        self.state, self.inc = _PCG64_SEED0

    def random(self, n: int) -> np.ndarray:
        state, inc, mask, out = self.state, self.inc, (1 << 64) - 1, [0] * n
        for i in range(n):
            state = (state * _PCG64_MULT + inc) & ((1 << 128) - 1)
            x, rot = ((state >> 64) ^ state) & mask, state >> 122
            out[i] = (x >> rot | (x << (64 - rot) & mask)) >> 11
        self.state = state
        return np.array(out, dtype=float) * 2.0 ** -53

    def uniform(self, lows, highs, n: int) -> np.ndarray:
        """``n`` points of the box [lows, highs], (n, d), as numpy's
        ``uniform(lows, highs, (n, d))`` computes them: lows + (highs - lows) u."""
        lows, highs = np.asarray(lows, dtype=float), np.asarray(highs, dtype=float)
        return lows + (highs - lows) * self.random(n * lows.size).reshape(n, lows.size)


def _uniform_blocks(rng, lows, highs, count, size):
    """``count`` points drawn uniformly from the box [lows, highs], in (n, d)
    blocks of at most ``size`` rows: the same stream as one by one."""
    for start in range(0, count, size):
        yield rng.uniform(lows, highs, min(size, count - start))


def _interior(box, margin):
    """The bounds of the box shrunk by ``margin`` of each width."""
    return ([a + margin * (b - a) for a, b in box],
            [b - margin * (b - a) for a, b in box])


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
    degenerate = radial * angular <= 1 or s_per_axis <= 1
    if degenerate:
        report.warnings.append(
            "grid spec is degenerate (one point); sampling checks are vacuous"
        )
        print("warning: degenerate grid; sampling checks are vacuous")

    # the certificates' polar grid, or the single node z = 0
    z_nodes = hnorm.disc_points(radial, angular) if radial * angular else np.zeros(1, complex)
    axes = hnorm.box_axes(family.box, max(s_per_axis, 1))

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

    # partition of unity: sum and derivative sums; the random points are
    # numpy's default_rng(0) stream, drawn without numpy.random in blocks,
    # the same stream as one by one
    rng = _Stream()
    cover = glued.cover
    # blocks of 8 EVAL_BUDGET (point, center) pairs: the weights' cost per
    # call is paid a few dozen times, and the peak RSS does not move
    size = max(1, 8 * glue.EVAL_BUDGET // cover.size)
    lows, highs = np.array(family.box).T
    pou_sum = _Worst(0.0)
    for s in _uniform_blocks(rng, lows, highs, _POU_RANDOM_SAMPLES, size):
        pou_sum.update(np.abs(cover.weights(s).sum(-1) - 1.0),
                       lambda i: {"s": s[i].tolist()})
    report.add_check(
        "pou_sum", pou_sum.value <= POU_SUM_TOL,
        f"max |sum eta - 1| = {pou_sum.value:.3g} over {_POU_RANDOM_SAMPLES} "
        f"random points (tolerance {POU_SUM_TOL})", pou_sum.witness)
    dsum = _Worst(0.0)
    alphas = [a for a in jets.multi_indices(family.dim, 2) if 1 <= sum(a) <= 2]
    inner = _interior(family.box, 0.05)
    for s in _uniform_blocks(rng, *inner, 200, size):
        # point by point, each point's multi-indices in order
        sums = np.stack([d.sum(-1) for d in cover.derivs(s, alphas)], axis=1)
        dsum.update(np.abs(sums), lambda i: {"s": s[i // len(alphas)].tolist(),
                                             "alpha": list(alphas[i % len(alphas)])})
    report.add_check(
        "pou_derivative_sums", dsum.value <= POU_DERIV_TOL,
        f"max |sum d^a eta| = {dsum.value:.3g} for 1 <= |a| <= 2 "
        f"(tolerance {POU_DERIV_TOL})", dsum.witness)

    # derivative spot checks against central differences: one block per
    # order, each point's stencils at its own z
    alpha_cap = min(config.solver.order, 2)
    for order in range(1, alpha_cap + 1):
        h, tol = FD_TOLS[order]
        # per point: its d coordinates, then |z|^2 / 0.25 and the angle, so
        # z is uniform in the disc of radius 0.5; a third uniform is drawn
        # and unused, which keeps every later draw of the stream
        draws = rng.uniform([*inner[0], 0.0, 0.0, 0.0],
                            [*inner[1], 1.0, 2 * math.pi, 2 * math.pi], _FD_RANDOM_POINTS)
        s = np.ascontiguousarray(draws[:, :family.dim])
        zs = [0.5 * math.sqrt(r) * complex(math.cos(t), math.sin(t))
              for r, t, _ in draws[:, family.dim:].tolist()]
        alphas = [a for a in jets.multi_indices(family.dim, order) if sum(a) == order]
        devs, breaches = smoothness.fd_deviations(glued, zs, s, alphas, h)
        # point by point, each point's multi-indices in order; a tripped
        # guard skips its deviation and the first one is the witness
        breaches = [b for point in breaches for b in point]
        fd_breach = next((b for b in breaches if b is not None), None)
        devs = devs.ravel()
        devs[[b is not None for b in breaches]] = -math.inf

        def fd_witness(i):
            point, alpha = divmod(i, len(alphas))
            return {"z": [zs[point].real, zs[point].imag], "s": s[point].tolist(),
                    "alpha": list(alphas[alpha])}

        fd = _Worst(0.0)
        fd.update(devs, fd_witness)
        report.add_check(
            f"fd_order_{order}", fd_breach is None and fd.value <= tol,
            f"max relative deviation {fd.value:.3g} (tolerance {tol}, h = {h})",
            {**fd_breach.witness, "detail": str(fd_breach)} if fd_breach else fd.witness)

    # norm reports: finiteness is the contract
    top = smoothness.cnorm_report(glued, alpha_max,
                                  axis_samples=max(s_per_axis, 2))
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
    config, glued = serialize.load_solution(args.solution)
    report = RunReport(command="verify")
    report.delta_cert = glued.delta_cert.to_dict()
    report.sup_cert = glued.sup_cert.to_dict()
    report.residual_cert = glued.residual_cert.to_dict()
    report.c0 = glued.c0
    report.cover_size = glued.cover.size
    report.r_final = glued.cover.radius
    alpha_max = args.alpha if args.alpha is not None else config.solver.order
    if alpha_max > config.solver.order:
        raise ConfigError(
            f"--alpha {alpha_max} exceeds the configured order {config.solver.order}"
        )
    if args.report:
        _make_parent(Path(args.report))
    t0 = time.perf_counter()
    run_verification(config, glued, args.z_samples, args.z_samples,
                     args.s_samples, alpha_max, report)
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
    p.add_argument("--alpha", type=_nonnegative, default=None,
                   help="max derivative order for the norm reports")
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
