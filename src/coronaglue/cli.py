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
from .config import ProblemConfig, load_config, save_config
from .errors import (
    ConfigError,
    CoronaGlueError,
    CoronaUncertified,
    DomainError,
    InternalInconsistency,
)

IDENTITY_TOL = 1e-12
NORM_SLACK = 1e-9
POU_SUM_TOL = 1e-12
POU_DERIV_TOL = 1e-9
FD_TOLS = {1: (1e-4, 1e-6), 2: (1e-3, 1e-4)}
_POU_RANDOM_SAMPLES = 10_000
_FD_RANDOM_POINTS = 20


@dataclass
class RunReport:
    """Aggregate of certificates, measurements and the pass/fail verdict."""

    command: str
    delta_cert: dict | None = None
    sup_cert: dict | None = None
    c0: float | None = None
    cover_size: int | None = None
    r_final: float | str | None = None
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
        gates_ok = all(c["passed"] for c in self.checks)
        residual_ok = (self.residual_cert is None
                       or self.residual_cert["hi"] <= glue.RESIDUAL_GATE)
        delta_ok = self.delta_cert is None or self.delta_cert["lo"] > 0.0
        self.verdict = "pass" if (gates_ok and residual_ok and delta_ok) else "fail"
        return self.verdict

    def save(self, path):
        payload = asdict(self)
        if self.rounds is None:
            del payload["rounds"]
        serialize.write_json(payload, path)


def _make_parent(path: Path):
    """Create the directory of an output path; an OSError, or a path that is
    a directory, is a ConfigError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    if path.is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")


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
    config = load_config(args.config)
    family = config.to_family()
    solver = config.solver
    report = RunReport(command="check")
    if args.out:
        _make_parent(Path(args.out))
    t0 = time.perf_counter()
    delta = hnorm.delta_lower(family, solver.grid)
    sup = hnorm.sup_family(family, solver.grid, solver.boundary_samples)
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
    # refuse an unwritable output before the pipeline runs, not after
    for path in [out] + ([Path(args.report)] if args.report else []):
        _make_parent(path)
    t0 = time.perf_counter()
    try:
        glued, stage_timings = glue.solve(family, solver)
    except CoronaUncertified as exc:
        # glue.solve stops at the gate, before its sup certificate
        sup = hnorm.sup_family(family, solver.grid, solver.boundary_samples)
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
    report.r_final = glued.cover.to_dict()["radius"]
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


def _uniform_blocks(rng, lows, highs, count, size):
    """``count`` points drawn uniformly from the box [lows, highs], in (n, d)
    blocks of at most ``size`` rows: the same stream as one by one."""
    for start in range(0, count, size):
        yield rng.uniform(lows, highs, (min(size, count - start), len(lows)))


def _interior(box, margin):
    """The bounds of the box shrunk by ``margin`` of each width."""
    return ([a + margin * (b - a) for a, b in box],
            [b - margin * (b - a) for a, b in box])


def _pou_derivatives(pou, s, alphas):
    """d^alpha of every weight for each alpha in ``alphas``, all read from one
    weight jet whose order covers every alpha: (K,) each at one point ``s``,
    (n, K) at an (n, d) block, with each point's K values contiguous so
    that a sum over them adds in the same order as at one point."""
    order = max(map(sum, alphas))
    wj = np.moveaxis(pou.weight_jets(s, order), 0, -1)
    return [np.ascontiguousarray(jets.jet_extract(wj, alpha, order)) for alpha in alphas]


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
    return np.sqrt(glue.component_sum(np.abs(values) ** 2))


def _point_cert_mismatch(glued, samples):
    """Witness of the first stored point certificate that the stored tables and
    coefficients do not reproduce exactly (the engine is deterministic)."""
    for k, (center, sol) in enumerate(zip(glued.cover.centers, glued.points.solutions)):
        try:
            fresh = [c.to_dict() for c in bezout_point.certify(
                glued.family.freeze(np.asarray(center)), sol.g, samples)]
        except DomainError as exc:  # a non-finite coefficient bounds nothing
            fresh = [str(exc)] * 2
        for name, cert in zip(("norm_cert", "residual_cert"), fresh):
            if cert != (stored := getattr(sol, name).to_dict()):
                return {"field": f"point_solutions[{k}].{name}", "s": list(center),
                        "stored": stored, "recomputed": cert}
    return None


def run_verification(config: ProblemConfig, glued, radial: int, angular: int,
                     s_per_axis: int, alpha_max: int, report: RunReport):
    """Re-evaluate every invariant on a fresh grid; records checks, each
    failing one with a witness point.  A tripped |phi| >= 1/2 guard fails
    the check that met it and the other checks still run."""
    family = glued.family
    degenerate = radial * angular <= 1 or s_per_axis <= 1
    if degenerate:
        report.warnings.append(
            "grid spec is degenerate (one point); sampling checks are vacuous"
        )
        print("warning: degenerate grid; sampling checks are vacuous")

    radii, angles = serialize.polar_grid(radial, angular)
    z_nodes = (radii[:, None] * angles[None, :]).ravel() \
        if radii.size and angles.size else np.zeros(1, dtype=complex)
    axes = [np.linspace(a, b, max(s_per_axis, 1)) for a, b in family.box]

    # residual, certificate consistency, Bezout identity and norm bounds in
    # one sweep
    resid, gt_norm, ident, g_norm = (_Worst() for _ in range(4))
    breach = None
    evaluator = glue.GluedEvaluator(family, glued.pou, glued.points, z_nodes)
    for block in evaluator.sweep(axes):
        resid.update(np.abs(1.0 - block.phi), block.point)
        gt_norm.update(_l2(block.gtilde), block.point)
        breach = breach or block.breach()
        g = block.gtilde / block.phi[:, None]  # past a breach too, for the norms
        ident.update(np.abs(glue.component_sum(g * block.f) - 1.0), block.point)
        g_norm.update(_l2(g), block.point)

    gate, stored_hi = glue.RESIDUAL_GATE, glued.residual_cert.hi
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
    # drawn in blocks, the same stream as one by one
    rng = np.random.default_rng(0)
    pou = glued.pou
    size = max(1, glue.EVAL_BUDGET // pou.size)
    lows, highs = np.array(family.box).T
    pou_sum = _Worst(0.0)
    for s in _uniform_blocks(rng, lows, highs, _POU_RANDOM_SAMPLES, size):
        pou_sum.update(np.abs(pou.weights(s).sum(-1) - 1.0),
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
        sums = np.stack([d.sum(-1) for d in _pou_derivatives(pou, s, alphas)], axis=1)
        dsum.update(np.abs(sums), lambda i: {"s": s[i // len(alphas)].tolist(),
                                             "alpha": list(alphas[i % len(alphas)])})
    report.add_check(
        "pou_derivative_sums", dsum.value <= POU_DERIV_TOL,
        f"max |sum d^a eta| = {dsum.value:.3g} for 1 <= |a| <= 2 "
        f"(tolerance {POU_DERIV_TOL})", dsum.witness)

    # derivative spot checks against central differences: one block per
    # multi-index, each point's stencil at its own z
    alpha_cap = min(config.solver.order, 2)
    for order in range(1, alpha_cap + 1):
        h, tol = FD_TOLS[order]
        points, zs = [], []
        for _ in range(_FD_RANDOM_POINTS):
            points.append(rng.uniform(*inner))
            zs.append(0.5 * math.sqrt(rng.uniform(0, 1)) *
                      complex(math.cos(rng.uniform(0, 2 * math.pi)),
                              math.sin(rng.uniform(0, 2 * math.pi))))
        s = np.array(points)
        alphas = [a for a in jets.multi_indices(family.dim, order) if sum(a) == order]
        devs, breaches = zip(*(smoothness.fd_deviations(glued, zs, s, alpha, h)
                               for alpha in alphas))
        # point by point, each point's multi-indices in order; a tripped
        # guard skips its deviation and the first one is the witness
        breaches = [b for point in zip(*breaches) for b in point]
        fd_breach = next((b for b in breaches if b is not None), None)
        devs = np.stack(devs, axis=1).ravel()
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
    config, glued = serialize.load_solution(args.solution)
    report = RunReport(command="verify")
    report.delta_cert = glued.delta_cert.to_dict()
    report.sup_cert = glued.sup_cert.to_dict()
    report.residual_cert = glued.residual_cert.to_dict()
    report.c0 = glued.c0
    report.cover_size = glued.cover.size
    report.r_final = glued.cover.to_dict()["radius"]
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
    _config, glued = serialize.load_solution(args.solution)
    out = Path(args.out)
    _make_parent(out)
    rows, summary = serialize.export_grid_csv(
        glued, out, args.z_samples, args.z_samples, args.s_samples
    )
    try:
        serialize.save_summary(summary, out.with_suffix(".summary.json"))
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
