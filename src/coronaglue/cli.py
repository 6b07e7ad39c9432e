"""Command-line front end: check, rescale, solve, verify, eval-grid.

Exit codes: 0 for a passing run, 1 for a failed gate or verification, 2 for
usage or configuration errors.  No command reads the environment.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import glue, hnorm, jets, serialize, smoothness
from .config import ProblemConfig, load_config, save_config
from .errors import (
    ConfigError,
    CoronaGlueError,
    CoronaUncertified,
    InternalInconsistency,
)
from .glue import SolveOptions
from .polyalg import eval_family

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

    def add_check(self, name, passed, detail, witness=None):
        entry = {"name": name, "passed": bool(passed), "detail": detail}
        if witness is not None:
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

    def to_dict(self):
        return {
            "command": self.command,
            "delta_cert": self.delta_cert,
            "sup_cert": self.sup_cert,
            "c0": self.c0,
            "cover_size": self.cover_size,
            "r_final": self.r_final,
            "residual_cert": self.residual_cert,
            "cnorm_reports": self.cnorm_reports,
            "timings": self.timings,
            "checks": self.checks,
            "warnings": self.warnings,
            "verdict": self.verdict,
        }

    def save(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _solve_options(config: ProblemConfig) -> SolveOptions:
    s = config.solver
    return SolveOptions(
        boundary_samples=s.boundary_samples,
        radial_samples=s.radial_samples,
        angular_samples=s.angular_samples,
        axis_samples=s.axis_samples,
        degree_cap_factor=s.degree_cap_factor,
        max_refinements=s.max_refinements,
    )


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
    options = _solve_options(config)
    report = RunReport(command="check")
    t0 = time.perf_counter()
    delta = hnorm.delta_lower(family, options.grid)
    sup = hnorm.sup_family(family, options.grid, options.boundary_samples)
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
    save_config(scaled, out)
    print(f"wrote {out} (accumulated factor {scaled.rescale_factor:.17g}; "
          "solution norms scale by the inverse)")
    return 0


def cmd_solve(args) -> int:
    config = load_config(args.config)
    family = config.to_family()
    options = _solve_options(config)
    report = RunReport(command="solve")
    t0 = time.perf_counter()
    try:
        glued, stage_timings = glue.solve(family, options)
    except CoronaUncertified as exc:
        # glue.solve stops at the gate, before its sup certificate
        sup = hnorm.sup_family(family, options.grid, options.boundary_samples)
        _record_certs(report, exc.certificate, sup)
        report.settle()
        if args.report:
            report.save(args.report)
        print("verdict: fail (corona condition not certified)")
        return 1
    except CoronaGlueError as exc:
        report.add_check("pipeline", False, f"{type(exc).__name__}: {exc}")
        report.settle()
        if args.report:
            report.save(args.report)
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    report.timings.update(stage_timings)
    report.timings["solve_total"] = time.perf_counter() - t0
    _record_certs(report, glued.delta_cert, glued.sup_cert)

    report.c0 = glued.c0
    report.cover_size = glued.cover.size
    report.r_final = serialize._encode_radius(glued.cover.radius)
    report.residual_cert = glued.residual_cert.to_dict()
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

    out = Path(args.out) if args.out else \
        Path(config.output.directory) / "solution.json"
    out.parent.mkdir(parents=True, exist_ok=True)
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


def _interior_random(rng, box, margin):
    return np.array([rng.uniform(a + margin * (b - a), b - margin * (b - a))
                     for a, b in box])


def _pou_derivatives(pou, s, alphas):
    """d^alpha of every weight at ``s`` for each alpha in ``alphas``, all read
    from one weight jet whose order covers every alpha."""
    wj = np.moveaxis(pou.weight_jets(s, tuple(map(max, zip(*alphas)))), 0, -1)
    return [jets.jet_extract(wj, alpha) for alpha in alphas]


def run_verification(config: ProblemConfig, glued, radial: int, angular: int,
                     s_per_axis: int, alpha_max: int, report: RunReport):
    """Re-evaluate every invariant on a fresh grid; records checks with a
    witness point for the first breach of each kind."""
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
    worst_resid, resid_witness = -1.0, None
    worst_ident, ident_witness = -1.0, None
    worst_gt, gt_witness = -1.0, None
    worst_norm = -1.0
    identity_ok = True
    for s in itertools.product(*axes):
        s_arr = np.asarray(s)
        phi, gt = glue.phi_eval(family, glued.pou, glued.points, z_nodes, s_arr)
        resid = np.abs(1.0 - phi)
        i = int(np.argmax(resid))
        if resid[i] > worst_resid:
            worst_resid = float(resid[i])
            resid_witness = {"z": [float(z_nodes[i].real), float(z_nodes[i].imag)],
                             "s": [float(x) for x in s]}
        gt_norm = np.sqrt((np.abs(gt) ** 2).sum(axis=0))
        i = int(np.argmax(gt_norm))
        if gt_norm[i] > worst_gt:
            worst_gt = float(gt_norm[i])
            gt_witness = {"z": [float(z_nodes[i].real), float(z_nodes[i].imag)],
                          "s": [float(x) for x in s]}
        try:
            g = glue.g_eval(glued, z_nodes, s_arr)
        except InternalInconsistency as exc:
            identity_ok = False
            ident_witness = {"s": [float(x) for x in s], "detail": str(exc)}
            continue
        fv = eval_family(family, z_nodes, s_arr)
        ident = np.abs((g * fv).sum(axis=0) - 1.0)
        j = int(np.argmax(ident))
        if ident[j] > worst_ident:
            worst_ident = float(ident[j])
            ident_witness = {"z": [float(z_nodes[j].real), float(z_nodes[j].imag)],
                             "s": [float(x) for x in s]}
        worst_norm = max(worst_norm, float(np.sqrt((np.abs(g) ** 2).sum(axis=0)).max()))

    report.add_check(
        "residual_resample", worst_resid <= glue.RESIDUAL_GATE,
        f"max |1 - gtilde^T f| = {worst_resid:.6g} on the fresh grid "
        f"(gate {glue.RESIDUAL_GATE})",
        witness=None if worst_resid <= glue.RESIDUAL_GATE else resid_witness,
    )
    # any sample above a stored upper bracket proves the certificate wrong,
    # e.g. after the coefficient tables were tampered with
    stored_hi = glued.residual_cert.hi
    resid_consistent = worst_resid <= stored_hi * (1.0 + 1e-12) + 1e-15
    report.add_check(
        "residual_cert_consistent", resid_consistent,
        f"fresh-grid residual {worst_resid:.6g} vs stored certificate "
        f"hi = {stored_hi:.6g}",
        witness=None if resid_consistent else resid_witness,
    )
    gt_bound = glued.c0 * (1.0 + NORM_SLACK)
    gt_consistent = worst_gt <= gt_bound
    report.add_check(
        "gtilde_norm_consistent", gt_consistent,
        f"sup ||gtilde|| = {worst_gt:.6g} vs stored c0 = {glued.c0:.6g}",
        witness=None if gt_consistent else gt_witness,
    )
    report.add_check(
        "bezout_identity", identity_ok and worst_ident <= IDENTITY_TOL,
        f"max |g^T f - 1| = {max(worst_ident, 0):.6g} (tolerance {IDENTITY_TOL})",
        witness=None if identity_ok and worst_ident <= IDENTITY_TOL else ident_witness,
    )
    bound = 2.0 * glued.c0 * (1.0 + NORM_SLACK)
    report.add_check(
        "norm_bound", worst_norm <= bound,
        f"sup ||g|| = {worst_norm:.6g} <= 2 c0 (1 + {NORM_SLACK}) = {bound:.6g}",
    )

    # partition of unity: sum, support exactness, derivative sums
    rng = np.random.default_rng(0)
    pou = glued.pou
    worst_sum = 0.0
    for _ in range(_POU_RANDOM_SAMPLES):
        s = np.array([rng.uniform(a, b) for a, b in family.box])
        worst_sum = max(worst_sum, abs(float(pou.weights(s).sum()) - 1.0))
    report.add_check(
        "pou_sum", worst_sum <= POU_SUM_TOL,
        f"max |sum eta - 1| = {worst_sum:.3g} over {_POU_RANDOM_SAMPLES} "
        f"random points (tolerance {POU_SUM_TOL})",
    )
    support_ok = True
    if math.isfinite(pou.cover.radius):
        centers = np.asarray(pou.cover.centers)
        for s in itertools.product(*axes):
            b = pou.bump_values(np.asarray(s))
            dist = np.sqrt(((np.asarray(s) - centers) ** 2).sum(-1))
            if np.any((dist >= pou.cover.radius) & (b != 0.0)):
                support_ok = False
                break
    report.add_check("pou_support", support_ok,
                     "bumps vanish exactly outside their radius")
    worst_dsum = 0.0
    alphas = [a for a in jets.multi_indices(family.dim, 2) if 1 <= sum(a) <= 2]
    for _ in range(200):
        s = _interior_random(rng, family.box, 0.05)
        for d in _pou_derivatives(pou, s, alphas):
            worst_dsum = max(worst_dsum, abs(float(d.sum())))
    report.add_check(
        "pou_derivative_sums", worst_dsum <= POU_DERIV_TOL,
        f"max |sum d^a eta| = {worst_dsum:.3g} for 1 <= |a| <= 2 "
        f"(tolerance {POU_DERIV_TOL})",
    )

    # derivative spot checks against central differences
    alpha_cap = min(config.solver.order, 2)
    for order in range(1, alpha_cap + 1):
        h, tol = FD_TOLS[order]
        worst_fd = 0.0
        for _ in range(_FD_RANDOM_POINTS):
            s = _interior_random(rng, family.box, 0.05)
            zpt = 0.5 * math.sqrt(rng.uniform(0, 1)) * \
                complex(math.cos(rng.uniform(0, 2 * math.pi)),
                        math.sin(rng.uniform(0, 2 * math.pi)))
            for alpha in jets.multi_indices(family.dim, order):
                if sum(alpha) != order:
                    continue
                worst_fd = max(worst_fd,
                               smoothness.fd_check(glued, zpt, s, alpha, h))
        report.add_check(
            f"fd_order_{order}", worst_fd <= tol,
            f"max relative deviation {worst_fd:.3g} (tolerance {tol}, h = {h})",
        )

    # norm reports: finiteness is the contract
    top = smoothness.cnorm_report(glued, alpha_max,
                                  axis_samples=max(s_per_axis, 2))
    for order in range(alpha_max + 1):
        rep = top.restricted(order)
        report.cnorm_reports.append(rep.to_dict())
        report.add_check(
            f"cnorm_finite_order_{order}",
            math.isfinite(rep.g_norm_estimate) and math.isfinite(rep.ratio),
            f"||g||_C{order} ~ {rep.g_norm_estimate:.6g}, "
            f"||f||_C{order} ~ {rep.f_norm_estimate:.6g}, ratio {rep.ratio:.6g}",
        )


def cmd_verify(args) -> int:
    config, glued = serialize.load_solution(args.solution)
    report = RunReport(command="verify")
    report.delta_cert = glued.delta_cert.to_dict()
    report.sup_cert = glued.sup_cert.to_dict()
    report.residual_cert = glued.residual_cert.to_dict()
    report.c0 = glued.c0
    report.cover_size = glued.cover.size
    report.r_final = serialize._encode_radius(glued.cover.radius)
    alpha_max = args.alpha if args.alpha is not None else config.solver.order
    if alpha_max > config.solver.order:
        raise ConfigError(
            f"--alpha {alpha_max} exceeds the configured order {config.solver.order}"
        )
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
    out.parent.mkdir(parents=True, exist_ok=True)
    rows, summary = serialize.export_grid_csv(
        glued, out, args.z_samples, args.z_samples, args.s_samples
    )
    serialize.save_summary(summary, out.with_suffix(".summary.json"))
    if rows == 0:
        print("warning: empty grid spec; wrote a header-only CSV")
    print(f"wrote {rows} data rows to {out}")
    return 0


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
    p.add_argument("--z-samples", type=int, default=20,
                   help="polar grid: radii and angles per direction")
    p.add_argument("--s-samples", type=int, default=20,
                   help="parameter samples per axis")
    p.add_argument("--alpha", type=int, default=None,
                   help="max derivative order for the norm reports")
    p.add_argument("--report", help="write the run report to this path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval-grid", help="export solution values as CSV")
    p.add_argument("--solution", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--z-samples", type=int, default=8)
    p.add_argument("--s-samples", type=int, default=8)
    p.set_defaults(func=cmd_eval_grid)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoronaGlueError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
