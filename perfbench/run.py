#!/usr/bin/env python3
"""The coronaglue benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --steadiness 10 [--workload <name|all>]

A run writes the workload's configurations (generated from the seed), times
``python -m coronaglue.cli`` set-up, then repeats whole rounds of the user
sequence (check, solve, verify, eval-grid on every family) for ``--seconds``
seconds, one CLI process at a time, with wall time and peak RSS from
``os.wait4``.  ``--trace 1`` instead alternates untraced and traced rounds of
``cli.main`` inside this process and reports the per-layer metrics.  Either
way the first round's outputs go through the independent checker and every
later round must reproduce them byte for byte.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

``--steadiness N`` runs every named workload N times with seeds 1..N in
fresh processes and prints each end-to-end metric's median and the spread
between its quartiles, next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

PROCESS_TIMEOUT = 150      # seconds before a hung CLI process is killed
SETUP_SAMPLES_PER_CALL = 2   # before the first round and after every round
MIN_ROUNDS = 3               # a median that can drop one slow round
KNOWN_VERIFY_FAULT = {"fd_order_1", "fd_order_2", "pou_derivative_sums"}
SETUP_CODE = (
    "import sys, coronaglue, coronaglue.cli\n"
    "from coronaglue.config import load_config\n"
    "for path in sys.argv[1:]:\n"
    "    load_config(path)\n"
    "print(coronaglue.__file__)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, or set-up fails)."""


@dataclass
class Op:
    family: str
    command: str
    wall: float
    rss_kb: int
    code: object            # exit code, or "crash"
    log: Path


# -- running one command -------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env.pop("CORONA_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv, env, log_path):
    """(wall seconds, peak RSS in KB, exit code) of one child process."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        killer = threading.Timer(PROCESS_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def run_in_process(cli_main, argv, log_path):
    """(wall seconds, exit code) of ``cli.main(argv)`` in this process."""
    with open(log_path, "w") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        t0 = time.perf_counter()
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            print(f"crash: {type(exc).__name__}: {exc}")
            code = "crash"
        return time.perf_counter() - t0, code


def cli_args(wl, fam, command, rdir, config):
    base = rdir / fam.name
    if command == "check":
        return ["check", "--config", str(config), "--out", f"{base}.check.json"]
    if command == "solve":
        return ["solve", "--config", str(config), "--out", f"{base}.solution.json",
                "--report", f"{base}.solve-report.json"]
    if command == "verify":
        z, s = wl.verify_args
        return ["verify", "--solution", f"{base}.solution.json", "--z-samples", str(z),
                "--s-samples", str(s), "--report", f"{base}.verify-report.json"]
    z, s = wl.grid_args
    return ["eval-grid", "--solution", f"{base}.solution.json", "--out",
            f"{base}.grid.csv", "--z-samples", str(z), "--s-samples", str(s)]


def fingerprint(wl, rdir, ops):
    """What a later round must reproduce: exit codes, solution and CSV bytes,
    and the check certificates (the check report also holds timings)."""
    out = {f"{op.family}.{op.command}.code": op.code for op in ops}
    for fam in wl.families:
        for suffix in ("solution.json", "grid.csv"):
            path = rdir / f"{fam.name}.{suffix}"
            if path.exists():
                out[f"{fam.name}.{suffix}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        path = rdir / f"{fam.name}.check.json"
        if path.exists():
            report = json.loads(path.read_text())
            out[f"{fam.name}.check"] = [report["delta_cert"], report["sup_cert"]]
    return out


# -- one workload ---------------------------------------------------------------


def prepare(name, seed):
    wl = workloads.build(name, seed)
    wdir = WORK / name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    configs = {}
    for fam in wl.families:
        configs[fam.name] = wdir / f"{fam.name}.config.json"
        configs[fam.name].write_text(json.dumps(fam.config(), indent=1) + "\n")
    return wl, wdir, configs


def setup_sampler(configs, env, wdir):
    """A function that times ``SETUP_SAMPLES_PER_CALL`` fresh set-up
    processes and appends their wall times to the list it returns with."""
    walls = []
    argv = [sys.executable, "-c", SETUP_CODE, *map(str, configs.values())]
    log = wdir / "setup.log"

    def sample():
        for _ in range(SETUP_SAMPLES_PER_CALL):
            wall, _rss, code = run_process(argv, env, log)
            if code != 0:
                raise BenchError(f"set-up failed:\n{log.read_text()}")
            if not walls:
                imported = Path(log.read_text().strip().splitlines()[-1]).resolve()
                if SRC.resolve() not in imported.parents:
                    raise BenchError(f"coronaglue was imported from {imported}, not {SRC}")
            walls.append(wall)
    return sample, walls


def repeat_rounds(wl, wdir, seconds, run_round, between=None):
    """Whole rounds while the next one (taken to last as long as the last one)
    still ends within ``seconds``, and at least MIN_ROUNDS rounds.  Round 0's
    outputs go to the checker; every later round must reproduce them, and its
    directory is deleted once compared.  ``between`` runs after every round."""
    rounds, problems = [], []
    t0 = time.perf_counter()
    last = 0.0
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 + last <= seconds:
        i = len(rounds)
        rdir = wdir / f"round-{i}"
        rdir.mkdir()
        start = time.perf_counter()
        ops = run_round(i, rdir)
        rounds.append((ops, fingerprint(wl, rdir, ops)))
        if i:
            diff = sorted(k for k, v in rounds[i][1].items() if rounds[0][1].get(k) != v)
            if diff:
                problems.append(f"round {i} differs from round 0 in {', '.join(diff)}")
            shutil.rmtree(rdir)
        if between:
            between()
        last = time.perf_counter() - start
    return [ops for ops, _ in rounds], problems


def subprocess_round(wl, configs, env):
    def run_round(_i, rdir):
        ops = []
        for fam in wl.families:
            for command in fam.commands:
                log = rdir / f"{fam.name}.{command}.log"
                argv = [sys.executable, "-m", "coronaglue.cli",
                        *cli_args(wl, fam, command, rdir, configs[fam.name])]
                wall, rss, code = run_process(argv, env, log)
                if code == 1 and "Traceback" in log.read_text(errors="replace"):
                    code = "crash"
                ops.append(Op(fam.name, command, wall, rss, code, log))
        return ops
    return run_round


def in_process_round(wl, configs, tracer):
    from coronaglue import cli

    def run_round(i, rdir):
        traced = i % 2 == 1
        if traced:
            tracer.round = i
            tracer.install()
        try:
            ops = []
            for fam in wl.families:
                for command in fam.commands:
                    tracer.command = tracer.commands.index(command)
                    log = rdir / f"{fam.name}.{command}.log"
                    wall, code = run_in_process(
                        cli.main, cli_args(wl, fam, command, rdir, configs[fam.name]), log)
                    ops.append(Op(fam.name, command, wall, 0, code, log))
        finally:
            if traced:
                tracer.uninstall()
        return ops
    return run_round


def end_to_end(rounds, setups, rdir):
    # Medians over all rounds: the first CLI call of a run can take twice as
    # long as later ones, and a median over three or more rounds drops it.
    def median_of(per_round):
        return statistics.median(per_round(ops) for ops in rounds)

    def wall(command):
        return median_of(lambda ops: sum(op.wall for op in ops if op.command == command))

    def rss(command):
        return median_of(lambda ops: max(op.rss_kb for op in ops if op.command == command)) / 1024

    solution_bytes = sum(p.stat().st_size for p in rdir.glob("*.solution.json"))
    return {
        "setup_s": statistics.median(setups),
        "check_s": wall("check"),
        "solve_s": wall("solve"),
        "verify_s": wall("verify"),
        "eval_grid_s": wall("eval_grid"),
        "solve_rss_mb": rss("solve"),
        "verify_rss_mb": rss("verify"),
        "solution_kb": solution_bytes / 1024,
    }


def per_layer(tracer, rounds):
    """Per-layer metrics: median over traced rounds, with each command's
    traced wall time and its tracing overhead against the untraced rounds."""
    spans, counters = tracer.aggregate()
    by_round = {}
    for (r, command, name), (calls, total, own) in spans.items():
        m = by_round.setdefault(r, {})
        m[f"{command}.{name}.calls"] = calls
        m[f"{command}.{name}.s"] = total
        m[f"{command}.{name}.self_s"] = own
    for (r, command, key), value in counters.items():
        by_round.setdefault(r, {})[f"{command}.{key}"] = value
    for m in by_round.values():
        for command in workloads.COMMANDS:
            def get(key):
                return m.get(f"{command}.{key}", 0)
            for ratio, num, den in (
                ("cover_pou.weight_jets.useful_ratio", "cover_pou.weight_jets.useful",
                 "cover_pou.weight_jets.computed"),
                ("glue.point_reuse_ratio", "glue.points_reused", "glue.points_requested"),
                ("bezout_point.chain_useful_ratio", "bezout_point.gcd_chain_bezout.returned",
                 "bezout_point.gcd_chain_bezout.calls"),
            ):
                if get(den):
                    m[f"{command}.{ratio}"] = get(num) / get(den)
    # Round 0 pays this process's first-call costs, so the untraced side of
    # the overhead uses rounds 2, 4, ...
    walls = {True: {}, False: {}}
    for i, ops in enumerate(rounds[1:], start=1):
        for command in workloads.COMMANDS:
            walls[i % 2 == 1].setdefault(command, []).append(
                sum(op.wall for op in ops if op.command == command))
    metrics = {}
    names = {k for m in by_round.values() for k in m}
    for name in names:
        metrics[name] = statistics.median(m.get(name, 0) for m in by_round.values())
    for command in workloads.COMMANDS:
        traced = statistics.median(walls[True][command])
        metrics[f"cli.{command}.s"] = traced
        metrics[f"cli.{command}.overhead_s"] = traced - statistics.median(walls[False][command])
    return metrics


# -- the independent check of round 0 ------------------------------------------


def _tail(log):
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


def check_outputs(wl, rdir, ops, seed):
    """Run the independent checker on the first round's outputs.  Returns
    (problems, {(family, command): reason} for every failed operation)."""
    import numpy as np

    import checker
    from coronaglue import serialize, smoothness

    problems, reasons = [], {}
    for index, fam in enumerate(wl.families):
        rng = np.random.default_rng([seed, index])
        cfg = fam.config()
        data = checker.DataFamily(cfg)
        extremes = data.modulus_extremes(rng)
        op = {o.command: o for o in ops if o.family == fam.name}
        tag = f"{fam.name}:"

        def note(command, found):
            problems.extend(f"{tag} {command}: {p}" for p in found)

        if "check" in op:
            report = json.loads((rdir / f"{fam.name}.check.json").read_text())
            note("check", checker.check_certificates(extremes, report["delta_cert"],
                                                     report["sup_cert"]))
            lo = report["delta_cert"]["lo"]
            if op["check"].code != 0:
                if lo <= 0 < extremes[1]:
                    reasons[(fam.name, "check")] = (
                        f"corona bound not certified (lo = {lo:.3g}) although brute force "
                        f"certifies delta >= {extremes[1]:.3g} (sampled min "
                        f"{extremes[0]:.3g}): the global sum j|a_j| Lipschitz slack")
                else:
                    problems.append(f"{tag} check fails and brute force cannot certify "
                                    f"delta > 0 ({extremes[1]:.3g}): the input is bad")
        if "solve" not in op:
            continue
        if op["solve"].code != 0:
            for command in ("solve", "verify", "eval_grid"):
                reasons[(fam.name, command)] = f"solve failed: {_tail(op['solve'].log)}"
            continue
        path = rdir / f"{fam.name}.solution.json"
        solution = json.loads(path.read_text())
        if solution["config"]["family"] != cfg["family"] or \
                solution["config"]["domain"] != cfg["domain"]:
            note("solve", ["the solution file does not carry the input family"])
        result = solution["result"]
        note("solve", checker.check_certificates(extremes, result["delta_cert"],
                                                 result["sup_cert"]))
        glued = checker.GluedEval(data, solution)
        note("solve", checker.check_solution(glued, rng))
        found, worst = checker.check_derivatives(
            glued, serialize.load_solution(path)[1], smoothness.g_partial, rng,
            cfg["solver"]["order"])
        note("solve", found)

        if op["verify"].code != 0:
            text = op["verify"].log.read_text(errors="replace")
            failing = dict(re.findall(r"^\[FAIL\] (\w+): (.*)$", text, re.M))
            if failing and set(failing) <= KNOWN_VERIFY_FAULT and op["verify"].code == 1:
                reasons[(fam.name, "verify")] = (
                    "; ".join(f"{k}: {v}" for k, v in failing.items())
                    + f". Known fault: the FD step and the PoU tolerance are absolute at "
                    f"cover radius {glued.radius:.3g}, while g_partial agrees with "
                    f"50-digit differences to {worst:.1e}")
            else:
                reasons[(fam.name, "verify")] = (
                    f"unexpected: {', '.join(failing) or _tail(op['verify'].log)}")
        if op["eval_grid"].code == 0:
            note("eval_grid", checker.check_csv(glued, rdir / f"{fam.name}.grid.csv",
                                                *wl.grid_args))
        else:
            reasons[(fam.name, "eval_grid")] = _tail(op["eval_grid"].log)
    return problems, reasons


# -- entry point --------------------------------------------------------------


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name, seed, seconds, trace):
    bench = spec()
    wl, wdir, configs = prepare(name, seed)
    env = child_env()
    os.environ.pop("CORONA_THREADS", None)
    sys.path.insert(0, str(SRC))
    if trace:
        import coronaglue
        from tracing import Tracer

        if SRC.resolve() not in Path(coronaglue.__file__).resolve().parents:
            raise BenchError(f"coronaglue was imported from {coronaglue.__file__}")
        tracer = Tracer(workloads.COMMANDS)
        rounds, problems = repeat_rounds(wl, wdir, seconds,
                                         in_process_round(wl, configs, tracer))
        tracer.save(wdir / "spans.npz")
        values = per_layer(tracer, rounds)
        wanted = bench["per_layer"]
    else:
        sample_setup, setups = setup_sampler(configs, env, wdir)
        sample_setup()
        rounds, problems = repeat_rounds(wl, wdir, seconds,
                                         subprocess_round(wl, configs, env),
                                         between=sample_setup)
        values = end_to_end(rounds, setups, wdir / "round-0")
        wanted = bench["end_to_end"]
    found, reasons = check_outputs(wl, wdir / "round-0", rounds[0], seed)
    problems += found

    attempted = sum(len(ops) for ops in rounds)
    failed = sum(1 for ops in rounds for op in ops if op.code != 0)
    print(f"== {name} (seed {seed}, {len(rounds)} rounds, "
          f"{'traced' if trace else 'untraced'})")
    for op in rounds[0]:
        if op.code != 0:
            reason = reasons.get((op.family, op.command), _tail(op.log))
            print(f"FAILED {op.family} {op.command} (exit {op.code}): {reason}")
    for p in problems:
        print(f"CHECK {p}")
    for i, ops in enumerate(rounds):
        print(f"round {i}: " + ", ".join(
            f"{c} {sum(op.wall for op in ops if op.command == c):.3f} s"
            for c in workloads.COMMANDS))
    print(f"operations: {attempted} attempted, {failed} failed")
    metrics = {}
    for m in wanted:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']}: {value:.6g} {m['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def steadiness(names, runs, seconds):
    bench = spec()
    summary = {}
    for name in names:
        results = []
        for seed in range(1, runs + 1):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            results.append(res)
            print(f"{name} seed {seed}: correct {res['correct']}, "
                  f"{res['failed']}/{res['attempted']} failed, " + ", ".join(
                      f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        rows = {}
        print(f"\n{name}: {'metric':<14} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = "" if spread < m["bound"] / 3 else "  > bound/3"
            print(f"{name}: {m['name']:<14} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{spread:>8.3%} {m['bound']:>6}{flag}")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{name}: failed shares {shares}; all correct: "
              f"{all(r['correct'] for r in results)}\n")
        summary[name] = {"metrics": rows, "failed_shares": shares,
                         "correct": all(r["correct"] for r in results)}
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS", default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coronaglue" / "cli.py").is_file():
        print(f"error: no coronaglue sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if args.steadiness:
        steadiness(names, args.steadiness, seconds)
        return 0
    try:
        results = {n: run_workload(n, args.seed, seconds, args.trace) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
