"""Check that two source trees give the same outputs.

Usage: python3 tools/same_outputs.py OLD NEW

OLD and NEW are checkouts of this repository (each holds ``src/coronaglue``).
Under each tree the script runs the command-line program on the same inputs,
with the same relative paths.  The inputs come from NEW for both sides, so a
change that adds a config or a benchmark family is compared with OLD on it:

* check, solve, verify and eval-grid on every ``configs/*.json``, except
  ``corrupted_solution.json``, a solution file, which gets verify and
  eval-grid only;
* every perfbench family at seeds 1 and 2, with the commands and the sample
  arguments of its workload; NEW's ``perfbench/workloads.py`` is loaded by
  path.

It compares exit codes, console output, solution files, CSVs and summaries
byte for byte, and the check, solve and verify reports with their
``timings`` removed.  It prints every file that differs and exits 1 if any
does, 0 if none does.  For a JSON, CSV or console output file that differs,
it also prints the largest difference between the numbers at matching
positions, relative to the largest magnitude of any number in the two
files, with the two numbers, or that the structure differs: a last-bit
change of a number that is zero on one side reads as the rounding it is,
not as a relative difference of 1.  Numbers written inside text (a verify
check's ``detail``, a console line) count as numbers, so the structure
differs only where the text around them does, such as a flipped
``[PASS]``.  Where a number above 1e-14 of that scale changed by more
relative to itself, the largest such change follows, relative to the two
numbers themselves, so a real change in a small number does not read as
rounding.  The work directories are kept when files differ.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SEEDS = (1, 2)
SOLUTION_FILE = "corrupted_solution.json"
REPORTS = (".check.json", ".solve-report.json", ".verify-report.json")
ROUNDING_FLOOR = 1e-14   # a number below this share of the file's scale is noise
TEXT = (".stdout", ".stderr")
# a number inside text, not part of a word such as taylor_order_2 or C2; a
# trailing j (an imaginary part) stays in the text
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:nan|inf|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?)"
                    r"(?=j\b|(?!\w|\.\d))")


def _load_workloads(tree, name):
    spec = importlib.util.spec_from_file_location(name, tree / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _samples(pair):
    """The sample options of a workload's (z, s) pair; none keeps the defaults."""
    return [f"--z-samples={pair[0]}", f"--s-samples={pair[1]}"] if pair else []


def _command_args(command, base, config, verify_args=(), grid_args=()):
    """CLI arguments of one command on the files named ``base``.*"""
    if command == "check":
        return ["check", "--config", config, "--out", f"{base}.check.json"]
    if command == "solve":
        return ["solve", "--config", config, "--out", f"{base}.solution.json",
                "--report", f"{base}.solve-report.json"]
    if command == "verify":
        return ["verify", "--solution", f"{base}.solution.json",
                "--report", f"{base}.verify-report.json", *_samples(verify_args)]
    return ["eval-grid", "--solution", f"{base}.solution.json",
            "--out", f"{base}.grid.csv", *_samples(grid_args)]


def _jobs(tree, work):
    """Write the inputs of ``tree`` into ``work``; the (base, command, args)
    of every command, in order, with paths relative to ``work``."""
    jobs = []
    (work / "configs").mkdir(parents=True)
    for path in sorted((tree / "configs").glob("*.json")):
        shutil.copyfile(path, work / "configs" / path.name)
        config = f"configs/{path.name}"
        base = f"configs/{path.stem}"
        if path.name == SOLUTION_FILE:
            shutil.copyfile(path, work / f"{base}.solution.json")
            commands = ("verify", "eval_grid")
        else:
            commands = ("check", "solve", "verify", "eval_grid")
        jobs += [(base, command, _command_args(command, base, config))
                 for command in commands]
    workloads = _load_workloads(tree, f"workloads_{work.name}")
    for seed in SEEDS:
        for name in workloads.NAMES:
            wl = workloads.build(name, seed)
            folder = work / f"seed{seed}" / name
            folder.mkdir(parents=True)
            for fam in wl.families:
                base = f"seed{seed}/{name}/{fam.name}"
                config = f"{base}.config.json"
                (work / config).write_text(json.dumps(fam.config(), indent=1) + "\n")
                jobs += [(base, command,
                          _command_args(command, base, config, wl.verify_args, wl.grid_args))
                         for command in fam.commands]
    return jobs


def run_tree(tree, work, jobs):
    """Run ``jobs`` under ``tree`` in ``work``; console output and exit codes
    go next to the outputs, with the tree's path masked."""
    env = dict(os.environ)
    src = str(tree / "src")
    env["PYTHONPATH"] = src
    for base, command, args in jobs:
        proc = subprocess.run([sys.executable, "-m", "coronaglue.cli", *args],
                              cwd=work, env=env, capture_output=True, text=True)
        stem = work / f"{base}.{command}"
        Path(f"{stem}.stdout").write_text(proc.stdout.replace(src, "<src>"))
        Path(f"{stem}.stderr").write_text(proc.stderr.replace(src, "<src>"))
        Path(f"{stem}.code").write_text(f"{proc.returncode}\n")


def _content(path):
    if path.name.endswith(REPORTS):
        try:
            report = json.loads(path.read_text())
        except ValueError:
            return path.read_bytes()
        report.pop("timings", None)
        return json.dumps(report, indent=2, sort_keys=True)
    return path.read_bytes()


def _numbers(value, out):
    """``value`` with each number moved to ``out``, in order, and replaced by
    None: what remains is the structure."""
    if isinstance(value, dict):
        return {key: _numbers(item, out) for key, item in value.items()}
    if isinstance(value, list):
        return [_numbers(item, out) for item in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out.append(float(value))
        return None
    if isinstance(value, str):
        out.extend(map(float, NUMBER.findall(value)))
        return NUMBER.sub("\0", value)
    return value


def _csv_cell(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def difference_size(old, new):
    """How far apart two differing JSON, CSV or console output files are;
    None for any other file, or a file present on one side only."""
    if old.suffix not in (".json", ".csv") + TEXT or not (old.is_file() and new.is_file()):
        return None
    numbers, shapes = ([], []), []
    for path, out in zip((old, new), numbers):
        if path.suffix == ".csv":
            value = [[_csv_cell(cell) for cell in line.split(",")]
                     for line in path.read_text().splitlines()]
        elif path.suffix in TEXT:
            value = path.read_text().splitlines()
        else:
            try:
                value = json.loads(_content(path))
            except ValueError:
                return "structure differs"
        shapes.append(_numbers(value, out))
    if shapes[0] != shapes[1]:
        return "structure differs"
    # a NaN on both sides is no difference
    pairs = [(a, b) for a, b in zip(*numbers) if a != b and (a == a or b == b)]
    if not pairs:
        return "largest relative difference 0"
    scale = max((abs(x) for x in numbers[0] + numbers[1] if math.isfinite(x)), default=0.0)

    def relative(pair, to=scale):
        size = abs(pair[0] - pair[1]) / to if to else math.inf
        return size if math.isfinite(size) else math.inf

    def own(pair):
        return relative(pair, max(abs(pair[0]), abs(pair[1])))
    a, b = max(pairs, key=relative)
    text = f"largest relative difference {relative((a, b)):.2g}, {a:.3g} vs {b:.3g}"
    # relative to the file, a real change in a small number can read as
    # rounding: name the largest change relative to the pair itself among
    # the pairs far above the rounding floor, if it reads larger
    above = [p for p in pairs if max(abs(p[0]), abs(p[1])) > ROUNDING_FLOOR * scale]
    if above:
        c, d = max(above, key=own)
        if own((c, d)) > relative((a, b)):
            text += f"; {own((c, d)):.2g} relative to the pair, {c:.3g} vs {d:.3g}"
    return text


def differences(old_work, new_work):
    """Relative paths of the files that differ or exist under one side only."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    old, new = files(old_work), files(new_work)
    return sorted(str(rel) for rel in old ^ new) + sorted(
        str(rel) for rel in old & new
        if _content(old_work / rel) != _content(new_work / rel))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv]
    for tree in trees:
        if not (tree / "src" / "coronaglue" / "cli.py").is_file():
            print(f"error: {tree} holds no src/coronaglue", file=sys.stderr)
            return 2
    root = Path(tempfile.mkdtemp(prefix="same_outputs_"))
    works = [root / "old", root / "new"]
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(run_tree, trees, works, [_jobs(trees[1], w) for w in works]))
    diff = differences(*works)
    for rel in diff:
        size = difference_size(works[0] / rel, works[1] / rel)
        print(f"differs: {rel}" + (f" ({size})" if size else ""))
    if diff:
        print(f"{len(diff)} file(s) differ; outputs kept in {root}")
        return 1
    count = sum(1 for p in works[0].rglob("*") if p.is_file())
    shutil.rmtree(root)
    print(f"same outputs: {count} files compared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
