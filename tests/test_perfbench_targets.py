"""The benchmark's tracer wraps program functions by name; every target it
names must still exist, and the arguments its hooks read must keep their
positions."""

import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from coronaglue.cover_pou import PartitionOfUnity, build_cover

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# (module, attribute path) -> leading parameter names the hooks read by position
HOOKED_ARGUMENTS = {
    ("smoothness", "cnorm_report"): ("glued", "order"),
    ("glue", "solve_at_samples"): ("family", "cover"),
    ("bezout_point", "least_norm_bezout"): ("f", "degree"),
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = _load_tracing().TARGETS
    assert targets
    for module_name, path, *_ in targets:
        owner = importlib.import_module(f"coronaglue.{module_name}")
        for part in path.split("."):
            assert hasattr(owner, part), f"coronaglue.{module_name}.{path} is gone"
            owner = getattr(owner, part)
        assert callable(owner)
        key = (module_name, path)
        if key in HOOKED_ARGUMENTS:
            names = tuple(inspect.signature(owner).parameters)
            expected = HOOKED_ARGUMENTS[key]
            assert names[:len(expected)] == expected, key


class _StubTracer:
    def __init__(self):
        self.counts = Counter()

    def count(self, key, value, use_max=False):
        self.counts[key] += value


@pytest.mark.parametrize("box, radius", [
    ([(0.0, 1.0)], 0.05),
    ([(0.0, 1.0), (0.0, 1.0)], 0.1),
])
def test_weight_jets_hook_reads_one_row_per_center(rng, box, radius):
    # the hook counts returned rows: one per center, nonzero only for the
    # at most 2^d bumps whose support holds s
    hook = _load_tracing()._weight_jets_post
    pou = PartitionOfUnity(build_cover(box, radius))
    for _ in range(10):
        s = np.array([rng.uniform(a, b) for a, b in box])
        tracer = _StubTracer()
        hook(tracer, (pou, s, 2), {}, pou.weight_jets(s, 2), None)
        assert tracer.counts["cover_pou.weight_jets.computed"] == pou.cover.size
        assert 1 <= tracer.counts["cover_pou.weight_jets.useful"] <= 2 ** len(box)
