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

from conftest import steep_family, two_param_family
from coronaglue import glue
from coronaglue.cover_pou import build_cover

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
    pou = build_cover(box, radius)
    for _ in range(10):
        s = np.array([rng.uniform(a, b) for a, b in box])
        tracer = _StubTracer()
        hook(tracer, (pou, s[None], 2), {}, pou.weight_jets(s[None], 2), None)
        assert tracer.counts["cover_pou.weight_jets.computed"] == pou.size
        assert 1 <= tracer.counts["cover_pou.weight_jets.useful"] <= 2 ** len(box)


@pytest.mark.parametrize("family", [steep_family, two_param_family])
def test_reuse_hooks_read_a_real_solve_at_samples_call(family):
    # the hooks read the cover's centers off the call's arguments, by
    # position or by name, and test each one against a cache of centers
    tracing, family = _load_tracing(), family()
    cover = build_cover(family.box, 0.3)
    assert all(isinstance(c, tuple) for c in cover.centers)
    for args, kwargs in (((family, cover), {}), ((), {"family": family, "cover": cover})):
        points = glue.solve_at_samples(*args, **kwargs)
        tracer = _StubTracer()
        ctx = tracing._reuse_pre(args, kwargs)
        tracing._reuse_post(tracer, args, kwargs, points, ctx)
        assert tracer.counts["glue.points_requested"] == cover.size == len(points.solutions)
        assert tracer.counts["glue.points_reused"] == 0
    cache = {cover.centers[0]: None, (9.0,) * family.dim: None}
    assert tracing._reuse_pre((family, cover, None, cache), {}) == (cover.size, 1)


def test_solve_hook_reads_the_glued_cover():
    tracer, family = _StubTracer(), steep_family()
    result = glue.solve(family)
    _load_tracing()._solve_post(tracer, (family,), {}, result, None)
    glued, _ = result
    assert tracer.counts["glue.cover_centers"] == glued.cover.size == len(glued.points.solutions)
    assert tracer.counts["glue.refinements"] == glued.refinements
