"""The benchmark's tracer wraps program functions by name; every target it
names must still exist, and the arguments its hooks read must keep their
positions."""

import importlib
import importlib.util
import inspect
from pathlib import Path

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
