"""``tools/same_outputs.py`` reports how far apart two differing outputs are."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


@pytest.mark.parametrize("name, old, new, expected", [
    ("a.json", {"c0": 2.0, "ok": True}, {"c0": 2.0 + 2 ** -51, "ok": True},
     "largest relative difference 2.2e-16, 2 vs 2"),
    ("a.json", {"g": [0.0, 0.5]}, {"g": [5e-17, 0.5]},
     "largest relative difference 1, 0 vs 5e-17"),
    ("a.json", {"ok": True}, {"ok": False}, "structure differs"),
    ("a.json", {"g": [0.5]}, {"g": [0.5, 1e-13]}, "structure differs"),
    ("a.solve-report.json", {"c0": 1.0, "timings": {"solve": 1.0}},
     {"c0": 1.0, "timings": {"solve": 2.0}}, "largest relative difference 0"),
    ("a.csv", "k,re_g\n0,0.25\n", "k,re_g\n0,0.5\n",
     "largest relative difference 0.5, 0.25 vs 0.5"),
    ("a.csv", "k,re_g\n0,0.25\n", "k,im_g\n0,0.25\n", "structure differs"),
    ("a.stdout", "c0 1\n", "c0 2\n", None),
])
def test_difference_size(tmp_path, name, old, new, expected):
    paths = []
    for side, content in (("old", old), ("new", new)):
        path = tmp_path / side / name
        path.parent.mkdir()
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        paths.append(path)
    assert same_outputs.difference_size(*paths) == expected


def test_difference_size_of_a_file_on_one_side_only(tmp_path):
    (tmp_path / "a.json").write_text("{}")
    assert same_outputs.difference_size(tmp_path / "a.json", tmp_path / "b.json") is None
