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
    # relative to the file's largest magnitude, not to the two numbers: a
    # last-bit change next to zero is rounding, not a difference near 1
    ("a.json", {"g": [1e-17, 0.5]}, {"g": [6e-17, 0.5]},
     "largest relative difference 1e-16, 1e-17 vs 6e-17"),
    ("a.json", {"ok": True}, {"ok": False}, "structure differs"),
    ("a.json", {"g": [0.5]}, {"g": [0.5, 1e-13]}, "structure differs"),
    ("a.solve-report.json", {"c0": 1.0, "timings": {"solve": 1.0}},
     {"c0": 1.0, "timings": {"solve": 2.0}}, "largest relative difference 0"),
    ("a.csv", "k,re_g\n0,0.25\n", "k,re_g\n0,0.5\n",
     "largest relative difference 0.5, 0.25 vs 0.5"),
    ("a.csv", "k,re_g\n0,0.25\n", "k,im_g\n0,0.25\n", "structure differs"),
    # numbers inside text count as numbers: a console line or a check's
    # detail differs in structure only where the words around them do
    ("a.stdout", "c0 1\n", "c0 2\n", "largest relative difference 0.5, 1 vs 2"),
    # the scale is the largest magnitude on either side, anywhere in the file;
    # a number far above the rounding floor also reads relative to itself
    ("a.csv", "k,re_g\n0,8\n1,1e-3\n", "k,re_g\n0,8\n1,1.001e-3\n",
     "largest relative difference 1.2e-07, 0.001 vs 0.001; "
     "0.001 relative to the pair, 0.001 vs 0.001"),
    ("a.json", {"g": [1.0, 2.0]}, {"g": [1.5, 2.25]},
     "largest relative difference 0.22, 1 vs 1.5; 0.33 relative to the pair, 1 vs 1.5"),
    ("a.json", {"cert": [1e-13, 2.0]}, {"cert": [2e-13, 2.0]},
     "largest relative difference 5e-14, 1e-13 vs 2e-13; "
     "0.5 relative to the pair, 1e-13 vs 2e-13"),
    ("a.json", {"g": [0.0, 0.5]}, {"g": [5e-17, 0.5]},
     "largest relative difference 1e-16, 0 vs 5e-17"),
    # a flipped check is structure; an exit code file is not compared by number
    ("a.stdout", "[PASS] pou_sum: 0\n", "[FAIL] pou_sum: 0\n", "structure differs"),
    ("a.code", "0\n", "1\n", None),
    ("a.verify-report.json",
     {"checks": [{"name": "pou_sum", "detail": "max |sum eta - 1| = 0 over 8 points"}]},
     {"checks": [{"name": "pou_sum", "detail": "max |sum eta - 1| = 1.1e-16 over 8 points"}]},
     "largest relative difference 1.4e-17, 0 vs 1.1e-16"),
    ("a.json", {"detail": "tolerance 1e-12, h = 0.0001."},
     {"detail": "tolerance 1e-12, h = 0.0002."},
     "largest relative difference 0.5, 0.0001 vs 0.0002"),
    # digits inside a word are text, a NaN on both sides is no difference,
    # and an imaginary part is the number between its sign and its j
    ("a.json", {"name": "taylor_order_1"}, {"name": "taylor_order_2"}, "structure differs"),
    ("a.json", {"name": "C1", "g": "nan", "c0": 1.0}, {"name": "C1", "g": "nan", "c0": 2.0},
     "largest relative difference 0.5, 1 vs 2"),
    ("a.stderr", "z = (0.5-0.25j)\n", "z = (0.5-0.5j)\n",
     "largest relative difference 0.5, 0.25 vs 0.5"),
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
