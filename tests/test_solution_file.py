"""The solution file: one line of sorted-key compact JSON, each point
certificate stored as its lo and hi.  Files written by earlier versions
(indented, with an ``r_final`` copy of the cover radius, a ``cover.box`` copy
of the domain bounds, the round count ``refinements``, the config's
``output`` section and ``solver.order``, and each point certificate's
``quantity`` and ``samples_used``) still load and verify the same.  The
reader rebuilds the cover from the bounds and the radius and refuses stored
centers or glued certificate names other than the ones it derives."""

import json
from pathlib import Path

import pytest

from conftest import STEEP_COVER, glued_on
from coronaglue import bezout_point, cli, glue, serialize
from coronaglue.config import _strict, load_config
from coronaglue.cover_pou import build_cover

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def _old_writer(config, glued, path):
    """The writer of earlier versions: indented, with ``r_final``,
    ``cover.box``, ``refinements``, ``output``, ``solver.order`` and every
    field of each point certificate."""
    payload = serialize.solution_to_dict(config, glued)
    payload["result"]["r_final"] = glued.cover.radius
    payload["result"]["cover"]["box"] = [list(b) for b in glued.family.box]
    payload["result"]["refinements"] = glued.refinements
    payload["config"]["output"] = {"directory": ".", "formats": ["json", "csv"]}
    payload["config"]["solver"]["order"] = 2
    for entry, sol in zip(payload["result"]["point_solutions"], glued.points.solutions):
        for name in bezout_point.CERT_QUANTITIES:
            entry[name] = getattr(sol, name).to_dict()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_strict(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


@pytest.fixture(scope="module", params=["steep_family.json",
                                        "two_param_family.json",
                                        "constant_family.json"])
def solved(request, tmp_path_factory):
    """A solved file; steep_family.json is glued on three centers, so the
    file holds several point solutions."""
    config = load_config(CONFIGS / request.param)
    if request.param == "steep_family.json":
        glued = glued_on(config.to_family(), STEEP_COVER, config.solver)
    else:
        glued, _ = glue.solve(config.to_family(), config.solver)
    work = tmp_path_factory.mktemp(request.param.removesuffix(".json"))
    new, old = work / "new.json", work / "old.json"
    serialize.save_solution(config, glued, new)
    _old_writer(config, glued, old)
    return config, glued, new, old


def test_solution_file_is_one_compact_line(solved):
    _, _, new, _ = solved
    data = new.read_bytes()
    assert data.endswith(b"\n") and data.count(b"\n") == 1 and b"\r" not in data
    # no whitespace between tokens (strings such as "l2 sup norm" keep theirs):
    # the line is the compact dump of what it parses to
    assert data[:-1].decode("ascii") == json.dumps(
        json.loads(data), sort_keys=True, separators=(",", ":"))


def test_save_load_save_is_byte_identical(solved, tmp_path):
    _, _, new, _ = solved
    again = tmp_path / "again.json"
    serialize.save_solution(*serialize.load_solution(new), again)
    assert again.read_bytes() == new.read_bytes()


def test_compact_file_holds_the_indented_payload_without_r_final(solved):
    _, _, new, old = solved
    expected = json.loads(old.read_text())
    assert "r_final" in expected["result"]
    del expected["result"]["r_final"]
    del expected["result"]["cover"]["box"]
    del expected["result"]["refinements"]
    del expected["config"]["output"]
    del expected["config"]["solver"]["order"]
    for entry in expected["result"]["point_solutions"]:
        for name in bezout_point.CERT_QUANTITIES:
            assert set(entry[name]) == {"lo", "hi", "quantity", "samples_used"}
            del entry[name]["quantity"], entry[name]["samples_used"]
    assert json.loads(new.read_text()) == expected
    assert new.stat().st_size < 0.5 * old.stat().st_size


def _equal_solutions(a, b):
    (cfg_a, glued_a), (cfg_b, glued_b) = a, b
    assert cfg_a.to_dict() == cfg_b.to_dict()
    assert glued_a.cover == glued_b.cover
    assert glued_a.points == glued_b.points
    for name in ("delta_cert", "sup_cert", "residual_cert"):
        assert getattr(glued_a, name) == getattr(glued_b, name)


def _verify_report(solution, report):
    code = cli.main(["verify", "--solution", str(solution), "--z-samples", "6",
                     "--s-samples", "6", "--report", str(report)])
    payload = json.loads(report.read_text())
    del payload["timings"]
    return code, payload


def test_an_indented_file_with_r_final_loads_and_verifies_the_same(solved, tmp_path):
    config, glued, new, old = solved
    from_old, from_new = serialize.load_solution(old), serialize.load_solution(new)
    _equal_solutions(from_old, from_new)
    _equal_solutions(from_new, (config, glued))
    old_code, old_report = _verify_report(old, tmp_path / "old-report.json")
    new_code, new_report = _verify_report(new, tmp_path / "new-report.json")
    assert old_code == new_code == 0
    assert old_report == new_report


@pytest.mark.parametrize("name, key, value", [
    ("norm_cert", "quantity", "H-infinity norm"),
    ("residual_cert", "quantity", None),
    ("norm_cert", "samples_used", 256),
    ("residual_cert", "samples_used", 512.0),
    ("residual_cert", "samples_used", "512"),
])
def test_a_stored_point_descriptor_other_than_the_derived_one_exits_2(
        solved, tmp_path, capsys, name, key, value):
    config, _, _, old = solved
    raw = json.loads(old.read_text())
    cert = raw["result"]["point_solutions"][-1][name]
    assert cert[key] == {"quantity": bezout_point.CERT_QUANTITIES[name],
                         "samples_used": config.solver.boundary_samples}[key]
    assert cert[key] != value or type(cert[key]) is not type(value)
    cert[key] = value
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["verify", "--solution", str(path)]) == 2
    err = capsys.readouterr().err
    last = len(raw["result"]["point_solutions"]) - 1
    assert err.startswith(f"error: point_solutions[{last}].{name}.{key} is {value!r}, ")
    assert len(err.splitlines()) == 1


def _refused(raw, tmp_path, capsys):
    """The one ``error:`` line with which verify refuses ``raw`` (exit 2)."""
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["verify", "--solution", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return err


@pytest.mark.parametrize("name", ["delta_cert", "sup_cert", "residual_cert"])
def test_a_glued_certificate_of_another_quantity_exits_2(solved, tmp_path, capsys, name):
    _, glued, new, _ = solved
    raw = json.loads(new.read_text())
    assert raw["result"][name]["quantity"] == getattr(glued, name).quantity
    raw["result"][name]["quantity"] = "x"
    assert _refused(raw, tmp_path, capsys).startswith(f"error: {name}.quantity is 'x', ")


@pytest.mark.parametrize("where", ["center", "lower bound", "upper bound"])
def test_a_moved_center_or_bound_exits_2(solved, tmp_path, capsys, where):
    _, _, new, _ = solved
    raw = json.loads(new.read_text())
    if where == "center":
        raw["result"]["cover"]["centers"][-1][0] += 1e-9
    else:
        raw["config"]["domain"]["bounds"][0][where == "upper bound"] += 1e-3
    assert "cover.centers" in _refused(raw, tmp_path, capsys)


@pytest.mark.parametrize("radius", [1e-12, 5e-324])
def test_a_radius_too_small_for_the_stored_centers_exits_2(solved, tmp_path, capsys,
                                                           radius):
    # the cover of such a radius is refused before any of its centers is laid out
    _, _, new, _ = solved
    raw = json.loads(new.read_text())
    raw["result"]["cover"]["radius"] = radius
    assert "more than" in _refused(raw, tmp_path, capsys)


def test_the_cover_is_rebuilt_from_the_bounds_and_the_radius(solved, tmp_path):
    config, glued, new, old = solved
    assert glued.cover == build_cover(config.bounds, glued.cover.radius)
    # an older file's cover.box and r_final are not read
    raw = json.loads(old.read_text())
    raw["result"]["cover"]["box"] = [[-5.0, 5.0]]
    raw["result"]["r_final"] = 1.0
    path = tmp_path / "old.json"
    path.write_text(json.dumps(raw))
    _equal_solutions(serialize.load_solution(path), serialize.load_solution(new))


def _numeric_leaves(node, path=()):
    """(path, value) of every number in a parsed JSON tree, in order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _numeric_leaves(value, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node


# The fields whose perturbation verify accepts, each with the reason.
TAMPER_SURVIVORS = {
    ("result", "delta_cert"): "verify checks the stored corona bound only for lo > 0",
    ("result", "sup_cert"): "the data sup norm is informational; verify does not recompute it",
    ("result", "residual_cert"): "verify checks the stored glued residual only against "
                                 "the gate and the fresh-grid maximum",
    ("result", "cover", "radius"): "a slightly wider radius is another cover of the same "
                                   "centers, and the glued solution it defines passes",
    ("config", "rescale_factor"): "the accumulated factor is informational; the family "
                                  "tables are the data",
    ("config", "solver", "radial_samples"): "a solve setting that verify does not read",
    ("config", "solver", "angular_samples"): "a solve setting that verify does not read",
    ("config", "solver", "axis_samples"): "a solve setting that verify does not read",
    ("config", "solver", "degree_cap_factor"): "a solve setting that verify does not read",
    ("config", "solver", "max_refinements"): "a solve setting that verify does not read",
}


@pytest.mark.parametrize("solved", ["steep_family.json", "two_param_family.json"],
                         indirect=True)
def test_verify_refuses_every_tampered_number_but_the_named_survivors(solved, tmp_path):
    # each number of the file moved once: an integer by 1, a float by 1e-3
    # of its magnitude (at least 1e-3)
    _, _, new, _ = solved
    leaves = list(_numeric_leaves(json.loads(new.read_text())))
    path, accepted, expected = tmp_path / "tampered.json", set(), set()
    for where, value in leaves:
        tampered = json.loads(new.read_text())
        *parents, last = where
        node = tampered
        for key in parents:
            node = node[key]
        node[last] = value + 1 if isinstance(value, int) else value + 1e-3 * max(abs(value), 1.0)
        path.write_text(json.dumps(tampered))
        if cli.main(["verify", "--solution", str(path), "--z-samples", "4",
                     "--s-samples", "3"]) == 0:
            accepted.add(where)
        if any(where[:len(field)] == field for field in TAMPER_SURVIVORS):
            expected.add(where)
    assert accepted == expected
    assert len(expected) < len(leaves)


def test_reports_stay_indented(tmp_path):
    report = tmp_path / "report.json"
    assert cli.main(["solve", "--config", str(CONFIGS / "worked_family.json"),
                     "--out", str(tmp_path / "sol.json"), "--report", str(report)]) == 0
    text = report.read_text()
    assert text.startswith('{\n  "') and text.endswith("}\n")


@pytest.mark.parametrize("command, option", [
    ("check", "--config"), ("rescale", "--config"), ("solve", "--config"),
    ("verify", "--solution"), ("eval-grid", "--solution")])
def test_a_non_utf8_input_file_exits_2(tmp_path, capsys, command, option):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    out = tmp_path / "out"
    argv = [command, option, str(bad)]
    if command in ("rescale", "solve", "eval-grid"):
        argv += ["--out", str(out)]
    if command == "rescale":
        argv += ["--factor", "0.5"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {bad} is not UTF-8 text")
    assert not out.exists()
