import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import STEEP_COVER, glued_on, rational_gcd_tables, reference_grid_csv
from coronaglue import cli, glue, hnorm, jets, serialize, smoothness
from coronaglue.config import ProblemConfig, _strict, load_config, save_config
from coronaglue.cover_pou import PartitionOfUnity, build_cover
from coronaglue.errors import ConfigError, InternalInconsistency
from coronaglue.polyalg import CPoly

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def _load(name):
    return load_config(CONFIGS / name)


def test_shipped_configs_parse_and_roundtrip(tmp_path):
    names = sorted(p.name for p in CONFIGS.glob("*.json") if p.name != "corrupted_solution.json")
    assert len(names) >= 9
    for name in names:
        cfg = _load(name)
        out = tmp_path / name
        save_config(cfg, out)
        again = load_config(out)
        assert again.to_dict() == cfg.to_dict()
        save_config(again, tmp_path / ("b_" + name))
        assert (tmp_path / ("b_" + name)).read_bytes() == out.read_bytes()


def test_config_validation_errors(tmp_path):
    base = _load("worked_family.json").to_dict()

    bad = json.loads(json.dumps(base))
    bad["domain"]["bounds"] = [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
    with pytest.raises(ConfigError):
        ProblemConfig.from_dict(bad)

    bad = json.loads(json.dumps(base))
    bad["domain"]["bounds"] = [[1.0, 0.0]]
    with pytest.raises(ConfigError):
        ProblemConfig.from_dict(bad)

    bad = json.loads(json.dumps(base))
    bad["solver"]["axis_samples"] = 0
    with pytest.raises(ConfigError):
        ProblemConfig.from_dict(bad)

    bad = json.loads(json.dumps(base))
    bad["family"]["components"][0]["z_coeffs"] = []
    with pytest.raises(ConfigError):
        ProblemConfig.from_dict(bad)

    bad = json.loads(json.dumps(base))
    bad["family"]["components"][0]["z_coeffs"][0] = [[1.0], [2.0]]
    with pytest.raises(ConfigError):
        ProblemConfig.from_dict(bad)

    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def _edit(path, value):
    def apply(raw):
        *parents, last = path
        node = raw
        for key in parents:
            node = node[key]
        node[last] = value
    return apply


@pytest.mark.parametrize("edit", [
    _edit(("domain", "bounds"), [["0.0", 1.0]]),
    _edit(("domain", "bounds"), [[0.0]]),
    _edit(("domain", "bounds"), 5),
    _edit(("domain", "bounds"), ["01"]),
    _edit(("rescale_factor",), "2.0"),
    _edit(("family", "components", 0, "z_coeffs"), 5),
    _edit(("family", "components", 0, "z_coeffs"), [[10 ** 400], [0.5]]),
    _edit(("domain", "bounds"), [[0.0, 10 ** 400]]),
    _edit(("rescale_factor",), 10 ** 400),
], ids=["bound_string", "bound_one_element", "bounds_number", "bound_pair_as_string",
        "rescale_string", "z_coeffs_number", "z_coeff_huge_int", "bound_huge_int", "rescale_huge_int"])
def test_cli_check_refuses_malformed_config(tmp_path, edit):
    raw = json.loads((CONFIGS / "worked_family.json").read_text())
    edit(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["check", "--config", str(path)]) == 2


@pytest.mark.parametrize("output, order", [
    ({"directory": ".", "formats": ["json", "csv"]}, 2),
    ([], 7),
    ("json", "2"),
], ids=["benchmark_value", "list_and_order_7", "strings"])
def test_config_output_section_and_solver_order_load_with_the_keys_ignored(
        tmp_path, output, order):
    # benchmark configs and older solution files still carry both
    raw = json.loads((CONFIGS / "worked_family.json").read_text())
    raw["output"], raw["solver"]["order"] = output, order
    path = tmp_path / "old.json"
    path.write_text(json.dumps(raw))
    assert load_config(path).to_dict() == _load("worked_family.json").to_dict()
    assert cli.main(["check", "--config", str(path)]) == 0


def test_rescale_identity_and_scaling(tmp_path):
    cfg = _load("worked_family_unscaled.json")
    same = cfg.scaled(1.0)
    assert same.to_dict()["family"] == cfg.to_dict()["family"]
    assert same.rescale_factor == 1.0

    third = cfg.scaled(1.0 / 3.0)
    worked = _load("worked_family.json")
    assert third.to_dict()["family"] == worked.to_dict()["family"]
    assert third.rescale_factor == pytest.approx(1.0 / 3.0)

    doubled = cfg.scaled(2.0)
    top = doubled.components[1][0]
    assert top[0] == 4.0 and top[1] == 2.0


def test_solution_roundtrip(tmp_path, worked_solution):
    cfg = _load("worked_family.json")
    path = tmp_path / "sol.json"
    serialize.save_solution(cfg, worked_solution, path)
    cfg2, glued2 = serialize.load_solution(path)
    assert cfg2.to_dict() == cfg.to_dict()
    assert glued2.cover.centers == worked_solution.cover.centers
    assert glued2.residual_cert == worked_solution.residual_cert
    for a, b in zip(glued2.points.solutions, worked_solution.points.solutions):
        for ga, gb in zip(a.g, b.g):
            assert ga == gb
    # evaluation identical through the round trip
    z = np.array([0.3 + 0.4j, -0.2j])
    ga = glue.g_eval(worked_solution, z, [0.3])
    gb = glue.g_eval(glued2, z, [0.3])
    np.testing.assert_array_equal(ga, gb)


def test_solution_roundtrip_infinite_radius(tmp_path):
    # solve no longer writes an infinite radius; earlier versions wrote one
    # for data constant in s, and such a file still loads
    cfg = _load("constant_family.json")
    glued, _ = glue.solve(cfg.to_family())
    assert glued.cover.size == 1 and math.isfinite(glued.cover.radius)
    glued = dataclasses.replace(glued, cover=PartitionOfUnity(((0.5,),), math.inf))
    path = tmp_path / "const.json"
    serialize.save_solution(cfg, glued, path)
    assert json.loads(path.read_text())["result"]["cover"]["radius"] == "inf"
    _, glued2 = serialize.load_solution(path)
    assert math.isinf(glued2.cover.radius)
    np.testing.assert_allclose(glue.g_eval(glued2, 0.1 + 0.2j, [0.5]), [1.0])


def test_cli_check_exit_codes(tmp_path):
    assert cli.main(["check", "--config", str(CONFIGS / "worked_family.json")]) == 0
    assert cli.main(["check", "--config",
                     str(CONFIGS / "negative_common_zero.json")]) == 1
    assert cli.main(["check", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_commands_load_no_unused_numpy_subpackage(tmp_path):
    # importing numpy.polynomial, numpy.ma or numpy.random costs every CLI
    # process memory and start-up time; verify samples no random points
    config, sol = str(CONFIGS / "worked_family.json"), str(tmp_path / "sol.json")
    commands = [["check", "--config", config], ["solve", "--config", config, "--out", sol],
                ["verify", "--solution", sol, "--z-samples", "4", "--s-samples", "3"],
                ["eval-grid", "--solution", sol, "--out", str(tmp_path / "grid.csv")]]
    script = ("import json, sys\n"
              "from coronaglue import cli\n"
              "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, sorted(m for m in sys.modules\n"
              "    if m.split('.')[:2] in (['numpy', 'polynomial'], ['numpy', 'ma'],\n"
              "                            ['numpy', 'random']))]))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    codes, loaded = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert loaded == []


def test_cli_solve_verify_flow(tmp_path, capsys):
    sol = tmp_path / "solution.json"
    rep = tmp_path / "report.json"
    # steep_family.json's data with s three times as strong:
    # (z, (1.5 + 7.5 s) - z) / 5, which needs several centers
    raw = _load("steep_family.json").to_dict()
    raw["family"]["components"][1]["z_coeffs"][0] = [0.3, 1.5]
    cfg = tmp_path / "steeper.json"
    save_config(ProblemConfig.from_dict(raw), cfg)
    code = cli.main([
        "solve", "--config", str(cfg),
        "--out", str(sol), "--report", str(rep),
    ])
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["verdict"] == "pass"
    assert report["residual_cert"]["hi"] <= 0.5
    assert report["cover_size"] >= 3

    code = cli.main([
        "verify", "--solution", str(sol), "--z-samples", "12",
        "--s-samples", "12", "--report", str(tmp_path / "verify.json"),
    ])
    assert code == 0
    vrep = json.loads((tmp_path / "verify.json").read_text())
    assert vrep["verdict"] == "pass"
    names = {c["name"] for c in vrep["checks"]}
    assert {"residual_resample", "bezout_identity", "norm_bound",
            "point_certificates", "pou_sum", "taylor_order_2"} <= names


def test_cli_verify_catches_corruption(tmp_path):
    code = cli.main([
        "verify", "--solution", str(CONFIGS / "corrupted_solution.json"),
        "--report", str(tmp_path / "rep.json"),
    ])
    assert code == 1
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["verdict"] == "fail"
    failing = {c["name"]: c for c in rep["checks"] if not c["passed"]}
    assert all("witness" in c for c in failing.values())
    # the older file's stored quantity and samples_used equal the derived
    # ones, so it loads and fails for its tampered coefficients
    assert set(failing) == {"residual_resample", "residual_cert_consistent",
                            "gtilde_norm_consistent", "point_certificates"}
    assert failing["point_certificates"]["witness"]["field"] == "point_solutions[0].norm_cert"


@pytest.mark.parametrize("command", ["check", "solve"])
def test_cli_refuses_non_finite_certificates(tmp_path, capsys, command):
    # |f|^2 overflows, so the corona lower bound comes out as [inf, inf]
    raw = json.loads((CONFIGS / "worked_family.json").read_text())
    raw["family"]["components"][0]["z_coeffs"] = [[1e300], [1e300]]
    path, sol = tmp_path / "huge.json", tmp_path / "sol.json"
    path.write_text(json.dumps(raw))
    argv = {"check": ["check", "--config", str(path)],
            "solve": ["solve", "--config", str(path), "--out", str(sol)]}[command]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert "certified" not in out and "rescale" not in out
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "corona lower bound is not finite" in err
    assert not sol.exists()


@pytest.fixture(scope="module")
def three_center_solution(tmp_path_factory, steep_solution):
    """configs/steep_family.json glued on the three-center cover, as a
    solution file."""
    sol = tmp_path_factory.mktemp("three_center") / "solution.json"
    serialize.save_solution(_load("steep_family.json"), steep_solution, sol)
    return sol


@pytest.mark.parametrize("center, field, lowered", [
    (2, "norm_cert", lambda cert: {"lo": 1.5, "hi": 1.5}),  # hi is 1.973, under c0
    (1, "residual_cert", lambda cert: {"hi": cert["lo"]}),
], ids=["norm_cert", "residual_cert"])
def test_verify_recomputes_the_point_certificates(tmp_path, three_center_solution,
                                                  center, field, lowered):
    raw = json.loads(three_center_solution.read_text())
    cert = raw["result"]["point_solutions"][center][field]
    cert.update(lowered(cert))
    path, rep = tmp_path / "sol.json", tmp_path / "rep.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["verify", "--solution", str(path), "--z-samples", "6",
                     "--s-samples", "6", "--report", str(rep)]) == 1
    checks = {c["name"]: c for c in json.loads(rep.read_text())["checks"]}
    assert {name for name, c in checks.items() if not c["passed"]} == {"point_certificates"}
    witness = checks["point_certificates"]["witness"]
    assert witness["field"] == f"point_solutions[{center}].{field}"
    assert witness["stored"] == cert and witness["recomputed"] != cert


def test_verify_alpha_is_its_own_setting(tmp_path, three_center_solution):
    # the solution, solved with the default settings, holds no order: --alpha 3
    # adds the C^3 report and keeps the Taylor test at order 2
    rep = tmp_path / "rep.json"
    assert cli.main(["verify", "--solution", str(three_center_solution), "--z-samples", "6",
                     "--s-samples", "6", "--alpha", "3", "--report", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert [r["order"] for r in report["cnorm_reports"]] == [0, 1, 2, 3]
    names = [c["name"] for c in report["checks"]]
    assert "taylor_order_2" in names and "taylor_order_3" not in names


@pytest.mark.parametrize("option, value", [
    ("--alpha", "7"), ("--z-samples", "1"), ("--s-samples", "1"), ("--z-samples", "0"),
])
def test_verify_refuses_an_order_above_6_or_a_grid_too_coarse_to_check(
        capsys, monkeypatch, three_center_solution, option, value):
    # one sample per axis would pass every sampling check vacuously; the
    # refusal comes before the solution is read
    def load_solution(path):
        raise AssertionError(f"{path} read before {option} {value} was refused")

    monkeypatch.setattr(serialize, "load_solution", load_solution)
    assert cli.main(["verify", "--solution", str(three_center_solution), option, value]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {option} {value} ")


def _tripped(solution, center, path):
    """``solution`` with one center's solution scaled by 0.2: |phi| drops
    below 1/2 near that center although the file is well formed."""
    raw = json.loads(solution.read_text())
    entry = raw["result"]["point_solutions"][center]
    entry["g"] = [[[0.2 * re, 0.2 * im] for re, im in gm] for gm in entry["g"]]
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture(scope="module")
def tripped_solution(tmp_path_factory, three_center_solution):
    """Center 0 scaled: the guard trips near s = 0."""
    return _tripped(three_center_solution, 0,
                    tmp_path_factory.mktemp("tripped") / "tripped.json")


def test_cli_verify_records_a_tripped_phi_guard(tmp_path, capsys, tripped_solution):
    rep = tmp_path / "rep.json"
    assert cli.main(["verify", "--solution", str(tripped_solution),
                     "--report", str(rep)]) == 1
    out = capsys.readouterr().out
    checks = {c["name"]: c for c in json.loads(rep.read_text())["checks"]}
    assert "cnorm_finite_order_2" in checks  # every stage ran
    assert all(f"] {name}: " in out for name in checks)
    assert not checks["residual_resample"]["passed"]
    for name in ("bezout_identity", "taylor_order_2"):
        witness = checks[name]["witness"]
        assert not checks[name]["passed"] and "|phi| = " in witness["detail"]
        _, glued = serialize.load_solution(tripped_solution)
        phi, _ = glue.phi_eval(glued.family, glued.cover, glued.points,
                               complex(*witness["z"]), witness["s"])
        assert abs(phi) < 0.5


def test_cli_eval_grid_refuses_a_tripped_phi_guard(tmp_path, capsys, tripped_solution):
    out = tmp_path / "grid.csv"
    assert cli.main(["eval-grid", "--solution", str(tripped_solution),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InternalInconsistency: |phi| = ") and " s = [" in err
    assert not out.exists() and not out.with_suffix(".summary.json").exists()


def test_cli_eval_grid_refuses_a_guard_tripped_in_a_later_block(
        tmp_path, capsys, three_center_solution):
    tripped = _tripped(three_center_solution, -1, tmp_path / "tripped_last.json")
    out = tmp_path / "grid.csv"
    _, glued = serialize.load_solution(tripped)
    with pytest.raises(InternalInconsistency) as ref:
        reference_grid_csv(glued, tmp_path / "ref.csv", 8, 8, 40)
    # 64 z nodes and 2 components make blocks of 16 of the 40 s points: the
    # breach lies past the first block, after its rows were written
    size = glue.GluedEvaluator(glued.family, glued.cover, glued.points, [0j] * 64).block_size
    assert ref.value.witness["s"][0] > np.linspace(0.0, 1.0, 40)[size - 1]
    assert cli.main(["eval-grid", "--solution", str(tripped), "--out", str(out),
                     "--z-samples", "8", "--s-samples", "40"]) == 1
    assert capsys.readouterr().err == f"error: InternalInconsistency: {ref.value}\n"
    assert not out.exists() and not out.with_suffix(".summary.json").exists()


@pytest.mark.parametrize("tripped", [True, False])
def test_every_failing_verify_check_has_a_witness(tmp_path, monkeypatch, three_center_solution,
                                                  tripped_solution, tripped):
    # negative tolerances fail the tolerance checks, weight 0 scaled as a
    # whole fails the partition-of-unity sum, and g's order-2 jet scaled
    # fails the Taylor test where no |phi| guard trips first; the tripped
    # file fails the sampled checks for its tampering too
    for name in ("IDENTITY_TOL", "NORM_SLACK"):
        monkeypatch.setattr(cli, name, -1.0)
    weight_jets, solution_jets = PartitionOfUnity.weight_jets, smoothness._solution_jets

    def scaled_weight(self, s, order):
        out = weight_jets(self, s, order)
        out[0] *= 1.1
        return out

    def scaled_second_order(evaluator, s, order, own_z=False):
        g, f = solution_jets(evaluator, s, order, own_z)
        return np.concatenate([g[:2], 1.001 * g[2:]]), f  # 1-D: entry 2 is order 2

    monkeypatch.setattr(PartitionOfUnity, "weight_jets", scaled_weight)
    monkeypatch.setattr(smoothness, "_solution_jets", scaled_second_order)
    rep = tmp_path / "rep.json"
    solution = tripped_solution if tripped else three_center_solution
    assert cli.main(["verify", "--solution", str(solution), "--z-samples", "6",
                     "--s-samples", "6", "--report", str(rep)]) == 1
    failing = {c["name"]: c for c in json.loads(rep.read_text())["checks"] if not c["passed"]}
    assert set(failing) >= {"bezout_identity", "norm_bound", "pou_sum", "taylor_order_2"} | (
        {"residual_resample", "residual_cert_consistent", "gtilde_norm_consistent"}
        if tripped else set())
    assert all(c.get("witness") for c in failing.values())
    assert ("|phi| = " in failing["taylor_order_2"]["witness"].get("detail", "")) == tripped


def test_cli_rescale_roundtrip(tmp_path):
    out = tmp_path / "scaled.json"
    code = cli.main([
        "rescale", "--config", str(CONFIGS / "worked_family_unscaled.json"),
        "--factor", "0.3333333333333333", "--out", str(out),
    ])
    assert code == 0
    scaled = load_config(out)
    worked = _load("worked_family.json")
    assert scaled.to_dict()["family"] == worked.to_dict()["family"]


def test_cli_eval_grid(tmp_path, worked_solution):
    cfg = _load("worked_family.json")
    sol = tmp_path / "sol.json"
    serialize.save_solution(cfg, worked_solution, sol)

    out = tmp_path / "grid.csv"
    code = cli.main([
        "eval-grid", "--solution", str(sol), "--out", str(out),
        "--z-samples", "2", "--s-samples", "2",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re_z,im_z,s1,k,re_g,im_g,abs_phi"
    assert len(lines) == 1 + 2 * 2 * 2 * 2  # radii x angles x s x components
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 7
        assert float(cells[-1]) >= 0.5  # passing solution keeps |phi| >= 1/2
    summary = json.loads(out.with_suffix(".summary.json").read_text())
    assert summary["rows"] == len(lines) - 1

    empty = tmp_path / "empty.csv"
    code = cli.main([
        "eval-grid", "--solution", str(sol), "--out", str(empty),
        "--z-samples", "0", "--s-samples", "2",
    ])
    assert code == 0
    assert empty.read_text().splitlines() == ["re_z,im_z,s1,k,re_g,im_g,abs_phi"]


def test_cli_csv_format_details(tmp_path, worked_solution):
    cfg = _load("worked_family.json")
    sol = tmp_path / "sol.json"
    serialize.save_solution(cfg, worked_solution, sol)
    out = tmp_path / "grid.csv"
    cli.main(["eval-grid", "--solution", str(sol), "--out", str(out),
              "--z-samples", "3", "--s-samples", "3"])
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF only
    _, loaded = serialize.load_solution(sol)
    assert reference_grid_csv(loaded, tmp_path / "ref.csv", 3, 3, 3)[0] == 3 * 3 * 3 * 2
    assert raw == (tmp_path / "ref.csv").read_bytes()


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli.main(["solve"])  # missing --config
    assert err.value.code == 2


def test_two_param_solution_csv_columns(tmp_path):
    cfg = _load("two_param_family.json")
    glued, _ = glue.solve(cfg.to_family())
    sol = tmp_path / "sol2.json"
    serialize.save_solution(cfg, glued, sol)
    out = tmp_path / "grid2.csv"
    cli.main(["eval-grid", "--solution", str(sol), "--out", str(out),
              "--z-samples", "2", "--s-samples", "2"])
    lines = out.read_text().splitlines()
    assert lines[0] == "re_z,im_z,s1,s2,k,re_g,im_g,abs_phi"
    assert len(lines) == 1 + 2 * 2 * 4 * 2


def _set(path, value):
    def tamper(raw):
        *parents, last = path
        node = raw["result"]
        for key in parents:
            node = node[key]
        node[last] = value
    return tamper


def _drop_c0(raw):
    del raw["result"]["c0"]


def _lo_above_hi(raw):
    cert = raw["result"]["residual_cert"]
    cert["lo"] = cert["hi"] + 0.1


def _c0_times_10(raw):
    raw["result"]["c0"] *= 10.0


@pytest.mark.parametrize("tamper", [
    _set(("point_solutions", 0, "g", 0, 0), [math.nan, 0.0]),
    _set(("point_solutions", 0, "norm_cert", "hi"), math.inf),
    _set(("residual_cert", "lo"), -math.inf),
    _set(("c0",), math.nan),
    _set(("cover", "radius"), math.inf),
    _set(("cover", "centers", 0, 0), math.nan),
    _set(("c0",), "1.0"),
    _set(("point_solutions",), []),
    _drop_c0,
    _lo_above_hi,
    _c0_times_10,
    # JSON integers beyond the float range
    _set(("c0",), 10 ** 400),
    _set(("cover", "radius"), 10 ** 400),
    _set(("residual_cert", "hi"), 10 ** 400),
    _set(("point_solutions", 0, "g", 0, 0), [-10 ** 400, 0]),
    _set(("point_solutions", 0, "g", 0), []),
], ids=["nan_coefficient", "infinite_cert", "negative_infinite_cert",
        "nan_c0", "numeric_infinite_radius", "nan_center",
        "string_c0", "no_point_solutions", "missing_c0", "lo_above_hi", "c0_times_10",
        "huge_int_c0", "huge_int_radius", "huge_int_cert", "huge_int_coefficient",
        "empty_coefficients"])
def test_verify_refuses_malformed_solution(tmp_path, worked_solution, tamper):
    path = tmp_path / "sol.json"
    serialize.save_solution(_load("worked_family.json"), worked_solution, path)
    raw = json.loads(path.read_text())
    tamper(raw)
    path.write_text(json.dumps(raw))  # NaN and Infinity as JSON literals
    with pytest.raises(ConfigError):
        serialize.load_solution(path)
    assert cli.main(["verify", "--solution", str(path)]) == 2
    assert cli.main(["eval-grid", "--solution", str(path),
                     "--out", str(tmp_path / "grid.csv")]) == 2


@pytest.mark.parametrize("tamper, line", [
    (_set(("residual_cert", "hi"), 0.6),
     "[FAIL] residual_gate: stored residual_cert.hi = 0.6 (gate 0.5)"),
    (_set(("delta_cert", "lo"), -0.1),
     "[FAIL] corona_lower_bound: stored delta_cert.lo = -0.1 (must be > 0)"),
], ids=["residual_hi_above_gate", "delta_lo_not_positive"])
def test_verify_fails_a_stored_gate_as_a_named_check(tmp_path, worked_solution, capsys,
                                                     tamper, line):
    # the verdict is "every check passed", so a stored certificate past its
    # gate shows as a failing check, not as a bare fail
    path = tmp_path / "sol.json"
    serialize.save_solution(_load("worked_family.json"), worked_solution, path)
    raw = json.loads(path.read_text())
    tamper(raw)
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["verify", "--solution", str(path), "--z-samples", "6",
                     "--s-samples", "6"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [text for text in out if text.startswith("[FAIL]")] == [line]
    assert out[-1] == "verdict: fail"


@pytest.mark.parametrize("command, option, value", [
    ("verify", "--z-samples", "-3"),
    ("verify", "--s-samples", "-1"),
    ("verify", "--alpha", "-1"),
    ("verify", "--alpha", "two"),
    ("eval-grid", "--z-samples", "-2"),
    ("eval-grid", "--s-samples", "-2"),
])
def test_cli_refuses_negative_counts(tmp_path, worked_solution, capsys,
                                     command, option, value):
    sol = tmp_path / "sol.json"
    serialize.save_solution(_load("worked_family.json"), worked_solution, sol)
    argv = [command, "--solution", str(sol), option, value]
    if command == "eval-grid":
        argv += ["--out", str(tmp_path / "grid.csv")]
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert "expected a nonnegative integer" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


def _output_argv(command, tmp_path, worked_solution):
    """The arguments of ``command`` on the worked family, all but the output
    option under test; verify and eval-grid read a saved worked solution."""
    config, sol = str(CONFIGS / "worked_family.json"), tmp_path / "sol.json"
    serialize.save_solution(_load("worked_family.json"), worked_solution, sol)
    return {
        "check": ["check", "--config", config],
        "rescale": ["rescale", "--config", config, "--factor", "0.5"],
        "solve": ["solve", "--config", config, "--out", str(tmp_path / "out.json"),
                  "--report", str(tmp_path / "report.json")],
        "verify": ["verify", "--solution", str(sol), "--z-samples", "3",
                   "--s-samples", "3"],
        "eval-grid": ["eval-grid", "--solution", str(sol)],
    }[command]


@pytest.mark.parametrize("command, option", [
    ("check", "--out"), ("rescale", "--out"), ("solve", "--out"), ("solve", "--report"),
    ("verify", "--report"), ("eval-grid", "--out"),
])
@pytest.mark.parametrize("where", ["directory", "under_a_file"])
def test_cli_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, worked_solution,
                                       command, option, where):
    argv = _output_argv(command, tmp_path, worked_solution)
    for module, name in [(glue, "solve"), (hnorm, "delta_lower"), (cli, "run_verification")]:
        def pipeline(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} ran before the output was refused")
        monkeypatch.setattr(module, name, pipeline)
    blocker = tmp_path / "blocker"
    if where == "directory":
        blocker.mkdir()
        target = blocker
    else:
        blocker.write_text("kept\n")
        target = blocker / "out.json"
    assert cli.main(argv + [option, str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}")
    assert blocker.is_dir() if where == "directory" else \
        blocker.read_text() == "kept\n"


@pytest.mark.parametrize("command, option", [
    ("check", "--out"), ("rescale", "--out"), ("verify", "--report"),
])
def test_cli_output_in_a_missing_directory_is_written(tmp_path, worked_solution,
                                                      command, option):
    target = tmp_path / "new" / "dir" / "out.json"
    argv = _output_argv(command, tmp_path, worked_solution) + [option, str(target)]
    assert cli.main(argv) == 0
    assert isinstance(json.loads(target.read_text()), dict)


@pytest.mark.parametrize("argv, named", [
    (["solve", "--config", "c.json", "--out", "s.json", "--report", "s.json"], "s.json"),
    (["solve", "--config", "solution.json"], "solution.json"),  # the default --out
    (["verify", "--solution", "s.json", "--report", "s.json"], "s.json"),
    (["verify", "--solution", "./s.json", "--report", "s.json"], "s.json"),
    (["eval-grid", "--solution", "s.json", "--out", "s.json"], "s.json"),
    (["eval-grid", "--solution", "g.summary.json", "--out", "g.csv"], "g.summary.json"),
    (["check", "--config", "c.json", "--out", "c.json"], "c.json"),
], ids=["solve", "solve-default-out", "verify", "verify-dot-slash", "eval-grid", "eval-grid-summary", "check"])
def test_cli_refuses_to_write_over_its_own_input_or_output(tmp_path, capsys, monkeypatch,
                                                          worked_solution, argv, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_bytes((CONFIGS / "worked_family.json").read_bytes())
    serialize.save_solution(_load("worked_family.json"), worked_solution, tmp_path / "s.json")
    (tmp_path / "g.summary.json").write_bytes((tmp_path / "s.json").read_bytes())
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for module, name in [(glue, "solve"), (hnorm, "delta_lower"), (cli, "run_verification"),
                         (serialize, "load_solution"), (cli, "load_config")]:
        def pipeline(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} ran before the paths were compared")
        monkeypatch.setattr(module, name, pipeline)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_cli_rescale_may_write_over_its_own_config(tmp_path):
    config = tmp_path / "c.json"
    config.write_bytes((CONFIGS / "worked_family_unscaled.json").read_bytes())
    argv = ["rescale", "--config", str(config), "--factor", "0.3333333333333333",
            "--out", str(config)]
    assert cli.main(argv) == 0
    assert load_config(config).to_dict()["family"] == \
        _load("worked_family.json").to_dict()["family"]


def test_cli_eval_grid_leaves_no_csv_without_its_summary(tmp_path, capsys,
                                                        worked_solution):
    sol, out = tmp_path / "sol.json", tmp_path / "grid.csv"
    serialize.save_solution(_load("worked_family.json"), worked_solution, sol)
    summary = out.with_suffix(".summary.json")
    summary.mkdir()
    assert cli.main(["eval-grid", "--solution", str(sol), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {summary}")
    assert not out.exists() and summary.is_dir()


def test_cli_solve_negative_common_zero(tmp_path):
    rep = tmp_path / "report.json"
    code = cli.main(["solve", "--config", str(CONFIGS / "negative_common_zero.json"),
                     "--out", str(tmp_path / "sol.json"), "--report", str(rep)])
    assert code == 1
    assert not (tmp_path / "sol.json").exists()
    report = json.loads(rep.read_text())
    assert report["verdict"] == "fail"
    assert report["delta_cert"]["lo"] <= 0.0
    assert report["sup_cert"] is not None
    gate = [c for c in report["checks"] if c["name"] == "corona_lower_bound"]
    assert len(gate) == 1 and not gate[0]["passed"]


@pytest.mark.parametrize("name, code", [
    ("steep_family.json", 0),
    # the failed gate's CoronaUncertified carries the sup certificate
    ("negative_common_zero.json", 1),
])
def test_cli_solve_certifies_the_family_once(tmp_path, monkeypatch, name, code):
    calls = {"delta_lower": 0, "sup_family": 0}
    for fn, original in [(n, getattr(hnorm, n)) for n in calls]:
        def counted(*args, _name=fn, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(hnorm, fn, counted)
    assert cli.main(["solve", "--config", str(CONFIGS / name),
                     "--out", str(tmp_path / "sol.json")]) == code
    assert calls == {"delta_lower": 1, "sup_family": 1}


def test_cli_solve_never_runs_the_cnorm_report(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve ran the C^k report")
    monkeypatch.setattr(smoothness, "cnorm_report", refuse)
    assert cli.main(["solve", "--config", str(CONFIGS / "steep_family.json"),
                     "--out", str(tmp_path / "sol.json")]) == 0


def test_solve_report_records_every_round(tmp_path, capsys, monkeypatch):
    raw = _load("worked_family.json").to_dict()
    raw["family"]["components"] = [{"z_coeffs": t} for t in rational_gcd_tables()]
    cfg_path, sol, rep = (tmp_path / n for n in ("cfg.json", "sol.json", "rep.json"))
    save_config(ProblemConfig.from_dict(raw), cfg_path)
    argv = ["solve", "--config", str(cfg_path), "--out", str(sol), "--report", str(rep)]
    # the first residual certificate fails the gate, so the radius halves once
    forced = hnorm.NormCert(0.25, 0.75, "glued residual sup", 1)
    calls, real = [], glue.residual_certify

    def certify(*args, **kwargs):
        calls.append(None)
        return forced if len(calls) == 1 else real(*args, **kwargs)
    monkeypatch.setattr(glue, "residual_certify", certify)
    assert cli.main(argv) == 0
    report = json.loads(rep.read_text())
    first, last = report["rounds"]
    assert set(first) == {"radius", "centers", "c0", "residual_cert", "outcome"}
    assert (first["outcome"], last["outcome"]) == ("residual_gate", "passed")
    assert first["residual_cert"] == forced.to_dict()
    assert first["radius"] == 2.0 * last["radius"] == 2.0 * report["r_final"]
    assert last["residual_cert"] == report["residual_cert"]
    assert (last["centers"], last["c0"]) == (report["cover_size"], report["c0"])
    assert "rounds" not in json.loads(sol.read_text())["result"]
    # the console keeps its lines
    assert "refinements 1" in capsys.readouterr().out

    # a solve that runs out of rounds writes them to its report as well
    raw["solver"]["max_refinements"] = 0
    save_config(ProblemConfig.from_dict(raw), cfg_path)
    sol.unlink()
    calls.clear()
    assert cli.main(argv) == 1
    report = json.loads(rep.read_text())
    assert [r["outcome"] for r in report["rounds"]] == ["residual_gate"]
    assert not sol.exists()

    # check and verify reports have no rounds
    assert cli.main(["check", "--config", str(cfg_path), "--out", str(rep)]) == 0
    assert "rounds" not in json.loads(rep.read_text())


SIXTH = 1.0 / 6.0


@pytest.mark.parametrize("components, bounds, axis_samples, cover", [
    # steep_family: (z, (1.5 + 2.5 s) - z) / 5 on three centers
    ([[[0.0], [0.2]], [[0.3, 0.5], [-0.2]]], [[0.0, 1.0]], 17, STEEP_COVER),
    # ((z + 2 + 2.4 s1) / 6, (2 - z + 2.4 s2) / 6) on four centers
    ([[[[2 * SIXTH], [0.4]], [[SIXTH]]], [[[2 * SIXTH, 0.4]], [[-SIXTH]]]],
     [[0.0, 1.0], [0.0, 1.0]], 9,
     PartitionOfUnity(((0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)),
                      0.41666666666666674)),
], ids=["steep-1d", "four-center-2d"])
def test_verify_owns_the_cnorm_reports(tmp_path, components, bounds, axis_samples, cover):
    raw = _load("worked_family.json").to_dict()
    raw["family"]["components"] = [{"z_coeffs": t} for t in components]
    raw["domain"]["bounds"] = bounds
    raw["solver"]["axis_samples"] = axis_samples
    config = ProblemConfig.from_dict(raw)
    cfg_path, sol, rep = (tmp_path / n for n in ("cfg.json", "sol.json", "rep.json"))
    save_config(config, cfg_path)
    assert cli.main(["solve", "--config", str(cfg_path), "--out", str(sol),
                     "--report", str(rep)]) == 0
    solved = json.loads(rep.read_text())
    assert solved["cnorm_reports"] == [] and "cnorm_reports" not in solved["timings"]
    # the same data glued on a cover of several centers
    serialize.save_solution(config, glued_on(config.to_family(), cover, config.solver), sol)
    _, glued = serialize.load_solution(sol)
    assert glued.cover == cover
    assert cli.main(["verify", "--solution", str(sol), "--s-samples", str(axis_samples),
                     "--alpha", "2", "--report", str(rep)]) == 0
    written = json.loads(rep.read_text())["cnorm_reports"]
    assert [r["order"] for r in written] == [0, 1, 2]
    for order, entry in enumerate(written):
        direct = smoothness.cnorm_report(glued, order, axis_samples=axis_samples)
        assert entry == direct.to_dict()


@pytest.mark.parametrize("box, radius", [
    ([(0.0, 1.0)], 0.22),
    ([(0.0, 1.0), (0.0, 1.0)], 0.3),
])
def test_pou_derivatives_match_per_index_derivs(rng, box, radius):
    pou = build_cover(box, radius)
    assert pou.size >= 3
    alphas = [a for a in jets.multi_indices(len(box), 2) if 1 <= sum(a) <= 2]
    # one jet of the top order gives every multi-index the bits of a jet of
    # its own order
    for _ in range(50):
        s = np.array([rng.uniform(a, b) for a, b in box])
        for alpha, d in zip(alphas, pou.derivs(s[None], alphas)):
            (expected,) = pou.derivs(s[None], [alpha])
            np.testing.assert_array_equal(d, expected)
            assert float(d.sum()) == float(expected.sum())


def test_verification_fails_a_nan_cnorm_and_reports_strict_json(tmp_path, steep_solution):
    # one infinite point-solution coefficient: g is NaN where center 0's
    # bump is live, and every C^k report must say so with a witness
    sols = list(steep_solution.points.solutions)
    g0 = sols[0].g[0]
    sols[0] = dataclasses.replace(sols[0], g=(CPoly(np.r_[math.inf, g0.coeffs[1:]]),)
                                  + sols[0].g[1:])
    glued = dataclasses.replace(steep_solution, points=glue.PointSolutionSet(tuple(sols)))
    report = cli.RunReport(command="verify")
    with np.errstate(all="ignore"):
        cli.run_verification(_load("steep_family.json"), glued, 6, 6, 9, 2, report)
    checks = {c["name"]: c for c in report.checks}
    for order in range(3):
        check = checks[f"cnorm_finite_order_{order}"]
        assert not check["passed"] and math.isnan(check["witness"]["g"])

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    path = tmp_path / "report.json"
    report.save(path)
    saved = json.loads(path.read_text(), parse_constant=refuse)
    assert saved["checks"] == json.loads(json.dumps(_strict(report.checks)))
    assert {c["witness"]["g"] for c in saved["checks"]
            if c["name"].startswith("cnorm_finite")} == {"nan"}
    serialize.save_summary({"c0": math.inf, "lo": -math.inf}, tmp_path / "summary.json")
    assert json.loads((tmp_path / "summary.json").read_text(), parse_constant=refuse) == \
        {"c0": "inf", "lo": "-inf"}
