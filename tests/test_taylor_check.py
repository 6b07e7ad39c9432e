"""verify's derivative check: the Taylor-remainder test at the cover's own
points, and the partition-of-unity sum beside it.  A jet that is wrong at
some order, in g or in a weight, fails ``taylor_order_2``; a weight scaled
as a whole fails ``pou_sum``; a right solution passes both with no
tolerance tied to its scale."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import glued_on
from coronaglue import cli, glue, hnorm, jets, smoothness
from coronaglue.config import ProblemConfig, load_config
from coronaglue.cover_pou import PartitionOfUnity, build_cover

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _lead(degree, slope):
    """(0.3 z^degree, 0.5 + slope s - 0.2 z) on [0, 1]."""
    return ProblemConfig(components=(([0.0],) * degree + ([0.3],), ([0.5, slope], [-0.2])),
                         bounds=((0.0, 1.0),))


# (0.3 z^2, 0.5 + 2 s - 0.2 z), whose local solutions are not proportional,
# so a weight's jet moves g's
LEAD = _lead(2, 2.0)


@pytest.fixture(scope="module")
def lead_solution():
    """LEAD on four centers whose cell midpoints sit at t = 0.99 of both
    neighbouring supports, where the weights' jets are steepest."""
    thin = PartitionOfUnity(((0.125,), (0.375,), (0.625,), (0.875,)), 1 / (8 * 0.99))
    return glued_on(LEAD.to_family(), thin, LEAD.solver)


@pytest.fixture(params=["lead", "steep", "two_param"])
def solution(request, lead_solution, steep_solution, two_param_solution):
    return {"lead": lead_solution, "steep": steep_solution,
            "two_param": two_param_solution}[request.param]


def _checks(glued):
    """The checks of one in-process verification, by name; the fixtures
    are solved with the default solver settings, which are all that
    verification reads of the configuration."""
    report = cli.RunReport(command="verify")
    cli.run_verification(ProblemConfig((), glued.family.box), glued, 6, 5, 2, report)
    return {c["name"]: c for c in report.checks}


def _scale_orders(jet, dim, order, degrees, factor):
    """A copy of ``jet`` with its entries of total order in ``degrees``
    multiplied by ``factor``."""
    jet = jet.copy()
    for position, beta in enumerate(jets.multi_indices(dim, order)):
        if sum(beta) in degrees:
            jet[position] *= factor
    return jet


def _g_jet_mutant(monkeypatch, degree, factor):
    solution_jets = smoothness._solution_jets

    def mutant(evaluator, s, order, own_z=False):
        g, f, values = solution_jets(evaluator, s, order, own_z)
        return _scale_orders(g, evaluator.family.dim, order, {degree}, factor), f, values

    monkeypatch.setattr(smoothness, "_solution_jets", mutant)


def _weight_mutant(monkeypatch, degrees):
    """Weight 0's jet entries of the given orders scaled by 1.1."""
    weight_jets = PartitionOfUnity.weight_jets

    def mutant(self, s, order):
        out = weight_jets(self, s, order)
        out[0] = _scale_orders(out[0], len(self.centers[0]), order, degrees, 1.1)
        return out

    monkeypatch.setattr(PartitionOfUnity, "weight_jets", mutant)


def _worst_order(check) -> float:
    return float(re.search(r"worst observed order (\S+)", check["detail"])[1])


def test_right_solutions_pass_both_checks(solution):
    checks = _checks(solution)
    assert checks["taylor_order_2"]["passed"], checks["taylor_order_2"]
    assert checks["pou_sum"]["passed"], checks["pou_sum"]


@pytest.mark.parametrize("degree, factor", [(2, 1.0 + 1e-3), (1, 1.0 + 1e-6)])
def test_a_wrong_g_jet_fails_the_taylor_check(monkeypatch, solution, degree, factor):
    _g_jet_mutant(monkeypatch, degree, factor)
    check = _checks(solution)["taylor_order_2"]
    assert not check["passed"]
    # the remainder falls like h^degree, and the witness is the pair that
    # reads it
    assert _worst_order(check) < degree + 0.1
    assert set(check["witness"]) == {"s", "z", "v"}


def test_alpha_one_gets_the_order_one_check(monkeypatch, solution):
    # verify --alpha 1 gets taylor_order_1, whose remainder falls like h^2;
    # a first-order jet wrong by 1e-6 reads order 1
    config = ProblemConfig((), solution.family.box)

    def check():
        report = cli.RunReport(command="verify")
        cli.run_verification(config, solution, 6, 5, 1, report)  # --alpha 1
        names = [c["name"] for c in report.checks]
        assert "taylor_order_1" in names and "taylor_order_2" not in names
        return report.checks[names.index("taylor_order_1")]

    assert check()["passed"], check()
    _g_jet_mutant(monkeypatch, 1, 1.0 + 1e-6)
    wrong = check()
    assert not wrong["passed"]
    assert _worst_order(wrong) < 1.1


@pytest.mark.parametrize("degrees", [{1, 2}, {1}])
def test_a_wrong_weight_derivative_fails_the_taylor_check(monkeypatch, lead_solution, degrees):
    # the values of the weights, and so their sum and g, are untouched; the
    # wrong first derivative shows as order 1
    _weight_mutant(monkeypatch, degrees)
    checks = _checks(lead_solution)
    assert checks["pou_sum"]["passed"]
    assert not checks["taylor_order_2"]["passed"]
    assert _worst_order(checks["taylor_order_2"]) < 1.1


def test_a_scaled_weight_fails_the_pou_sum(monkeypatch, lead_solution):
    # at center 0 only its bump is live: the weights sum to 1.1
    _weight_mutant(monkeypatch, {0, 1, 2})
    check = _checks(lead_solution)["pou_sum"]
    assert not check["passed"]
    assert check["witness"]["s"] == list(lead_solution.cover.centers[0])
    assert check["witness"]["sum"] == pytest.approx(1.1) and check["witness"]["live"] == 1


def test_a_constant_solution_passes_as_exact_to_rounding(tmp_path, capsys):
    # g does not depend on s: every remainder is rounding
    sol, rep = tmp_path / "sol.json", tmp_path / "rep.json"
    assert cli.main(["solve", "--config", str(CONFIGS / "constant_family.json"),
                     "--out", str(sol)]) == 0
    assert cli.main(["verify", "--solution", str(sol), "--report", str(rep)]) == 0
    check = {c["name"]: c for c in json.loads(rep.read_text())["checks"]}["taylor_order_2"]
    pairs, exact = re.search(r"over (\d+) \(point, direction\) pairs, (\d+) exact",
                             check["detail"]).groups()
    assert check["passed"] and int(pairs) == int(exact) >= 1


def test_two_verify_runs_give_identical_reports(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    assert cli.main(["solve", "--config", str(CONFIGS / "steep_family.json"),
                     "--out", str(sol)]) == 0
    capsys.readouterr()
    runs = []
    for k in range(2):
        rep = tmp_path / f"rep{k}.json"
        assert cli.main(["verify", "--solution", str(sol), "--z-samples", "6",
                         "--s-samples", "6", "--report", str(rep)]) == 0
        report = json.loads(rep.read_text())
        del report["timings"]
        runs.append((capsys.readouterr().out, json.dumps(report)))
    assert runs[0] == runs[1]


def test_blocked_ladder_gives_the_bits_of_one_block(monkeypatch, solution):
    # the ladder's blocks of rows never change a remainder's bits
    points = hnorm.centers_and_midpoints(solution.cover.centers)
    args = (solution, points, 0.5 * hnorm.boundary_points(len(points)),
            cli._directions(solution.family.dim), 2, 1e-3)
    whole, _ = smoothness.taylor_orders(*args)
    monkeypatch.setattr(smoothness, "EVAL_BUDGET", 1)
    blocked, _ = smoothness.taylor_orders(*args)
    assert whole.tobytes() == blocked.tobytes()
    assert (whole >= 2.5).all()  # +inf for a pair exact to rounding


@pytest.mark.parametrize("box, radius, count", [
    ([(0.0, 1.0)], 0.05, 2 * 11 - 1),            # 11 centers and 10 overlaps
    ([(0.0, 1.0), (0.0, 1.0)], 0.15, 25 + 16),   # 5 x 5 centers and 4 x 4 cells
    ([(0.0, 1.0), (0.0, 0.01)], 0.1, 8 + 7),     # one center across axis 2
    ([(0.0, 1.0)], 10.0, 1),
])
def test_verify_points_are_the_centers_and_the_cell_midpoints(box, radius, count):
    cover = build_cover(box, radius)
    points = hnorm.centers_and_midpoints(cover.centers)
    assert len(points) == count
    assert [tuple(p) for p in points[:cover.size]] == list(cover.centers)
    # every point lies in some bump, and each midpoint in at least two
    live = np.count_nonzero(cover.weights(points), axis=1)
    assert (live[:cover.size] >= 1).all() and (live[cover.size:] >= 2).all()


SHIPPED = sorted(p.name for p in CONFIGS.glob("*.json")
                 if not p.name.startswith(("negative_", "corrupted_")))


@pytest.mark.parametrize("config", [
    *SHIPPED,
    # lead families whose own verify needs the Taylor polynomial at the
    # rounded ladder point and the floor's first-derivative terms
    *(pytest.param(_lead(d, a), id=f"lead-d{d}-a{a}")
      for d, a in ((2, 2.75), (4, 4.25), (4, 7.0), (2, 8.0))),
])
def test_every_solve_passes_its_own_verify(config):
    if isinstance(config, str):
        config = load_config(CONFIGS / config)
    glued, _ = glue.solve(config.to_family(), config.solver)
    report = cli.RunReport(command="verify")
    cli.run_verification(config, glued, 256, 20, 2, report)  # verify's defaults
    assert [c for c in report.checks if not c["passed"]] == []
