"""``serialize.export_grid_csv`` against the per-row reference writer, and
the polar grid that it and ``verify`` share with the certificates."""

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_grid_csv, same_bits
from coronaglue import cli, glue, hnorm, serialize
from coronaglue.errors import ConfigError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _budget_of_three_points(monkeypatch, glued, radial, angular):
    """Set ``glue.EVAL_BUDGET`` so that an evaluator block holds 3 points."""
    width = max(glued.family.size * radial * angular, glued.cover.size)
    monkeypatch.setattr(glue, "EVAL_BUDGET", 3 * width)


@pytest.mark.parametrize("solution, radial, angular, s_per_axis, split", [
    ("worked_solution", 3, 3, 3, False),
    ("worked_solution", 5, 8, 9, False),
    ("worked_solution", 4, 6, 10, True),     # blocks of 3, 3, 3, 1 points
    ("worked_solution", 1, 5, 2, False),     # the radius-0 ring alone
    ("two_param_solution", 2, 2, 2, False),
    ("two_param_solution", 3, 8, 4, True),   # 16 points: blocks end mid-row
    ("worked_solution", 0, 4, 3, False),     # header only
    ("worked_solution", 4, 0, 3, False),
    ("worked_solution", 4, 4, 0, False),
    ("two_param_solution", 3, 3, 0, False),
])
def test_export_is_byte_identical_to_the_per_row_writer(
        request, tmp_path, monkeypatch, solution, radial, angular, s_per_axis, split):
    glued = request.getfixturevalue(solution)
    if split:
        _budget_of_three_points(monkeypatch, glued, radial, angular)
        size = glue.GluedEvaluator(glued.family, glued.cover, glued.points,
                                   [0j] * radial * angular).block_size
        assert size == 3 and (s_per_axis ** glued.family.dim) % size
    out, ref = tmp_path / "grid.csv", tmp_path / "ref.csv"
    rows, summary = serialize.export_grid_csv(glued, out, radial, angular, s_per_axis)
    ref_rows, ref_summary = reference_grid_csv(glued, ref, radial, angular, s_per_axis)
    assert out.read_bytes() == ref.read_bytes()
    assert (rows, summary) == (ref_rows, ref_summary | {"csv": out.name})
    assert rows == radial * angular * s_per_axis ** glued.family.dim * glued.family.size
    assert len(out.read_bytes().splitlines()) == rows + 1


def test_the_reference_cases_hold_signed_zeros_and_exponents(tmp_path, worked_solution):
    out = tmp_path / "grid.csv"
    serialize.export_grid_csv(worked_solution, out, 5, 8, 9)
    cells = [line.split(",") for line in out.read_text().splitlines()[1:]]
    # the radius-0 ring: the complex product 0 * e^(i theta) has real part
    # -0 at two of the eight angles, in all 9 x 2 rows of each
    assert sum(row[0] == "-0" for row in cells) == 2 * 9 * 2
    # 0.25 * cos(pi/2) and the like
    assert any("e-" in row[0] or "e-" in row[1] for row in cells)


def test_export_peak_memory_does_not_grow_with_the_s_grid(tmp_path, worked_solution):
    # 16 x 16 z nodes and two components: 512 rows (about 50 KB of text)
    # per point and 4 points per evaluator block; the whole file at 24
    # points is 1.2 MB, which a whole-file string would hold at once
    peaks = {}
    for s_per_axis in (6, 24):
        tracemalloc.start()
        try:
            serialize.export_grid_csv(worked_solution, tmp_path / "grid.csv",
                                      16, 16, s_per_axis)
            _, peaks[s_per_axis] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[24] < 1.1 * peaks[6], peaks


def test_an_os_error_mid_export_removes_the_partial_csv(tmp_path, monkeypatch,
                                                         worked_solution):
    def failing_sweep(self, axes):
        blocks = map(self.at, glue.grid_blocks(axes, 2))
        yield next(blocks)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(glue.GluedEvaluator, "sweep", failing_sweep)
    out = tmp_path / "grid.csv"
    with pytest.raises(ConfigError, match="cannot write .*No space left"):
        serialize.export_grid_csv(worked_solution, out, 3, 3, 5)
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_export_removes_only_a_regular_file(worked_solution):
    with pytest.raises(ConfigError, match="cannot write /dev/full"):
        serialize.export_grid_csv(worked_solution, "/dev/full", 3, 3, 5)
    assert os.path.exists("/dev/full")


@pytest.fixture(scope="module")
def worked_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("worked") / "solution.json"
    assert cli.main(["solve", "--config", str(CONFIGS / "worked_family.json"),
                     "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("n", [6, 12, 20])
def test_the_csv_samples_the_polar_grid_and_verify_the_circle(
        tmp_path, monkeypatch, worked_file, n):
    # at these counts 2 pi k / n and 2 pi k * (1 / n) round apart, so only
    # one formula for the nodes passes; every z array that verify evaluates
    # at all its parameter points is the circle's (the Taylor test reads
    # each point at its own z)
    shared, jets = [], glue.GluedEvaluator.jets

    def recording(self, s, order, own_z=False):
        if not own_z:
            shared.append(self.z)
        return jets(self, s, order, own_z)

    monkeypatch.setattr(glue.GluedEvaluator, "jets", recording)
    assert cli.main(["verify", "--solution", str(worked_file), "--z-samples", str(n),
                     "--s-samples", "2", "--alpha", "0"]) == 0
    assert shared and all(same_bits(z, hnorm.boundary_points(n)) for z in shared)

    out = tmp_path / "grid.csv"
    assert cli.main(["eval-grid", "--solution", str(worked_file), "--out", str(out),
                     "--z-samples", str(n), "--s-samples", "1"]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    z = np.array([complex(float(row[0]), float(row[1])) for row in rows if row[3] == "1"])
    assert same_bits(z, hnorm.disc_points(n, n))
