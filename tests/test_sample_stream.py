"""verify's sample points: numpy's default_rng(0) stream, drawn without
numpy.random.  Tests may import numpy.random as the reference; the package
may not."""

import math
from pathlib import Path

import numpy as np
import pytest

from coronaglue import cli, glue, serialize, smoothness
from coronaglue.config import load_config
from coronaglue.cover_pou import PartitionOfUnity

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = sorted(p.name for p in CONFIGS.glob("*.json") if p.name != "corrupted_solution.json")


def test_seeded_state_is_default_rng_0():
    state = np.random.default_rng(0).bit_generator.state
    assert state["bit_generator"] == "PCG64"
    assert cli._PCG64_SEED0 == (state["state"]["state"], state["state"]["inc"])


@pytest.mark.parametrize("n", [1, 7, 20_600])
def test_random_equals_default_rng_0_bit_for_bit(n):
    np.testing.assert_array_equal(cli._Stream().random(n),
                                  np.random.default_rng(0).random(n))


def test_the_stream_continues_across_calls():
    stream, rng = cli._Stream(), np.random.default_rng(0)
    for n in (3, 1, 0, 12, 5):
        np.testing.assert_array_equal(stream.random(n), rng.random(n))


@pytest.mark.parametrize("name", SHIPPED)
def test_uniform_on_every_shipped_box_equals_numpy(name):
    box = load_config(CONFIGS / name).bounds
    stream, rng = cli._Stream(), np.random.default_rng(0)
    for lows, highs in (np.array(box).T, cli._interior(box, 0.05)):
        for n in (1, 7, 300):
            want = rng.uniform(lows, highs, (n, len(box)))
            np.testing.assert_array_equal(stream.uniform(lows, highs, n), want)


@pytest.mark.parametrize("box", [[(0.05, 0.95), (0.1, 2.3)], [(-2.5, 1e-3)],
                                 [(-1.0, 1.0), (3.0, 3.5), (-7.25, -7.0)]])
def test_uniform_on_other_boxes_equals_numpy(box):
    stream, rng = cli._Stream(), np.random.default_rng(0)
    lows, highs = cli._interior(box, 0.05)
    np.testing.assert_array_equal(stream.uniform(lows, highs, 50),
                                  rng.uniform(lows, highs, (50, len(box))))


def test_scalar_draws_equal_numpy():
    # uniform(0, 1) is u and uniform(0, 2 pi) is 0.0 + 2 pi u
    stream, rng = cli._Stream(), np.random.default_rng(0)
    for _ in range(200):
        r, a = stream.random(2).tolist()
        assert r == rng.uniform(0, 1)
        assert 0.0 + 2 * math.pi * a == rng.uniform(0, 2 * math.pi)


def _numpy_points(box, order, pou_size):
    """verify's sample points as numpy draws them from default_rng(0): the
    partition-of-unity blocks, the derivative blocks, then per FD order and
    point its coordinates, the radius uniform, the angle and one unused
    uniform."""
    rng = np.random.default_rng(0)
    size, dim = max(1, 8 * glue.EVAL_BUDGET // pou_size), len(box)
    lows, highs = np.array(box).T
    inner = cli._interior(box, 0.05)
    weights = [rng.uniform(lows, highs, (min(size, cli._POU_RANDOM_SAMPLES - start), dim))
               for start in range(0, cli._POU_RANDOM_SAMPLES, size)]
    derivs = [rng.uniform(*inner, (min(size, 200 - start), dim))
              for start in range(0, 200, size)]
    fd = []
    for _ in range(min(order, 2)):
        points, zs = [], []
        for _ in range(cli._FD_RANDOM_POINTS):
            points.append(rng.uniform(*inner))
            radius, angle = 0.5 * math.sqrt(rng.uniform(0, 1)), rng.uniform(0, 2 * math.pi)
            rng.uniform(0, 2 * math.pi)
            zs.append(radius * complex(math.cos(angle), math.sin(angle)))
        fd.append((np.array(points), zs))
    return weights, derivs, fd


@pytest.mark.parametrize("name", ["three_center_family.json", "two_param_family.json"])
def test_verify_draws_the_numpy_stream_in_order(monkeypatch, tmp_path, name):
    config = load_config(CONFIGS / name)
    glued, _ = glue.solve(config.to_family())
    path = tmp_path / "solution.json"
    serialize.save_solution(config, glued, path)
    seen = {"weights": [], "derivs": [], "fd": []}
    weights, derivs, fd = PartitionOfUnity.weights, PartitionOfUnity.derivs, \
        smoothness.fd_deviations

    def record_weights(self, s):
        seen["weights"].append(np.array(s))
        return weights(self, s)

    def record_derivs(self, s, alphas):
        seen["derivs"].append(np.array(s))
        return derivs(self, s, alphas)

    def record_fd(glued, zs, s, alphas, h):
        seen["fd"].append((np.array(s), list(zs)))
        return fd(glued, zs, s, alphas, h)
    monkeypatch.setattr(PartitionOfUnity, "weights", record_weights)
    monkeypatch.setattr(PartitionOfUnity, "derivs", record_derivs)
    monkeypatch.setattr(smoothness, "fd_deviations", record_fd)
    cli.main(["verify", "--solution", str(path), "--z-samples", "4", "--s-samples", "3"])

    want_weights, want_derivs, want_fd = _numpy_points(
        config.bounds, config.solver.order, glued.pou.size)
    for key, want in (("weights", want_weights), ("derivs", want_derivs)):
        assert len(seen[key]) == len(want)
        for got, block in zip(seen[key], want):
            np.testing.assert_array_equal(got, block)
    assert len(seen["fd"]) == len(want_fd) == 2
    for (s, zs), (want_s, want_zs) in zip(seen["fd"], want_fd):
        np.testing.assert_array_equal(s, want_s)
        assert zs == want_zs
        assert max(abs(z) for z in zs) < 0.5
