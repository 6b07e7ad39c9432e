import math

import numpy as np
import pytest

import tensor_jets
from conftest import same_bits, worked_family
from coronaglue import cover_pou as cp
from coronaglue import jets
from coronaglue.errors import DomainError
from coronaglue.polyalg import ParamFamily, SPoly, ZSPoly


def _covers_box(cover, box, scan_per_axis: int = 100) -> bool:
    """Dense-grid check of the ball-cover invariant."""
    axes = [np.linspace(a, b, scan_per_axis) for a, b in box]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    centers = np.asarray(cover.centers)
    dist = np.sqrt(((pts[:, None, :] - centers[None, :, :]) ** 2).sum(-1))
    return bool((dist.min(axis=1) <= cover.radius).all())


def test_lipschitz_s_bound_examples():
    assert cp.lipschitz_s_bound(worked_family()) == pytest.approx(1.0)

    flat = ParamFamily(ZSPoly([[SPoly([1.0]), SPoly([2.0])]]), [(0.0, 1.0)])
    assert cp.lipschitz_s_bound(flat) == 0.0

    # f = s^2 z on [0,1]: |2 s z| <= 2
    sq = ParamFamily(ZSPoly([[SPoly([0.0]), SPoly([0.0, 0.0, 1.0])]]),
                     [(0.0, 1.0)])
    assert cp.lipschitz_s_bound(sq) == pytest.approx(2.0)


def test_build_cover_examples():
    cover = cp.build_cover([(0.0, 1.0)], 0.3)
    assert cover.size == 2
    assert _covers_box(cover, [(0.0, 1.0)])

    single = cp.build_cover([(0.0, 1.0)], math.inf)
    assert single.centers == ((0.5,),)

    square = cp.build_cover([(0.0, 1.0), (0.0, 1.0)], 0.5)
    assert square.size == 4
    assert _covers_box(square, [(0.0, 1.0), (0.0, 1.0)])


def test_cover_invariants_random_radii(rng):
    for _ in range(20):
        r = float(rng.uniform(0.05, 2.0))
        cover = cp.build_cover([(0.0, 1.0)], r)
        assert _covers_box(cover, [(0.0, 1.0)])
        assert all(0.0 <= c[0] <= 1.0 for c in cover.centers)
    for _ in range(5):
        r = float(rng.uniform(0.2, 2.0))
        cover = cp.build_cover([(0.0, 1.0), (-1.0, 0.5)], r)
        assert _covers_box(cover, [(0.0, 1.0), (-1.0, 0.5)])


def test_bump_profile():
    # the bump exists only as jets: its value is the order-0 entry
    pou = cp.PartitionOfUnity(((0.0,), (1.0,)), 1.0)

    def value(t):
        diff = np.array([[t]])
        return float(pou._bump_jets(diff, (diff ** 2).sum(-1), 0)[0, 0])

    assert value(0.0) == pytest.approx(math.exp(-1.0))
    assert value(0.5) == pytest.approx(math.exp(-1.0 / 0.75))
    assert value(-0.5) == value(0.5)
    # from (1 - BUMP_CLAMP) r on, center 0 is not built and weighs exactly 0
    for s in (0.9999999, 1.0):
        assert pou.weights([[s]])[0, 0] == 0.0


def test_weights_single_center():
    pou = cp.build_cover([(0.0, 1.0)], math.inf)
    for s in (0.0, 0.31, 1.0):
        np.testing.assert_allclose(pou.weights([[s]])[0], [1.0])
        for d in pou.derivs([[s]], [(1,), (2,)]):
            assert np.all(d == 0.0)


def test_unbounded_cover_weight_jets_in_2d(rng):
    # an infinite radius runs through the general path: |s - c|^2 / r^2 = 0
    # and derivative entries 2 (s_i - c_i) / r^2 = 0, so the lone weight is
    # e^-1 (1 / e^-1) and every derivative is exactly +0.0
    box = [(-1.0, 2.0), (0.1, 0.7)]
    pou = cp.build_cover(box, math.inf)
    assert pou.size == 1
    lows, highs = np.array(box).T
    block = np.vstack([rng.uniform(lows, highs, (20, 2)), lows, highs,
                       pou.centers[0]])
    e = math.exp(-1.0)
    for order in range(4):
        want = np.zeros((1, len(jets.multi_indices(2, order)), len(block)))
        want[0, jets.position((0, 0), order)] = e * (1.0 / e)
        assert same_bits(pou.weight_jets(block, order), want), order


def test_weights_partition_and_support(rng):
    cover = cp.build_cover([(0.0, 1.0)], 0.22)
    assert cover.size >= 3
    centers = np.asarray(cover.centers)
    for _ in range(2000):
        s = np.array([rng.uniform(0.0, 1.0)])
        w = cover.weights(s[None])[0]
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all((w >= 0) & (w <= 1))
        dist = np.abs(s[0] - centers[:, 0])
        assert np.all(w[dist >= cover.radius] == 0.0)


def test_lone_support_is_indicator():
    pou = cp.build_cover([(0.0, 1.0)], 0.22)
    w = pou.weights([[0.02]])[0]  # only the first bump reaches this point
    assert w[0] == pytest.approx(1.0)
    assert np.all(w[1:] == 0.0)


def test_derivs_match_finite_differences_midpoint():
    # plain central differences at the two-center midpoint, where the
    # profile is far from the steep support tails
    pou = cp.PartitionOfUnity(((0.25,), (0.75,)), 0.55)
    assert _covers_box(pou, [(0.0, 1.0)])
    h = 1e-4 * pou.radius
    (d1,) = pou.derivs([[0.5]], [(1,)])
    fd1 = (pou.weights([[0.5 + h]]) - pou.weights([[0.5 - h]])) / (2 * h)
    assert np.abs(d1 - fd1).max() <= 1e-6 * max(1.0, float(np.abs(d1).max()))


def test_derivs_match_finite_differences_random(rng):
    # near support edges the second-order stencil's own truncation exceeds
    # the tolerance, so the sweep uses a fourth-order central stencil whose
    # truncation stays far below it
    pou = cp.PartitionOfUnity(((0.2,), (0.8,)), 0.6)
    assert _covers_box(pou, [(0.0, 1.0)])
    h = 1e-4 * pou.radius

    def weights(x):
        return pou.weights([[x]])[0]

    for s in rng.uniform(0.05, 0.95, 100):
        d1, d2 = (d[0] for d in pou.derivs([[s]], [(1,), (2,)]))
        fd1 = (-weights(s + 2 * h) + 8 * weights(s + h)
               - 8 * weights(s - h) + weights(s - 2 * h)) / (12 * h)
        scale = max(1.0, float(np.abs(d1).max()))
        assert np.abs(d1 - fd1).max() <= 1e-6 * scale
        fd2 = (-weights(s + 2 * h) + 16 * weights(s + h) - 30 * weights(s)
               + 16 * weights(s - h) - weights(s - 2 * h)) / (12 * h * h)
        scale2 = max(1.0, float(np.abs(d2).max()))
        assert np.abs(d2 - fd2).max() <= 1e-5 * scale2


def test_derivative_sums_vanish(rng):
    pou = cp.build_cover([(0.0, 1.0)], 0.22)
    for _ in range(500):
        s = [[rng.uniform(0.0, 1.0)]]
        for d in pou.derivs(s, [(1,), (2,)]):
            assert abs(d.sum()) <= 1e-9


def test_derivative_sums_vanish_2d(rng):
    pou = cp.build_cover([(0.0, 1.0), (0.0, 1.0)], 0.45)
    for _ in range(100):
        s = rng.uniform(0.0, 1.0, (1, 2))
        for d in pou.derivs(s, [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]):
            assert abs(d.sum()) <= 1e-9


def test_pou_eval_midpoint_two_centers():
    pou = cp.PartitionOfUnity(((0.2,), (0.8,)), 0.6)
    w = pou.weights([[0.5]])[0]
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-14)


def _center_bump_jet(pou, s, center, orders):
    """Reference: the tensor bump jet of one center, built on its own."""
    r = pou.radius
    out = np.zeros(tensor_jets.shape(orders))
    if math.isinf(r):
        out[(0,) * len(orders)] = math.exp(-1.0)
        return out
    if sum((x - c) ** 2 for x, c in zip(s, center)) >= ((1.0 - cp.BUMP_CLAMP) * r) ** 2:
        return out
    for axis, (x, c) in enumerate(zip(s, center)):
        xi = np.zeros(tensor_jets.shape(orders))
        xi[(0,) * len(orders)] = x - c
        if orders[axis] >= 1:
            xi[tuple(int(i == axis) for i in range(len(orders)))] = 1.0
        out += tensor_jets.mul(xi, xi, orders)
    out /= r * r
    v = -out
    v[(0,) * len(orders)] += 1.0
    return tensor_jets.exp(-tensor_jets.reciprocal(v, orders), orders)


def _reference_weight_jets(pou, s, orders):
    """Reference: every center's tensor bump jet, normalized one center at a
    time."""
    bumps = [_center_bump_jet(pou, s, c, orders) for c in pou.centers]
    inv = tensor_jets.reciprocal(sum(bumps), orders)
    return np.stack([tensor_jets.mul(b, inv, orders) for b in bumps])


def _on_clamp_boundary(center, radius):
    """A point s > center on the first axis with |s - center|^2 equal to or
    just above ((1 - BUMP_CLAMP) r)^2, while the next float toward the
    center is inside."""
    limit = ((1.0 - cp.BUMP_CLAMP) * radius) ** 2
    x = center[0] + (1.0 - cp.BUMP_CLAMP) * radius
    while (x - center[0]) ** 2 < limit:
        x = np.nextafter(x, math.inf)
    while (np.nextafter(x, -math.inf) - center[0]) ** 2 >= limit:
        x = np.nextafter(x, -math.inf)
    return (float(x),) + tuple(center[1:])


@pytest.mark.parametrize("box, radius, orders", [
    ([(0.0, 1.0)], 0.22, (6,)),
    ([(0.0, 1.0)], math.inf, (3,)),
    ([(0.0, 1.0), (0.0, 1.0)], 0.3, (2, 2)),
    ([(0.0, 1.0), (-1.0, 0.5)], 0.45, (3, 1)),
])
def test_weight_jets_match_per_center_reference(rng, box, radius, orders):
    pou = cp.build_cover(box, radius)
    centers = np.asarray(pou.centers)
    points = [rng.uniform([a for a, _ in box], [b for _, b in box]) for _ in range(30)]
    if math.isfinite(radius):
        points.append(np.array(_on_clamp_boundary(pou.centers[0], radius)))
    limit = ((1.0 - cp.BUMP_CLAMP) * radius) ** 2
    # a jet of total order sum(orders) holds every coefficient of the tensor
    # reference; compare those
    order, dim = sum(orders), len(box)
    indices = jets.multi_indices(dim, order)
    kept = [p for p, ix in enumerate(indices) if all(np.less_equal(ix, orders))]
    for s in points:
        got = pou.weight_jets(s[None], order)[..., 0]
        assert got.shape == (pou.size, len(indices))
        reference = _reference_weight_jets(pou, s, orders)
        np.testing.assert_allclose(
            got[:, kept], np.stack([reference[(slice(None),) + indices[p]] for p in kept], 1),
            rtol=1e-14, atol=0)
        missed = ((s - centers) ** 2).sum(-1) >= limit
        assert np.all(got[missed] == 0.0)
        assert 1 <= np.count_nonzero(~missed) <= 2 ** len(box)



@pytest.mark.parametrize("box, radius", [
    ([(0.0, 1.0)], 0.22),
    ([(0.0, 1.0)], math.inf),
    ([(0.0, 1.0), (0.0, 1.0)], 0.3),
    ([(0.0, 1.0), (-1.0, 0.5)], 0.45),
])
def test_weight_jets_block_equals_points_bit_for_bit(rng, box, radius):
    # one batched pass over the live (point, center) pairs of a block gives
    # every point the bits it gets alone, on the clamp boundary too
    pou = cp.build_cover(box, radius)
    lows, highs = np.array(box).T
    block = [rng.uniform(lows, highs) for _ in range(40)]
    if math.isfinite(radius):
        block += [np.array(_on_clamp_boundary(pou.centers[0], radius)),
                  np.array(pou.centers[0])]
        limit = ((1.0 - cp.BUMP_CLAMP) * radius) ** 2
        live = [np.count_nonzero(((s - pou.centers) ** 2).sum(-1) < limit)
                for s in block]
        assert len(set(live)) >= 2  # live sets of different sizes
    block = np.array(block)
    for order in (0, 1, 2, 4):
        got = pou.weight_jets(block, order)
        assert got.shape == (pou.size, len(jets.multi_indices(len(box), order)), len(block))
        for i, s in enumerate(block):
            assert same_bits(got[..., i], pou.weight_jets(s[None], order)[..., 0])


@pytest.mark.parametrize("dim", [1, 2])
def test_bump_jets_equal_the_product_build_bit_for_bit(rng, dim):
    # u = |s - c|^2 / r^2 written down as a quadratic gives the bits of u
    # built as the jet product sum_i (s_i - c_i)^2, divided by r^2
    box = [(0.0, 1.0)] * dim
    pou = cp.build_cover(box, 0.3)
    r = pou.radius
    diff = rng.uniform(-0.3, 0.3, (40, dim)) * rng.choice([1.0, -1.0, 0.0], (40, dim))
    sq = (diff ** 2).sum(-1)
    for order in range(5):
        u = jets.jet_const(0.0, dim, order, (len(diff),))
        for axis in range(dim):
            xi = jets.jet_const(diff[:, axis], dim, order, (len(diff),))
            if order >= 1:
                xi[jets.position(np.eye(dim, dtype=int)[axis], order)] = 1.0
            u += jets.jet_mul(xi, xi, dim, order)
        u /= r * r
        v = jets.jet_const(1.0, dim, order, (len(diff),)) - u
        want = jets.jet_exp(-jets.jet_reciprocal(v, dim, order), dim, order)
        assert same_bits(pou._bump_jets(diff, sq, order), want), order


def test_weight_jets_block_witness_is_the_first_failing_point():
    pou = cp.PartitionOfUnity(((0.25,),), 0.1)
    with pytest.raises(cp.InternalInconsistency) as info:
        pou.weight_jets([[0.25], [0.3], [0.9], [0.95]], 2)
    assert info.value.witness == (0.9,)
    assert "[0.9]" in str(info.value)


@pytest.mark.parametrize("box, radius", [
    ([(0.0, 1.0)], 0.22),
    ([(0.0, 1.0), (-1.0, 0.5)], 0.45),
    ([(0.0, 1.0)], math.inf),
])
def test_covers_of_one_box_and_radius_compare_equal(box, radius):
    a, b = cp.build_cover(box, radius), cp.build_cover(box, radius)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != cp.build_cover(box, 0.21)
    assert a == cp.PartitionOfUnity(a.centers, a.radius)


@pytest.mark.parametrize("dim", [1, 2])
def test_point_entry_points_refuse_a_bare_point(dim):
    # every weight and Taylor entry point takes an (n, d) block; a bare (d,)
    # point is refused rather than read as d points or one
    box = [(0.0, 1.0)] * dim
    pou = cp.build_cover(box, 0.3)
    family = ParamFamily(ZSPoly([[SPoly(np.ones((2,) * dim))]]), box)
    point = np.full(dim, 0.5)
    for call in (lambda: pou.weight_jets(point, 1), lambda: pou.weights(point),
                 lambda: pou.derivs(point, [(1,) + (0,) * (dim - 1)]),
                 lambda: family.poly.taylor_coeffs(point, 1, [[0.5]]),
                 lambda: family.require_inside(point)):
        with pytest.raises((DomainError, ValueError)):
            call()
    # the same point as a block of one passes
    assert pou.weights(point[None]).shape == (1, pou.size)
    assert family.poly.taylor_coeffs(point[None], 1, [[0.5]]).shape == (1 + dim, 1, 1, 1)
    family.require_inside(point[None])
