import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (components, constant_family, partial_s, random_cpoly, same_bits,
                      stack, steep_family, three_component_family, two_param_family,
                      with_zero_component, worked_family)
from spoly_reference import RefZSPoly, to_ref
from coronaglue import glue, hnorm, smoothness
from coronaglue.config import load_config
from coronaglue.cover_pou import build_cover
from coronaglue.errors import DomainError
from coronaglue.polyalg import CPoly, ParamFamily, SPoly, ZSPoly

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# (radial, angular, axis) of the solver's default grid
DEFAULT_GRID = (64, 128, 33)


def test_coeff_lipschitz_examples():
    # sup_disc's width is its z slack (pi / n) * sum_j j |a_j|
    for coeffs, lip in (([1, 2, 1], 4.0), ([7.0], 0.0), ([0, 0, 0, 1], 3.0)):
        cert = hnorm.sup_disc(CPoly(coeffs), 64)
        assert cert.hi - cert.lo == pytest.approx(math.pi / 64 * lip)


def test_sup_disc_examples():
    c = hnorm.sup_disc(CPoly([0, 1]), 64)
    assert c.lo == pytest.approx(1.0)
    assert c.hi <= 1.0 + math.pi / 64 + 1e-15

    const = hnorm.sup_disc(CPoly([3.0 - 4.0j]), 64)
    assert const.lo == const.hi == pytest.approx(5.0)

    c = hnorm.sup_disc(CPoly([1.0, 1.0]), 256)
    # brute-force boundary oversampling puts the sup at 2 (attained at 1)
    assert c.lo == pytest.approx(2.0, abs=1e-6)
    assert c.hi - c.lo <= math.pi / 256 * 2 + 1e-15
    assert c.lo <= 2.0 <= c.hi


def test_sup_disc_soundness_against_brute_force(rng):
    brute = hnorm.boundary_points(2 ** 17)
    for _ in range(25):
        p = random_cpoly(rng, 10)
        cert = hnorm.sup_disc(p, 512)
        measured = float(np.abs(p.eval(brute)).max())
        assert cert.lo - 1e-12 <= measured <= cert.hi + 1e-12


def test_sup_disc_monotone_refinement(rng):
    for _ in range(25):
        p = random_cpoly(rng, 10)
        a = hnorm.sup_disc(p, 512)
        b = hnorm.sup_disc(p, 1024)
        assert b.lo >= a.lo - 1e-14
        assert b.hi <= a.hi + 1e-14


def test_sup_disc_scaling_equivariance(rng):
    p = random_cpoly(rng, 6)
    base = hnorm.sup_disc(p, 128)
    for c in (2.0, 0.5, 4.0):  # powers of two scale exactly
        scaled = hnorm.sup_disc(CPoly(p.coeffs * c), 128)
        assert scaled.lo == c * base.lo
        assert scaled.hi == c * base.hi


def test_vec_sup_norm_examples():
    cert = hnorm.vec_sup_norm([CPoly([0, 1]), CPoly([2, -1])], 512)
    assert cert.lo == pytest.approx(math.sqrt(10), abs=1e-4)
    assert cert.lo <= math.sqrt(10) <= cert.hi
    once = hnorm.vec_sup_norm((p for p in [CPoly([0, 1]), CPoly([2, -1])]), 512)
    assert (once.lo, once.hi, once.samples_used) == (cert.lo, cert.hi, cert.samples_used)

    one = hnorm.vec_sup_norm([CPoly([1.0])])
    assert one.lo == one.hi == pytest.approx(1.0)

    zero = hnorm.vec_sup_norm([CPoly.zero(), CPoly.zero()])
    assert zero.lo == zero.hi == 0.0


def test_delta_lower_examples():
    family = worked_family()
    cert = hnorm.delta_lower(family, *DEFAULT_GRID)
    # calculus oracle: min of x^2 + (2+s-x)^2 over the disc x box sits at
    # (z, s) = (1, 0) with value 2
    assert cert.hi == pytest.approx(math.sqrt(2), abs=1e-3)
    assert cert.lo > 0
    assert cert.lo <= math.sqrt(2) <= cert.hi + 1e-12

    one = hnorm.delta_lower(constant_family(), *DEFAULT_GRID)
    assert one.lo == one.hi == pytest.approx(1.0)

    z_only = ParamFamily(ZSPoly([[SPoly([0.0]), SPoly([1.0])]]), [(0.0, 1.0)])
    failing = hnorm.delta_lower(z_only, *DEFAULT_GRID)
    assert failing.hi == pytest.approx(0.0, abs=1e-12)
    assert failing.lo <= 0.0


def test_delta_lower_brute_force_soundness(rng):
    for _ in range(10):
        p = random_cpoly(rng, 6)
        comp = ZSPoly([[SPoly([float(c.real)]) for c in p.coeffs]])
        comp2 = ZSPoly([[SPoly([float(c.imag), 0.5]) for c in p.coeffs]])
        family = ParamFamily(stack(comp, comp2), [(0.0, 1.0)])
        cert = hnorm.delta_lower(family, 8, 16, 5)
        fine = hnorm.delta_lower(family, 80, 160, 50)
        # a 100x denser scan can only move the sampled minimum down toward
        # the true infimum, which the certificate's lo must stay below
        assert fine.hi >= cert.lo - 1e-12


def test_delta_lower_negative_control():
    # (z, z - s/4) has a common zero z = s/4 inside the disc
    f1 = ZSPoly([[SPoly([0.0]), SPoly([1.0])]])
    f2 = ZSPoly([[SPoly([0.0, -0.25]), SPoly([1.0])]])
    family = ParamFamily(stack(f1, f2), [(0.0, 1.0)])
    cert = hnorm.delta_lower(family, *DEFAULT_GRID)
    assert cert.hi <= 1e-2
    assert cert.lo <= 0.0


def test_sup_family_brackets_worked_value():
    family = worked_family()
    cert = hnorm.sup_family(family, 33, 512)
    # sup of the l2 modulus sits at (z, s) = (-1, 1) with value sqrt(17)
    assert cert.lo <= math.sqrt(17.0) <= cert.hi
    assert cert.lo == pytest.approx(math.sqrt(17.0), rel=1e-3)


def test_grid_validation():
    with pytest.raises(ValueError, match="too coarse"):
        hnorm.delta_lower(worked_family(), 1, 128, 33)
    with pytest.raises(ValueError, match="too coarse"):
        hnorm.sup_family(worked_family(), 1, 512)
    with pytest.raises(ValueError):
        hnorm.sup_disc(CPoly([1.0]), 4)


# -- the hand-written certificates that hnorm.bracket replaced ----------------
# Each returns (lo, hi, samples_used) by the formula its routine used before;
# the engine must reproduce every bit.


def _ref_eval_sgrid(p, axes, z):
    """p on (tensor s-grid) x z as one matrix product over the whole grid:
    the materialising evaluator the streamed certificates replaced."""
    ref = to_ref(p)
    table = np.stack([np.asarray(c.eval_grid(axes), dtype=complex) for c in ref.coeffs])
    powers = z[None, ...] ** np.arange(len(ref.coeffs)).reshape((-1,) + (1,) * z.ndim)
    return np.tensordot(np.moveaxis(table, 0, -1), powers, axes=([-1], [0]))


def _ref_modulus(polys, axes, z):
    """The l2 modulus of ``polys`` over the whole (s-grid) x z at once."""
    if len(polys) == 1:
        return np.abs(_ref_eval_sgrid(polys[0], axes, z))
    sq = None
    for p in polys:
        vals = np.abs(_ref_eval_sgrid(p, axes, z)) ** 2
        sq = vals if sq is None else sq + vals
    return np.sqrt(sq)


def _ref_lipschitz(p):
    j = np.arange(len(p.coeffs))
    return float(np.sum(j * np.abs(p.coeffs)))


def _ref_sup_disc(p, samples):
    lo = float(np.abs(p.eval(hnorm.boundary_points(samples))).max())
    return lo, lo + (math.pi / samples) * _ref_lipschitz(p), samples


def _ref_vec_sup_norm(polys, samples):
    z = hnorm.boundary_points(samples)
    sq = np.zeros(samples)
    for p in polys:
        sq += np.abs(p.eval(z)) ** 2
    lo = float(np.sqrt(sq.max()))
    return lo, lo + (math.pi / samples) * sum(_ref_lipschitz(p) for p in polys), samples


def _ref_z_lipschitz(comp, box):
    bounds = to_ref(comp).coeff_bounds(box)
    return float(np.sum(np.arange(len(bounds)) * bounds))


def _ref_family(family, z, z_mesh, count):
    comps = components(family)
    axes = [np.linspace(a, b, count) for a, b in family.box]
    slack = z_mesh * sum(_ref_z_lipschitz(c, family.box) for c in comps)
    for axis, (a, b) in enumerate(family.box):
        lip = 0.0
        for comp in comps:
            lip += float(np.sum(to_ref(comp).partial(axis).coeff_bounds(family.box)))
        slack += lip * ((b - a) / (2.0 * (count - 1)))
    return _ref_modulus(comps, axes, z), slack


def _ref_delta_lower(family, radial, angular, axis):
    modulus, slack = _ref_family(family, hnorm.disc_points(radial, angular),
                                 hnorm.disc_mesh_radius(radial, angular), axis)
    hi = float(modulus.min())
    return hi - slack, hi, modulus.size


def _ref_sup_family(family, axis, boundary):
    modulus, slack = _ref_family(family, hnorm.boundary_points(boundary),
                                 math.pi / boundary, axis)
    lo = float(modulus.max())
    return lo, lo + slack, modulus.size


def _ref_kept(axes, half_steps, center, radius):
    """The support-ball node rule, written apart from hnorm.ball_mask: keep a
    node when the point of its cell [x - h, x + h] nearest the center lies
    inside the open ball."""
    kept = np.zeros(tuple(len(x) for x in axes), dtype=bool)
    for index in itertools.product(*(range(len(x)) for x in axes)):
        nearest = [min(max(c, x[i] - h), x[i] + h)
                   for x, i, h, c in zip(axes, index, half_steps, center)]
        kept[index] = math.dist(nearest, center) < radius
    return kept


def _ref_residual_certify(family, pou, points, boundary_samples, axis_samples,
                          ball=True):
    """The residual certificate over each bump's support ball, or, with
    ``ball`` false, over its whole support box (the formula before the
    ball)."""
    box, radius, dim = family.box, pou.radius, family.dim
    z = hnorm.boundary_points(boundary_samples)
    one = RefZSPoly.from_cpoly(CPoly([1.0]), dim)
    hi, count = 0.0, 0
    for center, sol in zip(pou.centers, points.solutions):
        supp = tuple((max(a, c - radius), min(b, c + radius))
                     for (a, b), c in zip(box, center))
        resid = -one
        for gm, comp in zip(sol.g, components(family)):
            resid = resid + RefZSPoly.from_cpoly(gm, dim) * to_ref(comp)
        axes = [np.linspace(a, b, axis_samples) for a, b in supp]
        values = np.abs(_ref_eval_sgrid(resid, axes, z))
        half_steps = [(b - a) / (2.0 * (axis_samples - 1)) for a, b in supp]
        if ball:
            values = values[_ref_kept(axes, half_steps, center, radius)]
        count += values.size
        slack = (math.pi / boundary_samples) * _ref_z_lipschitz(resid, supp)
        for axis in range(dim):
            slack += float(np.sum(resid.partial(axis).coeff_bounds(supp))) * half_steps[axis]
        hi = max(hi, float(values.max()) + slack)
    lo = 0.0
    axes = [np.linspace(a, b, axis_samples) for a, b in box]
    for block in glue.GluedEvaluator(family, pou, points, z).sweep(axes):
        lo = float(np.maximum(lo, np.abs(1.0 - block.phi).max()))
        count += block.phi.size
    return lo, max(hi, lo), count


def _bits(cert):
    return cert.lo, cert.hi, cert.samples_used


def _random_zspoly(rng, dim, z_degree=None):
    z_degree = int(rng.integers(0, 4)) if z_degree is None else z_degree
    shape = tuple(int(n) for n in rng.integers(1, 4, size=dim))
    return ZSPoly([[SPoly(rng.standard_normal(shape)) for _ in range(z_degree + 1)]])


def test_engine_matches_the_old_formulas_on_cpolys():
    rng = np.random.default_rng(51)
    for _ in range(25):
        p = random_cpoly(rng, 10)
        for samples in (8, 64, 512):
            assert _bits(hnorm.sup_disc(p, samples)) == _ref_sup_disc(p, samples)
        polys = [random_cpoly(rng, 6) for _ in range(int(rng.integers(1, 4)))]
        assert _bits(hnorm.vec_sup_norm(polys, 128)) == _ref_vec_sup_norm(polys, 128)


@pytest.mark.parametrize("dim", [1, 2])
def test_engine_matches_the_old_formulas_on_families(dim):
    rng = np.random.default_rng(52 + dim)
    box = [(-0.5, 1.0), (0.25, 2.0)][:dim]
    for grid in ((8, 16, 5), (12, 24, 7)):
        for _ in range(5):
            # two components, three with ragged z-degrees, three of which one
            # is zero, and z-degrees 11 and 4: numpy sums the longer rows of
            # coefficient bounds pairwise, so padding the shorter would
            # regroup its sums
            zero = ZSPoly([[SPoly(np.zeros((1,) * dim))]])
            for polys in ([_random_zspoly(rng, dim) for _ in range(2)],
                          [_random_zspoly(rng, dim) for _ in range(3)],
                          [_random_zspoly(rng, dim), zero, _random_zspoly(rng, dim)],
                          [_random_zspoly(rng, dim, 11), _random_zspoly(rng, dim, 4)]):
                family = ParamFamily(stack(*polys), box)
                assert family.size == len(polys)
                assert _bits(hnorm.delta_lower(family, *grid)) == \
                    _ref_delta_lower(family, *grid)
                assert _bits(hnorm.sup_family(family, grid[2], 64)) == \
                    _ref_sup_family(family, grid[2], 64)


@pytest.mark.parametrize("case", ["3-center-1d", "4-center-2d", "3-component-1d",
                                  "zero-component-2d"])
def test_residual_certify_matches_the_old_formula(case):
    # in 1-D the support ball is the clipped support box, so the certificate
    # keeps the box formula's bits; in 2-D it drops the box corners' nodes
    family, radius, size = {"3-center-1d": (steep_family(), 0.2, 3),
                            "4-center-2d": (two_param_family(), 0.5, 4),
                            "3-component-1d": (three_component_family(), 0.3, 2),
                            "zero-component-2d": (with_zero_component(two_param_family()),
                                                  0.5, 4)}[case]
    cover = build_cover(family.box, radius)
    assert cover.size == size
    points = glue.solve_at_samples(family, cover)
    for boundary, axis in ((256, 33), (64, 9)):
        cert = glue.residual_certify(family, cover, points, boundary, axis)
        boxed = _ref_residual_certify(family, cover, points, boundary, axis, ball=False)
        if family.dim == 1:
            assert _bits(cert) == boxed
        else:
            assert _bits(cert) == _ref_residual_certify(family, cover, points,
                                                        boundary, axis)
            assert cert.hi < boxed[1] and cert.samples_used < boxed[2]


def test_partial_bounds_examples():
    # the l2 norm of the (d, N) bounds is a Lipschitz constant of f in s
    def lipschitz(family):
        return float(np.sqrt((hnorm.partial_bounds(family.poly, family.box) ** 2).sum()))

    assert lipschitz(worked_family()) == pytest.approx(1.0)
    flat = ParamFamily(ZSPoly([[SPoly([1.0]), SPoly([2.0])]]), [(0.0, 1.0)])
    assert lipschitz(flat) == 0.0
    # f = s^2 z on [0,1]: |2 s z| <= 2
    sq = ParamFamily(ZSPoly([[SPoly([0.0]), SPoly([0.0, 0.0, 1.0])]]), [(0.0, 1.0)])
    assert lipschitz(sq) == pytest.approx(2.0)


def test_residual_certify_of_an_unbounded_cover_is_the_whole_box_certificate():
    # an infinite radius (older solution files hold one for data constant
    # in s): the one center's ball, clipped to the box, is the whole box and
    # keeps every node, so the certificate is the box formula's, samples
    # included
    family = ParamFamily(ZSPoly([[SPoly([[1.0]]), SPoly([[0.5]])],
                                 [SPoly([[0.0]]), SPoly([[0.3]])]]),
                         [(-1.0, 2.0), (0.1, 0.7)])
    assert family.poly.coeffs.shape[2:] == (1, 1)
    cover = build_cover(family.box, math.inf)
    assert cover.size == 1
    points = glue.solve_at_samples(family, cover)
    for boundary, axis in ((256, 33), (64, 9)):
        cert = glue.residual_certify(family, cover, points, boundary, axis)
        assert _bits(cert) == _ref_residual_certify(family, cover, points, boundary, axis,
                                                    ball=False)
        assert cert.samples_used == 2 * axis ** 2 * boundary


@given(st.integers(1, 2), st.integers(2, 40), st.booleans(), st.integers(0, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_ball_mask_keeps_the_nearest_node_of_every_ball_point(dim, axis, clip, seed):
    rng = np.random.default_rng(seed)
    lows = rng.uniform(-2.0, 1.0, dim)
    box = [(a, a + w) for a, w in zip(lows, rng.uniform(1e-3, 3.0, dim))]
    center = [rng.uniform(a, b) for a, b in box]
    radius = float(rng.uniform(1e-3, 2.0))
    if clip:  # the support box residual_certify passes
        box = [(max(a, c - radius), min(b, c + radius)) for (a, b), c in zip(box, center)]
    mask = hnorm.ball_mask(box, axis, (center, radius))
    assert mask.shape == (axis,) * dim and mask.any()
    steps = [(b - a) / (axis - 1) for a, b in box]
    # points of ball x box, half of them within 1e-9 r to 0.1 r of its sphere
    directions = rng.standard_normal((400, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    shares = np.concatenate([rng.uniform(0.0, 1.0, 200),
                             1.0 - 10.0 ** -rng.uniform(1.0, 9.0, 200)])
    points = np.asarray(center) + radius * shares[:, None] * directions
    inside = np.all([(points[:, i] >= a) & (points[:, i] <= b)
                     for i, (a, b) in enumerate(box)], axis=0)
    for p in points[inside]:
        nearest = tuple(min(axis - 1, int(round((x - a) / h)))
                        for x, (a, _), h in zip(p, box, steps))
        assert mask[nearest], (p, nearest)
    if dim == 1 and clip:
        assert mask.all()


def test_bracket_over_a_ball_counts_the_kept_samples():
    family = two_param_family()
    z = hnorm.boundary_points(16)
    box, ball = [(0.0, 0.5), (0.25, 0.75)], ((0.0, 0.5), 0.5)
    whole = hnorm.bracket(family.poly, z, math.pi / 16, "l2 sup norm", box, 9)
    part = hnorm.bracket(family.poly, z, math.pi / 16, "l2 sup norm", box, 9,
                         ball=ball)
    kept = int(hnorm.ball_mask(box, 9, ball).sum())
    assert 0 < kept < 81 and part.samples_used == kept * 16
    # the slack is the whole box's: only the sampled extreme moves
    assert part.hi - part.lo == pytest.approx(whole.hi - whole.lo, rel=1e-12)
    assert part.lo <= whole.lo


# -- streamed sampling: blocks against the whole grid at once ----------------

AXIS = 9
# BLOCK_BUDGET per case, in 1-D and 2-D, and the (rows, z nodes) of every block
# it gives on the 16 z nodes of _z_nodes for a _z_degree_family (7 z-powers;
# 9 grid points per 2-D row), z chunks outermost: a chunk is BLOCK_BUDGET // 7
# nodes wide in 1-D and BLOCK_BUDGET // 18 (two rows) in 2-D, a run of rows
# fills the budget, and a lone last 1-D row or z node joins the slice before it
RUNS = {
    "one-block": ((144, [(9, 16)]), (1296, [(9, 16)])),
    "several-blocks": ((48, [(9, 6), (9, 6), (9, 4)]), (432, [(3, 16)] * 3)),
    "ragged-last-block": ((64, [(7, 9), (2, 9), (9, 7)]),
                          (576, [(4, 16), (4, 16), (1, 16)])),
    "under-one-row": ((1, [(2, 2), (2, 2), (2, 2), (3, 2)] * 8), (1, [(1, 2)] * 72)),
    "ragged-last-chunk": ((42, [(7, 6), (2, 6)] * 2 + [(9, 4)]),
                          (108, ([(2, 6)] * 4 + [(1, 6)]) * 2 + [(3, 4)] * 3)),
    "one-node-remainder": ((35, [(7, 5), (2, 5)] * 2 + [(5, 6), (4, 6)]),
                           (90, ([(2, 5)] * 4 + [(1, 5)]) * 2 + [(1, 6)] * 9)),
}


def _z_nodes(inf):
    """(z nodes, z mesh): 16 on the circle for a sup, 16 in the disc for an
    inf."""
    if inf:
        return hnorm.disc_points(4, 4), hnorm.disc_mesh_radius(4, 4)
    return hnorm.boundary_points(16), math.pi / 16


def _record_runs(monkeypatch, data):
    """Record (rows, z nodes) of every block the polynomial ``data`` is
    evaluated on."""
    runs, real = [], ZSPoly.eval_sgrid

    def recording(self, table, powers):
        if self is data:
            runs.append((table.shape[1], powers.shape[-1]))
        return real(self, table, powers)
    monkeypatch.setattr(ZSPoly, "eval_sgrid", recording)
    return runs


def _z_degree_family(rng, dim):
    """Two components of z-degree 6 and 3 to 6: the degrees at which a
    one-row or one-column product (BLAS gemv) rounds apart from the whole
    grid's (gemm)."""
    box = [(-0.5, 1.0), (0.25, 2.0)][:dim]
    comps = []
    for powers in (7, int(rng.integers(4, 8))):
        shape = tuple(int(n) for n in rng.integers(1, 4, size=dim))
        comps.append([SPoly(rng.standard_normal(shape)) for _ in range(powers)])
    return ParamFamily(ZSPoly(comps), box)


def _whole_grid_blocks(modulus, runs, mask):
    """The whole grid's samples ``modulus`` (AXIS^dim x z) cut into the
    blocks ``runs``, (rows, z nodes) each, z chunks outermost, with the
    nodes outside ``mask`` dropped."""
    blocks, row, col = [], 0, 0
    for rows, width in runs:
        block = modulus[row:row + rows, ..., col:col + width]
        blocks.append(block if mask is None else block[mask[row:row + rows]])
        row += rows
        if row == AXIS:
            row, col = 0, col + width
    assert row == 0 and col == modulus.shape[-1]
    return blocks


@pytest.mark.parametrize("case", list(RUNS))
@pytest.mark.parametrize("with_ball", [False, True], ids=["box", "ball"])
@pytest.mark.parametrize("inf", [False, True], ids=["sup", "inf"])
@pytest.mark.parametrize("dim", [1, 2])
def test_streamed_bracket_equals_the_whole_grid_bit_for_bit(monkeypatch, dim, inf,
                                                            with_ball, case):
    rng = np.random.default_rng(70 + dim)
    z, z_mesh = _z_nodes(inf)
    ball = ((0.1, 0.6)[:dim], 0.7) if with_ball else None
    budget, runs = RUNS[case][dim - 1]
    monkeypatch.setattr(hnorm, "BLOCK_BUDGET", budget)
    for _ in range(4):
        family = _z_degree_family(rng, dim)
        recorded = _record_runs(monkeypatch, family.poly)
        cert = hnorm.bracket(family.poly, z, z_mesh, "q", family.box, AXIS,
                             inf=inf, ball=ball)
        assert recorded == runs

        modulus, slack = _ref_family(family, z, z_mesh, AXIS)
        mask = None if ball is None else hnorm.ball_mask(family.box, AXIS, ball)
        # every sample of every block, not only the extreme, has the whole
        # grid's bits
        blocks = list(hnorm._modulus_blocks(family.poly, z, family.box, AXIS, ball))
        wanted = _whole_grid_blocks(modulus, runs, mask)
        assert len(blocks) == len(wanted)
        for block, want in zip(blocks, wanted):
            assert same_bits(block, want)
        kept = modulus if mask is None else modulus[mask]
        assert kept.size < modulus.size or ball is None
        extreme = float(kept.min() if inf else kept.max())
        lo, hi = (extreme - slack, extreme) if inf else (extreme, extreme + slack)
        assert same_bits(cert.lo, lo) and same_bits(cert.hi, hi)
        assert cert.samples_used == kept.size


# parameter points per evaluator block for each case of RUNS, in 1-D and 2-D,
# on the AXIS^d grid of a C^k report: from one point to the whole grid, with
# and without a short last block
REPORT_BLOCKS = {"one-block": (9, 81), "several-blocks": (3, 27),
                 "ragged-last-block": (4, 20), "under-one-row": (1, 1),
                 "ragged-last-chunk": (5, 50), "one-node-remainder": (8, 80)}


@pytest.mark.parametrize("case", list(RUNS))
@pytest.mark.parametrize("which", ["steep", "two_param"])
def test_cnorm_report_f_norms_equal_the_whole_grid_bit_for_bit(
        monkeypatch, steep_solution, two_param_solution, which, case):
    # the report reads f off the data jets: whatever the evaluator's block
    # size, f keeps the whole grid's bits
    glued = steep_solution if which == "steep" else two_param_solution
    family, z = glued.family, hnorm.boundary_points(64)
    points, grid = REPORT_BLOCKS[case][family.dim - 1], AXIS ** family.dim
    # the block size is EVAL_BUDGET // max(N_f nz, K) points
    monkeypatch.setattr(glue, "EVAL_BUDGET", points * max(family.size * z.size, glued.cover.size))
    sizes, real = [], smoothness._solution_jets

    def recording(evaluator, s, order):
        sizes.append(len(s))
        return real(evaluator, s, order)
    monkeypatch.setattr(smoothness, "_solution_jets", recording)
    rep = smoothness.cnorm_report(glued, 2, axis_samples=AXIS, boundary_samples=64)
    assert sizes == [points] * (grid // points) + [grid % points] * (grid % points > 0)
    axes = [np.linspace(a, b, AXIS) for a, b in family.box]
    for ix, _, f in rep.per_index:
        modulus = _ref_modulus(components(partial_s(family, ix)), axes, z)
        assert same_bits(f, float(modulus.max())), ix


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("inf", [False, True], ids=["sup", "inf"])
def test_a_nan_in_a_later_block_is_refused(monkeypatch, dim, inf):
    # builtin max(best, nan) and min(best, nan) return best: the running
    # extreme must keep a NaN that only the third of three blocks holds
    family = _z_degree_family(np.random.default_rng(80 + dim), dim)
    z, _ = _z_nodes(inf)

    def run():
        return hnorm.bracket(family.poly, z, 0.1, "q", family.box, AXIS, inf=inf)
    budget, runs = RUNS["several-blocks"][dim - 1]
    monkeypatch.setattr(hnorm, "BLOCK_BUDGET", budget)
    assert math.isfinite(run().hi)
    real, calls = ZSPoly.eval_sgrid, []

    def poisoned(self, table, powers):
        values = real(self, table, powers)
        calls.append((table.shape[1], powers.shape[-1]))
        if len(calls) == 3:  # the last component in the third block
            values[(-1,) * values.ndim] = np.nan
        return values
    monkeypatch.setattr(ZSPoly, "eval_sgrid", poisoned)
    with pytest.raises(DomainError, match="not finite"):
        run()
    assert calls == runs


@pytest.mark.parametrize("with_ball", [False, True], ids=["box", "ball"])
@pytest.mark.parametrize("inf", [False, True], ids=["sup", "inf"])
@pytest.mark.parametrize("dim", [1, 2])
def test_a_nan_in_a_later_z_chunk_is_refused(monkeypatch, dim, inf, with_ball):
    # the NaN sits at the first grid node of the first block of the ragged
    # last z chunk (4 nodes), a node the ball keeps; every earlier chunk is
    # finite
    family = _z_degree_family(np.random.default_rng(100 + dim), dim)
    z, _ = _z_nodes(inf)
    ball = ((0.1, 0.6)[:dim], 0.7) if with_ball else None
    budget, runs = RUNS["ragged-last-chunk"][dim - 1]
    monkeypatch.setattr(hnorm, "BLOCK_BUDGET", budget)

    def run():
        return hnorm.bracket(family.poly, z, 0.1, "q", family.box, AXIS,
                             inf=inf, ball=ball)
    assert math.isfinite(run().hi)
    real, recorded = ZSPoly.eval_sgrid, []

    def poisoned(self, table, powers):
        values = real(self, table, powers)
        if self is family.poly:
            recorded.append((table.shape[1], powers.shape[-1]))
            if [width for _, width in recorded].count(4) == 1 and recorded[-1][1] == 4:
                values[(0,) * values.ndim] = np.nan
        return values
    monkeypatch.setattr(ZSPoly, "eval_sgrid", poisoned)
    with pytest.raises(DomainError, match="not finite"):
        run()
    assert recorded == runs


def test_an_overflow_in_a_later_block_is_refused(monkeypatch):
    # (1e308 s + 1e308 z) on [0, 1]: its slack is finite, but it overflows
    # near s = 1, z = 1, in the last block of rows only
    family = ParamFamily(ZSPoly([[SPoly([0.0, 1e308]), SPoly([1e308])]]), [(0.0, 1.0)])
    z = hnorm.boundary_points(16)
    monkeypatch.setattr(hnorm, "BLOCK_BUDGET", 2 * z.size)  # blocks of two rows
    with np.errstate(over="ignore", invalid="ignore"):
        sampled = _ref_modulus(components(family), [np.linspace(0.0, 1.0, AXIS)], z)
        assert np.isfinite(sampled[:6]).all() and np.isinf(sampled[6:]).any()
        with pytest.raises(DomainError, match="not finite"):
            hnorm.sup_family(family, AXIS, 16)


def _dense_2d_family():
    """(0.3 z^4, 0.5 + 0.7 (s1 + s2) - 0.2 z) on [0, 1]^2, the benchmark's
    dense-cover family."""
    lead = ZSPoly([[SPoly([[0.0]])] * 4 + [SPoly([[0.3]])]])
    tail = ZSPoly([[SPoly([[0.5, 0.7], [0.7, 0.0]]), SPoly([[-0.2]])]])
    return ParamFamily(stack(lead, tail), [(0.0, 1.0), (0.0, 1.0)])


def _z_degree_64_family():
    """(0.5 z^64 + 0.1 z, 1 + 0.2 s) on [0, 1]: the advertised z-degree limit,
    whose whole z-power table on the default disc grid is 65 x 8192."""
    lead = ZSPoly([[SPoly([0.0]), SPoly([0.1])] + [SPoly([0.0])] * 62 + [SPoly([0.5])]])
    return ParamFamily(stack(lead, ZSPoly([[SPoly([1.0, 0.2])]])), [(0.0, 1.0)])


def test_delta_lower_peak_memory_does_not_grow_with_the_grid():
    # a whole disc x 33^2 grid of two_param_family.json is 8.9M complex
    # samples (over 270 MiB in flight), a row of it 270k; a block is bounded
    # in z too, so one limit of a few blocks (3 MiB) holds at a 4x finer disc
    # grid, where only the z nodes themselves (0.5 MiB) grow
    limit = 12 * hnorm.BLOCK_BUDGET * 16
    config = load_config(CONFIGS / "two_param_family.json")
    solver = config.solver
    cases = ((config.to_family(), (solver.radial_samples, solver.angular_samples,
                                   solver.axis_samples)),
             (config.to_family(), (128, 256, 33)),
             (_dense_2d_family(), (64, 128, 13)),
             (_z_degree_64_family(), DEFAULT_GRID))
    for family, (radial, angular, axis) in cases:
        tracemalloc.start()
        try:
            cert = hnorm.delta_lower(family, radial, angular, axis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.samples_used == axis ** family.dim * radial * angular
        assert peak < limit, ((radial, angular, axis), peak / 2 ** 20)
