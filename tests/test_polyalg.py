import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npp

import spoly_reference
import tensor_jets
from conftest import (components, family_values, frozen_values, partial_s, random_cpoly,
                      same_bits, stack, three_component_family, with_zero_component,
                      worked_family)
from coronaglue import glue, hnorm, jets
from coronaglue.cover_pou import Cover, PartitionOfUnity
from coronaglue.errors import DomainError
from coronaglue.polyalg import (
    CPoly,
    ParamFamily,
    SPoly,
    ZSPoly,
    sum_in_order,
)


def test_eval_examples():
    assert CPoly([1, 2, 1]).eval(1j) == pytest.approx(2j)
    assert CPoly.zero().eval(3.7 - 2j) == 0
    assert CPoly([0, 0, 0, 1]).eval(2.0) == pytest.approx(8.0)


def test_canonical_form():
    p = CPoly([1, 2, 0, 0])
    assert p.degree == 1
    assert CPoly([0, 0, 0]).is_zero
    assert CPoly([1, 0]).degree == 0
    assert CPoly([1, 0]) == CPoly([1])


def test_family_values_examples():
    family = worked_family()
    np.testing.assert_allclose(family_values(family, 1.0, [0.0])[0], [1.0, 1.0])
    np.testing.assert_allclose(family_values(family, 0.0, [1.0])[0], [0.0, 3.0])
    one = ParamFamily(ZSPoly([[SPoly([1.0])]]), [(0.0, 1.0)])
    np.testing.assert_allclose(family_values(one, 0.3 + 0.1j, [0.7])[0], [1.0])


def test_family_values_rejects_outside_domain():
    # the one evaluation path refuses a point outside the box
    family = worked_family()
    cover = Cover(((0.5,),), math.inf)
    evaluator = glue.GluedEvaluator(family, PartitionOfUnity(cover),
                                    glue.solve_at_samples(family, cover), [0.0])
    for points in ([1.5], [[0.5], [-0.2]], [math.nan]):
        with pytest.raises(DomainError):
            evaluator.at(points)
        with pytest.raises(DomainError):
            evaluator.jets(np.reshape(points, (-1, 1)), 2)
    # a block is checked at once, and the message names its first point outside
    with pytest.raises(DomainError, match=r"point \[-0\.2\] lies outside"):
        family.require_inside([[0.5], [-0.2], [2.0]])


@pytest.mark.parametrize("family, points", [
    # the z^2 coefficient s - 0.5 vanishes at s = 0.5, where freeze trims it
    (ParamFamily(ZSPoly([[SPoly([0.3, -1.0]), SPoly([0.0]), SPoly([-0.5, 1.0])],
                         [SPoly([1.0 / 3.0]), SPoly([-0.2, 0.7])]]), [(0.0, 1.0)]),
     [[0.0], [0.5], [0.123456789], [1.0]]),
    (ParamFamily(ZSPoly([[SPoly([[0.5, 0.1], [0.7, 0.0]]),
                          SPoly([[0.0, 0.0], [1.0, -1.0]])],
                         [SPoly([[0.2]]), SPoly([[0.0], [0.3]])]]),
                 [(0.0, 1.0), (0.0, 1.0)]),
     [[0.0, 0.0], [0.4, 0.4], [0.9, 0.1], [0.0, 1.0], [1.0 / 3.0, 0.77]]),
    # three components of 4, 2 and 1 z-powers, and three with a zero one
    (three_component_family(), [[0.0], [0.5], [0.123456789], [1.0]]),
    (with_zero_component(worked_family()), [[0.0], [0.3], [1.0]]),
])
def test_family_values_match_freeze(rng, family, points):
    # the values are the order-0 Taylor coefficients; Horner through freeze
    # and the per-component Horner of the reference sum the same terms in
    # another order, so they agree to within 1e-14 (values are O(1))
    z = np.concatenate([[0.0], 0.9 * np.exp(2j * np.pi * rng.uniform(0, 1, 15))])
    values = family_values(family, z, points)
    for row, s in zip(values, points):
        assert same_bits(row, family_values(family, z, [s])[0])
    np.testing.assert_allclose(values, frozen_values(family, z, points), rtol=0, atol=1e-14)
    np.testing.assert_allclose(values, spoly_reference.values(components(family), z, points),
                               rtol=0, atol=1e-14)


def test_partial_s_examples():
    family = worked_family()
    d = partial_s(family, (1,))
    np.testing.assert_allclose(family_values(d, 0.5, [0.3])[0], [0.0, 1.0])
    same = partial_s(family, (0,))
    np.testing.assert_allclose(
        family_values(same, 0.5, [0.3])[0], family_values(family, 0.5, [0.3])[0]
    )
    sq = ParamFamily(ZSPoly([[SPoly([0.0]), SPoly([0.0, 0.0, 1.0])]]), [(0.0, 1.0)])
    dd = partial_s(sq, (2,))
    np.testing.assert_allclose(family_values(dd, 1.0, [0.5])[0], [2.0])


def test_partial_s_commutes_exactly():
    sixth = 1.0 / 6.0
    f = ZSPoly([[SPoly([[0.5, sixth], [sixth, 2.0]]), SPoly([[sixth, 1.0]])]])
    family = ParamFamily(stack(f, f), [(0.0, 1.0), (0.0, 1.0)])
    a = partial_s(partial_s(family, (1, 0)), (0, 1))
    b = partial_s(partial_s(family, (0, 1)), (1, 0))
    assert same_bits(a.poly.coeffs, b.poly.coeffs)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_product_evaluation_consistent(da, db, seed):
    rng = np.random.default_rng(seed)
    p = random_cpoly(rng, da)
    q = random_cpoly(rng, db)
    z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    lhs = (p * q).eval(z)
    rhs = p.eval(z) * q.eval(z)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def _taylor_by_partials(p, s0, order):
    """Reference: d^gamma p(s0) / gamma! from repeated formal partials, for
    every gamma with |gamma| <= order, of the z-degree 0 ZSPoly ``p``."""
    out = []
    for gamma in jets.multi_indices(p.dim, order):
        q = p
        for axis, g in enumerate(gamma):
            for _ in range(g):
                q = q.partial(axis)
        out.append(q.freeze(s0)[0].coeffs[0] / math.prod(math.factorial(g) for g in gamma))
    return np.array(out)


@given(st.integers(1, 2), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_taylor_coeffs_match_repeated_partials(dim, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(tuple(rng.integers(1, 10, dim)))  # degree <= 8
    order = int(rng.integers(0, 7))
    s0 = rng.uniform(-1.5, 1.5, dim)
    p = ZSPoly([[SPoly(coeffs)]])
    got = p.taylor_coeffs(s0, order, 1.0)[:, 0]
    expected = _taylor_by_partials(p, s0, order)
    # relative to the same coefficient of |p| at |s0|, which bounds |expected|
    # and stays meaningful where the terms cancel
    scale = _taylor_by_partials(ZSPoly([[SPoly(np.abs(coeffs))]]), np.abs(s0), order).real
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= 1e-12 * scale)


@given(st.integers(1, 2), st.booleans(), st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_taylor_coeffs_truncate_bit_for_bit(dim, complex_coeffs, seed):
    # CAlphaReport.restricted reads lower orders out of the top-order jet,
    # so the order-j jet must equal the order-k jet's entries at
    # multi_indices(dim, j) bit for bit.  Against the binomial Taylor shift
    # (a different summation) the jet agrees within 1e-14 of the same
    # coefficient of |p| at |s0|: each algorithm errs by at most about
    # 2 (deg_1 + deg_2) <= 32 unit roundoffs of that scale (Higham,
    # Accuracy and Stability of Numerical Algorithms, section 5.1)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(tuple(rng.integers(1, 10, dim)))
    if complex_coeffs:
        coeffs = coeffs + 1j * rng.standard_normal(coeffs.shape)
    top = int(rng.integers(0, 7))
    s0 = rng.uniform(-1.5, 1.5, dim)
    full = ZSPoly([[SPoly(coeffs)]]).taylor_coeffs(s0, top, 1.0)[:, 0]
    tensor = tensor_jets.taylor_shift(SPoly(coeffs), s0, (top,) * dim)
    scale = tensor_jets.taylor_shift(SPoly(np.abs(coeffs)), np.abs(s0), (top,) * dim)
    assert np.all(np.abs(full - tensor_jets.flat(tensor, dim, top))
                  <= 1e-14 * tensor_jets.flat(scale, dim, top))
    if max(coeffs.shape) <= 2:  # degree <= 1 in every axis: the same sums
        np.testing.assert_array_equal(full, tensor_jets.flat(tensor, dim, top))
    indices = jets.multi_indices(dim, top)
    for order in range(top + 1):
        low = ZSPoly([[SPoly(coeffs)]]).taylor_coeffs(s0, order, 1.0)[:, 0]
        cut = [indices.index(ix) for ix in jets.multi_indices(dim, order)]
        np.testing.assert_array_equal(low, full[cut])


@given(st.integers(1, 2), st.booleans(), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_taylor_coeffs_block_equals_points_bit_for_bit(dim, complex_coeffs, seed):
    # a block of points is one batched shift; each point keeps its bits
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(tuple(rng.integers(1, 10, dim)))
    if complex_coeffs:
        coeffs = coeffs + 1j * rng.standard_normal(coeffs.shape)
    order = int(rng.integers(0, 7))
    points = rng.uniform(-1.5, 1.5, (int(rng.integers(1, 9)), dim))
    p = ZSPoly([[SPoly(coeffs)]])
    block = p.taylor_coeffs(points, order, [1.0])
    assert block.shape == (len(jets.multi_indices(dim, order)), 1, len(points))
    for i, s0 in enumerate(points):
        assert same_bits(block[:, :, i], p.taylor_coeffs(s0, order, 1.0))


@given(st.integers(1, 2), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_zspoly_taylor_coeffs_block_equals_points_bit_for_bit(dim, seed):
    # components and z-coefficients of different table shapes (one complex)
    # are shifted as one zero-padded table; the points of a block read
    # shared z values or their own
    rng = np.random.default_rng(seed)
    comps = [[rng.standard_normal(tuple(rng.integers(1, 5, dim)))
              for _ in range(int(rng.integers(1, 8)))]
             for _ in range(int(rng.integers(1, 4)))]
    if rng.integers(0, 2):
        comps[0][0] = comps[0][0] + 1j * rng.standard_normal(comps[0][0].shape)
    p = ZSPoly([[SPoly(c) for c in tables] for tables in comps])
    order = int(rng.integers(0, 5))
    n, q = int(rng.integers(1, 7)), int(rng.integers(1, 6))
    points = rng.uniform(-1.0, 1.0, (n, dim))
    own = 0.9 * (rng.uniform(-1, 1, (n, q)) + 1j * rng.uniform(-1, 1, (n, q)))
    size = len(jets.multi_indices(dim, order))
    shared = p.taylor_coeffs(points, order, own[:1])
    mine = p.taylor_coeffs(points, order, own)
    single = p.taylor_coeffs(points, order, own[:, :1].reshape(n, 1))
    assert shared.shape == mine.shape == (size, len(comps), n, q)
    for i, s0 in enumerate(points):
        assert same_bits(shared[:, :, i], p.taylor_coeffs(s0, order, own[0]))
        assert same_bits(mine[:, :, i], p.taylor_coeffs(s0, order, own[i]))
        assert same_bits(single[:, :, i, 0], p.taylor_coeffs(s0, order, own[i, 0]))
    # each component gets the bits it gets alone, up to the sign of zero
    for m, comp in enumerate(components(ParamFamily(p, [(-1.0, 1.0)] * dim))):
        assert _same(mine[:, m], comp.taylor_coeffs(points, order, own)[:, 0])


@given(st.integers(1, 2), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_spoly_kernels_match_numpy(dim, seed):
    # the ZSPoly product, freeze, sgrid_table and the order-0 taylor_coeffs
    # on z-degree 0 data are numpy's convolution and polynomial evaluation
    # in s
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(tuple(rng.integers(1, 8, dim)))
    b = rng.standard_normal(tuple(rng.integers(1, 8, dim)))
    s = rng.uniform(-1.5, 1.5, dim)
    axes = [rng.uniform(-1.5, 1.5, 5) for _ in range(dim)]
    pa, pb = ZSPoly([[SPoly(a)]]), ZSPoly([[SPoly(b)]])
    if dim == 1:
        np.testing.assert_allclose((pa * pb).coeffs[0, 0], np.convolve(a, b),
                                   rtol=0, atol=1e-13 * np.convolve(abs(a), abs(b)).max())
        # a single-term factor (as in residual_certify's g_k * f_k) gives
        # np.convolve's bits
        assert np.array_equal((ZSPoly([[SPoly(a[:1])]]) * pb).coeffs[0, 0],
                              np.convolve(a[:1], b))
        assert pa.freeze(s)[0].coeffs[0] == npp.polyval(s[0], a)
        assert np.array_equal(pa.sgrid_table(axes)[0, ..., 0], npp.polyval(axes[0], a))
    else:
        assert pa.freeze(s)[0].coeffs[0] == npp.polyval2d(s[0], s[1], a)
        assert np.array_equal(pa.sgrid_table(axes)[0, ..., 0], npp.polygrid2d(*axes, a))
    points = rng.uniform(-1.5, 1.5, (int(rng.integers(1, 9)), dim))
    values = npp.polyval(points[:, 0], a) if dim == 1 else npp.polyval2d(*points.T, a)
    assert np.array_equal(pa.taylor_coeffs(points, 0, [1.0])[0, 0], values)
    assert pa.taylor_coeffs(points[0], 0, 1.0)[0, 0] == values[0]


def test_partial_matches_finite_differences():
    family = worked_family()
    deriv = partial_s(family, (1,))
    h = 1e-4
    z = 0.4 + 0.3j
    for s in (0.25, 0.5, 0.75):
        fd = (family_values(family, z, [s + h])[0]
              - family_values(family, z, [s - h])[0]) / (2 * h)
        an = family_values(deriv, z, [s])[0]
        np.testing.assert_allclose(fd, an, rtol=1e-6, atol=1e-9)


def test_spoly_grid_and_bounds():
    p = ZSPoly([[SPoly([1.0, -2.0, 0.5])]])
    xs = np.linspace(0, 1, 7)
    np.testing.assert_allclose(p.sgrid_table([xs])[0, :, 0],
                               [p.freeze([x])[0].coeffs[0] for x in xs])
    assert p.coeff_bounds([(0.0, 1.0)])[0] == pytest.approx([3.5])
    q = ZSPoly([[SPoly([[1.0, 2.0], [3.0, 4.0]]), SPoly([[0.5], [1.0]])]])
    assert q.freeze([0.5, 0.25])[0].coeffs == pytest.approx(
        [1 + 2 * 0.25 + 3 * 0.5 + 4 * 0.125, 0.5 + 1.0 * 0.5])
    assert q.coeff_bounds([(0.0, 1.0), (-2.0, 1.0)])[0] == pytest.approx(
        [1 + 2 * 2 + 3 + 4 * 2, 0.5 + 1.0])


def test_zspoly_product_against_pointwise():
    rng = np.random.default_rng(7)
    a = ZSPoly([[SPoly(rng.standard_normal(3)), SPoly(rng.standard_normal(2))]])
    b = ZSPoly([[SPoly(rng.standard_normal(2)), SPoly(rng.standard_normal(3))]])
    prod = a * b
    for s in ([0.2], [0.9]):
        for z in (0.5, -0.3 + 0.8j):
            expected = a.freeze(s)[0].eval(z) * b.freeze(s)[0].eval(z)
            assert prod.freeze(s)[0].eval(z) == pytest.approx(expected)


def test_sum_in_order_gives_a_column_the_bits_of_its_block():
    # np.sum groups 8 or more terms pairwise once they run along its inner
    # loop, as they do for one column alone; a component sum must not
    # depend on how many points share the block
    rng = np.random.default_rng(3)
    values = rng.standard_normal((12, 3, 1)) * 10.0 ** rng.integers(-8, 8, (12, 3, 1))
    for axis in (0, 1):
        block = np.moveaxis(values, 0, axis)
        column = np.moveaxis(values[:, :1], 0, axis)
        assert same_bits(sum_in_order(column, axis), sum_in_order(block, axis)[:1])
    assert not same_bits(values[:, :1].sum(axis=0), values.sum(axis=0)[:1])


def test_family_validation():
    with pytest.raises(DomainError):
        ParamFamily(ZSPoly([[SPoly([1.0])]]), [(0.0, 0.0)])
    with pytest.raises(ValueError):
        ParamFamily(ZSPoly([]), [(0.0, 1.0)])
    with pytest.raises(ValueError):
        ParamFamily(ZSPoly([[SPoly([[1.0]])]]), [(0.0, 1.0)])


# -- the dense table against one SPoly per z-power ----------------------------


def _ragged(rng, dim):
    """Per-z-power SPoly tables of random shapes: some z-powers are zero, in
    the middle and (trimmed away) at the end."""
    tables = [rng.standard_normal(tuple(rng.integers(1, 5, dim)))
              for _ in range(int(rng.integers(1, 7)))]
    for j in range(len(tables)):
        if rng.random() < 0.25:
            tables[j] = np.zeros(tuple(rng.integers(1, 3, dim)))
    if rng.random() < 0.3:
        tables.append(np.zeros((1,) * dim))
    return [SPoly(t) for t in tables]


def _packed(ref):
    """A reference polynomial packed into a dense table."""
    return ZSPoly([[SPoly(c.coeffs) for c in ref.coeffs]]).coeffs


def _same(a, b):
    """Bit for bit up to the sign of zero: zero padding adds +-0 terms."""
    return same_bits(np.asarray(a) + 0.0, np.asarray(b) + 0.0)


@given(st.integers(1, 2), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_zspoly_table_matches_the_per_power_reference(dim, seed):
    rng = np.random.default_rng(seed)
    a, b = _ragged(rng, dim), _ragged(rng, dim)
    pa, pb = ZSPoly([a]), ZSPoly([b])
    ra, rb = spoly_reference.to_ref(a), spoly_reference.to_ref(b)
    assert isinstance(pa.coeffs, np.ndarray) and pa.coeffs.shape[1] == len(ra.coeffs)
    g = random_cpoly(rng, 4)
    pg, rg = ZSPoly.from_cpolys([g], dim), spoly_reference.RefZSPoly.from_cpoly(g, dim)
    # residual_certify's products: complex s-constant factors times the
    # data, every component in one table
    products = ZSPoly.from_cpolys([g, g], dim) * stack(pa, pb)
    for got, want in zip(components(ParamFamily(products, [(0.0, 1.0)] * dim)),
                         (rg * ra, rg * rb)):
        assert same_bits(got.coeffs, _packed(want))
    # two factors that vary in s sum each coefficient in one run, not one
    # run per z-power of the left factor
    np.testing.assert_allclose((pa * pb).coeffs, _packed(ra * rb), rtol=1e-13, atol=1e-13)
    for axis in range(dim):
        assert _same(pa.partial(axis).coeffs, _packed(ra.partial(axis)))

    box = [tuple(sorted(rng.uniform(-1.5, 1.5, 2))) for _ in range(dim)]
    s = np.array([rng.uniform(lo, hi) for lo, hi in box])
    axes = [rng.uniform(-1.5, 1.5, int(rng.integers(2, 6))) for _ in range(dim)]
    z = 0.9 * np.exp(2j * np.pi * rng.uniform(0, 1, 6))
    points = np.array([[rng.uniform(lo, hi) for lo, hi in box] for _ in range(4)])
    for p, r in ((pa, ra), (pg * pa, rg * ra)):
        assert same_bits(p.freeze(s)[0].coeffs, r.freeze(s).coeffs)
        assert same_bits(p.sgrid_table(axes)[0], r.sgrid_table(axes))
        assert same_bits(p.coeff_bounds(box)[0], r.coeff_bounds(box))
        for order in (0, 2, 6):
            assert _same(p.taylor_coeffs(s, order, z)[:, 0], r.taylor_coeffs(s, order, z))
            assert _same(p.taylor_coeffs(points, order, z[None])[:, 0],
                         r.taylor_coeffs(points, order, z[None]))
    # the order-0 Taylor coefficients against the reference's Horner, which
    # sums the same terms in another order: within 1e-14 of the values' scale
    family = ParamFamily(stack(pa, pb), box)
    want = spoly_reference.values([a, b], z, points)
    np.testing.assert_allclose(family_values(family, z, points), want, rtol=0,
                               atol=1e-14 * max(1.0, float(np.abs(want).max())))


def test_zspoly_trims_trailing_zero_z_powers():
    # the z-count is the number of z-powers up to the last nonzero one, after
    # every operation; a table packs its SPoly values zero-padded; the
    # component axis is never trimmed
    p = ZSPoly([[SPoly([0.0, 1.0]), SPoly([3.0]), SPoly([0.0])]])
    assert p.coeffs.shape == (1, 2, 2) and not p.coeffs.flags.writeable
    assert p.partial(0).coeffs.shape == (1, 1, 1)
    q = ZSPoly([[SPoly([1.0]), SPoly([0.0, 0.0, 2.0])]])
    assert same_bits(q.coeffs, np.array([[[1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]]))
    assert same_bits(q.partial(0).coeffs, np.array([[[0.0, 0.0], [0.0, 4.0]]]))
    assert same_bits(ZSPoly(np.zeros((3, 2, 2))).coeffs, np.zeros((3, 1, 1)))
    ragged = ZSPoly([[SPoly([1.0])], [SPoly([0.0])], [SPoly([0.0]), SPoly([0.0, 2.0])]])
    assert same_bits(ragged.coeffs, np.array([[[1.0, 0.0], [0.0, 0.0]],
                                              [[0.0, 0.0], [0.0, 0.0]],
                                              [[0.0, 0.0], [0.0, 2.0]]]))
    assert ragged.partial(0).coeffs.shape == (3, 2, 1)
    # runs of consecutive components of one z-count; a zero component counts 1
    assert ragged.z_groups() == [(slice(0, 2), 1), (slice(2, 3), 2)]
    assert three_component_family().poly.z_groups() == [
        (slice(0, 1), 4), (slice(1, 2), 3), (slice(2, 3), 1)]
    with pytest.raises(ValueError):
        ZSPoly([[SPoly([1.0]), SPoly([[1.0]])]])
    with pytest.raises(ValueError):
        ZSPoly([])
    with pytest.raises(ValueError):
        ZSPoly([[SPoly([1.0])], []])


@pytest.mark.parametrize("counts", [(3, 1, 3), (2, 2, 5), (4, 4, 4), (1,)])
def test_eval_sgrid_gives_each_component_its_bits_alone(rng, counts):
    # one product per run of equal z-count, on the run's own z-powers: every
    # component has the bits and the shape of its own evaluation
    comps = [ZSPoly([[SPoly(rng.standard_normal(2)) for _ in range(n)]]) for n in counts]
    p = stack(*comps)
    axes = [np.linspace(-0.5, 1.0, 7)]
    z = hnorm.boundary_points(16)
    values = p.eval_sgrid(p.sgrid_table(axes)[:, 1:5], p.z_powers(z))
    assert values.shape == (len(counts), 4, 16)
    for value, comp in zip(values, comps):
        alone = comp.eval_sgrid(comp.sgrid_table(axes)[:, 1:5], comp.z_powers(z))
        assert same_bits(value, alone[0])
