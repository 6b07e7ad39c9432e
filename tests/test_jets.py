import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npp

import tensor_jets
from coronaglue import jets

# every jet order verify accepts (--alpha <= 6), in 1-D and 2-D
DIM_ORDER = st.tuples(st.integers(1, 2), st.integers(0, 6))


def jet_variable(value, axis, dim, order):
    """Jet of the coordinate function s_axis at the point ``value``."""
    out = jets.jet_const(value, dim, order, dtype=float)
    if order >= 1:
        out[jets.position([int(i == axis) for i in range(dim)], order)] = 1.0
    return out


def test_mul_matches_polynomial_product():
    # (1 + 2x)(3 - x) truncated at order 2 = 3 + 5x - 2x^2
    a = np.array([1.0, 2.0, 0.0])
    b = np.array([3.0, -1.0, 0.0])
    np.testing.assert_allclose(jets.jet_mul(a, b, 1, 2), [3.0, 5.0, -2.0])


def test_reciprocal_univariate():
    # 1/(1 - x) = 1 + x + x^2 + ...
    v = np.array([1.0, -1.0, 0.0, 0.0])
    np.testing.assert_allclose(jets.jet_reciprocal(v, 1, 3), np.ones(4))


def test_exp_univariate():
    # exp(x) jet: 1/k!
    x = jet_variable(0.0, 0, 1, 5)
    out = jets.jet_exp(x, 1, 5)
    np.testing.assert_allclose(out, [1 / math.factorial(k) for k in range(6)])


def test_exp_reciprocal_compose_against_closed_form():
    # h(x) = exp(-1/(1+x)); h'(x) = h(x)/(1+x)^2 at x = 0.3
    x0 = 0.3
    v = jet_variable(1.0 + x0, 0, 1, 3)
    w = jets.jet_reciprocal(v, 1, 3)
    h = jets.jet_exp(-w, 1, 3)
    val = math.exp(-1.0 / (1.0 + x0))
    d1 = val / (1.0 + x0) ** 2
    assert jets.jet_extract(h, (0,), 3) == pytest.approx(val, rel=1e-13)
    assert jets.jet_extract(h, (1,), 3) == pytest.approx(d1, rel=1e-12)


def test_bivariate_product_and_extract():
    # f = (1 + x)(1 + 2y): d^2 f / dx dy = 2
    fx = jet_variable(1.0, 0, 2, 2)
    fy = jets.jet_const(1.0, 2, 2) + 2.0 * jet_variable(0.0, 1, 2, 2)
    f = jets.jet_mul(fx, fy, 2, 2)
    assert jets.jet_extract(f, (1, 1), 2) == pytest.approx(2.0)
    assert jets.jet_extract(f, (0, 0), 2) == pytest.approx(1.0)


def test_bivariate_reciprocal_matches_finite_differences():
    def func(x, y):
        return 1.0 / (2.0 + x + 0.5 * y + 0.25 * x * y)

    x0, y0 = 0.2, -0.1
    den = (jets.jet_const(2.0, 2, 2)
           + jet_variable(x0, 0, 2, 2)
           + 0.5 * jet_variable(y0, 1, 2, 2)
           + 0.25 * jets.jet_mul(jet_variable(x0, 0, 2, 2),
                                 jet_variable(y0, 1, 2, 2), 2, 2))
    rec = jets.jet_reciprocal(den, 2, 2)
    h = 1e-5
    fd_xy = (func(x0 + h, y0 + h) - func(x0 + h, y0 - h)
             - func(x0 - h, y0 + h) + func(x0 - h, y0 - h)) / (4 * h * h)
    assert jets.jet_extract(rec, (1, 1), 2) == pytest.approx(fd_xy, rel=1e-5)
    fd_xx = (func(x0 + h, y0) - 2 * func(x0, y0) + func(x0 - h, y0)) / (h * h)
    assert jets.jet_extract(rec, (2, 0), 2) == pytest.approx(fd_xx, rel=1e-4)


def test_batch_axis_broadcasts():
    batch = np.array([0.5, 1.0, 2.0])
    a = jets.jet_const(batch, 1, 2, batch=(3,))
    a[1] = 1.0  # a(x) = c + x per batch entry
    inv = jets.jet_reciprocal(a, 1, 2)
    np.testing.assert_allclose(inv[0], 1.0 / batch)
    np.testing.assert_allclose(inv[1], -1.0 / batch ** 2)
    np.testing.assert_allclose(inv[2], 1.0 / batch ** 3)


def test_complex_jets():
    a = jets.jet_const(1.0 + 1.0j, 1, 2, dtype=complex)
    a[1] = 1.0
    inv = jets.jet_reciprocal(a, 1, 2)
    assert inv[0] == pytest.approx(1.0 / (1.0 + 1.0j))
    assert inv[1] == pytest.approx(-1.0 / (1.0 + 1.0j) ** 2)


def _random_jet(rng, dim, order, batch=(), complex_=False):
    size = (len(jets.multi_indices(dim, order)),) + batch
    out = rng.uniform(-1.0, 1.0, size)
    return out + 1j * rng.uniform(-1.0, 1.0, size) if complex_ else out


def _tensor(jet, dim, order):
    """A total-order jet as an (order + 1)^dim table, zero past the order."""
    out = np.zeros(tensor_jets.shape((order,) * dim) + jet.shape[1:], dtype=jet.dtype)
    for ix, c in zip(jets.multi_indices(dim, order), jet):
        out[ix] = c
    return out


def _truncated_product(a, b, dim, order):
    """The product of two coefficient tables, cut at total order ``order``:
    numpy's polymul in 1-D, an explicit double loop over both tables in 2-D."""
    if dim == 1:
        out = np.zeros(order + 1)
        full = npp.polymul(a, b)[: order + 1]
        out[: len(full)] = full
        return out
    out = np.zeros(tensor_jets.shape((order, order)))
    for (i, j), x in np.ndenumerate(_tensor(a, dim, order)):
        for (k, m), y in np.ndenumerate(_tensor(b, dim, order)):
            if i + k + j + m <= order:
                out[i + k, j + m] += x * y
    return tensor_jets.flat(out, dim, order)


@given(DIM_ORDER, st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_mul_equals_truncated_product(dim_order, seed):
    dim, order = dim_order
    rng = np.random.default_rng(seed)
    a, b = _random_jet(rng, dim, order), _random_jet(rng, dim, order)
    np.testing.assert_allclose(jets.jet_mul(a, b, dim, order),
                               _truncated_product(a, b, dim, order),
                               rtol=1e-13, atol=1e-13)


@given(DIM_ORDER, st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_reciprocal_times_jet_is_unit(dim_order, seed):
    dim, order = dim_order
    rng = np.random.default_rng(seed)
    a = 0.5 * _random_jet(rng, dim, order)
    a[0] = rng.uniform(1.0, 2.0)
    unit = jets.jet_const(1.0, dim, order)
    np.testing.assert_allclose(
        jets.jet_mul(a, jets.jet_reciprocal(a, dim, order), dim, order),
        unit, rtol=0, atol=1e-12)


@given(DIM_ORDER)
@settings(max_examples=60, deadline=None)
def test_exp_of_linear_jet(dim_order):
    # exp(x) in 1-D and exp(x + 2y) in 2-D at the origin: the coefficient of
    # x^i y^j is 2^j / (i! j!)
    dim, order = dim_order
    lin = sum((axis + 1.0) * jet_variable(0.0, axis, dim, order)
              for axis in range(dim))
    expected = [math.prod((axis + 1.0) ** g / math.factorial(g)
                          for axis, g in enumerate(gamma))
                for gamma in jets.multi_indices(dim, order)]
    np.testing.assert_allclose(jets.jet_exp(lin, dim, order), expected, rtol=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("order", range(7))
@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("complex_", [False, True])
def test_kernels_equal_tensor_kernels_bit_for_bit(dim, order, batched, complex_):
    # the total-order kernels add the same pairs in the same order as the
    # tensor kernels, so each kept coefficient has the tensor one's bits
    rng = np.random.default_rng(10 * order + dim)
    batch = (3,) if batched else ()
    a = _random_jet(rng, dim, order, batch, complex_)
    b = _random_jet(rng, dim, order, batch, complex_)
    a[0] += 3.0
    orders = (order,) * dim
    ta, tb = _tensor(a, dim, order), _tensor(b, dim, order)
    for got, reference in [
        (jets.jet_mul(a, b, dim, order), tensor_jets.mul(ta, tb, orders)),
        (jets.jet_reciprocal(a, dim, order), tensor_jets.reciprocal(ta, orders)),
        (jets.jet_exp(b, dim, order), tensor_jets.exp(tb, orders)),
    ]:
        np.testing.assert_array_equal(got, tensor_jets.flat(reference, dim, order))


@given(DIM_ORDER, st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_truncation_keeps_the_bits(dim_order, seed, batched):
    # a coefficient must not depend on the truncation: the order-j jet equals
    # the order-k jet's entries at multi_indices(dim, j)
    dim, order = dim_order
    rng = np.random.default_rng(seed)
    batch = (3,) if batched else ()
    a, b = _random_jet(rng, dim, order, batch), _random_jet(rng, dim, order, batch)
    a[0] += 3.0
    top = {
        "mul": jets.jet_mul(a, b, dim, order),
        "reciprocal": jets.jet_reciprocal(a, dim, order),
        "exp": jets.jet_exp(b, dim, order),
    }
    indices = jets.multi_indices(dim, order)
    for lower in range(order + 1):
        cut = [indices.index(ix) for ix in jets.multi_indices(dim, lower)]
        np.testing.assert_array_equal(jets.jet_mul(a[cut], b[cut], dim, lower),
                                      top["mul"][cut])
        np.testing.assert_array_equal(jets.jet_reciprocal(a[cut], dim, lower),
                                      top["reciprocal"][cut])
        np.testing.assert_array_equal(jets.jet_exp(b[cut], dim, lower),
                                      top["exp"][cut])


def test_multi_indices_lexicographic():
    assert jets.multi_indices(1, 2) == [(0,), (1,), (2,)]
    assert jets.multi_indices(2, 2) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
