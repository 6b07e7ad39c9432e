import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npp

from coronaglue import jets

# every jet order the configuration accepts (solver.order <= 6), in 1-D and 2-D
ORDERS = st.one_of(st.tuples(st.integers(0, 6)),
                   st.tuples(st.integers(0, 6), st.integers(0, 6)))


def test_mul_matches_polynomial_product():
    # (1 + 2x)(3 - x) truncated at order 2 = 3 + 5x - 2x^2
    a = np.array([1.0, 2.0, 0.0])
    b = np.array([3.0, -1.0, 0.0])
    np.testing.assert_allclose(jets.jet_mul(a, b, (2,)), [3.0, 5.0, -2.0])


def test_reciprocal_univariate():
    # 1/(1 - x) = 1 + x + x^2 + ...
    v = np.array([1.0, -1.0, 0.0, 0.0])
    np.testing.assert_allclose(jets.jet_reciprocal(v, (3,)), np.ones(4))


def test_exp_univariate():
    # exp(x) jet: 1/k!
    x = jets.jet_variable(0.0, 0, (5,))
    out = jets.jet_exp(x, (5,))
    np.testing.assert_allclose(out, [1 / math.factorial(k) for k in range(6)])


def test_exp_reciprocal_compose_against_closed_form():
    # h(x) = exp(-1/(1+x)); h'(x) = h(x)/(1+x)^2 at x = 0.3
    x0 = 0.3
    orders = (3,)
    v = jets.jet_variable(1.0 + x0, 0, orders)
    w = jets.jet_reciprocal(v, orders)
    h = jets.jet_exp(-w, orders)
    val = math.exp(-1.0 / (1.0 + x0))
    d1 = val / (1.0 + x0) ** 2
    assert jets.jet_extract(h, (0,)) == pytest.approx(val, rel=1e-13)
    assert jets.jet_extract(h, (1,)) == pytest.approx(d1, rel=1e-12)


def test_bivariate_product_and_extract():
    # f = (1 + x)(1 + 2y): d^2 f / dx dy = 2
    orders = (1, 1)
    fx = jets.jet_variable(1.0, 0, orders)
    fy = jets.jet_const(1.0, orders) + 2.0 * jets.jet_variable(0.0, 1, orders)
    f = jets.jet_mul(fx, fy, orders)
    assert jets.jet_extract(f, (1, 1)) == pytest.approx(2.0)
    assert jets.jet_extract(f, (0, 0)) == pytest.approx(1.0)


def test_bivariate_reciprocal_matches_finite_differences():
    orders = (2, 2)

    def func(x, y):
        return 1.0 / (2.0 + x + 0.5 * y + 0.25 * x * y)

    x0, y0 = 0.2, -0.1
    den = (jets.jet_const(2.0, orders)
           + jets.jet_variable(x0, 0, orders)
           + 0.5 * jets.jet_variable(y0, 1, orders)
           + 0.25 * jets.jet_mul(jets.jet_variable(x0, 0, orders),
                                 jets.jet_variable(y0, 1, orders), orders))
    rec = jets.jet_reciprocal(den, orders)
    h = 1e-5
    fd_xy = (func(x0 + h, y0 + h) - func(x0 + h, y0 - h)
             - func(x0 - h, y0 + h) + func(x0 - h, y0 - h)) / (4 * h * h)
    assert jets.jet_extract(rec, (1, 1)) == pytest.approx(fd_xy, rel=1e-5)
    fd_xx = (func(x0 + h, y0) - 2 * func(x0, y0) + func(x0 - h, y0)) / (h * h)
    assert jets.jet_extract(rec, (2, 0)) == pytest.approx(fd_xx, rel=1e-4)


def test_batch_axis_broadcasts():
    orders = (2,)
    batch = np.array([0.5, 1.0, 2.0])
    a = jets.jet_const(batch, orders, batch=(3,))
    a[1] = 1.0  # a(x) = c + x per batch entry
    inv = jets.jet_reciprocal(a, orders)
    np.testing.assert_allclose(inv[0], 1.0 / batch)
    np.testing.assert_allclose(inv[1], -1.0 / batch ** 2)
    np.testing.assert_allclose(inv[2], 1.0 / batch ** 3)


def test_complex_jets():
    orders = (2,)
    a = jets.jet_const(1.0 + 1.0j, orders, dtype=complex)
    a[1] = 1.0
    inv = jets.jet_reciprocal(a, orders)
    assert inv[0] == pytest.approx(1.0 / (1.0 + 1.0j))
    assert inv[1] == pytest.approx(-1.0 / (1.0 + 1.0j) ** 2)


def _random_jet(rng, orders, batch=()):
    return rng.uniform(-1.0, 1.0, jets.jet_shape(orders) + batch)


def _truncated_product(a, b, orders):
    """The product of two coefficient tables, cut to ``orders``: numpy's
    polymul in 1-D, an explicit double loop over both tables in 2-D."""
    out = np.zeros(jets.jet_shape(orders))
    if len(orders) == 1:
        full = npp.polymul(a, b)[: orders[0] + 1]
        out[: len(full)] = full
        return out
    for (i, j), x in np.ndenumerate(a):
        for (k, m), y in np.ndenumerate(b):
            if i + k <= orders[0] and j + m <= orders[1]:
                out[i + k, j + m] += x * y
    return out


@given(ORDERS, st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_mul_equals_truncated_product(orders, seed):
    rng = np.random.default_rng(seed)
    a, b = _random_jet(rng, orders), _random_jet(rng, orders)
    np.testing.assert_allclose(jets.jet_mul(a, b, orders),
                               _truncated_product(a, b, orders),
                               rtol=1e-13, atol=1e-13)


@given(ORDERS, st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_reciprocal_times_jet_is_unit(orders, seed):
    rng = np.random.default_rng(seed)
    a = 0.5 * _random_jet(rng, orders)
    a[(0,) * len(orders)] = rng.uniform(1.0, 2.0)
    unit = jets.jet_const(1.0, orders)
    np.testing.assert_allclose(jets.jet_mul(a, jets.jet_reciprocal(a, orders), orders),
                               unit, rtol=0, atol=1e-12)


@given(ORDERS)
@settings(max_examples=60, deadline=None)
def test_exp_of_linear_jet(orders):
    # exp(x) in 1-D and exp(x + 2y) in 2-D at the origin: the coefficient of
    # x^i y^j is 2^j / (i! j!)
    lin = sum((axis + 1.0) * jets.jet_variable(0.0, axis, orders)
              for axis in range(len(orders)))
    expected = np.zeros(jets.jet_shape(orders))
    for gamma in np.ndindex(*expected.shape):
        expected[gamma] = math.prod((axis + 1.0) ** g / math.factorial(g)
                                    for axis, g in enumerate(gamma))
    np.testing.assert_allclose(jets.jet_exp(lin, orders), expected, rtol=1e-14)


@given(ORDERS, st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_truncation_keeps_the_bits(orders, seed, batched):
    # a coefficient of an order-K jet must not depend on K: every lower
    # order computed on its own gives the same bits
    rng = np.random.default_rng(seed)
    batch = (3,) if batched else ()
    a, b = _random_jet(rng, orders, batch), _random_jet(rng, orders, batch)
    a[(0,) * len(orders)] += 3.0
    top = {
        "mul": jets.jet_mul(a, b, orders),
        "reciprocal": jets.jet_reciprocal(a, orders),
        "exp": jets.jet_exp(b, orders),
    }
    for lower in np.ndindex(*jets.jet_shape(orders)):
        cut = tuple(slice(0, k + 1) for k in lower)
        np.testing.assert_array_equal(jets.jet_mul(a[cut], b[cut], lower),
                                      top["mul"][cut])
        np.testing.assert_array_equal(jets.jet_reciprocal(a[cut], lower),
                                      top["reciprocal"][cut])
        np.testing.assert_array_equal(jets.jet_exp(b[cut], lower), top["exp"][cut])


def test_multi_indices_lexicographic():
    assert jets.multi_indices(1, 2) == [(0,), (1,), (2,)]
    assert jets.multi_indices(2, 2) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
