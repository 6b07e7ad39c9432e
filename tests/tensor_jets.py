"""Reference kernels on tensor jets, kept only to test the total-order ones.

A tensor jet has one axis per variable, axis i running over exponents
0..orders[i], and trailing batch axes.  Every coefficient gamma is the sum of
the pairs (beta, gamma - beta) with beta <= gamma, added one at a time in
lexicographic order of beta, as :mod:`coronaglue.jets` adds them; so a
total-order jet must equal the tensor jet at each of its multi-indices bit
for bit.
"""

import functools
import math

import numpy as np

from coronaglue import jets


def shape(orders):
    return tuple(int(o) + 1 for o in orders)


def flat(tensor, dim, order):
    """The entries of a tensor jet at ``jets.multi_indices(dim, order)``."""
    return np.stack([tensor[ix] for ix in jets.multi_indices(dim, order)])


@functools.lru_cache(maxsize=None)
def _pairs(orders):
    return tuple(
        (gamma, tuple((beta, tuple(g - b for g, b in zip(gamma, beta)))
                      for beta in np.ndindex(*(g + 1 for g in gamma))))
        for gamma in np.ndindex(*shape(orders)))


def mul(a, b, orders):
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for gamma, pairs in _pairs(tuple(orders)):
        for beta, rest in pairs:
            out[gamma] += a[beta] * b[rest]
    return out


def reciprocal(a, orders):
    table = _pairs(tuple(orders))
    out = np.zeros_like(a)
    zero = table[0][0]
    inv0 = 1.0 / a[zero]
    out[zero] = inv0
    for gamma, pairs in table[1:]:
        acc = 0.0
        for beta, rest in pairs[1:]:
            acc = acc + a[beta] * out[rest]
        out[gamma] = -inv0 * acc
    return out


def exp(a, orders):
    table = _pairs(tuple(orders))
    out = np.zeros_like(a)
    zero = table[0][0]
    out[zero] = np.exp(a[zero])
    for gamma, pairs in table[1:]:
        axis = next(i for i, g in enumerate(gamma) if g)
        acc = 0.0
        for beta, rest in pairs:
            if beta[axis]:
                acc = acc + beta[axis] * a[beta] * out[rest]
        out[gamma] = acc / gamma[axis]
    return out


def taylor_shift(spoly, s0, orders):
    """Taylor coefficients of an SPoly about ``s0`` as a tensor jet: a shift
    along each axis in turn, the coefficient of h^k in p(x + h) being
    sum_j C(j, k) x^(j-k) c_j, added in increasing j."""
    out = spoly.coeffs
    for axis, (x, order) in enumerate(zip(np.atleast_1d(s0), orders)):
        j, k = np.meshgrid(np.arange(out.shape[axis]), np.arange(order + 1))
        binom = np.vectorize(math.comb)(j, k).astype(float)
        power = np.maximum(j - k, 0).astype(float)
        terms = map(np.multiply.outer, (binom * float(x) ** power).T,
                    np.moveaxis(out, axis, 0))
        out = np.moveaxis(functools.reduce(np.add, terms), 0, axis)
    return out
