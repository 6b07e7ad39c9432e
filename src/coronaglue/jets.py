"""Truncated Taylor-coefficient (jet) arithmetic in any number of variables.

A jet is a plain numpy array whose leading ``len(orders)`` axes index Taylor
coefficients (axis i runs over exponents 0..orders[i]); any trailing axes are
a broadcast batch, so one pass can carry coefficients for a whole array of
disc points or cover centers.  Entry gamma holds d^gamma f / gamma!, i.e. the
monomial coefficient, not the raw derivative.

Products, reciprocals and exponentials are exact for the truncation order up
to floating-point rounding; no finite differencing is involved.

Every kernel walks one cached table per ``orders`` (:func:`_pairs`): for each
coefficient gamma in row-major order, the pairs (beta, gamma - beta) with
beta <= gamma in lexicographic order of beta.  The terms of each coefficient
are added one at a time in exactly that order, never by a reduction whose
grouping depends on the array size.  Since the pairs of gamma do not depend
on the truncation, a coefficient of an order-K jet has the same bits as at any
lower order, given input jets that obey the same rule (as SPoly.taylor_coeffs
does); this lets :meth:`coronaglue.smoothness.CAlphaReport.restricted` read the
lower-order reports off one top-order pass.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def jet_shape(orders):
    return tuple(int(o) + 1 for o in orders)


def multi_indices(dim, max_order):
    """Every multi-index of ``dim`` entries with total order <= ``max_order``,
    in lexicographic order."""
    return [ix for ix in np.ndindex(*(max_order + 1,) * dim)
            if sum(ix) <= max_order]


@functools.lru_cache(maxsize=None)
def _pairs(orders):
    """For each coefficient gamma in row-major order: (gamma, pairs), where
    pairs lists (beta, gamma - beta) for beta <= gamma, lexicographic in
    beta, so (0, gamma) comes first."""
    table = []
    for gamma in np.ndindex(*jet_shape(orders)):
        pairs = tuple(
            (beta, tuple(g - b for g, b in zip(gamma, beta)))
            for beta in np.ndindex(*(g + 1 for g in gamma))
        )
        table.append((gamma, pairs))
    return tuple(table)


def jet_const(value, orders, batch=(), dtype=None):
    value = np.asarray(value)
    if dtype is None:
        dtype = value.dtype if value.dtype.kind in "fc" else float
    out = np.zeros(jet_shape(orders) + tuple(batch), dtype=dtype)
    out[(0,) * len(orders)] = value
    return out


def jet_variable(value, axis, orders, batch=(), dtype=float):
    """Jet of the coordinate function s_axis at the point ``value``."""
    out = jet_const(value, orders, batch, dtype)
    if orders[axis] >= 1:
        index = [0] * len(orders)
        index[axis] = 1
        out[tuple(index)] = 1.0
    return out


def jet_mul(a, b, orders):
    """Truncated product; truncation keeps exponents within ``orders``."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for gamma, pairs in _pairs(tuple(orders)):
        for beta, rest in pairs:
            out[gamma] += a[beta] * b[rest]
    return out


def jet_reciprocal(a, orders):
    """Jet of 1/f given the jet of f; requires a nonzero constant term."""
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


def jet_exp(a, orders):
    """Jet of exp(f) given the jet of f, via the graded convolution
    recurrence gamma_j * E_gamma = sum beta_j * f_beta * E_{gamma-beta},
    with j the first axis where gamma is nonzero."""
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


def jet_extract(jet, alpha):
    """The partial derivative d^alpha f from a jet (coefficient times alpha!)."""
    alpha = tuple(int(x) for x in alpha)
    return jet[alpha] * float(math.prod(math.factorial(a) for a in alpha))
