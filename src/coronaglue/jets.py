"""Truncated Taylor-coefficient (jet) arithmetic in any number of variables.

A jet of ``dim`` variables at order ``order`` is truncated at total order: a
numpy array whose leading axis runs over :func:`multi_indices` (dim, order),
the multi-indices gamma with |gamma| <= order in lexicographic order, and
whose trailing axes are a broadcast batch (disc points, cover centers or
blocks of parameter points).
Entry gamma holds d^gamma f / gamma!, the monomial coefficient.  A C^k norm
reads exactly the derivatives with |alpha| <= k, so none is computed that a
report drops.  No finite differencing is involved.

Every kernel walks one cached table per (dim, order) (:func:`_layout`): for
each gamma in layout order, the positions of the pairs (beta, gamma - beta)
with beta <= gamma, in lexicographic order of beta.  The terms of each
coefficient are added one at a time in exactly that order, never by a
reduction whose grouping depends on the array size.  Since the pairs of
gamma do not depend on the truncation, a coefficient has the same bits at
every order >= |gamma|, given input jets that obey the same rule (as
ZSPoly.taylor_coeffs does); so the C^k report,
:func:`coronaglue.smoothness.cnorm_report`, reads every lower order off one
top-order pass, and d^alpha comes from a jet of order |alpha|.
"""

from __future__ import annotations

import functools
import math

import numpy as np


@functools.lru_cache(maxsize=None)
def _layout(dim, order):
    """(indices, position, pairs): the multi-indices of the layout, the
    position of each, and for each gamma the positions (beta, gamma - beta)
    for beta <= gamma, lexicographic in beta, so (0, gamma) comes first."""
    indices = tuple(ix for ix in np.ndindex(*(order + 1,) * dim) if sum(ix) <= order)
    position = {ix: p for p, ix in enumerate(indices)}
    pairs = tuple(
        tuple((position[beta], position[tuple(g - b for g, b in zip(gamma, beta))])
              for beta in np.ndindex(*(g + 1 for g in gamma)))
        for gamma in indices
    )
    return indices, position, pairs


def multi_indices(dim, max_order):
    """Every multi-index of ``dim`` entries with total order <= ``max_order``,
    in lexicographic order: the layout of a jet's leading axis."""
    return list(_layout(dim, max_order)[0])


def jet_const(value, dim, order, batch=(), dtype=None):
    value = np.asarray(value)
    if dtype is None:
        dtype = value.dtype if value.dtype.kind in "fc" else float
    out = np.zeros((len(_layout(dim, order)[0]),) + tuple(batch), dtype=dtype)
    out[0] = value
    return out


def position(alpha, order):
    """The entry of the multi-index ``alpha`` in a jet of total order
    ``order``."""
    return _layout(len(alpha), order)[1][tuple(int(a) for a in alpha)]


def jet_mul(a, b, dim, order):
    """Truncated product."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for gamma, pairs in enumerate(_layout(dim, order)[2]):
        for beta, rest in pairs:
            out[gamma] += a[beta] * b[rest]
    return out


def jet_reciprocal(a, dim, order):
    """Jet of 1/f given the jet of f; requires a nonzero constant term."""
    table = _layout(dim, order)[2]
    out = np.zeros_like(a)
    inv0 = 1.0 / a[0]
    out[0] = inv0
    for gamma in range(1, len(table)):
        acc = 0.0
        for beta, rest in table[gamma][1:]:
            acc = acc + a[beta] * out[rest]
        out[gamma] = -inv0 * acc
    return out


def jet_exp(a, dim, order):
    """Jet of exp(f) given the jet of f, via the graded convolution
    recurrence gamma_j * E_gamma = sum beta_j * f_beta * E_{gamma-beta},
    with j the first axis where gamma is nonzero."""
    indices, _, table = _layout(dim, order)
    out = np.zeros_like(a)
    out[0] = np.exp(a[0])
    for gamma in range(1, len(table)):
        axis = next(i for i, g in enumerate(indices[gamma]) if g)
        acc = 0.0
        for beta, rest in table[gamma]:
            if indices[beta][axis]:
                acc = acc + indices[beta][axis] * a[beta] * out[rest]
        out[gamma] = acc / indices[gamma][axis]
    return out


def jet_derivatives(jet, dim, order):
    """Every partial derivative d^gamma f, in layout order: each coefficient
    times gamma!."""
    scale = [math.prod(map(math.factorial, ix)) for ix in _layout(dim, order)[0]]
    return jet * np.reshape(scale, (-1,) + (1,) * (jet.ndim - 1))


def jet_extract(jet, alpha, order):
    """The partial derivative d^alpha f from a jet of the given order."""
    return jet_derivatives(jet, len(alpha), order)[position(alpha, order)]
