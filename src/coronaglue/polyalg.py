"""Dense polynomial arithmetic in the disc variable z and the parameter s.

Three layers:

* ``CPoly`` -- a complex polynomial in z, used for frozen-parameter data and
  for the pointwise Bezout solutions.
* ``SPoly`` -- a real (or complex) polynomial in the parameter
  s = (s_1, ..., s_d), d in {1, 2}, dense exponent-indexed coefficients: one
  z-coefficient of the data as a config writes it, validated and trimmed.
* ``ZSPoly``/``ParamFamily`` -- polynomials in (z, s), i.e. the
  parameter-dependent data tuple f(z, s) on a box K.  The whole tuple is one
  ZSPoly: one dense coefficient table, component first, then z-power, then
  s-exponent, and every operation (product, partial derivative, evaluation,
  coefficient bounds, Taylor shift) runs on all components at once; a sum
  over z-powers runs once per run of components of equal z-count
  (``ZSPoly.z_groups``), so the padding of a short component costs nothing.
  One kernel substitutes s, once per axis: :func:`_taylor_shift`, Horner at
  order 0, for freezes, s-grid tables, coefficient bounds and jets alike.
  The jets come from ``ZSPoly.taylor_coeffs``, which takes its points as an
  (n, d) block only, with z of shape (1, q) or (n, q).

Everything is immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import functools

import numpy as np

from . import jets
from .errors import DomainError

_BOX_EPS = 1e-12


def _trim1d(arr):
    """Strip trailing zero coefficients; canonical zero is length 1."""
    n = len(arr)
    while n > 1 and arr[n - 1] == 0:
        n -= 1
    return arr[:n]


class CPoly:
    """Complex polynomial in z; ``coeffs[j]`` multiplies z**j.

    Canonical form: the stored leading coefficient is nonzero, except for the
    zero polynomial which is stored as the single coefficient 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if arr.ndim != 1 or not arr.size:
            raise ValueError("CPoly coefficients must be a nonempty 1-D array")
        arr = _trim1d(arr).copy()
        arr.setflags(write=False)
        self.coeffs = arr

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "CPoly":
        return CPoly([0.0])

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports 0."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        out = np.zeros(n, dtype=complex)
        out[: len(self.coeffs)] += self.coeffs
        out[: len(other.coeffs)] += other.coeffs
        return CPoly(out)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return CPoly.zero()
        return CPoly(np.convolve(self.coeffs, other.coeffs))

    def __eq__(self, other):
        if not isinstance(other, CPoly):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.all(self.coeffs == other.coeffs)
        )

    def __repr__(self):
        return f"CPoly({list(self.coeffs)})"

    def eval(self, z):
        """Evaluate by nested multiplication; ``z`` may be a scalar or array."""
        z = np.asarray(z, dtype=complex)
        acc = np.full(z.shape, self.coeffs[-1], dtype=complex)
        for c in self.coeffs[-2::-1]:
            acc = acc * z + c
        if acc.ndim == 0:
            return complex(acc)
        return acc


# ---------------------------------------------------------------------------
# Parameter polynomials


def _trim_ndarray(arr, first=0):
    """Strip trailing zero slices along every axis from ``first`` on (keep
    shape >= (1,)*d there)."""
    nonzero = arr != 0
    keep = [slice(None)] * first
    for axis in range(first, arr.ndim):
        used = np.flatnonzero(nonzero.any(axis=tuple(i for i in range(arr.ndim) if i != axis)))
        keep.append(slice(0, used[-1] + 1 if used.size else 1))
    return arr[tuple(keep)]


def _padded(arrays):
    """The arrays, zero-padded to a common shape, stacked on a new leading
    axis."""
    out = np.zeros((len(arrays), *np.max([a.shape for a in arrays], axis=0)),
                   dtype=np.result_type(*arrays))
    for row, a in zip(out, arrays):
        row[tuple(slice(0, n) for n in a.shape)] = a
    return out


def sum_in_order(values, axis=0):
    """The sum over ``axis``, one slice after another in order.  ``np.sum``
    groups the terms pairwise once 8 or more of them run along its inner
    loop, so its bits would depend on the shape of the other axes."""
    return functools.reduce(np.add, values if axis == 0 else np.moveaxis(values, axis, 0))


class SPoly:
    """Polynomial in the parameter s, dense coefficients indexed by exponent.

    ``coeffs`` has one axis per parameter variable (d = ndim <= 2);
    ``coeffs[e1]`` or ``coeffs[e1, e2]`` multiplies ``s1**e1 * s2**e2``.
    An SPoly is one z-coefficient as data are written down: ``ZSPoly`` packs
    lists of them into its table and computes there.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, dim=None):
        arr = np.asarray(coeffs)
        if arr.ndim == 0:
            arr = arr.reshape((1,) * (dim or 1))
        if dim is not None and arr.ndim != dim:
            raise ValueError(f"expected {dim} parameter axes, got {arr.ndim}")
        if arr.ndim not in (1, 2):
            raise ValueError("parameter dimension must be 1 or 2")
        dtype = complex if np.iscomplexobj(arr) else float
        arr = _trim_ndarray(arr.astype(dtype)).copy()
        arr.setflags(write=False)
        self.coeffs = arr

    @property
    def dim(self) -> int:
        return self.coeffs.ndim

    def partial(self, axis: int) -> "SPoly":
        """Formal partial derivative along one parameter axis."""
        return SPoly(_derivative(self.coeffs, axis))


def _pack(components):
    """One zero-padded table from lists of ``SPoly`` z-coefficients, one
    list per component."""
    components = [list(c) for c in components]
    if not (components and all(components)
            and len({c.dim for comp in components for c in comp}) == 1):
        raise ValueError("every component needs z-coefficients of one parameter dimension")
    return _padded([_padded([c.coeffs for c in comp]) for comp in components])


def _taylor_shift(c, x, order):
    """The Taylor coefficients of orders 0..order about ``x``, on a new
    leading axis, of the polynomials whose coefficients run along the leading
    axis of ``c`` (``x`` broadcasts against the others): synthetic division
    by (t - x), repeated in place in one copy of the table (von zur Gathen
    and Gerhard, ISSAC 1997), each pass leaving its value at the bottom.
    Order 0 is Horner's accumulator alone, started as numpy's polyval starts
    (c[-1] + x * 0), so it has polyval's bits, and no order depends on the
    orders above it.  Coefficients above the degree are 0."""
    top = c[-1] + x * 0
    if not order:
        for a in c[-2::-1]:
            top *= x
            top += a
        return top[None]
    work = np.zeros((max(len(c), order + 1),) + top.shape, top.dtype)
    work[:len(c) - 1], work[len(c) - 1] = c[:-1], top
    for k in range(min(order + 1, len(c))):
        for j in range(len(c) - 2, k - 1, -1):
            work[j] += work[j + 1] * x
    return work[:order + 1]


def _derivative(table, axis):
    """The formal derivative along one axis, with numpy's polyder bits."""
    c = np.moveaxis(table, axis, 0)
    n = np.arange(1, len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
    return np.moveaxis(c[1:] * n if len(c) > 1 else c[:1] * 0, 0, axis)


@functools.lru_cache(maxsize=None)
def _jet_entries(dim, order):
    """Index arrays picking the jet layout out of an (order + 1)^dim table."""
    return tuple(np.array(jets.multi_indices(dim, order)).T)


class ZSPoly:
    """N polynomials in z and the parameter s, held as one dense table:
    ``coeffs[m, j]`` is the coefficient array of z**j in component m,
    indexed by s-exponent as in ``SPoly``; shape ``(N, n_z) + s_shape``.
    The data tuple f is one ZSPoly, a residual one with N = 1.

    Built from lists of ``SPoly`` z-coefficients (:func:`_pack`) or from
    such a table.  Canonical form: trailing all-zero slices are trimmed
    along z and s, never along the component axis, so a zero component
    stays."""

    __slots__ = ("coeffs", "_groups")

    def __init__(self, coeffs):
        table = coeffs if isinstance(coeffs, np.ndarray) else _pack(coeffs)
        if table.ndim not in (3, 4):
            raise ValueError("parameter dimension must be 1 or 2")
        dtype = complex if np.iscomplexobj(table) else float
        table = _trim_ndarray(table.astype(dtype, copy=False), first=1).copy()
        table.setflags(write=False)
        self.coeffs = table
        self._groups = None

    @staticmethod
    def from_cpolys(polys, dim: int) -> "ZSPoly":
        """The polynomials ``polys`` in z as components constant in s."""
        table = _padded([p.coeffs for p in polys])
        return ZSPoly(table.reshape(table.shape + (1,) * dim))

    @property
    def dim(self) -> int:
        return self.coeffs.ndim - 2

    def z_groups(self):
        """(slice, n) per run of consecutive components with the same
        z-count n, their z-powers up to the last nonzero one (at least 1).
        A sum over z-powers runs per run on its n powers, so every
        component costs and rounds as it does alone."""
        if self._groups is None:
            used = np.any(self.coeffs != 0, axis=tuple(range(2, self.coeffs.ndim)))
            counts = np.maximum(used * np.arange(1, used.shape[1] + 1), 1).max(axis=1)
            starts = np.flatnonzero(np.diff(counts, prepend=0)).tolist()
            self._groups = [(slice(a, b), int(counts[a]))
                            for a, b in zip(starts, starts[1:] + [len(counts)])]
        return self._groups

    def __mul__(self, other: "ZSPoly"):
        """The componentwise product, one convolution over z and s: every
        exponent e nonzero in some component of this factor adds
        a[:, e] * (the other table) at offset e, in C order of e.  So each
        output coefficient sums its terms from 0 in increasing z-power of
        this factor, as a product z-coefficient by z-coefficient does when
        this factor is constant in s."""
        a, b = self.coeffs, other.coeffs
        out = np.zeros((len(a),) + tuple(m + n - 1 for m, n in zip(a.shape[1:], b.shape[1:])),
                       dtype=np.result_type(a, b))
        lift = (slice(None),) + (None,) * (b.ndim - 1)
        for e in zip(*np.nonzero(a.any(axis=0))):
            out[(slice(None),) + tuple(slice(i, i + n) for i, n in zip(e, b.shape[1:]))] += \
                a[(slice(None),) + e][lift] * b
        return ZSPoly(out)

    def partial(self, axis: int) -> "ZSPoly":
        """Formal partial derivative along one parameter axis."""
        return ZSPoly(_derivative(self.coeffs, axis + 2))

    def _s_leading(self):
        """The table with its component and z axes last, so that a Taylor
        shift in s runs along the leading axes."""
        return self.coeffs.transpose(tuple(range(2, self.coeffs.ndim)) + (0, 1))

    def freeze(self, s) -> tuple:
        """Substitute the parameter, leaving one plain polynomial in z per
        component."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if s.shape != (self.dim,):
            raise ValueError(f"point has {len(s)} coordinates, expected {self.dim}")
        table = self._s_leading()
        for x in s:
            table = _taylor_shift(table, x, 0)[0]
        return tuple(map(CPoly, table))

    def sgrid_table(self, axes):
        """The z-coefficients on the tensor s-grid spanned by ``axes``: an
        array of shape ``(N,) + s_grid_shape + (n_z,)``.  Each axis's samples
        go on a new trailing axis, as in numpy's polygrid2d."""
        if len(axes) != self.dim:
            raise ValueError("one sample array per parameter axis required")
        table = self._s_leading()
        for x in axes:
            table = _taylor_shift(table[..., None], np.asarray(x, dtype=float), 0)[0]
        return np.ascontiguousarray(np.moveaxis(table, 1, -1), dtype=complex)

    def z_powers(self, z):
        """z^j for every z-power j of the table: an array of shape
        ``(n_z,) + z.shape``."""
        z = np.asarray(z, dtype=complex)
        return z ** np.arange(self.coeffs.shape[1]).reshape((-1,) + (1,) * z.ndim)

    def eval_sgrid(self, table, powers):
        """Values on (s-grid points) x (z array): ``table`` holds rows of
        :meth:`sgrid_table`, ``powers`` is :meth:`z_powers`; returns an array
        of shape ``table.shape[:-1] + z.shape``, one product per
        :meth:`z_groups` run.  Rows of the table give the same rows of the
        product, bit for bit, unless they hold one s point alone: numpy
        hands a one-row product to BLAS gemv, whose sums round apart."""
        out = np.empty((len(table), table[0, ..., 0].size, powers[0].size), dtype=complex)
        for run, n in self.z_groups():
            # np.tensordot's matrix product, written in place
            np.dot(table[run, ..., :n].reshape(-1, n), powers[:n].reshape(n, -1),
                   out=out[run].reshape(-1, out.shape[-1]))
        return out.reshape(table.shape[:-1] + powers.shape[1:])

    def coeff_bounds(self, box) -> np.ndarray:
        """Per component and z-power, an upper bound for the coefficient
        magnitude on the box: sum_e |c_e| * prod_i max(|a_i|, |b_i|)**e_i;
        shape (N, n_z)."""
        table = np.abs(self._s_leading())
        for a, b in box:
            table = _taylor_shift(table, max(abs(a), abs(b)), 0)[0]
        return table

    def taylor_coeffs(self, s0, order, z):
        """Taylor coefficients in s about every row of the (n, d) block of
        points ``s0`` of z -> p(z, s): a jet of total order ``order`` with
        batch shape (N, n, q), the component axis first.  ``z`` is (1, q),
        every point reading the same z values, or (n, q), each point reading
        its own row.

        One pass of the substitution kernel :func:`_taylor_shift` per
        parameter axis (Horner's rule at order 0, so the values have the
        bits of :meth:`freeze`), batched over the components, the z-powers
        and the points (on a trailing axis), then one stacked matrix product
        per :meth:`z_groups` run on its own z-powers (numpy computes a
        product of one row, column or z-power apart from gemm, and there
        zero padding would change its bits): every point and every component
        gets the bits it gets alone."""
        points, z = np.asarray(s0, dtype=float), np.asarray(z, dtype=complex)
        if points.ndim != 2 or points.shape[1] != self.dim or z.ndim != 2:
            raise ValueError(f"points of shape {points.shape} and z of shape {z.shape}, "
                             f"expected (n, {self.dim}) and (1 or n, q)")
        size, count = self.coeffs.shape[:2]
        # each shift puts its orders first; the swap brings the next s-axis
        # to the front and leaves the orders in axis order
        shifted = self._s_leading()[..., None]
        for x in points.T:
            shifted = _taylor_shift(shifted, x, order).swapaxes(0, self.dim - 1)
        shifted = shifted[_jet_entries(self.dim, order)]
        # filled in place: the matrix product's bits follow its operands'
        # memory layout
        tables = np.empty((size, len(points), len(shifted), count), dtype=complex)
        tables[...] = shifted.transpose(1, 3, 0, 2)
        powers = z[:, None, :] ** np.arange(count)[:, None]
        jet = np.empty(tables.shape[:-1] + powers.shape[-1:], dtype=complex)
        for run, n in self.z_groups():
            jet[run] = np.matmul(tables[run, ..., :n], powers[:, :n])
        return np.moveaxis(jet, 2, 0)


class ParamFamily:
    """The data tuple f = (f_1, ..., f_N) on a box: ``poly``, one ZSPoly
    whose components are the f_m, and ``box``, a tuple of per-axis
    (lower, upper) bounds with upper > lower, so the box is the closure of
    its interior.  A family does not evaluate itself: its values are the
    order-0 :meth:`ZSPoly.taylor_coeffs`, one path with its derivatives.
    """

    __slots__ = ("poly", "box")

    def __init__(self, poly: ZSPoly, box):
        box = tuple((float(a), float(b)) for a, b in box)
        if len(box) not in (1, 2):
            raise DomainError("parameter dimension must be 1 or 2")
        for a, b in box:
            if not b > a:
                raise DomainError("every box axis needs upper > lower")
        if poly.dim != len(box):
            raise ValueError("data parameter dimension != box dimension")
        self.poly = poly
        self.box = box

    @property
    def dim(self) -> int:
        return len(self.box)

    @property
    def size(self) -> int:
        return len(self.poly.coeffs)

    def require_inside(self, s):
        """Raise ``DomainError`` unless every row of the (n, d) block of
        points ``s`` lies in the box, widened by a relative 1e-12 per axis
        (a NaN coordinate does not); the message names the first point
        outside."""
        rows = np.asarray(s, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise DomainError(f"parameter points of shape {rows.shape}, expected (n, {self.dim})")
        lo, hi = np.array(self.box).T
        pad = _BOX_EPS * (1.0 + np.abs(lo) + np.abs(hi))
        inside = ((lo - pad <= rows) & (rows <= hi + pad)).all(axis=1)
        if not inside.all():
            point = rows[np.argmin(inside)].tolist()
            raise DomainError(f"parameter point {point!r} lies outside the box {self.box}")

    def freeze(self, s):
        """All components with the parameter substituted, as CPoly tuple."""
        self.require_inside([s])
        return self.poly.freeze(s)


def as_alpha(alpha, dim: int):
    """A validated multi-index tuple of ``dim`` nonnegative entries."""
    alpha = tuple(int(a) for a in np.atleast_1d(alpha))
    if len(alpha) != dim:
        raise ValueError("multi-index length must equal the parameter dimension")
    if any(a < 0 for a in alpha):
        raise ValueError("multi-index entries must be nonnegative")
    return alpha

