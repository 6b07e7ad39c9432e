"""Dense polynomial arithmetic in the disc variable z and the parameter s.

Three layers:

* ``CPoly`` -- a complex polynomial in z, used for frozen-parameter data and
  for the pointwise Bezout solutions.
* ``SPoly`` -- a real (or complex) polynomial in the parameter
  s = (s_1, ..., s_d), d in {1, 2}, dense exponent-indexed coefficients: one
  z-coefficient of the data as a config writes it, validated and trimmed.
* ``ZSPoly``/``ParamFamily`` -- polynomials in (z, s), i.e. the
  parameter-dependent data tuple f(z, s) on a box K.  A ZSPoly holds one
  dense coefficient table, z-power first, and every operation (sum, product,
  partial derivative, evaluation, coefficient bounds, Taylor shift) runs on
  that table at once.

Everything is immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial import polynomial as npp

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

    @staticmethod
    def one() -> "CPoly":
        return CPoly([1.0])

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
        other = _as_cpoly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        out = np.zeros(n, dtype=complex)
        out[: len(self.coeffs)] += self.coeffs
        out[: len(other.coeffs)] += other.coeffs
        return CPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return CPoly(-self.coeffs)

    def __sub__(self, other):
        return self + (-_as_cpoly(other))

    def __mul__(self, other):
        if isinstance(other, CPoly):
            if self.is_zero or other.is_zero:
                return CPoly.zero()
            return CPoly(np.convolve(self.coeffs, other.coeffs))
        return CPoly(self.coeffs * complex(other))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return CPoly(self.coeffs / complex(scalar))

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


def _as_cpoly(value) -> CPoly:
    if isinstance(value, CPoly):
        return value
    return CPoly([complex(value)])


# ---------------------------------------------------------------------------
# Parameter polynomials


def _trim_ndarray(arr):
    """Strip trailing zero slices along every axis (keep shape >= (1,)*d)."""
    for axis in range(arr.ndim):
        while arr.shape[axis] > 1:
            index = [slice(None)] * arr.ndim
            index[axis] = arr.shape[axis] - 1
            if np.any(arr[tuple(index)] != 0):
                break
            keep = [slice(None)] * arr.ndim
            keep[axis] = slice(0, arr.shape[axis] - 1)
            arr = arr[tuple(keep)]
    return arr


def _corner(shape):
    """The index of the leading ``shape`` block of a larger array."""
    return tuple(slice(0, n) for n in shape)


class SPoly:
    """Polynomial in the parameter s, dense coefficients indexed by exponent.

    ``coeffs`` has one axis per parameter variable (d = ndim <= 2);
    ``coeffs[e1]`` or ``coeffs[e1, e2]`` multiplies ``s1**e1 * s2**e2``.
    An SPoly is one z-coefficient as data are written down: ``ZSPoly`` packs
    a list of them into its table and computes there.
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

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs.flat[0] == 0

    def partial(self, axis: int) -> "SPoly":
        """Formal partial derivative along one parameter axis."""
        return SPoly(npp.polyder(self.coeffs, m=1, axis=axis))


def _points(s, dim):
    """One point or an (n, d) block of points as an (n, d) float array."""
    s = np.asarray(s, dtype=float)
    if s.ndim > 2 or np.atleast_1d(s).shape[-1] != dim:
        raise ValueError(f"points of shape {s.shape}, expected {dim} coordinates each")
    return s.reshape(-1, dim)


def _taylor_shift(tables, points, order):
    """Jets of total order ``order`` about every row of the (n, d) array
    ``points`` of the polynomials whose coefficient tables are stacked on the
    leading axis of ``tables``; shape (tables, n, jet size).

    A Taylor shift along each axis in turn, then the entries with
    |gamma| <= order: the coefficient of h^k in p(x + h) is
    sum_j C(j, k) x^(j-k) c_j, added in increasing j, so a lower order gives
    exactly the truncated bits (unlike a BLAS contraction), and every table
    and point gets the bits it gets alone."""
    order = int(order)
    out = tables[:, None]
    for axis, x in enumerate(points.T):
        binom, power = _shift_table(out.shape[2 + axis], order)
        weights = binom * x[:, None, None] ** power
        # the shifted axis last, its order-k axis put back in its place
        moved = np.moveaxis(out, 2 + axis, -1)
        lead = (1, len(x)) + (1,) * (moved.ndim - 3)
        terms = (moved[..., j, None] * weights[:, :, j].reshape(lead + (-1,))
                 for j in range(moved.shape[-1]))
        out = np.moveaxis(functools.reduce(np.add, terms), -1, 2 + axis)
    return out[(slice(None), slice(None)) + _jet_entries(points.shape[1], order)]


def _polyval_axes(points, coeffs):
    """Horner along the leading coefficient axis once per entry of
    ``points``, as numpy's polyval2d and polygrid2d do: scalars evaluate at a
    point, 1-D arrays on their tensor grid."""
    for x in points:
        coeffs = npp.polyval(x, coeffs)
    return coeffs


@functools.lru_cache(maxsize=None)
def _jet_entries(dim, order):
    """Index arrays picking the jet layout out of an (order + 1)^dim table."""
    return tuple(np.array(jets.multi_indices(dim, order)).T)


@functools.lru_cache(maxsize=None)
def _shift_table(n, order):
    """C(j, k) and max(j - k, 0) for 0 <= k <= order, 0 <= j < n; C(j, k) is
    zero for k > j."""
    table = np.array([[(math.comb(j, k), max(j - k, 0)) for j in range(n)]
                      for k in range(order + 1)], dtype=float)
    table.setflags(write=False)  # shared by every caller through the cache
    return table[..., 0], table[..., 1]


class ZSPoly:
    """Polynomial in z and the parameter s, held as one dense table:
    ``coeffs[j]`` is the coefficient array of z**j, indexed by s-exponent as
    in ``SPoly``, so ``coeffs`` has shape ``(n_z,) + s_shape``.

    Built from a list of ``SPoly`` z-coefficients (zero-padded to a common
    shape) or from such a table.  Canonical form: trailing all-zero slices
    are trimmed along every axis, so ``len(coeffs)`` counts the z-powers up
    to the last nonzero one.  Zero padding changes no bit of a value, sum or
    s-constant product; a Taylor coefficient or derivative that is exactly
    zero may change its sign."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        if isinstance(coeffs, np.ndarray):
            table = coeffs
        else:
            coeffs = tuple(coeffs)
            if not coeffs:
                raise ValueError("at least one z-coefficient required")
            if len({c.dim for c in coeffs}) != 1:
                raise ValueError("mixed parameter dimensions in one polynomial")
            shape = np.max([c.coeffs.shape for c in coeffs], axis=0)
            table = np.zeros((len(coeffs), *shape),
                             dtype=np.result_type(*(c.coeffs for c in coeffs)))
            for row, c in zip(table, coeffs):
                row[_corner(c.coeffs.shape)] = c.coeffs
        if table.ndim not in (2, 3):
            raise ValueError("parameter dimension must be 1 or 2")
        dtype = complex if np.iscomplexobj(table) else float
        table = _trim_ndarray(table.astype(dtype, copy=False)).copy()
        table.setflags(write=False)
        self.coeffs = table

    @staticmethod
    def from_cpoly(p: CPoly, dim: int) -> "ZSPoly":
        return ZSPoly(p.coeffs.reshape((-1,) + (1,) * dim))

    @property
    def dim(self) -> int:
        return self.coeffs.ndim - 1

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        out = np.zeros(np.maximum(a.shape, b.shape), dtype=np.result_type(a, b))
        out[_corner(a.shape)] += a
        out[_corner(b.shape)] += b
        return ZSPoly(out)

    def __neg__(self):
        return ZSPoly(-self.coeffs)

    def __mul__(self, other: "ZSPoly"):
        """One convolution over z and s: every nonzero entry a[e] of this
        factor adds a[e] * (the other table) at offset e, in C order of e.
        So each output coefficient sums its terms from 0 in increasing
        z-power of this factor, as a product z-coefficient by z-coefficient
        does when this factor is constant in s."""
        a, b = self.coeffs, other.coeffs
        out = np.zeros(tuple(m + n - 1 for m, n in zip(a.shape, b.shape)),
                       dtype=np.result_type(a, b))
        for e in zip(*np.nonzero(a)):
            out[tuple(slice(i, i + n) for i, n in zip(e, b.shape))] += a[e] * b
        return ZSPoly(out)

    def partial(self, axis: int) -> "ZSPoly":
        """Formal partial derivative along one parameter axis."""
        return ZSPoly(npp.polyder(self.coeffs, m=1, axis=axis + 1))

    def _s_leading(self):
        """The table with its z axis last, so that Horner in s runs along
        the leading axes."""
        return np.moveaxis(self.coeffs, 0, -1)

    def freeze(self, s) -> CPoly:
        """Substitute the parameter, leaving a plain polynomial in z."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if s.shape != (self.dim,):
            raise ValueError(f"point has {len(s)} coordinates, expected {self.dim}")
        return CPoly(_polyval_axes(s, self._s_leading()))

    def sgrid_table(self, axes):
        """The z-coefficients on the tensor s-grid spanned by ``axes``: an
        array of shape ``s_grid_shape + (len(coeffs),)``."""
        if len(axes) != self.dim:
            raise ValueError("one sample array per parameter axis required")
        values = _polyval_axes([np.asarray(x, dtype=float) for x in axes],
                               self._s_leading())
        return np.ascontiguousarray(np.moveaxis(values, 0, -1), dtype=complex)

    def z_powers(self, z):
        """z^j for every z-power j of the polynomial: an array of shape
        ``(len(coeffs),) + z.shape``."""
        z = np.asarray(z, dtype=complex)
        return z[None, ...] ** np.arange(len(self.coeffs)).reshape(
            (-1,) + (1,) * z.ndim
        )

    def eval_sgrid(self, table, powers):
        """Values on (s-grid points) x (z array): ``table`` holds rows of
        :meth:`sgrid_table`, ``powers`` is :meth:`z_powers`; returns an array
        of shape ``table.shape[:-1] + z.shape``.  Rows of the table give the
        same rows of the product, bit for bit, unless they hold one s point
        alone: numpy hands a one-row product to BLAS gemv, whose sums round
        apart from gemm's."""
        return np.tensordot(table, powers, axes=([-1], [0]))

    def coeff_bounds(self, box) -> np.ndarray:
        """Per-z-power upper bounds for the coefficient magnitude on the box:
        sum_e |c_e| * prod_i max(|a_i|, |b_i|)**e_i."""
        mags = [max(abs(a), abs(b)) for a, b in box]
        return _polyval_axes(mags, np.abs(self._s_leading()))

    def taylor_coeffs(self, s0, order, z):
        """Taylor coefficients in s about ``s0`` of z -> p(z, s): a jet of
        total order ``order``.  At one point (d,) its batch shape is z.shape.
        At an (n, d) block of points it is (n,) + z.shape[1:], where the
        leading axis of ``z`` is 1 (every point reads the same z values) or n
        (each point reads its own).

        One Taylor shift of the table, batched over the points and the
        z-powers, then one stacked matrix product over the points; every
        point gets the bits it gets alone."""
        z = np.asarray(z, dtype=complex)
        points = _points(s0, self.dim)
        block = np.ndim(s0) == 2
        zf = z.reshape(len(z), -1) if block else z.reshape(1, -1)
        # filled in place: the matrix product's bits follow its operands'
        # memory layout
        tables = np.empty((len(points), len(jets.multi_indices(self.dim, order)),
                           len(self.coeffs)), dtype=complex)
        tables[...] = np.moveaxis(_taylor_shift(self.coeffs, points, order), 0, -1)
        powers = zf[:, None, :] ** np.arange(len(self.coeffs))[:, None]
        jet = np.moveaxis(np.matmul(tables, powers), 0, 1)
        return jet.reshape(jet.shape[:2] + z.shape[1:]) if block else \
            jet[:, 0].reshape(jet.shape[:1] + z.shape)


class ParamFamily:
    """Tuple of z-polynomials with parameter-polynomial coefficients on a box.

    ``box`` is a tuple of per-axis (lower, upper) bounds with upper > lower,
    so the box is the closure of its interior.
    """

    __slots__ = ("components", "box")

    def __init__(self, components, box):
        components = tuple(components)
        if not components:
            raise ValueError("a family needs at least one component")
        box = tuple((float(a), float(b)) for a, b in box)
        if len(box) not in (1, 2):
            raise DomainError("parameter dimension must be 1 or 2")
        for a, b in box:
            if not b > a:
                raise DomainError("every box axis needs upper > lower")
        for c in components:
            if c.dim != len(box):
                raise ValueError("component parameter dimension != box dimension")
        self.components = components
        self.box = box

    @property
    def dim(self) -> int:
        return len(self.box)

    @property
    def size(self) -> int:
        return len(self.components)

    def contains(self, s) -> bool:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if len(s) != self.dim:
            return False
        for x, (a, b) in zip(s, self.box):
            pad = _BOX_EPS * (1.0 + abs(a) + abs(b))
            if x < a - pad or x > b + pad:
                return False
        return True

    def require_inside(self, s):
        if not self.contains(s):
            raise DomainError(f"parameter point {s!r} lies outside the box {self.box}")

    def freeze(self, s):
        """All components with the parameter substituted, as CPoly tuple."""
        self.require_inside(s)
        return tuple(c.freeze(s) for c in self.components)

    def values(self, z, points) -> np.ndarray:
        """Component values f_m(z, s) at every row s of the (n, d) array
        ``points``; shape (n, N) + z.shape.  Raises ``DomainError`` for a point
        outside the box.

        Bit for bit what ``freeze(s)`` followed by ``CPoly.eval`` gives: the
        same Horner steps on the z-coefficients, started at the highest one
        that is nonzero at that s."""
        points = np.asarray(points, dtype=float).reshape(-1, self.dim)
        for s in points:
            self.require_inside(s)
        z = np.asarray(z, dtype=complex)
        zf = z.reshape(1, -1)
        out = np.empty((len(points), self.size, zf.shape[1]), dtype=complex)
        for m, comp in enumerate(self.components):
            coeffs = _polyval_points(points, comp._s_leading()).astype(complex)
            acc = started = 0
            for c in coeffs[::-1, :, None]:
                acc = np.where(started, acc * zf + c, c)
                started = started | (c != 0)
            out[:, m] = acc
        return out.reshape(out.shape[:2] + z.shape)


def _polyval_points(points, coeffs):
    """``_polyval_axes`` at every row of the (n, d) array ``points``: the same
    Horner steps, one axis at a time; the trailing axes of ``coeffs`` come
    before the points' axis in the result."""
    for axis, x in enumerate(points.T):
        coeffs = npp.polyval(x, coeffs, tensor=axis == 0)
    return coeffs


def as_alpha(alpha, dim: int):
    """A validated multi-index tuple of ``dim`` nonnegative entries."""
    alpha = tuple(int(a) for a in np.atleast_1d(alpha))
    if len(alpha) != dim:
        raise ValueError("multi-index length must equal the parameter dimension")
    if any(a < 0 for a in alpha):
        raise ValueError("multi-index entries must be nonnegative")
    return alpha

