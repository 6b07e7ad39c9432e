"""Reference (z, s) polynomial arithmetic, one ``SPoly`` per z-power, kept
only to test the dense tables of :class:`coronaglue.polyalg.ZSPoly`.

``RefZSPoly`` is a tuple of per-z-power ``RefSPoly`` coefficients, each with
its own trimmed exponent table, and every operation loops over them: the
representation ``ZSPoly`` had before it held one zero-padded table.  The
dense table must give the same bits for every operation, up to the sign of a
Taylor coefficient or derivative entry that is exactly zero; only a product of
two factors that both vary in s may group its sums apart.
"""

import numpy as np
from numpy.polynomial import polynomial as npp

from coronaglue import jets
from coronaglue.polyalg import CPoly, _taylor_shift, _trim_ndarray


def _shifted(tables, points, order):
    """The jets of the tables stacked on the leading axis about every row of
    ``points``: shape (tables, n, jet size), one Taylor shift per axis."""
    out = np.moveaxis(tables, 0, -1)[..., None]
    for x in points.T:
        out = np.moveaxis(_taylor_shift(out, x, order), 0, points.shape[1] - 1)
    return np.stack([out[ix] for ix in jets.multi_indices(points.shape[1], order)], axis=-1)


def _polyval_axes(points, coeffs):
    for x in points:
        coeffs = npp.polyval(x, coeffs)
    return coeffs


def _polyval_points(points, coeffs):
    for axis, x in enumerate(points.T):
        coeffs = npp.polyval(x, coeffs, tensor=axis == 0)
    return coeffs


class RefSPoly:
    """A parameter polynomial with its own arithmetic and evaluation."""

    def __init__(self, coeffs):
        arr = np.asarray(coeffs)
        dtype = complex if np.iscomplexobj(arr) else float
        self.coeffs = _trim_ndarray(arr.astype(dtype)).copy()

    @staticmethod
    def constant(value, dim):
        return RefSPoly(np.asarray(value).reshape((1,) * dim))

    @property
    def dim(self):
        return self.coeffs.ndim

    @property
    def is_zero(self):
        return self.coeffs.size == 1 and self.coeffs.flat[0] == 0

    def __add__(self, other):
        shape = tuple(max(a, b) for a, b in zip(self.coeffs.shape, other.coeffs.shape))
        out = np.zeros(shape, dtype=np.result_type(self.coeffs, other.coeffs))
        out[tuple(slice(0, n) for n in self.coeffs.shape)] += self.coeffs
        out[tuple(slice(0, n) for n in other.coeffs.shape)] += other.coeffs
        return RefSPoly(out)

    def __neg__(self):
        return RefSPoly(-self.coeffs)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        out = np.zeros(tuple(m + n - 1 for m, n in zip(a.shape, b.shape)),
                       dtype=np.result_type(a, b))
        for e in zip(*np.nonzero(a)):
            out[tuple(slice(i, i + n) for i, n in zip(e, b.shape))] += a[e] * b
        return RefSPoly(out)

    def eval(self, s):
        val = _polyval_axes(np.atleast_1d(np.asarray(s, dtype=float)), self.coeffs)
        return complex(val) if np.iscomplexobj(self.coeffs) else float(val)

    def eval_grid(self, axes):
        return _polyval_axes([np.asarray(x, dtype=float) for x in axes], self.coeffs)

    def partial(self, axis):
        return RefSPoly(npp.polyder(self.coeffs, m=1, axis=axis))

    def abs_coeff_bound(self, box):
        mags = [max(abs(a), abs(b)) for a, b in box]
        return float(_polyval_axes(mags, np.abs(self.coeffs)))


class RefZSPoly:
    """A polynomial in z whose z-coefficients are ``RefSPoly`` values."""

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        while len(coeffs) > 1 and coeffs[-1].is_zero:
            coeffs = coeffs[:-1]
        self.coeffs = coeffs

    @staticmethod
    def from_cpoly(p, dim):
        return RefZSPoly([RefSPoly.constant(c, dim) for c in p.coeffs])

    @property
    def dim(self):
        return self.coeffs[0].dim

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        zero = RefSPoly.constant(0.0, self.dim)
        a = list(self.coeffs) + [zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [zero] * (n - len(other.coeffs))
        return RefZSPoly([x + y for x, y in zip(a, b)])

    def __neg__(self):
        return RefZSPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        zero = RefSPoly.constant(0.0, self.dim)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return RefZSPoly(out)

    def partial(self, axis):
        return RefZSPoly([c.partial(axis) for c in self.coeffs])

    def freeze(self, s):
        return CPoly([c.eval(s) for c in self.coeffs])

    def sgrid_table(self, axes):
        return np.stack([np.asarray(c.eval_grid(axes), dtype=complex)
                         for c in self.coeffs], axis=-1)

    def coeff_bounds(self, box):
        return np.array([c.abs_coeff_bound(box) for c in self.coeffs])

    def taylor_coeffs(self, s0, order, z):
        """One Taylor shift per coefficient-table shape and dtype, about
        every row of the (n, d) block ``s0``; ``z`` is (1, q) or (n, q)."""
        points, z = np.asarray(s0, dtype=float), np.asarray(z, dtype=complex)
        tables = np.empty((len(points), len(jets.multi_indices(self.dim, order)),
                           len(self.coeffs)), dtype=complex)
        groups = {}
        for i, c in enumerate(self.coeffs):
            groups.setdefault((c.coeffs.shape, c.coeffs.dtype), []).append(i)
        for members in groups.values():
            stacked = np.stack([self.coeffs[i].coeffs for i in members])
            tables[..., members] = np.moveaxis(_shifted(stacked, points, order), 0, -1)
        powers = z[:, None, :] ** np.arange(len(self.coeffs))[:, None]
        return np.moveaxis(np.matmul(tables, powers), 0, 1)


def to_ref(p):
    """The per-z-power form of a one-component ``ZSPoly`` (or of a list of
    ``SPoly``)."""
    if isinstance(p, RefZSPoly):
        return p
    if isinstance(p, (list, tuple)):
        rows = [c.coeffs for c in p]
    else:
        (rows,) = p.coeffs  # one component
    return RefZSPoly([RefSPoly(row) for row in rows])


def values(components, z, points):
    """f_m(z, s) at every row s of ``points``, started at the highest
    z-coefficient that is nonzero at s: shape (n, N) + z.shape."""
    points = np.asarray(points, dtype=float).reshape(len(points), -1)
    z = np.asarray(z, dtype=complex)
    zf = z.reshape(1, -1)
    out = np.empty((len(points), len(components), zf.shape[1]), dtype=complex)
    for m, comp in enumerate(components):
        coeffs = np.stack([_polyval_points(points, c.coeffs)
                           for c in to_ref(comp).coeffs], axis=1).astype(complex)
        acc = started = 0
        for c in np.moveaxis(coeffs[:, ::-1, None], 1, 0):
            acc = np.where(started, acc * zf + c, c)
            started = started | (c != 0)
        out[:, m] = acc
    return out.reshape(out.shape[:2] + z.shape)
