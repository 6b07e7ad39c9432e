"""Independent checker of coronaglue's output files.

It rebuilds f from a configuration's coefficient tables with
``numpy.polynomial``, computes its own mollifier weights from the cover stored
in a solution file, and forms its own gtilde = sum_k eta_k g_k,
phi = gtilde^T f and g = gtilde / phi.  Nothing here imports the program,
except :func:`check_derivatives`, which compares the program's ``g_partial``
with 50-digit central differences (``mpmath``) of this module's evaluator.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import math

import mpmath
import numpy as np
from numpy.polynomial import polynomial as npp

IDENTITY_TOL = 1e-12
NORM_SLACK = 1e-9
RESIDUAL_GATE = 0.5
POINT_RESIDUAL_ACCEPT = 0.25
VALUE_RTOL = 1e-10        # CSV values against this evaluator
DERIV_RTOL = 1e-9         # g_partial against 50-digit central differences
RANDOM_POINTS = 4000
ROUNDING = 1e-12          # allowance for this evaluator's own rounding
GRID_VALUES = 2_000_000   # complex values per brute-force chunk


def _s_nodes(box, per_axis, rng):
    """Per-axis nodes with both endpoints and jittered interior points; also
    returns the largest gap on each axis."""
    axes, gaps = [], []
    for a, b in box:
        x = np.linspace(a, b, per_axis)
        h = (b - a) / (per_axis - 1)
        x[1:-1] += rng.uniform(-0.3, 0.3, per_axis - 2) * h
        axes.append(x)
        gaps.append(float(np.diff(x).max()))
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], -1)
    return grid, gaps


def _horner(coeffs, z):
    """sum_j coeffs[:, j] z^j for coeffs of shape (S, J); z broadcasts
    against (S, 1)."""
    acc = np.zeros(np.broadcast_shapes(coeffs.shape[:-1] + (1,), z.shape),
                   dtype=complex)
    for j in range(coeffs.shape[-1] - 1, -1, -1):
        acc = acc * z + coeffs[..., j:j + 1]
    return acc


class DataFamily:
    """f(z, s) from the configuration's dense coefficient tables."""

    def __init__(self, config):
        self.tables = [[np.asarray(t, dtype=float) for t in comp["z_coeffs"]]
                       for comp in config["family"]["components"]]
        self.box = [tuple(map(float, b)) for b in config["domain"]["bounds"]]
        self.dim = len(self.box)

    def _eval_table(self, table, s):
        if self.dim == 1:
            return npp.polyval(s[:, 0], table)
        return npp.polyval2d(s[:, 0], s[:, 1], table)

    def zcoeffs(self, s):
        """Per component, the z-coefficients at each parameter point:
        a list of (S, J) arrays for s of shape (S, dim)."""
        return [np.stack([self._eval_table(t, s) for t in tables], -1)
                for tables in self.tables]

    def values(self, z, s):
        """f on (S parameter points) x (Z disc points): (C, S, Z)."""
        return np.stack([_horner(c, z[None, :]) for c in self.zcoeffs(s)])

    def values_pairwise(self, z, s):
        """f at the pairs (z[i], s[i]): (C, M)."""
        return np.stack([_horner(c, z[:, None])[:, 0] for c in self.zcoeffs(s)])

    def _abs_bound(self, table):
        """sup over the box of |sum c_e s^e| <= sum |c_e| prod max|s_i|^e_i."""
        mags = [max(abs(a), abs(b)) for a, b in self.box]
        absc = np.abs(table)
        if self.dim == 1:
            return float(npp.polyval(mags[0], absc))
        return float(npp.polyval2d(mags[0], mags[1], absc))

    def lipschitz(self, rho):
        """(L_z, [L_s per axis]) on |z| <= rho, over the whole box, for the
        l2 modulus of the tuple (componentwise sums, so conservative)."""
        lz, ls = 0.0, [0.0] * self.dim
        for tables in self.tables:
            for j, t in enumerate(tables):
                if j:
                    lz += j * self._abs_bound(t) * rho ** (j - 1)
                for axis in range(self.dim):
                    if t.shape[axis] > 1:
                        ls[axis] += self._abs_bound(npp.polyder(t, axis=axis)) * rho ** j
        return lz, ls

    @property
    def z_degree(self):
        return max(len(t) for t in self.tables) - 1

    def modulus_extremes(self, rng):
        """Brute force over a fine polar grid x jittered parameter grid.

        Returns (sampled min of ||f||, certified lower bound, sampled max of
        ||f|| on |z| = 1).  The lower bound subtracts, ring band by ring band,
        the Lipschitz slack of the band's outer radius, so it is a true
        bound (up to rounding) and not a sample."""
        rings = 64
        angles = 2048 if self.z_degree > 16 else 256
        per_axis = 65 if self.dim == 1 else 25
        rho = 1.0 - (1.0 - np.arange(rings + 1) / rings) ** 2
        theta0 = rng.uniform(0.0, 2.0 * math.pi / angles)
        circle = np.exp(1j * (theta0 + 2.0 * math.pi * np.arange(angles) / angles))
        z = (rho[:, None] * circle[None, :]).ravel()
        s, gaps = _s_nodes(self.box, per_axis, rng)
        ring_min = np.full(rings + 1, np.inf)
        sup = 0.0
        chunk = max(1, GRID_VALUES // len(z))
        for lo in range(0, len(s), chunk):
            vals = self.values(z, s[lo:lo + chunk])
            mod = np.sqrt((np.abs(vals) ** 2).sum(0)).reshape(-1, rings + 1, angles)
            ring_min = np.minimum(ring_min, mod.min(axis=(0, 2)))
            sup = max(sup, float(mod[:, -1, :].max()))
        certified = math.inf
        for i in range(rings):
            lz, ls = self.lipschitz(rho[i + 1])
            dz = (rho[i + 1] - rho[i]) / 2.0 + rho[i + 1] * math.pi / angles
            slack = lz * dz + sum(l * g / 2.0 for l, g in zip(ls, gaps))
            certified = min(certified, min(ring_min[i], ring_min[i + 1]) - slack)
        return float(ring_min.min()), certified, sup


class GluedEval:
    """The glued solution rebuilt from a solution file."""

    def __init__(self, family: DataFamily, solution):
        self.family = family
        res = solution["result"]
        cover = res["cover"]
        self.centers = np.asarray(cover["centers"], dtype=float)
        self.radius = math.inf if cover["radius"] == "inf" else float(cover["radius"])
        self.g = [[np.array([complex(re, im) for re, im in gm]) for gm in ps["g"]]
                  for ps in res["point_solutions"]]
        self.point_certs = [(ps["norm_cert"], ps["residual_cert"])
                            for ps in res["point_solutions"]]
        self.c0 = float(res["c0"])
        self.residual_hi = float(res["residual_cert"]["hi"])
        widths = [b - a for a, b in family.box]
        self.scale_length = min([self.radius] + widths)

    def weights(self, s):
        """Normalized mollifier weights, (M, N) for s of shape (M, dim)."""
        if math.isinf(self.radius):
            return np.ones((len(s), len(self.centers)))
        t2 = ((s[:, None, :] - self.centers[None, :, :]) ** 2).sum(-1) / self.radius ** 2
        inside = t2 < 1.0
        b = np.zeros(t2.shape)
        b[inside] = np.exp(-1.0 / (1.0 - t2[inside]))
        return b / b.sum(axis=1, keepdims=True)

    def center_values(self, z):
        """g_k(z) for every center: (N, C, Z)."""
        return np.array([[npp.polyval(z, gm) for gm in gk] for gk in self.g])

    def on_grid(self, z, s):
        """(g, phi) on (S points) x (Z points): (C, S, Z) and (S, Z)."""
        gt = np.einsum("sn,ncz->csz", self.weights(s), self.center_values(z))
        phi = (gt * self.family.values(z, s)).sum(0)
        return gt / phi, phi

    def pairwise(self, z, s):
        """(g, phi, f) at the pairs (z[i], s[i])."""
        w = self.weights(s)
        gt = np.zeros((len(self.g[0]), len(z)), dtype=complex)
        for k in np.flatnonzero(w.any(axis=0)):
            for m, gm in enumerate(self.g[k]):
                gt[m] += w[:, k] * npp.polyval(z, gm)
        f = self.family.values_pairwise(z, s)
        phi = (gt * f).sum(0)
        return gt / phi, phi, f

    # -- 50-digit evaluator for the derivative check -----------------------

    def mp_g(self, z, s):
        """g at (z, s) in mpmath arithmetic; z is mpc, s a list of mpf."""
        if math.isinf(self.radius):
            etas = [(k, mpmath.mpf(1)) for k in range(len(self.g))]
        else:
            r2 = mpmath.mpf(self.radius) ** 2
            sf = np.array([float(x) for x in s])
            near = np.flatnonzero(((self.centers - sf) ** 2).sum(-1)
                                  < (1.01 * self.radius) ** 2)
            bumps = []
            for k in near:
                t2 = sum((x - mpmath.mpf(c)) ** 2
                         for x, c in zip(s, self.centers[k])) / r2
                if t2 < 1:
                    bumps.append((k, mpmath.exp(-1 / (1 - t2))))
            total = mpmath.fsum(b for _, b in bumps)
            etas = [(k, b / total) for k, b in bumps]
        gt = [mpmath.mpc(0)] * len(self.g[0])
        for k, eta in etas:
            for m, gm in enumerate(self.g[k]):
                gt[m] += eta * mpmath.polyval([mpmath.mpc(c) for c in gm[::-1]], z)
        phi = mpmath.mpc(0)
        for m, tables in enumerate(self.family.tables):
            coeffs = [_mp_table(t, s) for t in tables]
            phi += gt[m] * mpmath.polyval(coeffs[::-1], z)
        return [x / phi for x in gt]


def _mp_table(table, s):
    if table.ndim == 1:
        return mpmath.polyval([mpmath.mpf(c) for c in table[::-1]], s[0])
    return mpmath.fsum(mpmath.mpf(table[i, j]) * s[0] ** i * s[1] ** j
                       for i in range(table.shape[0]) for j in range(table.shape[1]))


def _random_disc(rng, n, rmax=1.0):
    return rmax * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * math.pi * rng.uniform(0, 1, n))


def _random_box(rng, box, n, margin=0.0):
    return np.stack([rng.uniform(a + margin * (b - a), b - margin * (b - a), n)
                     for a, b in box], -1)


# -- checks -----------------------------------------------------------------


def check_certificates(extremes, delta_cert, sup_cert):
    """The certified side of the corona and sup certificates holds against
    ``extremes``, the brute-force result of DataFamily.modulus_extremes."""
    sampled_min, _certified, sampled_sup = extremes
    problems = []
    if sampled_min < delta_cert["lo"]:
        problems.append(f"brute min ||f|| = {sampled_min:.6g} < delta.lo = "
                        f"{delta_cert['lo']:.6g}")
    if sampled_sup > sup_cert["hi"]:
        problems.append(f"brute max ||f|| = {sampled_sup:.6g} > sup.hi = "
                        f"{sup_cert['hi']:.6g}")
    return problems


def check_solution(glued: GluedEval, rng):
    """Identity, norm bound and residual at random (z, s) points off the
    program's grids; point and residual certificates against brute-force
    boundary grids."""
    problems = []
    fam = glued.family
    z = _random_disc(rng, RANDOM_POINTS)
    s = _random_box(rng, fam.box, RANDOM_POINTS)
    g, phi, f = glued.pairwise(z, s)
    ident = float(np.abs((g * f).sum(0) - 1.0).max())
    if not ident <= IDENTITY_TOL:
        problems.append(f"max |g^T f - 1| = {ident:.3g} > {IDENTITY_TOL}")
    norm = float(np.sqrt((np.abs(g) ** 2).sum(0)).max())
    bound = 2.0 * glued.c0 * (1.0 + NORM_SLACK)
    if not norm <= bound:
        problems.append(f"max ||g|| = {norm:.6g} > 2 c0 (1 + 1e-9) = {bound:.6g}")
    resid = float(np.abs(1.0 - phi).max())
    if not resid <= RESIDUAL_GATE:
        problems.append(f"max |1 - phi| = {resid:.6g} > 1/2 at random points")

    # phi(., s) is a polynomial in z, so |1 - phi| peaks on |z| = 1.
    angles = 1024
    circle = np.exp(1j * (rng.uniform(0, 2 * math.pi / angles)
                          + 2 * math.pi * np.arange(angles) / angles))
    nodes, _ = _s_nodes(fam.box, 257 if fam.dim == 1 else 41, rng)
    worst = 0.0
    for lo in range(0, len(nodes), 128):
        _, phi_grid = glued.on_grid(circle, nodes[lo:lo + 128])
        worst = max(worst, float(np.abs(1.0 - phi_grid).max()))
    if worst > glued.residual_hi + ROUNDING:
        problems.append(f"brute max |1 - phi| = {worst:.6g} > residual.hi = "
                        f"{glued.residual_hi:.6g}")

    # each point solution against its own certificates, at its center
    gk = glued.center_values(circle)
    fk = [fam.values(circle, glued.centers[k:k + 1])[:, 0, :]
          for k in range(len(glued.centers))]
    c0 = 0.0
    for k, (norm_cert, res_cert) in enumerate(glued.point_certs):
        gnorm = float(np.sqrt((np.abs(gk[k]) ** 2).sum(0)).max())
        pres = float(np.abs(1.0 - (gk[k] * fk[k]).sum(0)).max())
        c0 = max(c0, norm_cert["hi"])
        if gnorm > norm_cert["hi"] + ROUNDING or pres > res_cert["hi"] + ROUNDING \
                or res_cert["hi"] > POINT_RESIDUAL_ACCEPT:
            problems.append(f"center {k}: ||g_k|| = {gnorm:.6g} vs hi "
                            f"{norm_cert['hi']:.6g}, residual {pres:.3g} vs hi "
                            f"{res_cert['hi']:.3g}")
    if c0 != glued.c0:
        problems.append(f"c0 = {glued.c0!r} is not the largest point norm bound {c0!r}")
    return problems


def check_csv(glued: GluedEval, path, z_samples, s_samples):
    """Every eval-grid row against this evaluator, on the documented grid."""
    fam = glued.family
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    expected = ["re_z", "im_z"] + [f"s{i + 1}" for i in range(fam.dim)] + \
        ["k", "re_g", "im_g", "abs_phi"]
    if header != expected:
        return [f"CSV header {header} != {expected}"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_comp = len(fam.tables)
    radii = np.linspace(0.0, 1.0, z_samples)
    circle = np.exp(2j * math.pi * np.arange(z_samples) / z_samples)
    z_nodes = (radii[:, None] * circle[None, :]).ravel()
    s_nodes = np.stack([g.ravel() for g in np.meshgrid(
        *[np.linspace(a, b, s_samples) for a, b in fam.box], indexing="ij")], -1)
    rows = len(s_nodes) * len(z_nodes) * n_comp
    if data.shape != (rows, len(expected)):
        return [f"CSV has shape {data.shape}, expected ({rows}, {len(expected)})"]
    data = data.reshape(len(s_nodes), len(z_nodes), n_comp, -1)
    problems = []
    z = data[0, :, 0, 0] + 1j * data[0, :, 0, 1]
    if not np.allclose(z, z_nodes, rtol=0, atol=1e-15):
        problems.append("CSV z nodes differ from the documented polar grid")
    s = data[:, 0, 0, 2:2 + fam.dim]
    if not np.allclose(s, s_nodes, rtol=0, atol=1e-15):
        problems.append("CSV s nodes differ from the documented parameter grid")
    if not np.array_equal(data[..., 2 + fam.dim], np.broadcast_to(
            np.arange(1, n_comp + 1), data.shape[:3])):
        problems.append("CSV component indices are out of order")
    g, phi = glued.on_grid(z, s)
    g_csv = data[..., -3] + 1j * data[..., -2]
    g_err = np.abs(np.moveaxis(g, 0, -1) - g_csv)
    g_scale = np.maximum(1.0, np.abs(g_csv))
    worst = float((g_err / g_scale).max())
    if worst > VALUE_RTOL:
        problems.append(f"CSV g differs from the independent value by {worst:.3g} "
                        f"(relative, tolerance {VALUE_RTOL})")
    phi_err = float(np.abs(np.abs(phi) - data[:, :, 0, -1]).max())
    if phi_err > VALUE_RTOL:
        problems.append(f"CSV abs_phi differs by {phi_err:.3g}")
    if float(data[..., -1].min()) < RESIDUAL_GATE:
        problems.append("CSV holds |phi| < 1/2")
    return problems


def check_derivatives(glued: GluedEval, program_glued, g_partial, rng, order,
                      points=3):
    """The program's g_partial against 50-digit central differences of this
    evaluator at interior points.  The step h = 1e-12 * l (l the cover
    radius or the box width) makes the truncation error O((h / l)^2) =
    1e-24 relative and the cancellation error 1e-50 / h^|a|, so the
    tolerance is the program's own rounding allowance, DERIV_RTOL."""
    fam = glued.family
    alphas = [a for a in np.ndindex(*(3,) * fam.dim) if 1 <= sum(a) <= min(2, order)]
    h = mpmath.mpf(glued.scale_length) * mpmath.mpf("1e-12")
    problems = []
    worst = 0.0
    with mpmath.workdps(50):
        for zc, s in zip(_random_disc(rng, points, 0.9),
                         _random_box(rng, fam.box, points, margin=0.05)):
            z = mpmath.mpc(zc.real, zc.imag)
            s_mp = [mpmath.mpf(x) for x in s]

            def at(*steps):
                return glued.mp_g(z, [x + d * h for x, d in zip(s_mp, steps)])

            base = np.abs(np.array(at(*[0] * fam.dim), dtype=complex))
            for alpha in alphas:
                ref = _central_difference(at, alpha, h)
                got = g_partial(program_glued, complex(zc), s, alpha)
                scale = max(float(np.linalg.norm(np.abs(ref))),
                            float(np.linalg.norm(base)) * glued.scale_length ** -sum(alpha))
                err = float(np.linalg.norm(got - ref)) / scale
                worst = max(worst, err)
                if err > DERIV_RTOL:
                    problems.append(f"g_partial{alpha} at s = {s.tolist()}, z = {zc:.4g} "
                                    f"is off by {err:.3g} (relative)")
    return problems, worst


def _central_difference(at, alpha, h):
    """d^alpha g by central differences on the mpmath evaluator."""
    dim = len(alpha)
    unit = [tuple(int(i == a) for i in range(dim)) for a in range(dim)]
    if sum(alpha) == 1:
        e = unit[alpha.index(1)]
        plus, minus = at(*e), at(*[-x for x in e])
        out = [(p - m) / (2 * h) for p, m in zip(plus, minus)]
    elif 2 in alpha:
        e = unit[alpha.index(2)]
        plus, mid, minus = at(*e), at(*[0] * dim), at(*[-x for x in e])
        out = [(p - 2 * c + m) / h ** 2 for p, c, m in zip(plus, mid, minus)]
    else:
        pp, pm, mp_, mm = at(1, 1), at(1, -1), at(-1, 1), at(-1, -1)
        out = [(a - b - c + d) / (4 * h ** 2) for a, b, c, d in zip(pp, pm, mp_, mm)]
    return np.array([complex(x) for x in out])
