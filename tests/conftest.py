import math
from pathlib import Path

import numpy as np
import pytest

from coronaglue import hnorm
from coronaglue.config import SolverSettings
from coronaglue.cover_pou import PartitionOfUnity
from coronaglue.polyalg import CPoly, ParamFamily, SPoly, ZSPoly


def random_cpoly(rng, max_degree, scale=1.0):
    degree = int(rng.integers(0, max_degree + 1))
    coeffs = scale * (rng.standard_normal(degree + 1)
                      + 1j * rng.standard_normal(degree + 1))
    if coeffs[-1] == 0:
        coeffs[-1] = 1.0
    return CPoly(coeffs)


def stack(*polys) -> ZSPoly:
    """One ZSPoly whose components are those of ``polys``, in order."""
    return ZSPoly([[SPoly(row) for row in comp] for p in polys for comp in p.coeffs])


def components(family: ParamFamily):
    """Each component of the family's data as a ZSPoly of its own."""
    return [ZSPoly(comp[None]) for comp in family.poly.coeffs]


def partial_s(family: ParamFamily, alpha) -> ParamFamily:
    """Reference: the componentwise formal partial derivative d^alpha in the
    parameter, one ``ZSPoly.partial`` per unit of alpha."""
    poly = family.poly
    for axis, order in enumerate(alpha):
        for _ in range(order):
            poly = poly.partial(axis)
    return ParamFamily(poly, family.box)


def family_values(family: ParamFamily, z, points):
    """f_m(z, s) at every row s of ``points`` as the program computes them,
    the order-0 Taylor coefficients: shape (n, N) + z.shape."""
    z = np.asarray(z, dtype=complex)
    points = np.asarray(points, dtype=float).reshape(-1, family.dim)
    jet = family.poly.taylor_coeffs(points, 0, z.reshape(1, -1))[0]
    return np.moveaxis(jet, 0, 1).reshape((len(points), family.size) + z.shape)


def frozen_values(family: ParamFamily, z, points):
    """Reference: the same values through ``freeze`` and ``CPoly.eval``,
    Horner in s and then in z."""
    z = np.asarray(z, dtype=complex)
    points = np.asarray(points, dtype=float).reshape(-1, family.dim)
    return np.array([[np.asarray(p.eval(z)) for p in family.freeze(s)] for s in points])


def bump_values(pou, s):
    """Reference: beta(|s - s_k| / r) = exp(-1 / (1 - t^2)) for every center
    by the mollifier formula, 0 from t >= 1 - BUMP_CLAMP on; shape
    s.shape[:-1] + (K,)."""
    from coronaglue.cover_pou import BUMP_CLAMP

    s = np.asarray(s, dtype=float)
    centers = np.asarray(pou.centers)
    if math.isinf(pou.radius):
        t = np.zeros(s.shape[:-1] + (len(centers),))
    else:
        t = np.sqrt(((s[..., None, :] - centers) ** 2).sum(-1)) / pou.radius
    inside = t < 1.0 - BUMP_CLAMP
    return np.where(inside, np.exp(-1.0 / (1.0 - np.where(inside, t, 0.0) ** 2)), 0.0)


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: signed zeros and NaNs must match too."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def reference_grid_csv(glued, path, radial, angular, s_per_axis):
    """The per-row writer that ``serialize.export_grid_csv`` replaced, kept as
    its byte-level reference: four ``.17g`` format calls and one write per
    row.  Returns (rows, summary) like the export; a grid point with
    |phi| < 1/2 removes the file and raises InternalInconsistency."""
    from coronaglue.errors import InternalInconsistency
    from coronaglue.glue import GluedEvaluator
    from coronaglue.hnorm import disc_points

    family = glued.family
    axes = [np.linspace(a, b, s_per_axis) for a, b in family.box] \
        if s_per_axis > 0 else [np.array([]) for _ in family.box]
    s_cols = [f"s{i+1}" for i in range(family.dim)]
    header = ["re_z", "im_z", *s_cols, "k", "re_g", "im_g", "abs_phi"]
    # the certificates' polar grid: this is the reference for the rows, not
    # for the grid
    z_nodes = disc_points(radial, angular)

    rows = 0
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            z_cells = [f"{z.real:.17g},{z.imag:.17g}," for z in z_nodes]
            evaluator = GluedEvaluator(family, glued.cover, glued.points, z_nodes)
            for block in evaluator.sweep(axes) if z_nodes.size else ():
                g, absphi = block.g().tolist(), np.abs(block.phi).tolist()
                for g_s, absphi_s, s in zip(g, absphi, block.s):
                    s_cells = "".join(f"{x:.17g}," for x in s)
                    for zi, z_cell in enumerate(z_cells):
                        for k, g_k in enumerate(g_s, start=1):
                            fh.write(f"{z_cell}{s_cells}{k},{g_k[zi].real:.17g},"
                                     f"{g_k[zi].imag:.17g},{absphi_s[zi]:.17g}\n")
                    rows += len(z_cells) * len(g_s)
    except InternalInconsistency:
        Path(path).unlink()
        raise
    summary = {
        "csv": str(Path(path).name),
        "rows": rows,
        "grid": {"radial": radial, "angular": angular, "s_per_axis": s_per_axis},
        "c0": glued.c0,
        "delta_cert": glued.delta_cert.to_dict(),
        "sup_cert": glued.sup_cert.to_dict(),
        "residual_cert": glued.residual_cert.to_dict(),
    }
    return rows, summary


def worked_family(scale=1.0):
    """(z, (2+s) - z) * scale on [0, 1]."""
    f1 = ZSPoly([[SPoly([0.0]), SPoly([scale])]])
    f2 = ZSPoly([[SPoly([2.0 * scale, scale]), SPoly([-scale])]])
    return ParamFamily(stack(f1, f2), [(0.0, 1.0)])


def steep_family():
    """(z, (1.5 + 2.5 s) - z) / 5 on [0, 1], the data of
    configs/steep_family.json."""
    f1 = ZSPoly([[SPoly([0.0]), SPoly([0.2])]])
    f2 = ZSPoly([[SPoly([0.3, 0.5]), SPoly([-0.2])]])
    return ParamFamily(stack(f1, f2), [(0.0, 1.0)])


def two_param_family():
    """((z + 2 + s1) / 6, (2 - z + s2) / 6) on [0, 1]^2."""
    sixth = 1.0 / 6.0
    f1 = ZSPoly([[SPoly([[2 * sixth], [sixth]]), SPoly([[sixth]])]])
    f2 = ZSPoly([[SPoly([[2 * sixth, sixth]]), SPoly([[-sixth]])]])
    return ParamFamily(stack(f1, f2), [(0.0, 1.0), (0.0, 1.0)])


def curved_param_family():
    """two_param_family with terms of degree 2 in each parameter:
    ((z + 2 + s1 + s1^2 s2^2 / 2) / 6, (2 - z + s2 + (s1^2 + s2^2) / 2) / 6)
    on [0, 1]^2."""
    sixth = 1.0 / 6.0
    f1 = ZSPoly([[SPoly([[2 * sixth, 0.0, 0.0], [sixth, 0.0, 0.0], [0.0, 0.0, sixth / 2]]),
                 SPoly([[sixth]])]])
    f2 = ZSPoly([[SPoly([[2 * sixth, sixth, sixth / 2], [0.0, 0.0, 0.0], [sixth / 2, 0.0, 0.0]]),
                 SPoly([[-sixth]])]])
    return ParamFamily(stack(f1, f2), [(0.0, 1.0), (0.0, 1.0)])


def three_component_family():
    """(0.1 + (0.05 s - 0.1) z + 0.2 z^3, 0.35 + 0.15 s - 0.2 z + 0.05 (1 + s) z^2,
    0.25 + 0.1 s^2) on [0, 1], the data of configs/three_component_family.json:
    4, 3 and 1 z-powers."""
    return ParamFamily(ZSPoly([[SPoly([0.1]), SPoly([-0.1, 0.05]), SPoly([0.0]), SPoly([0.2])],
                               [SPoly([0.35, 0.15]), SPoly([-0.2]), SPoly([0.05, 0.05])],
                               [SPoly([0.25, 0.0, 0.1])]]), [(0.0, 1.0)])


def with_zero_component(family):
    """The family with an all-zero component after its first."""
    first, *rest = components(family)
    return ParamFamily(stack(first, ZSPoly([[SPoly(np.zeros((1,) * family.dim))]]), *rest),
                       family.box)


def rational_gcd_tables():
    """The z_coeffs tables of (z - 3)/3 times (z, (2 + s) - z)/3: every
    center takes the least-norm route, and the first cover fails the radius
    check."""
    c0, c1 = -1.0, 1.0 / 3.0   # (z - 3)/3
    return [[[0.0], [c0 / 3.0], [c1 / 3.0]],
            [[c0 * 2.0 / 3.0, c0 / 3.0], [c1 * 2.0 / 3.0 - c0 / 3.0, c1 / 3.0],
             [-c1 / 3.0]]]


def rational_gcd_family():
    return ParamFamily(ZSPoly([[SPoly(row) for row in table]
                              for table in rational_gcd_tables()]), [(0.0, 1.0)])


def constant_family():
    return ParamFamily(ZSPoly([[SPoly([1.0])]]), [(0.0, 1.0)])


@pytest.fixture(scope="session")
def worked_solution():
    from coronaglue import glue

    glued, _ = glue.solve(worked_family(1.0 / 3.0))
    return glued


# three centers at 1/6, 1/2 and 5/6, each bump overlapping its neighbours
# on a strip 0.01 r wide: the cover that build_cover lays out at this
# radius, so a solution file of it loads
STEEP_COVER = PartitionOfUnity(((1 / 6,), (0.5,), (5 / 6,)), 0.21213203435596426)


def glued_on(family, cover, options=SolverSettings()):
    """The glued solution of ``family`` on the explicit ``cover``: the
    certificates and point solves of ``glue.solve``'s round on that cover,
    whatever cover the solve itself would pick.  Its residual certificate
    must pass the gate."""
    from coronaglue import glue

    delta = hnorm.delta_lower(family, options.radial_samples, options.angular_samples,
                              options.axis_samples)
    sup = hnorm.sup_family(family, options.axis_samples, options.boundary_samples)
    points = glue.solve_at_samples(family, cover, options)
    cert = glue.residual_certify(family, cover, points,
                                 glue.residual_boundary_samples(options), options.axis_samples)
    assert cert.hi <= glue.RESIDUAL_GATE
    return glue.GluedSolution(family, cover, points, delta, sup, cert)


@pytest.fixture(scope="session")
def steep_solution():
    """steep_family on the three-center STEEP_COVER."""
    return glued_on(steep_family(), STEEP_COVER)


@pytest.fixture(scope="session")
def two_param_solution():
    from coronaglue import glue

    glued, _ = glue.solve(two_param_family())
    return glued


@pytest.fixture(scope="session")
def curved_solution():
    from coronaglue import glue

    glued, _ = glue.solve(curved_param_family())
    return glued


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
