import numpy as np
import pytest

from coronaglue.polyalg import CPoly, ParamFamily, SPoly, ZSPoly


def random_cpoly(rng, max_degree, scale=1.0):
    degree = int(rng.integers(0, max_degree + 1))
    coeffs = scale * (rng.standard_normal(degree + 1)
                      + 1j * rng.standard_normal(degree + 1))
    if coeffs[-1] == 0:
        coeffs[-1] = 1.0
    return CPoly(coeffs)


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: signed zeros and NaNs must match too."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def worked_family(scale=1.0):
    """(z, (2+s) - z) * scale on [0, 1]."""
    f1 = ZSPoly([SPoly([0.0]), SPoly([scale])])
    f2 = ZSPoly([SPoly([2.0 * scale, scale]), SPoly([-scale])])
    return ParamFamily([f1, f2], [(0.0, 1.0)])


def steep_family():
    """(z, (1.5 + 2.5 s) - z) / 5 on [0, 1]; needs a multi-center cover."""
    f1 = ZSPoly([SPoly([0.0]), SPoly([0.2])])
    f2 = ZSPoly([SPoly([0.3, 0.5]), SPoly([-0.2])])
    return ParamFamily([f1, f2], [(0.0, 1.0)])


def two_param_family():
    """((z + 2 + s1) / 6, (2 - z + s2) / 6) on [0, 1]^2."""
    sixth = 1.0 / 6.0
    f1 = ZSPoly([SPoly([[2 * sixth], [sixth]]), SPoly([[sixth]])])
    f2 = ZSPoly([SPoly([[2 * sixth, sixth]]), SPoly([[-sixth]])])
    return ParamFamily([f1, f2], [(0.0, 1.0), (0.0, 1.0)])


def rational_gcd_tables():
    """The z_coeffs tables of (z - 3)/3 times (z, (2 + s) - z)/3: every
    center takes the least-norm route, and the first cover fails the radius
    check."""
    c0, c1 = -1.0, 1.0 / 3.0   # (z - 3)/3
    return [[[0.0], [c0 / 3.0], [c1 / 3.0]],
            [[c0 * 2.0 / 3.0, c0 / 3.0], [c1 * 2.0 / 3.0 - c0 / 3.0, c1 / 3.0],
             [-c1 / 3.0]]]


def rational_gcd_family():
    return ParamFamily([ZSPoly([SPoly(row) for row in table])
                        for table in rational_gcd_tables()], [(0.0, 1.0)])


def constant_family():
    return ParamFamily([ZSPoly([SPoly([1.0])])], [(0.0, 1.0)])


@pytest.fixture(scope="session")
def worked_solution():
    from coronaglue import glue

    glued, _ = glue.solve(worked_family(1.0 / 3.0))
    return glued


@pytest.fixture(scope="session")
def steep_solution():
    from coronaglue import glue

    glued, _ = glue.solve(steep_family())
    return glued


@pytest.fixture(scope="session")
def two_param_solution():
    from coronaglue import glue

    glued, _ = glue.solve(two_param_family())
    return glued


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
