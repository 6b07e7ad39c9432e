import math

import numpy as np
import pytest

from conftest import constant_family, random_cpoly, worked_family
from coronaglue import hnorm
from coronaglue.hnorm import DiscKGrid
from coronaglue.polyalg import CPoly, ParamFamily, SPoly, ZSPoly


def test_coeff_lipschitz_examples():
    assert hnorm.coeff_lipschitz_bound(CPoly([1, 2, 1])) == pytest.approx(4.0)
    assert hnorm.coeff_lipschitz_bound(CPoly([7.0])) == 0.0
    assert hnorm.coeff_lipschitz_bound(CPoly([0, 0, 0, 1])) == pytest.approx(3.0)


def test_sup_disc_examples():
    c = hnorm.sup_disc(CPoly([0, 1]), 64)
    assert c.lo == pytest.approx(1.0)
    assert c.hi <= 1.0 + math.pi / 64 + 1e-15

    const = hnorm.sup_disc(CPoly([3.0 - 4.0j]), 64)
    assert const.lo == const.hi == pytest.approx(5.0)

    c = hnorm.sup_disc(CPoly([1.0, 1.0]), 256)
    # brute-force boundary oversampling puts the sup at 2 (attained at 1)
    assert c.lo == pytest.approx(2.0, abs=1e-6)
    assert c.hi - c.lo <= math.pi / 256 * 2 + 1e-15
    assert c.lo <= 2.0 <= c.hi


def test_sup_disc_soundness_against_brute_force(rng):
    brute = hnorm.boundary_points(2 ** 17)
    for _ in range(25):
        p = random_cpoly(rng, 10)
        cert = hnorm.sup_disc(p, 512)
        measured = float(np.abs(p.eval(brute)).max())
        assert cert.lo - 1e-12 <= measured <= cert.hi + 1e-12


def test_sup_disc_monotone_refinement(rng):
    for _ in range(25):
        p = random_cpoly(rng, 10)
        a = hnorm.sup_disc(p, 512)
        b = hnorm.sup_disc(p, 1024)
        assert b.lo >= a.lo - 1e-14
        assert b.hi <= a.hi + 1e-14


def test_sup_disc_scaling_equivariance(rng):
    p = random_cpoly(rng, 6)
    base = hnorm.sup_disc(p, 128)
    for c in (2.0, 0.5, 4.0):  # powers of two scale exactly
        scaled = hnorm.sup_disc(p * c, 128)
        assert scaled.lo == c * base.lo
        assert scaled.hi == c * base.hi


def test_vec_sup_norm_examples():
    cert = hnorm.vec_sup_norm([CPoly([0, 1]), CPoly([2, -1])], 512)
    assert cert.lo == pytest.approx(math.sqrt(10), abs=1e-4)
    assert cert.lo <= math.sqrt(10) <= cert.hi

    one = hnorm.vec_sup_norm([CPoly([1.0])])
    assert one.lo == one.hi == pytest.approx(1.0)

    zero = hnorm.vec_sup_norm([CPoly.zero(), CPoly.zero()])
    assert zero.lo == zero.hi == 0.0


def test_inf_disc_zero_free():
    cert = hnorm.inf_disc(CPoly([-2.0, 1.0]))  # z - 2
    assert cert.lo <= 1.0 <= cert.hi
    assert cert.lo > 0.5


def test_delta_lower_examples():
    family = worked_family()
    cert = hnorm.delta_lower(family)
    # calculus oracle: min of x^2 + (2+s-x)^2 over the disc x box sits at
    # (z, s) = (1, 0) with value 2
    assert cert.hi == pytest.approx(math.sqrt(2), abs=1e-3)
    assert cert.lo > 0
    assert cert.lo <= math.sqrt(2) <= cert.hi + 1e-12

    one = hnorm.delta_lower(constant_family())
    assert one.lo == one.hi == pytest.approx(1.0)

    z_only = ParamFamily([ZSPoly([SPoly([0.0]), SPoly([1.0])])], [(0.0, 1.0)])
    failing = hnorm.delta_lower(z_only)
    assert failing.hi == pytest.approx(0.0, abs=1e-12)
    assert failing.lo <= 0.0


def test_delta_lower_brute_force_soundness(rng):
    for _ in range(10):
        p = random_cpoly(rng, 6)
        comp = ZSPoly([SPoly([float(c.real)]) for c in p.coeffs])
        comp2 = ZSPoly([SPoly([float(c.imag), 0.5]) for c in p.coeffs])
        family = ParamFamily([comp, comp2], [(0.0, 1.0)])
        cert = hnorm.delta_lower(family, DiscKGrid(radial=8, angular=16, axis=5))
        fine = hnorm.delta_lower(family, DiscKGrid(radial=80, angular=160, axis=50))
        # a 100x denser scan can only move the sampled minimum down toward
        # the true infimum, which the certificate's lo must stay below
        assert fine.hi >= cert.lo - 1e-12


def test_delta_lower_negative_control():
    # (z, z - s/4) has a common zero z = s/4 inside the disc
    f1 = ZSPoly([SPoly([0.0]), SPoly([1.0])])
    f2 = ZSPoly([SPoly([0.0, -0.25]), SPoly([1.0])])
    family = ParamFamily([f1, f2], [(0.0, 1.0)])
    cert = hnorm.delta_lower(family)
    assert cert.hi <= 1e-2
    assert cert.lo <= 0.0


def test_sup_family_brackets_worked_value():
    family = worked_family()
    cert = hnorm.sup_family(family)
    # sup of the l2 modulus sits at (z, s) = (-1, 1) with value sqrt(17)
    assert cert.lo <= math.sqrt(17.0) <= cert.hi
    assert cert.lo == pytest.approx(math.sqrt(17.0), rel=1e-3)


def test_grid_validation():
    with pytest.raises(ValueError):
        DiscKGrid(radial=1)
    with pytest.raises(ValueError):
        hnorm.sup_disc(CPoly([1.0]), 4)
