"""Interval-arithmetic oracle for the certificates (mpmath.iv, outward
rounded): a branch-and-bound subdivision encloses the true extreme, and a
sup certificate's ``hi`` must lie above the enclosure's upper end, an inf
certificate's ``lo`` below its lower end.

Suprema are enclosed over the boundary circle times the box, which holds
the supremum over the closed disc by the maximum principle; infima over
the polar cells of the full disc times the box.
"""

import heapq

import numpy as np
import pytest

from conftest import components, stack, steep_family, worked_family
from coronaglue import glue, hnorm
from coronaglue.cover_pou import Cover, PartitionOfUnity, build_cover
from coronaglue.polyalg import CPoly, ParamFamily, SPoly, ZSPoly

mpmath = pytest.importorskip("mpmath")
iv = mpmath.iv
ZERO, ONE = iv.mpf(0), iv.mpf(1)

THETA = (-0.01, 6.3)   # a little more than one turn
BUDGET = 4000          # cells per enclosure
SHARE = 0.5            # enclosure width as a share of the certificate's


def _width(cert):
    """The enclosure width for ``cert``: SHARE of its own width, floored at
    1e-9 of its magnitude, so that the subdivision also stops against a
    certificate whose width has collapsed to 0."""
    return max(SHARE * (cert.hi - cert.lo), 1e-9 * max(abs(cert.lo), abs(cert.hi)))


def _enclose(modulus, cell, sup, width, bound):
    """[lo, hi] around the sup (or inf) of ``modulus`` over the box ``cell``
    (a list of float pairs); ``modulus(cell)`` is an interval holding every
    value on the cell.  The cell with the worst outer bound is bisected
    along its widest side, relative to the starting cell, until the
    enclosure is at most ``width`` wide, or until its inner end passes
    ``bound``, the certificate's ``hi`` for a sup or its ``lo`` for an inf:
    the certificate is then wrong, and the caller's soundness assertion
    fails at once instead of the subdivision using up its budget."""
    def outer(c):
        v = modulus(c)
        return mpmath.mpf(v.b) if sup else mpmath.mpf(v.a)

    def inner(c):
        # the values at two opposite corners, which reach the domain's faces
        ends = [modulus([(x[j], x[j]) for x in c]) for j in (0, 1)]
        return max(mpmath.mpf(v.a) for v in ends) if sup else \
            min(mpmath.mpf(v.b) for v in ends)

    def passed(best):
        return best > bound if sup else best < bound

    sign = -1 if sup else 1
    scale = [b - a for a, b in cell]
    best = inner(cell)
    heap = [(sign * outer(cell), 0, cell)]
    for count in range(1, BUDGET):
        key, _, c = heap[0]
        if abs(sign * key - best) <= width or passed(best):
            break
        heapq.heappop(heap)
        i = max(range(len(c)), key=lambda j: (c[j][1] - c[j][0]) / scale[j])
        a, b = c[i]
        for half in ((a, (a + b) / 2.0), ((a + b) / 2.0, b)):
            child = c[:i] + [half] + c[i + 1:]
            heapq.heappush(heap, (sign * outer(child), count, child))
            best = max(best, inner(child)) if sup else min(best, inner(child))
    end = sign * heap[0][0]
    if abs(end - best) > width and not passed(best):
        pytest.fail(f"subdivision budget exhausted with the "
                    f"{'sup' if sup else 'inf'} between {float(best):.6g} and "
                    f"{float(end):.6g}")
    return (best, end) if sup else (end, best)


def _z(radius, theta):
    r, t = iv.mpf(list(radius)), iv.mpf(list(theta))
    return r * iv.cos(t), r * iv.sin(t)


def _complex_horner(coeffs, z):
    """Horner in z = (re, im); ``coeffs`` are (re, im) interval pairs,
    lowest power first."""
    re, im = ZERO, ZERO
    for cr, ci in reversed(coeffs):
        re, im = re * z[0] - im * z[1] + cr, re * z[1] + im * z[0] + ci
    return re, im


def _cpoly(p: CPoly):
    """The coefficients of p as (re, im) interval pairs."""
    return [(iv.mpf(float(c.real)), iv.mpf(float(c.imag))) for c in p.coeffs]


def _horner(table, s):
    """The parameter polynomial with the nested coefficient table ``table``
    (table[e1][e2] multiplies s1^e1 s2^e2) at the intervals ``s``, one per
    axis: Horner in s1 over rows that are Horner in s2."""
    acc = ZERO
    for row in reversed(table):
        acc = acc * s[0] + (row if len(s) == 1 else _horner(row, s[1:]))
    return acc


def _zspoly(p: ZSPoly):
    """s -> the z-coefficients of the one-component p(., s) as (re, im)
    interval pairs; ``s`` holds one interval per parameter axis."""
    def to_iv(x):
        return [to_iv(y) for y in x] if isinstance(x, list) else iv.mpf(x)
    (rows,) = p.coeffs
    tables = [to_iv(table.tolist()) for table in rows]

    def coeffs(s):
        return [(_horner(table, s), ZERO) for table in tables]
    return coeffs


def _l2(values):
    return iv.sqrt(sum((re ** 2 + im ** 2 for re, im in values), ZERO))


def _s(cell):
    """The parameter intervals of the last axes of a cell."""
    return [iv.mpf(list(x)) for x in cell]


def _family_modulus(family):
    """The l2 modulus of the family on a (radius, theta, s...) or, on the
    circle, a (theta, s...) cell."""
    comps = [_zspoly(p) for p in components(family)]
    dim = family.dim

    def modulus(cell):
        radius = cell[0] if len(cell) == dim + 2 else (1.0, 1.0)
        z, s = _z(radius, cell[-dim - 1]), _s(cell[-dim:])
        return _l2([_complex_horner(f(s), z) for f in comps])
    return modulus


def _glued_residual(family, pou, points):
    """|1 - gtilde^T f| on a (theta, s...) cell, written sum_k eta_k (q_k - 1)
    with q_k = g_k^T f and eta_k from the exact mollifier bump."""
    comps = [_zspoly(p) for p in components(family)]
    radius = iv.mpf(pou.cover.radius)
    centers = [([iv.mpf(x) for x in c], [_cpoly(gm) for gm in sol.g])
               for c, sol in zip(pou.cover.centers, points.solutions)]

    def modulus(cell):
        z, s = _z((1.0, 1.0), cell[0]), _s(cell[1:])
        f = [comp(s) for comp in comps]
        bumps, terms = [], []
        for center, g in centers:
            t2 = sum((((x - c) / radius) ** 2 for x, c in zip(s, center)), ZERO)
            if t2.a >= 1:
                continue
            beta = iv.exp(-ONE / (ONE - iv.mpf([t2.a, min(t2.b, ONE)])))
            if t2.b >= 1:
                beta = iv.mpf([0, beta.b])
            # 1 - q_k multiplied out in z first, so that terms cancelling in
            # exact arithmetic cancel here too
            resid = [[ZERO, ZERO] for _ in range(max(map(len, g)) + max(map(len, f)))]
            resid[0][0] = -ONE
            for gm, fm in zip(g, f):
                for i, (a, b) in enumerate(gm):
                    for j, (c, d) in enumerate(fm):
                        resid[i + j][0] += a * c - b * d
                        resid[i + j][1] += a * d + b * c
            bumps.append(beta)
            terms.append(_complex_horner(resid, z))
        total = sum(bumps, ZERO)
        eta = [iv.mpf([(b.a / total.b).a,
                       min((b.b / total.a).b, ONE) if total.a > 0 else ONE])
               for b in bumps]
        # the weights are a convex combination, so each part also lies in
        # the hull of the live terms' parts; the intersection holds the value
        parts = []
        for j in (0, 1):
            weighted = sum((e * t[j] for e, t in zip(eta, terms)), ZERO)
            parts.append(iv.mpf([max(weighted.a, min(t[j].a for t in terms)),
                                 min(weighted.b, max(t[j].b for t in terms))]))
        return _l2([parts])
    return modulus


@pytest.mark.parametrize("coeffs", [
    [3.0 - 4.0j],
    [1.0, 1.0],
    [0.2, -0.5 + 0.1j, 0.3j],
    [0.5, 0.0, -0.25, 0.1 + 0.2j],
    [0.1, 0.3 - 0.2j, 0.0, 0.4, -0.2 + 0.1j],
])
def test_sup_disc_upper_end_covers_the_interval_enclosure(coeffs):
    p = CPoly(coeffs)
    cert = hnorm.sup_disc(p, 64)

    coeffs = _cpoly(p)

    def modulus(cell):
        return _l2([_complex_horner(coeffs, _z((1.0, 1.0), cell[0]))])

    lo, hi = _enclose(modulus, [THETA], True, _width(cert), cert.hi)
    assert lo <= hi <= cert.hi


def _fixed_family():
    """(0.5 z^2 + (0.2 - 0.3 s), 0.6 - (0.4 - 0.1 s) z) on [0, 1]."""
    f1 = ZSPoly([[SPoly([0.2, -0.3]), SPoly([0.0]), SPoly([0.5])]])
    f2 = ZSPoly([[SPoly([0.6]), SPoly([-0.4, 0.1])]])
    return ParamFamily(stack(f1, f2), [(0.0, 1.0)])


def _s_quadratic_family():
    """((s - 0.3)^2 + 0.1, 0.01 z) on [0, 1]: the infimum 0.1 sits between
    the parameter nodes, so it needs the parameter slack."""
    f1 = ZSPoly([[SPoly([0.19, -0.6, 1.0])]])
    f2 = ZSPoly([[SPoly([0.0]), SPoly([0.01])]])
    return ParamFamily(stack(f1, f2), [(0.0, 1.0)])


@pytest.mark.parametrize("family", [worked_family(), _fixed_family(),
                                    _s_quadratic_family()],
                         ids=["worked", "fixed", "s-quadratic"])
def test_family_certificates_cover_the_interval_enclosure(family):
    box = list(family.box)

    modulus = _family_modulus(family)
    delta = hnorm.delta_lower(family, 16, 32, 9)
    lo, _ = _enclose(modulus, [(0.0, 1.0), THETA] + box, False, _width(delta),
                     delta.lo)
    assert delta.lo <= lo

    sup = hnorm.sup_family(family, 9, 64)
    _, hi = _enclose(modulus, [THETA] + box, True, _width(sup), sup.hi)
    assert hi <= sup.hi


def test_residual_certificate_covers_the_interval_enclosure():
    family = steep_family()
    cover = build_cover(family.box, 0.2)
    assert cover.size == 3
    pou = PartitionOfUnity(cover)
    points = glue.solve_at_samples(family, cover)
    cert = glue.residual_certify(family, pou, points, 64, 9)
    _, hi = _enclose(_glued_residual(family, pou, points),
                     [THETA] + list(family.box), True, _width(cert), cert.hi)
    assert hi <= cert.hi


def _two_column_case():
    """((z + 2 + 2 s1 + s2) / 6, (2 - z) / 6) on [0, 1] x [0, 1/4], glued over
    three columns of two centers at s1 = 0, 1/2, 1 with r = 0.26.  The
    residual peaks just inside the Voronoi edges s1 = 1/4 and 3/4, off the
    global 9-node grid and more than half a radius from every center."""
    sixth = 1.0 / 6.0
    f1 = ZSPoly([[SPoly([[2 * sixth, sixth], [2 * sixth, 0.0]]), SPoly([[sixth]])]])
    f2 = ZSPoly([[SPoly([[2 * sixth]]), SPoly([[-sixth]])]])
    family = ParamFamily(stack(f1, f2), [(0.0, 1.0), (0.0, 0.25)])
    cover = Cover(tuple((x, y) for x in (0.0, 0.5, 1.0) for y in (0.0625, 0.1875)),
                  0.26)
    return family, PartitionOfUnity(cover), glue.solve_at_samples(family, cover)


def test_two_parameter_residual_certificate_covers_the_interval_enclosure(monkeypatch):
    family, pou, points = _two_column_case()
    cert = glue.residual_certify(family, pou, points, 64, 9)
    # every node of each support box: the bound before the support balls,
    # which the box corners' nodes put at least 10 % higher
    monkeypatch.setattr(hnorm, "ball_mask",
                        lambda box, axis, ball: np.ones((axis,) * len(box), bool))
    boxed = glue.residual_certify(family, pou, points, 64, 9)
    assert cert.samples_used < boxed.samples_used
    assert boxed.hi >= 1.1 * cert.hi
    _, hi = _enclose(_glued_residual(family, pou, points),
                     [THETA] + list(family.box), True, _width(cert), cert.hi)
    assert hi <= cert.hi
