"""Reference per-component loops, kept only to test the component axis of
:class:`coronaglue.polyalg.ParamFamily`.

``solution_jets`` is ``smoothness._solution_jets`` as it was when a family
held one ``ZSPoly`` per component: one jet list entry, one Taylor shift and
one ``jet_mul`` per component.  The one-table code must give the same bits,
up to the sign of a coefficient that is exactly zero (zero padding adds +-0
terms).
"""

import numpy as np

from conftest import components
from coronaglue import jets


def solution_jets(evaluator, s, order, own_z=False):
    """(g jets, f jets) at the (n, d) block ``s``: lists of N arrays of shape
    (jet size, n, q), one per component."""
    family = evaluator.family
    dim, size = family.dim, family.size
    s = np.asarray(s, dtype=float)
    z = evaluator.z.reshape(len(s) if own_z else 1, -1)
    batch = (len(s), z.shape[1])

    eta = evaluator.pou.weight_jets(s, order)
    gt = [jets.jet_const(0.0, dim, order, batch, complex) for _ in range(size)]
    live = eta[:, 0] != 0.0
    for k in np.flatnonzero(live.any(axis=1)):
        rows = np.flatnonzero(live[k])
        ej = eta[k][:, rows, None]
        gk = np.broadcast_to(evaluator.row(k).reshape((size,) + z.shape),
                             (size,) + batch)[:, rows]
        for m in range(size):
            gt[m][:, rows] += ej * gk[m]

    f = [comp.taylor_coeffs(s, order, z)[:, 0] for comp in components(family)]
    phi = jets.jet_const(0.0, dim, order, batch, complex)
    for gm, fm in zip(gt, f):
        phi = phi + jets.jet_mul(gm, fm, dim, order)
    inv = jets.jet_reciprocal(phi, dim, order)
    return [jets.jet_mul(g, inv, dim, order) for g in gt], f
