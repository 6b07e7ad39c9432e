"""Solution-file persistence and grid exports.

A solution file is self-contained: the full problem configuration, the cover,
every pointwise solution's coefficients, and all certificates, so
verification needs no recomputation of the pipeline.  Complex numbers are
stored as [re, im] pairs, and every non-finite float, such as the infinite
cover radius that older solution files hold for data constant in s, as the
string "nan", "inf" or "-inf".
Files are written with sorted keys and LF endings so identical runs produce
byte-identical artifacts: the solution file as one line of compact JSON,
reports and summaries indented for reading.  Readers accept any whitespace.

A point solution's ``norm_cert`` and ``residual_cert`` are stored as their
``lo`` and ``hi`` alone.  The reader derives the rest: the quantity from the
names :func:`bezout_point.certify` gives them, and the sample count from
``config.solver.boundary_samples``.  An older file that still stores
``quantity`` or ``samples_used`` there loads only when they equal the
derived values; any other value is a ConfigError naming the field.  The
glued certificates keep all four fields, each quantity the one of
:data:`GLUED_QUANTITIES`.  The reader rebuilds the cover from
``config.domain.bounds`` and ``cover.radius`` and refuses stored
``cover.centers`` (kept for other readers) that differ from it.  An older
file's ``refinements`` is not read.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import hnorm
from .bezout_point import CERT_QUANTITIES, PointSolution
from .config import ProblemConfig, _number, open_output, read_json, write_json
from .cover_pou import PartitionOfUnity, build_cover
from .errors import ConfigError
from .glue import GluedEvaluator, GluedSolution, PointSolutionSet
from .hnorm import NormCert
from .polyalg import CPoly

SOLUTION_FORMAT = "coronaglue-solution-v1"
# the quantity of each glued certificate, by its field of GluedSolution
GLUED_QUANTITIES = {"delta_cert": hnorm.CORONA_LOWER, "sup_cert": hnorm.L2_SUP,
                    "residual_cert": hnorm.GLUED_RESIDUAL}


def _complex_list(p: CPoly):
    return [[float(c.real), float(c.imag)] for c in p.coeffs]


def _count(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{where} must be a nonnegative integer, got {value!r}")
    return value


def _cpoly_from_list(pairs, where: str) -> CPoly:
    return CPoly([complex(_number(re, where), _number(im, where))
                  for re, im in pairs])


def _bounds(d, where: str):
    lo, hi = _number(d["lo"], f"{where}.lo"), _number(d["hi"], f"{where}.hi")
    if lo > hi:
        raise ConfigError(f"{where} has lo = {lo!r} > hi = {hi!r}")
    return lo, hi


def _cert_from_dict(d, where: str, quantity: str) -> NormCert:
    """A glued certificate, whose stored quantity must be ``quantity``."""
    if d["quantity"] != quantity:
        raise ConfigError(f"{where}.quantity is {d['quantity']!r}, not {quantity!r}")
    return NormCert(*_bounds(d, where), quantity,
                    _count(d["samples_used"], f"{where}.samples_used"))


def point_cert_dict(cert: NormCert) -> dict:
    """The file form of a point certificate: its ``lo`` and ``hi``."""
    return {"lo": cert.lo, "hi": cert.hi}


def _point_cert_from_dict(d, where: str, quantity: str, samples: int) -> NormCert:
    """A point certificate from its ``lo`` and ``hi``, with the derived
    quantity and sample count; an older file's stored copies must equal
    them."""
    for key, derived in (("quantity", quantity), ("samples_used", samples)):
        if key in d and (type(d[key]) is not type(derived) or d[key] != derived):
            raise ConfigError(f"{where}.{key} is {d[key]!r}, not the derived {derived!r}")
    return NormCert(*_bounds(d, where), quantity, samples)


def _cover_from_dict(d, bounds) -> PartitionOfUnity:
    """The cover that :func:`build_cover` lays out on ``bounds`` with the
    stored radius; the stored centers must be its centers.  An older file's
    ``cover.box`` is not read."""
    radius = math.inf if d["radius"] == "inf" else _number(d["radius"], "cover.radius")
    if not radius > 0.0:
        raise ConfigError('cover.radius must be positive or "inf"')
    centers = d["centers"]
    cover = build_cover(bounds, radius, max_size=len(centers))
    if centers != [list(c) for c in cover.centers]:
        raise ConfigError("cover.centers differ from build_cover(domain.bounds, cover.radius)")
    return cover


def solution_to_dict(config: ProblemConfig, glued: GluedSolution) -> dict:
    return {
        "format": SOLUTION_FORMAT,
        "config": config.to_dict(),
        "result": {
            "cover": {"centers": [list(c) for c in glued.cover.centers],
                      "radius": glued.cover.radius},
            "point_solutions": [
                {
                    "g": [_complex_list(gm) for gm in sol.g],
                    "norm_cert": point_cert_dict(sol.norm_cert),
                    "residual_cert": point_cert_dict(sol.residual_cert),
                }
                for sol in glued.points.solutions
            ],
            "c0": glued.c0,
            "delta_cert": glued.delta_cert.to_dict(),
            "sup_cert": glued.sup_cert.to_dict(),
            "residual_cert": glued.residual_cert.to_dict(),
        },
    }


def solution_from_dict(raw: dict):
    """Rebuild (ProblemConfig, GluedSolution) from a solution dictionary.

    Fails closed: a missing or mistyped field, a non-finite number or a
    certificate with lo > hi raises ConfigError, so a tampered file is
    refused rather than verified or crashed on."""
    if not isinstance(raw, dict) or raw.get("format") != SOLUTION_FORMAT:
        raise ConfigError(f"not a {SOLUTION_FORMAT} file")
    try:
        return _solution_from_dict(raw)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"solution file lacks the field {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed solution file: {exc}") from exc


def _solution_from_dict(raw: dict):
    config = ProblemConfig.from_dict(raw["config"])
    family = config.to_family()
    result = raw["result"]
    cover = _cover_from_dict(result["cover"], config.bounds)
    entries = result["point_solutions"]
    if len(entries) != cover.size:
        raise ConfigError(f"{len(entries)} point solutions for "
                          f"{cover.size} cover centers")
    samples = config.solver.boundary_samples
    solutions = []
    for k, entry in enumerate(entries):
        where = f"point_solutions[{k}]"
        if len(entry["g"]) != family.size:
            raise ConfigError(f"{where}.g needs {family.size} components")
        solutions.append(PointSolution(
            g=tuple(_cpoly_from_list(gm, f"{where}.g") for gm in entry["g"]),
            **{name: _point_cert_from_dict(entry[name], f"{where}.{name}", quantity, samples)
               for name, quantity in CERT_QUANTITIES.items()},
        ))
    c0 = _number(result["c0"], "c0")
    points = PointSolutionSet(tuple(solutions))
    if c0 != points.c0:
        raise ConfigError(f"c0 = {c0!r} differs from the largest point "
                          f"norm_cert.hi, {points.c0!r}")
    glued = GluedSolution(
        family=family,
        cover=cover,
        points=points,
        **{name: _cert_from_dict(result[name], name, quantity)
           for name, quantity in GLUED_QUANTITIES.items()},
    )
    return config, glued


def save_solution(config: ProblemConfig, glued: GluedSolution, path):
    """The solution file: one line of compact JSON, about 40 % of the
    indented bytes."""
    write_json(solution_to_dict(config, glued), path, indent=None)


def load_solution(path):
    return solution_from_dict(read_json(path))


def export_grid_csv(glued: GluedSolution, path, radial: int, angular: int,
                    s_per_axis: int):
    """One CSV row per grid node per component; returns (row count, summary).

    Columns: re_z, im_z, s1[, s2], k, re_g, im_g, abs_phi -- k is the
    1-based component index.  Floats carry 17 significant digits.  The rows
    run over parameter points (row-major over the s axes), then the z nodes
    of :func:`hnorm.disc_points` (radii, then angles), then components:
    radial x angular x s_per_axis^d x N_f rows, and the radius-0 ring
    repeats z = 0 once per angle.

    The export streams one parameter point at a time: the text of a point's
    rows comes from one row template, built once per export with the z cells
    and k in it, filled by one ``%`` with that point's values.  Each |phi|
    is formatted once, for the N_f rows of its (point, z node).  A grid
    point with |phi| < 1/2 raises the evaluator's InternalInconsistency
    before any row of its block is written; that, or any other failure,
    removes the file, and an OSError is a ConfigError.
    """
    family = glued.family
    z_nodes = hnorm.disc_points(radial, angular)
    axes = hnorm.box_axes(family.box, s_per_axis)
    s_cols = [f"s{i+1}" for i in range(family.dim)]
    header = ["re_z", "im_z", *s_cols, "k", "re_g", "im_g", "abs_phi"]

    # the rows of one point: z cells and k in the text, slots for re(g),
    # im(g) and the |phi| cell, split where the point's s cells go
    z_cells = [f"{z.real:.17g},{z.imag:.17g}," for z in z_nodes.tolist()]
    template = "".join(f"{z_cell}\0{k},%.17g,%.17g,%s\n" for z_cell in z_cells
                       for k in range(1, family.size + 1)).split("\0")
    s_slots = "%.17g," * family.dim

    rows = 0
    with open_output(path) as fh:
        fh.write(",".join(header) + "\n")
        evaluator = GluedEvaluator(family, glued.cover, glued.points, z_nodes)
        for block in evaluator.sweep(axes) if z_nodes.size else ():
            g = block.g()  # the guard, before any row of the block
            n, n_f, n_z = g.shape
            # one |phi| cell per (point, z node), shared by its N_f rows
            absphi = np.abs(block.phi).ravel().tolist()
            phi_cells = ("%.17g\0" * len(absphi) % tuple(absphi)).split("\0")[:-1]
            # (point, z, k, column), the order of the rows and their slots
            values = np.empty((n, n_z, n_f, 3), dtype=object)
            values[..., 0] = g.real.transpose(0, 2, 1)
            values[..., 1] = g.imag.transpose(0, 2, 1)
            values[..., 2] = np.array(phi_cells, dtype=object).reshape(n, n_z, 1)
            for s, point in zip(block.s.tolist(), values.reshape(n, -1).tolist()):
                fh.write((s_slots % tuple(s)).join(template) % tuple(point))
            rows += g.size

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


def save_summary(summary: dict, path):
    write_json(summary, path)
