"""Workload definitions: the families each workload runs and the CLI
arguments it passes, generated from the seed.

Every family runs the full user sequence (check, solve, verify, eval-grid)
unless it lists fewer commands.  Families whose operations fail because of a
known program fault are built from fixed coefficients, so the failure is the
same on every seed and the failed share of a run never depends on the seed.
The seeded families receive transformations that leave the work unchanged:

* an overall scale lambda in [0.85, 1.15]: delta and the data Lipschitz bound
  scale by lambda, the point solutions and c0 by 1/lambda, so the cover
  radius 1/(2 c0 L) and every refinement decision are the same;
* z -> -z: every sample grid of the program has an even number of angles, so
  suprema, infima and the cover are unchanged;
* the order of the two components.

The numbers in every output file still change with the seed, which the
independent checker then has to reproduce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

COMMANDS = ("check", "solve", "verify", "eval_grid")

# Shipped defaults of the solver section; a family overrides a few.
SOLVER_DEFAULTS = {
    "boundary_samples": 512, "radial_samples": 64, "angular_samples": 128,
    "axis_samples": 33, "degree_cap_factor": 8, "max_refinements": 6,
    "order": 2,
}


@dataclass(frozen=True)
class Family:
    """One problem configuration and the commands a round runs on it."""

    name: str
    components: list          # per component: dense z_coeffs tables
    bounds: list
    solver: dict = field(default_factory=dict)
    commands: tuple = COMMANDS

    def config(self):
        solver = dict(SOLVER_DEFAULTS)
        solver.update(self.solver)
        return {
            "family": {"components": [{"z_coeffs": t} for t in self.components]},
            "domain": {"bounds": [list(b) for b in self.bounds]},
            "solver": solver,
            "output": {"directory": ".", "formats": ["json", "csv"]},
            "rescale_factor": 1.0,
        }


@dataclass(frozen=True)
class Workload:
    families: tuple
    verify_args: tuple        # (--z-samples, --s-samples)
    grid_args: tuple          # eval-grid (--z-samples, --s-samples)


def _lead_family(name, degree, const, slope, **kw):
    """(0.3 z^degree, const + slope s - 0.2 z) on [0, 1]."""
    lead = [[0.0]] * degree + [[0.3]]
    return Family(name, [lead, [[const, slope], [-0.2]]], [(0.0, 1.0)], **kw)


def _rational_family():
    """(z - 3)/3 times the shipped worked family (z, (2 + s) - z)/3: the gcd
    (z - 3) is zero-free on the closed disc, so the Euclidean chain raises
    RationalGcd and every center takes the least-norm route."""
    c = (-1.0, 1.0 / 3.0)                         # (z - 3)/3
    first = [[0.0], [c[0] / 3.0], [c[1] / 3.0]]   # c(z) * z/3
    second = [                                    # c(z) * ((2 + s) - z)/3
        [c[0] * 2.0 / 3.0, c[0] / 3.0],
        [c[1] * 2.0 / 3.0 - c[0] / 3.0, c[1] / 3.0],
        [-c[1] / 3.0],
    ]
    return Family("rational-gcd", [first, second], [(0.0, 1.0)])


def _scale(table, factor):
    if isinstance(table, list):
        return [_scale(x, factor) for x in table]
    return table * factor


def seeded(family: Family, rng: random.Random) -> Family:
    """Apply the work-preserving transformations described in the module
    docstring."""
    lam = rng.uniform(0.85, 1.15)
    flip = rng.random() < 0.5
    comps = [
        [_scale(t, lam * (-1.0 if flip and j % 2 else 1.0))
         for j, t in enumerate(tables)]
        for tables in family.components
    ]
    if rng.random() < 0.5:
        comps.reverse()
    return Family(family.name, comps, family.bounds, family.solver,
                  family.commands)


def build(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    if name == "dense-cover-2d":
        # (0.3 z^4, 0.5 + 0.7 (s1 + s2) - 0.2 z) on [0, 1]^2: 100 centers at
        # r = 0.077; 13 samples per axis keep one round near 10 s, so a run
        # holds several rounds.
        lead = [[[0.0]]] * 4 + [[[0.3]]]
        fam = Family("dense-2d", [lead, [[[0.5, 0.7], [0.7, 0.0]], [[-0.2]]]],
                     [(0.0, 1.0), (0.0, 1.0)], {"axis_samples": 13})
        return Workload((fam,), (12, 6), (16, 12))
    if name == "ladder-1d":
        fams = (
            seeded(_lead_family("deg4", 4, 0.6, 0.3), rng),       # 1 center
            seeded(_lead_family("deg12", 12, 0.5, 1.5), rng),     # 6 centers
            _lead_family("deg8", 8, 0.5, 8.0),                    # 27 centers
            _lead_family("deg16", 16, 0.5, 12.0,                  # 41 centers
                         solver={"axis_samples": 65}),
            _rational_family(),                                   # 3 centers
            _lead_family("deg64", 64, 0.6, 0.3, commands=("check",)),
        )
        return Workload(fams, (12, 12), (16, 24))
    raise KeyError(name)


NAMES = ("dense-cover-2d", "ladder-1d")
