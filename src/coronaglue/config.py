"""Problem configuration: explicit coefficient tables, no expression parsing.

A problem file is JSON:

    {
      "family": {"components": [{"z_coeffs": [[2.0, 1.0], [-1.0]]}, ...]},
      "domain": {"bounds": [[0.0, 1.0]]},
      "solver": {"boundary_samples": 512, ...},
      "output": {"directory": "."},
      "rescale_factor": 1.0
    }

``z_coeffs[j]`` is the dense coefficient table of the parameter polynomial
multiplying z**j: a flat list for one parameter axis, a rectangular nested
list for two.  Parsing is lossless: serialize(parse(text)) is semantically
identical to the input.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .polyalg import ParamFamily, SPoly, ZSPoly

MAX_Z_DEGREE = 64
MAX_S_DEGREE = 8
MAX_ORDER = 6


@dataclass(frozen=True)
class SolverSettings:
    boundary_samples: int = 512
    radial_samples: int = 64
    angular_samples: int = 128
    axis_samples: int = 33
    degree_cap_factor: int = 8
    max_refinements: int = 6
    order: int = 2

    def validate(self):
        checks = [
            ("boundary_samples", self.boundary_samples >= 8),
            ("radial_samples", self.radial_samples >= 2),
            ("angular_samples", self.angular_samples >= 4),
            ("axis_samples", self.axis_samples >= 2),
            ("degree_cap_factor", self.degree_cap_factor >= 1),
            ("max_refinements", self.max_refinements >= 0),
            ("order", 0 <= self.order <= MAX_ORDER),
        ]
        for name, ok in checks:
            if not ok:
                raise ConfigError(f"solver.{name} = {getattr(self, name)} out of range")


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "."

    def validate(self):
        if not isinstance(self.directory, str) or not self.directory:
            raise ConfigError("output.directory must be a nonempty string")

    def to_dict(self):
        return {"directory": self.directory}


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(x, path):
    # NaN, infinities and JSON integers beyond the float range all fail here
    if not (_is_number(x) and abs(x) <= float(np.finfo(float).max)):
        raise ConfigError(f"{path} must be a finite number, got {x!r}")
    return float(x)


def _bounds(raw):
    """domain.bounds as ((lower, upper), ...)."""
    if not isinstance(raw, list):
        raise ConfigError("domain.bounds must be a list of [lower, upper] pairs")
    bounds = []
    for i, pair in enumerate(raw):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ConfigError(f"domain.bounds[{i}] must be a [lower, upper] pair, "
                              f"got {pair!r}")
        bounds.append(tuple(_number(x, f"domain.bounds[{i}]") for x in pair))
    return tuple(bounds)


def _int_field(raw, path, default):
    value = raw.get(path.split(".")[-1], default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return value


def _table_shape(table, path):
    """Validate a dense coefficient table; returns (depth, shape)."""
    if _is_number(table):
        raise ConfigError(f"{path} must be a list, got a bare number")
    if not isinstance(table, list) or not table:
        raise ConfigError(f"{path} must be a nonempty list")
    if all(_is_number(x) for x in table):
        for x in table:
            _number(x, path)
        return 1, (len(table),)
    widths = set()
    for i, row in enumerate(table):
        depth, shape = _table_shape(row, f"{path}[{i}]")
        if depth != 1:
            raise ConfigError(f"{path} nests deeper than two parameter axes")
        widths.add(shape[0])
    if len(widths) != 1:
        raise ConfigError(f"{path} must be rectangular")
    return 2, (len(table), widths.pop())


@dataclass(frozen=True)
class ProblemConfig:
    components: tuple          # tuple of tuples of dense coefficient tables
    bounds: tuple              # ((a, b), ...) per parameter axis
    solver: SolverSettings = field(default_factory=SolverSettings)
    output: OutputSettings = field(default_factory=OutputSettings)
    rescale_factor: float = 1.0

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def validate(self):
        if not 1 <= self.dim <= 2:
            raise ConfigError(f"domain has {self.dim} axes; only 1 or 2 supported")
        for i, (a, b) in enumerate(self.bounds):
            if not (math.isfinite(a) and math.isfinite(b) and b > a):
                raise ConfigError(f"domain.bounds[{i}] must be finite with upper > lower")
        if not self.components:
            raise ConfigError("family.components must be nonempty")
        for ci, tables in enumerate(self.components):
            if not tables:
                raise ConfigError(f"family.components[{ci}].z_coeffs must be nonempty")
            if len(tables) - 1 > MAX_Z_DEGREE:
                raise ConfigError(
                    f"family.components[{ci}] has z-degree {len(tables)-1} > {MAX_Z_DEGREE}"
                )
            for zi, table in enumerate(tables):
                path = f"family.components[{ci}].z_coeffs[{zi}]"
                depth, shape = _table_shape(list(table), path)
                if depth != self.dim:
                    raise ConfigError(
                        f"{path} has {depth} parameter axes, domain has {self.dim}"
                    )
                if any(n - 1 > MAX_S_DEGREE for n in shape):
                    raise ConfigError(
                        f"{path} exceeds parameter degree {MAX_S_DEGREE}"
                    )
        if not (math.isfinite(self.rescale_factor) and self.rescale_factor > 0):
            raise ConfigError("rescale_factor must be positive and finite")
        self.solver.validate()
        self.output.validate()

    def to_family(self) -> ParamFamily:
        return ParamFamily(ZSPoly([[SPoly(np.asarray(t, dtype=float)) for t in tables]
                                   for tables in self.components]), self.bounds)

    def scaled(self, factor: float) -> "ProblemConfig":
        """Multiply every component by ``factor``; the accumulated factor is
        recorded so reported solution norms can be mapped back (the solution
        scales by 1 / factor)."""
        if not (math.isfinite(factor) and factor > 0):
            raise ConfigError("rescale factor must be positive and finite")

        def scale_table(t):
            return [scale_table(x) for x in t] if isinstance(t, list) else t * factor

        comps = tuple(
            tuple(scale_table(list(_deep_list(t))) for t in tables)
            for tables in self.components
        )
        return replace(self, components=comps,
                       rescale_factor=self.rescale_factor * factor)

    def to_dict(self):
        return {
            "family": {
                "components": [
                    {"z_coeffs": [_deep_list(t) for t in tables]}
                    for tables in self.components
                ]
            },
            "domain": {"bounds": [list(b) for b in self.bounds]},
            "solver": asdict(self.solver),
            "output": self.output.to_dict(),
            "rescale_factor": self.rescale_factor,
        }

    @staticmethod
    def from_dict(raw) -> "ProblemConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        try:
            family = raw["family"]
            comps_raw = family["components"]
            bounds_raw = raw["domain"]["bounds"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"missing required section: {exc}") from exc
        if not isinstance(comps_raw, list):
            raise ConfigError("family.components must be a list")
        components = []
        for ci, entry in enumerate(comps_raw):
            if not isinstance(entry, dict) or not isinstance(entry.get("z_coeffs"), list):
                raise ConfigError(
                    f"family.components[{ci}] needs a z_coeffs table"
                )
            components.append(tuple(entry["z_coeffs"]))
        bounds = _bounds(bounds_raw)

        solver_raw = raw.get("solver", {})
        if not isinstance(solver_raw, dict):
            raise ConfigError("solver must be an object")
        defaults = SolverSettings()
        solver = SolverSettings(**{
            name: _int_field(solver_raw, f"solver.{name}", getattr(defaults, name))
            for name in asdict(defaults)
        })
        output_raw = raw.get("output", {})
        if not isinstance(output_raw, dict):
            raise ConfigError("output must be an object")
        output = OutputSettings(directory=output_raw.get("directory", "."))
        cfg = ProblemConfig(
            components=tuple(components),
            bounds=bounds,
            solver=solver,
            output=output,
            rescale_factor=_number(raw.get("rescale_factor", 1.0), "rescale_factor"),
        )
        cfg.validate()
        return cfg


def _deep_list(t):
    if isinstance(t, (list, tuple)):
        return [_deep_list(x) for x in t]
    return float(t)


def read_json(path):
    """The JSON value of the UTF-8 file ``path``.  A file that cannot be
    read, is not UTF-8 text or is not JSON is a ConfigError; a parse error
    names its line and column, since a solution file is one line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason} at byte "
                          f"{exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def load_config(path) -> ProblemConfig:
    return ProblemConfig.from_dict(read_json(path))


@contextmanager
def open_output(path):
    """``path`` opened for UTF-8 text with LF endings.  An OSError becomes a
    ConfigError, and any failure after the open removes the regular file
    this call opened, so no half-written output is left behind."""
    try:
        fh = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            yield fh
    except BaseException as exc:
        if os.path.isfile(path):
            os.unlink(path)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        raise


def _strict(value):
    """``value`` with every non-finite float spelled as the string "nan",
    "inf" or "-inf", so strict JSON parsers read it."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if value != value else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def write_json(payload, path, indent=2):
    """Strict JSON with sorted keys and LF endings.  ``indent=None`` writes
    one line with no whitespace between tokens; one ``json.dumps`` call then
    runs the C encoder, which ``json.dump`` and any indent never use."""
    separators = (",", ":") if indent is None else None
    with open_output(path) as fh:
        fh.write(json.dumps(_strict(payload), indent=indent, separators=separators,
                            sort_keys=True, allow_nan=False))
        fh.write("\n")


def save_config(config: ProblemConfig, path):
    config.validate()
    write_json(config.to_dict(), path)
