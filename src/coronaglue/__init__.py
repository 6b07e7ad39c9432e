"""Certified Bezout solutions on the unit disc depending smoothly on a
parameter: pointwise solvers, partition-of-unity gluing, and interval
certificates for every bound the construction relies on.

The package level carries the two evaluators of a solved family and the
exception classes; the pipeline lives in :mod:`coronaglue.glue` and the
configuration loader in :mod:`coronaglue.config`.
"""

from .errors import (
    ConfigError,
    CoronaGlueError,
    CoronaUncertified,
    CoronaViolation,
    DomainError,
    InternalInconsistency,
    PointSolveFailure,
    RefinementExhausted,
)
from .glue import g_eval
from .smoothness import g_partial

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "CoronaGlueError", "CoronaUncertified", "CoronaViolation",
    "DomainError", "InternalInconsistency", "PointSolveFailure",
    "RefinementExhausted", "g_eval", "g_partial",
]
