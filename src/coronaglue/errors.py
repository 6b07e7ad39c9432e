"""Exception hierarchy for the solver pipeline."""


class CoronaGlueError(Exception):
    """Base class for all package errors; keyword details (``witness``,
    ``certificate``, ``sup``, ``rounds``) are kept as attributes."""

    def __init__(self, message, **details):
        super().__init__(message)
        self.__dict__.update(details)


class DomainError(CoronaGlueError, ValueError):
    """A point lies outside the parameter box, or an argument is out of range."""


class ConfigError(CoronaGlueError, ValueError):
    """Problem configuration failed to parse or validate."""


class CoronaViolation(CoronaGlueError):
    """The input tuple has a common zero inside the closed unit disc, so no
    bounded solution of the Bezout equation exists."""


class PointSolveFailure(CoronaGlueError):
    """No solver produced an acceptable residual at a sample point."""


class CoronaUncertified(CoronaGlueError):
    """The lower-bound certificate could not establish a positive margin;
    carries it and the data's sup certificate."""


class RefinementExhausted(CoronaGlueError):
    """The cover-refinement loop hit its round limit without passing the
    residual gate; carries the last round's certificate and every round."""


class InternalInconsistency(CoronaGlueError):
    """An invariant guaranteed by an earlier certificate failed at evaluation
    time; the certificate must be wrong."""
