"""Exception taxonomy shared across the package.

Callers (in particular the CLI) map these onto exit codes: usage, config
and data problems exit 2; numerical failures exit 1.
"""

from contextlib import contextmanager


class SpdHgrError(Exception):
    """Base class for all package errors."""


class InvalidInput(SpdHgrError, ValueError):
    """An argument violates a documented precondition."""


class ConfigError(SpdHgrError, ValueError):
    """Inconsistent or missing configuration / dataset layout."""


class ParseError(SpdHgrError, ValueError):
    """Malformed data file; message names the file and line."""


class NumericalFailure(SpdHgrError, RuntimeError):
    """A numerical routine failed (non-convergence, NaN loss, ...)."""


class NotSPD(NumericalFailure):
    """A matrix required to be symmetric positive definite is not."""


class RankDeficient(NumericalFailure):
    """A matrix required to have full row rank does not."""


@contextmanager
def named(*where):
    """Raise a package error from the block again as the same type, with
    the non-empty parts of ``where`` (a file, a stage) in front of its
    message."""
    try:
        yield
    except SpdHgrError as exc:
        prefix = ", ".join(w for w in where if w)
        if not prefix:
            raise
        raise type(exc)(f"{prefix}: {exc}") from exc
