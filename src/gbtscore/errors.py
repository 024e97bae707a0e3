"""Semantic exception hierarchy.

Every error raised by this package derives from :class:`GbtError`, so callers
can catch one type. The CLI maps subclasses onto exit codes.
"""

__all__ = ["GbtError", "ParameterError", "InputError", "SupportError", "EditError",
           "MismatchError", "SolverError"]


class GbtError(Exception):
    """Base class for all errors raised by gbtscore."""


class ParameterError(GbtError):
    """A model or configuration parameter is outside its valid domain."""


class _RowError(GbtError):
    """Carries ``row``, the 1-based line number (header included), when one line is at fault."""

    def __init__(self, message, row=None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class InputError(_RowError):
    """Malformed input data (CSV structure, duplicate rows, bad literals)."""


class SupportError(_RowError):
    """A comparison value lies outside the model's support closure."""


class EditError(GbtError):
    """An edit violates its preconditions (absent pair, no-op change, ...)."""


class MismatchError(GbtError):
    """Two objects that must share an alternative set or pair set do not."""


class SolverError(GbtError):
    """The solver failed to converge or hit a numerical problem.

    ``report`` holds the partial convergence record when available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
