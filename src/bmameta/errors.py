"""Exception hierarchy shared across the package.

Input-side problems (bad parameters, malformed files, data outside a
family's support, data too few or too degenerate to estimate from, and
operations undefined for their object) and computation-side problems (non-convergence,
degenerate evidence) are kept on separate branches so the CLI can map
them to distinct exit codes.
"""


class BmaMetaError(Exception):
    """Base class for all errors raised by this package."""


class InputError(BmaMetaError):
    """Base class for problems with user-supplied input."""


class ParameterError(InputError):
    """A distribution or configuration parameter is outside its domain."""


class DomainError(InputError):
    """A data value lies outside the support required by an operation."""


class ParseError(InputError):
    """A file or specification string could not be parsed.

    Carries ``line`` (1-based, 0 when not applicable) so CLI messages can
    point at the offending row.
    """

    def __init__(self, message: str, line: int = 0):
        super().__init__(message if line == 0 else f"line {line}: {message}")
        self.line = line


class UnsupportedOperationError(InputError):
    """The requested operation is undefined for the given object."""


class DegenerateDataError(InputError):
    """The data admit no meaningful estimate (e.g. zero variance)."""


class InsufficientDataError(InputError):
    """Fewer observations than the operation requires."""


class ComputationError(BmaMetaError):
    """Base class for numerical failures during an analysis."""


class ConvergenceError(ComputationError):
    """An iterative routine exhausted its budget before converging.

    ``bracket`` holds the last (log value, log error estimate) pair so
    callers can judge how far off the result was.
    """

    def __init__(self, message: str, bracket: tuple = ()):
        super().__init__(message)
        self.bracket = bracket


class DegenerateEvidenceError(ComputationError):
    """Every model in an ensemble assigned the data zero likelihood."""


class EmptyTrainingError(ComputationError):
    """No comparisons survived the training-set filters."""


class CorpusEvaluationError(ComputationError):
    """Too many comparisons in a corpus failed to evaluate."""
