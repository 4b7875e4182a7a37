"""Exception types shared across the package.

Every failure mode surfaces as one of these classes so callers (and the
CLI exit-code mapping) can distinguish configuration problems, bad data
files, and genuine numerical breakdowns.
"""


class ShapeError(ValueError):
    """Array arguments have incompatible or invalid dimensions."""


class PreconditionError(ValueError):
    """An operation's documented precondition does not hold."""


class NoDifferenceError(ValueError):
    """Two vectors are identical. Nothing in the library raises it (the
    embedding reports duplicates as a PreconditionError); it is kept
    because ``perfbench/workloads.py`` names it among eelm's errors."""


class NumericalFailure(RuntimeError):
    """An iterative numerical routine (e.g. SVD) failed to converge."""


class RankDeficientError(ArithmeticError):
    """The Gram matrix is not numerically positive definite.

    ``pivot`` is the zero-based index of the Cholesky pivot that failed:
    where LAPACK refused the matrix, or, when LAPACK factored it, the
    pivot with the smallest fraction of its diagonal left.
    """

    def __init__(self, message: str, pivot: int):
        super().__init__(message)
        self.pivot = pivot


class NumericOverflowError(OverflowError):
    """A constructed quantity is not representable in float64.

    ``attribute`` is the zero-based input attribute whose cumulative
    scaling exponent overflowed, when that is the cause; otherwise None.
    """

    def __init__(self, message: str, attribute: int | None = None):
        super().__init__(message)
        self.attribute = attribute


class FormatError(ValueError):
    """A file (CSV, model, report) is malformed, unreadable or unwritable.

    Carries whatever location information is available: ``path``,
    ``line`` (1-based), ``column`` (1-based) and ``offset`` (byte offset
    of the offending line).
    """

    def __init__(self, message: str, *, path=None, line=None, column=None,
                 offset=None):
        parts = [message]
        if path is not None:
            parts.append(f"path={path}")
        if line is not None:
            parts.append(f"line={line}")
        if column is not None:
            parts.append(f"column={column}")
        if offset is not None:
            parts.append(f"byte-offset={offset}")
        super().__init__(": ".join([parts[0], ", ".join(parts[1:])]) if
                         len(parts) > 1 else message)
        self.path = path
        self.line = line
        self.column = column
        self.offset = offset
