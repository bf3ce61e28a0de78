"""Exception types shared across the package.

DataError covers malformed or inconsistent inputs (CLI exit code 2),
NumericalError covers computations that failed on valid inputs (exit code 3).
"""


class MaplocError(Exception):
    pass


class DataError(MaplocError):
    pass


class NumericalError(MaplocError):
    pass


# geometry
class EmptyCloud(DataError):
    pass


# registration
class NoCorrespondences(NumericalError):
    pass


# degeneracy
class NotSymmetric(DataError):
    pass


# factors
class WindowTooShort(DataError):
    pass


class ZeroAcceleration(NumericalError):
    pass


# graph
class IndexOutOfRange(DataError):
    pass


class NotAnchored(DataError):
    pass


class SingularSystem(NumericalError):
    def __init__(self, message, state_index=None):
        super().__init__(message)
        self.state_index = state_index


# evaluation
class NoMatches(DataError):
    pass


class DegenerateGeometry(NumericalError):
    pass


class NoInliers(NumericalError):
    pass


# pipeline / io
class ParseError(DataError):
    """Malformed input. The file readers set `path`, so the message reads
    `<path>: <message> (line N)` or `(byte offset N)`."""

    def __init__(self, message, line=None, offset=None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.offset = offset
        self.path = None

    def __str__(self):
        where = ""
        if self.line is not None:
            where = f" (line {self.line})"
        elif self.offset is not None:
            where = f" (byte offset {self.offset})"
        prefix = "" if self.path is None else f"{self.path}: "
        return prefix + self.message + where


class NonMonotonicTimestamps(ParseError):
    pass


class InvalidSpec(ParseError):
    pass


class InitializationFailure(NumericalError):
    pass
