"""Exception types shared across the package."""


class SqviError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SqviError):
    pass


class MissingMeanField(SqviError):
    pass


class EmptySample(SqviError):
    pass


class UnsupportedSet(SqviError):
    pass


class InfeasibleSubproblem(SqviError):
    pass


class NonfiniteValue(SqviError):
    pass


class InvalidConstants(SqviError):
    pass


class NoAdmissibleStep(SqviError):
    pass


class InvalidParameters(SqviError):
    pass


class InvalidSchedule(SqviError):
    pass


class NonfiniteIterate(SqviError):
    """Raised when a solver iterate leaves the finite floats.

    Carries the partial trace collected so far in ``args[1]`` when available.
    """

    def __str__(self) -> str:
        # the message alone, not the repr of every row of the trace
        return str(self.args[0]) if self.args else ""


class NotReached(SqviError):
    pass


class NoReferenceSolution(SqviError):
    pass


class WrongProblemKind(SqviError):
    pass


class InsufficientData(SqviError):
    pass


class ParseError(SqviError):
    pass


class EmptyFile(SqviError):
    pass


class ConstructionFailed(SqviError):
    pass


class ConfigError(SqviError):
    pass
