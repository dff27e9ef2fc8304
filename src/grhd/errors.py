"""Exception types shared across the package."""


class GrhdError(Exception):
    """Base class for all errors raised by this package."""


class MalformedFilename(GrhdError):
    pass


class UnsupportedFormat(GrhdError):
    pass


class IoError(GrhdError):
    pass


class InvalidConfig(GrhdError):
    pass


class ContractViolation(GrhdError):
    pass


class SignalTooShort(GrhdError):
    pass


class LabelOutOfRange(GrhdError):
    pass


class ShapeMismatch(GrhdError):
    pass


class InvalidSchedule(GrhdError):
    pass


class DivergenceDetected(GrhdError):
    pass


class UnknownSection(GrhdError):
    pass


class EmptyBank(GrhdError):
    pass


class DegenerateLabels(GrhdError):
    pass


class InvalidP(GrhdError):
    pass


class NonFiniteScore(GrhdError):
    pass


class NonpositiveValue(GrhdError):
    pass


class VersionMismatch(GrhdError):
    pass


class ChecksumError(GrhdError):
    pass


class MalformedCheckpoint(GrhdError):
    pass


class NoTrainingData(GrhdError):
    pass
