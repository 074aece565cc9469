"""Exception hierarchy shared across the package."""


class StscqError(Exception):
    """Base class for all package errors."""


class EmptyCorpus(StscqError):
    pass


class DimensionTooLarge(StscqError):
    pass


class NonDivisibleImage(StscqError):
    pass


class ShapeMismatch(StscqError):
    pass


class DimensionMismatch(ShapeMismatch):
    pass


class TooFewSamples(StscqError):
    pass


class IndexOutOfRange(StscqError):
    pass


class UntrainedRouter(StscqError):
    pass


class EmptyBatch(StscqError):
    pass


class LengthMismatch(StscqError):
    pass


class DivergenceDetected(StscqError):
    pass


class StageOrderError(StscqError):
    pass


class RangeViolation(StscqError):
    pass


class BadMagic(StscqError):
    pass


class HeaderMismatch(StscqError):
    pass


class NonZeroPadding(StscqError):
    pass


class Truncated(StscqError):
    pass


class BadSpec(StscqError):
    pass
