"""Typed errors shared across the package."""


class CubemaxError(Exception):
    """Base class for all cubemax errors."""


class DimensionMismatch(CubemaxError):
    """Operands live on grids with different shapes."""


class UnsupportedDimension(CubemaxError):
    """The requested dimension is outside the supported range."""


class NonDyadicSide(CubemaxError):
    """A dyadic operation was applied to a cube whose side is not a power of two."""


class EmptyDomain(CubemaxError):
    """The masked domain contains no cells."""


class ZeroVariationInput(CubemaxError):
    """The input function is constant, so a variation ratio is undefined."""


class PreconditionDensity(CubemaxError):
    """A density hypothesis required by the estimate does not hold."""


class PremiseViolated(CubemaxError):
    """The caller passed data violating the selection procedure's premise."""


class InvariantViolated(CubemaxError):
    """An exact identity the computation relies on failed to hold."""


class NotDyadicallyComplete(CubemaxError):
    """The cube family is not dyadically complete; carries a witness cube."""

    def __init__(self, witness):
        super().__init__(f"family is not dyadically complete, missing {witness!r}")
        self.witness = witness


class ConfigError(CubemaxError):
    """An experiment configuration is invalid."""


class GridFormatError(CubemaxError, ValueError):
    """A grid or cube-family file is malformed: bad magic, cut short, ragged
    or non-numeric rows, or a missing or invalid family field."""


class SearchExhausted(CubemaxError):
    """A bounded search reached its limit without a passing value."""
