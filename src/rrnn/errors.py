"""Exception hierarchy shared across the package."""


class RRNNError(Exception):
    """Base class for all package errors."""


class ShapeError(RRNNError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(RRNNError):
    """A forward value or gradient became NaN/Inf."""


class StateError(RRNNError):
    """An object was used in an invalid state (e.g. an LSTM state without its cell c)."""


class ValidationError(RRNNError):
    """An argument violates a documented precondition."""


class ConfigError(RRNNError):
    """A run configuration is malformed or inconsistent."""
