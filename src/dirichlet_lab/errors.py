"""Error and warning types shared across the library."""

__all__ = ["AccuracyWarning", "NumericalError", "PreconditionError"]


class PreconditionError(ValueError):
    """An input violates a documented operation precondition."""


class NumericalError(ArithmeticError):
    """A computation failed to meet its numerical contract."""


class AccuracyWarning(UserWarning):
    """A value was computed outside its validated accuracy envelope."""
