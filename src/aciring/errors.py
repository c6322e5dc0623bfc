"""Exception types shared across the package."""


class AciringError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(AciringError, ValueError):
    """Operands of different sizes: variable counts, or a vector and its row space."""


class FieldMismatch(AciringError, ValueError):
    """Operands carry different coefficient fields."""


class DegreeCapExceeded(AciringError, RuntimeError):
    """An answer needs a graded piece above the degree cap."""

    def __init__(self, cap, message=None):
        self.cap = cap
        super().__init__(message or f"the answer needs degrees above the cap {cap}")


class BoundTooSmall(AciringError, RuntimeError):
    """A graded computation needs data beyond the requested degree window."""
