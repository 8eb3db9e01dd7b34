"""Exception types shared across the package."""


class PuhdaError(Exception):
    """Base class for all package errors."""


class InvalidInputError(PuhdaError):
    """An operation received values outside its domain."""


class NonFiniteCells(InvalidInputError):
    """Some cells of a stacked computation produced NaN or infinity; ``cells`` is
    the boolean mask of those cells over the cell axis (0-d without one)."""

    def __init__(self, message: str, cells):
        super().__init__(message)
        self.cells = cells


class ConfigurationError(PuhdaError):
    """Components were wired together inconsistently."""


class SchemaError(PuhdaError):
    """Tabular input does not match the declared feature schema."""


class DataError(PuhdaError):
    """A data file contains content that cannot be parsed."""


class UndefinedMetricError(PuhdaError):
    """A metric is undefined for the given inputs."""
