"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: config problems exit 2, data
problems exit 3, numerical divergence exits 4.
"""

__all__ = [
    "FenceError",
    "InvalidInputError",
    "ConfigError",
    "DataError",
    "DivergenceError",
]


class FenceError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(FenceError, ValueError):
    """An argument violates a documented precondition."""


class ConfigError(FenceError):
    """Unknown or malformed configuration key, value, or file."""


class DataError(FenceError):
    """Malformed grid, mask, CSV payload, or checkpoint."""


class DivergenceError(FenceError):
    """A numerical process produced non-finite values.

    ``step`` records where it happened (diffusion step or training epoch).
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step
