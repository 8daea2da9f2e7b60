"""Exception types shared across the package."""


class CellIdentError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CellIdentError):
    """Invalid configuration file or CLI arguments, or a step too coarse
    for the cell (exit code 2)."""


class DataError(CellIdentError):
    """Missing or malformed data file, or a profile the cell cannot
    simulate (exit code 3)."""


class OutOfBox(CellIdentError, ValueError):
    """A physical parameter vector lies outside the search box."""


class SingularKernel(CellIdentError):
    """Kernel matrix factorization failed at every jitter level."""
