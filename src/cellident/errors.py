"""Exception types shared across the package."""


class CellIdentError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CellIdentError):
    """Invalid configuration file or CLI arguments (exit code 2)."""


class DataError(CellIdentError):
    """Missing or malformed data file (exit code 3)."""


class StepTooCoarse(CellIdentError, ValueError):
    """Sample period exceeds a tenth of the fastest block time constant,
    so the discretization would be inaccurate."""


class SimulationDiverged(CellIdentError):
    """A sub-model failed during simulation; the message names the sample."""


class OutOfBox(CellIdentError, ValueError):
    """A physical parameter vector lies outside the search box."""


class SingularKernel(CellIdentError):
    """Kernel matrix factorization failed at every jitter level."""
