"""Exception types shared across the package."""


class AcmmdError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(AcmmdError):
    """Invalid configuration or command-line usage (CLI exit code 1)."""


class DataError(AcmmdError, ValueError):
    """Malformed or incompatible input data (CLI exit code 2)."""
