"""Exception hierarchy shared across the package.

Each leaf class carries the CLI exit code (2, 3, 4) and the stderr prefix
it is reported with, so that scripted callers can distinguish
configuration mistakes from bad input data and from numerical breakdowns.
"""


class TranschedError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    prefix = "error"


class ConfigError(TranschedError):
    """Invalid configuration value or combination of settings."""

    exit_code = 2
    prefix = "config error"


class DataError(TranschedError):
    """Malformed, inconsistent, or insufficient input data."""

    exit_code = 3
    prefix = "data error"


class NumericalError(TranschedError):
    """Numerical failure, e.g. an ill-conditioned or indefinite solve."""

    exit_code = 4
    prefix = "numerical failure"
