"""Exception hierarchy for the oib package.

ConfigError covers malformed configuration and unusable input files, and
DataFormatError damaged datasets and artifacts; both map to CLI exit code
2.  NumericalError covers linear-algebra and optimization failures (non-PD
matrices, NaN losses, singular systems) and maps to exit code 3.  The IDX
loader raises one distinct subclass of DataFormatError per failure mode
so callers can tell a wrong file apart from a damaged one.
"""


class OibError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(OibError):
    """Invalid configuration: unknown keys, bad types, missing files."""


class NumericalError(OibError):
    """Numerical failure: Cholesky breakdown, NaN loss, singular system."""


class DimensionError(OibError):
    """Shapes or sizes of the supplied arrays do not match."""


class DataFormatError(OibError):
    """A damaged dataset file or artifact; base of the IDX failures."""


class IdxMagicError(DataFormatError):
    """An IDX file does not start with the expected magic number."""


class IdxTruncatedError(DataFormatError):
    """An IDX file is shorter than its header declares."""


class IdxCountMismatchError(DataFormatError):
    """Image and label IDX files disagree on the number of items."""
