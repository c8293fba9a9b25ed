"""Exception types shared across the library."""


class RraError(Exception):
    """Base class for all library errors."""


class DimensionError(RraError):
    """Shapes or axes do not line up for an operation."""


class ParameterError(RraError):
    """A numeric parameter is outside its valid range."""


class ContractError(RraError):
    """An API precondition was violated (mismatched lengths, stale trace, ...)."""


class DataFormatError(RraError):
    """A file does not conform to its declared binary/CSV layout."""


class ConfigError(RraError):
    """An experiment configuration is invalid."""


class WorkerLost(RraError):
    """A worker process running experiment rows ended without a result."""
