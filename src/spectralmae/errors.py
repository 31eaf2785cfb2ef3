"""Exception hierarchy shared across the package."""


class SpectralMaeError(Exception):
    """Base class for all package errors."""


class ShapeError(SpectralMaeError):
    """Tensor shapes incompatible for the requested operation."""


class ConsumedGraphError(SpectralMaeError):
    """Backward reached an autodiff graph an earlier backward already consumed."""


class TokenizationError(SpectralMaeError):
    """Image dimensions not divisible by the token geometry."""


class ConfigError(SpectralMaeError):
    """Invalid or inconsistent run/model configuration."""


class EvaluationError(SpectralMaeError):
    """A checked numeric evaluation produced a non-finite value."""


class FormatError(SpectralMaeError):
    """A serialized artifact has a bad magic, version, or layout."""


class TruncatedFileError(SpectralMaeError):
    """A serialized artifact ended before its declared payload."""


class DataError(SpectralMaeError):
    """Dataset contents violate the task contract (labels, sizes, pairing)."""


def check_config(*rules: tuple[bool, str]) -> None:
    """Raise `ConfigError` with the message of the first rule that does not hold."""
    for ok, message in rules:
        if not ok:
            raise ConfigError(message)
