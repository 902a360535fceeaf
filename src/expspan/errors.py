"""Exception hierarchy shared across the toolkit.

Every hard failure maps to one of these classes so the CLI can translate
them into distinct exit codes.
"""


class ExpspanError(Exception):
    """Base class for all toolkit errors."""


class SequenceError(ExpspanError):
    """A frequency sequence is structurally unusable (zero gap, bad spec)."""


class DomainError(ExpspanError):
    """An evaluation point violates a domain precondition.

    The message names the violated inequality.
    """


class PrecisionError(ExpspanError):
    """Working precision was exhausted or is insufficient for the request."""


class CapError(ExpspanError):
    """A configured size cap (e.g. Gram dimension) would be exceeded."""


class ConfigError(ExpspanError, ValueError):
    """Malformed configuration, sequence file or CLI input, or an argument that
    breaks a library condition (N too small, eps <= 0); also a ValueError."""
