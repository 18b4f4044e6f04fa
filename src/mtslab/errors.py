"""Exception types shared across the package."""

__all__ = [
    "MTSLabError",
    "ConfigurationError",
    "MalformedInputError",
    "ProtocolError",
]


class MTSLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(MTSLabError):
    """A run was configured inconsistently.

    Examples: a scheduler that needs saturation-time predictions was run on
    an input that carries none, sizes are out of range, or a subcommand was
    combined with options it does not support.
    """


class MalformedInputError(MTSLabError):
    """An input file or payload does not follow the documented schema."""


class ProtocolError(MTSLabError):
    """A scheduler violated the movement rules it declared.

    Raised, by ``schedulers.Walk`` only, when a conforming scheduler tries
    to enter a saturated state or returns a target that is not a state.
    """
