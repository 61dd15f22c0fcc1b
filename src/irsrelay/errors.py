"""Exception types shared across the package.

Configuration problems (bad dimensions, unknown methods, malformed config
files) raise :class:`ConfigError`; numerical degeneracies discovered while
solving (zero channels, collapsed projectors) raise
:class:`DegenerateChannelError` or its subclass; an optimizer that breaks its
own monotone-ascent guarantee raises :class:`TraceDipError`.
"""


class ConfigError(ValueError):
    """A parameter or configuration value violates a documented constraint."""


class DegenerateChannelError(RuntimeError):
    """A channel realization is too degenerate for the requested operation."""


class ProjectorDegenerateError(DegenerateChannelError):
    """A null-space projector annihilates the vector it is supposed to shape."""


class TraceDipError(RuntimeError):
    """An alternation trace decreased by more than the allowed slack."""


class DegenerateElementWarning(RuntimeWarning):
    """A zero-magnitude cascaded path forced a phase shift to a default of 0."""
