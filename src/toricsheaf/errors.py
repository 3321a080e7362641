"""Exception types shared across the library."""


class UnsupportedVarietyError(ValueError):
    """Raised when an operation is only defined for another variety family."""


class UnboundedSystemError(ValueError):
    """Raised when asked to enumerate an interval system that does not cut out
    a bounded polytope."""


class InternalConsistencyError(RuntimeError):
    """Two code paths that must agree exactly did not; signals a bug, not bad input."""


class ConfigError(ValueError):
    """A configuration file failed to parse or to satisfy basic structure."""
