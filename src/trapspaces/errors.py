"""Exception hierarchy shared across the package."""


class TrapSpacesError(Exception):
    """Base class for all package-specific errors."""


class ExpressionSyntaxError(TrapSpacesError):
    """Raised when expression text cannot be parsed; carries the offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(TrapSpacesError):
    """Raised when an identifier does not occur in the vocabulary."""

    def __init__(self, name):
        super().__init__(f"unknown variable: {name!r}")
        self.name = name


class SupportTooLargeError(TrapSpacesError):
    """Raised when a function's support exceeds the exhaustive-evaluation cap."""

    def __init__(self, size, cap):
        super().__init__(f"support of size {size} exceeds cap of {cap}")
        self.size = size
        self.cap = cap


class CapExceededError(TrapSpacesError):
    """Raised when a state-enumeration operation exceeds its size cap."""

    def __init__(self, n, cap, what="state enumeration"):
        super().__init__(f"{what} with n={n} exceeds cap of {cap}")
        self.n = n
        self.cap = cap


class InconsistentArcSetError(TrapSpacesError):
    """Raised when an induced subspace is requested for conflicting heads."""


class NotATrapSpaceError(TrapSpacesError):
    """Raised when model reduction is attempted on a non-trap subspace."""


class SolverTimeoutError(TrapSpacesError):
    """Raised by the public searches when enumeration exceeds the configured
    wall-clock budget. ``partial`` is the search's record, stop "timeout":
    every space it lists is extremal, so it is a sound partial answer. The
    ``analysis`` functions and the CLI read it and never raise this."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NetworkFormatError(TrapSpacesError):
    """Raised for malformed network files."""
