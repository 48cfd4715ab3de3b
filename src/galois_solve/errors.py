"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input violates a structural requirement (grid shape, kernel support,
    malformed scalar form, bad problem file)."""


class NotLipschitzError(ValidationError):
    """A function failed the modulus-of-continuity pre-scan.

    Carries the violating pair of grid points in ``pair``.
    """

    def __init__(self, msg, pair=None):
        super().__init__(msg)
        self.pair = pair


class NotACoverError(ValueError):
    """A covering operation was asked of a family that does not cover."""


class LimitExceeded(ValueError):
    """Exact enumeration requested beyond the configured instance size."""


class NoSolutionError(ValueError):
    """Structure of the solution set requested for an unsolvable problem."""


class InternalError(AssertionError):
    """An internally constructed certificate failed re-verification."""
