"""Exception types shared across the package."""


class SemicrossedError(Exception):
    """Base class for library errors."""


class KindMismatch(SemicrossedError, TypeError):
    """Point or function variant does not belong to the given system."""


class InvalidMatrix(SemicrossedError, ValueError):
    """Transition matrix is not square 0/1 with every row and column nonzero."""


class SeparationImpossible(SemicrossedError, ValueError):
    """Requested interpolation data contains duplicate points."""


class NotPeriodic(SemicrossedError, ValueError):
    """Operation requires a periodic point."""


class NotSemicrossed(SemicrossedError, ValueError):
    """Element has negative powers or coefficients of depth > 1."""


class WrongForm(SemicrossedError, TypeError):
    """Right-form (relation-2) element expected, or vice versa."""


class DepthTooLarge(SemicrossedError, ValueError):
    """Coefficient depth exceeds what the requested power shift can absorb."""


class WindowTooSmall(SemicrossedError, ValueError):
    """Bilateral window cannot hold the element's band."""


class OrbitCollision(SemicrossedError, ValueError):
    """Forward orbit repeats inside the inspected window."""


class BadParameter(SemicrossedError, ValueError):
    """System or function parameter out of range: k < 2, a non-permutation, depth < 1."""


class BadLambda(SemicrossedError, ValueError):
    """Unit-modulus scalar expected."""


class NonFinite(SemicrossedError, ValueError):
    """Matrix contains NaN or infinite entries."""


class ConfigError(SemicrossedError, ValueError):
    """Config text failed to parse or validate."""
