"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """Eigenpairs missed the residual tolerance."""


class DegenerateBondError(ValueError):
    """A hopping amplitude vanishes where a gauge ratio is required."""


class InsufficientLevelsError(ValueError):
    """Too few eigenvalues in the requested class for spacing statistics."""


class DegenerateSupportError(ValueError):
    """An amplitude profile has too few sites above the fit threshold."""


class RegimeMismatchError(ValueError):
    """The operation is defined for a different parameter regime."""


class BasePointOnSpectrumError(ValueError):
    """The winding base point sits on (or numerically too close to) the spectrum."""
