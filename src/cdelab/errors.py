"""Exception types shared across the package."""


class CdelabError(Exception):
    """Base class for all package-specific failures."""


class NewtonDivergence(CdelabError):
    """An implicit midpoint step's Newton iteration did not converge."""


class NonFiniteState(CdelabError):
    """A trajectory component overflowed (escape along the hyperbolic direction)."""


class EmptyTrajectory(CdelabError):
    """An operation required a nonempty trajectory."""


class TruncationMismatch(CdelabError):
    """Field and operator data live on different truncations."""


class DegenerateProfile(CdelabError):
    """Profile has identically vanishing spinor density; no coupling to fit."""


class NonConvergence(CdelabError):
    """A spectral solve did not reach its tolerances or is truncated.

    A rejected ground state or orbit is attached, as a spectral.Solution, as
    the ``best`` attribute; it is None for the reduction and its scaling.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
