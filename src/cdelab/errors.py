"""Exception types shared across the package."""


class CdelabError(Exception):
    """Base class for all package-specific failures."""


class NewtonDivergence(CdelabError):
    """An implicit midpoint step's Newton iteration did not converge."""


class NonFiniteState(CdelabError):
    """A trajectory component overflowed (escape along the hyperbolic direction)."""


class EmptyTrajectory(CdelabError):
    """An operation required a nonempty trajectory."""


class NonConjugatePair(CdelabError):
    """Spinor pair (psi_plus, psi_minus) is not related by complex conjugation."""


class ConvergenceFailure(CdelabError):
    """Eigenvalue residual tolerance could not be reached."""


class NoEllipticPair(CdelabError):
    """Spectrum contains no purely imaginary eigenvalue pair."""


class TruncationMismatch(CdelabError):
    """Field and operator data live on different truncations."""


class SolverStall(CdelabError):
    """An inner linear solve (conjugate gradient) failed to converge."""


class DegenerateProfile(CdelabError):
    """Profile has identically vanishing spinor density; no coupling to fit."""


class NonConvergence(CdelabError):
    """A spectral solve did not reach its tolerances or is truncated.

    A rejected ground state or orbit is attached, as a spectral.Solution, as
    the ``best`` attribute.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
