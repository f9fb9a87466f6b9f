"""The explicit homoclinic orbit of the cylinder system.

The orbit connecting the origin to itself has the closed form

    u(t) = alpha * cosh(t)^(-1/2)
    a(t) = beta  * exp(+t/2) * cosh(t)^(-3/2)
    b(t) = beta  * exp(-t/2) * cosh(t)^(-3/2)

with v = u' evaluated analytically.  The amplitudes are re-derived here by
coefficient matching rather than copied from the commonly quoted values
(2^(-1/4), 3/(2*sqrt(2))): matching the a-equation fixes alpha^2 = 3/2 and
the u-equation then fixes beta^2 = 3/8.  The quoted amplitudes, with their
swapped exp(-t/2)/exp(+t/2) placement, do not annihilate the residual of the
system in this convention; the derivation report records their residual for
comparison without asserting a value.
"""

import functools

import numpy as np
from dataclasses import dataclass

#: alternative amplitude pair in circulation, kept for residual comparison
QUOTED_AMPLITUDES = (2.0 ** -0.25, 3.0 / (2.0 * np.sqrt(2.0)))


def _log_cosh(t):
    # overflow-safe log(cosh t)
    t = np.abs(np.asarray(t, dtype=float))
    return t + np.log1p(np.exp(-2.0 * t)) - np.log(2.0)


def _ansatz_states(t, alpha, beta, orientation, slope=True):
    """States (u, v, a, b) of the cosh/exponential ansatz, or (u, a, b)
    without ``slope``; orientation +1 puts e^{+t/2} on a."""
    t = np.asarray(t, dtype=float)
    lc = _log_cosh(t)
    u = alpha * np.exp(-0.5 * lc)
    v = [-0.5 * alpha * np.tanh(t) * np.exp(-0.5 * lc)] if slope else []
    a = beta * np.exp(orientation * 0.5 * t - 1.5 * lc)
    b = beta * np.exp(-orientation * 0.5 * t - 1.5 * lc)
    return np.stack([u, *v, a, b])


def _ansatz_residual(t, alpha, beta, orientation):
    """Pointwise residual of the cylinder system along the ansatz.

    The u-equation residual vanishes identically (v := u'), so the three
    returned rows are the v', a', b' defects.
    """
    t = np.asarray(t, dtype=float)
    u, a, b = _ansatz_states(t, alpha, beta, orientation, slope=False)
    th = np.tanh(t)
    lc = _log_cosh(t)
    upp = alpha * (0.25 * np.exp(-0.5 * lc) - 0.75 * np.exp(-2.5 * lc))
    ap = a * (orientation * 0.5 - 1.5 * th)
    bp = b * (-orientation * 0.5 - 1.5 * th)
    return np.stack([
        upp + (a * a + b * b - 0.25) * u,
        ap + a - u * u * b,
        bp - b + u * u * a,
    ])


@functools.cache
def derive_constants():
    """Coefficient-matching derivation of the homoclinic amplitudes.

    Substituting the ansatz into the spinor equation and expanding in the
    basis {1, tanh t} gives two independent conditions on alpha^2, which
    agree.  The scalar equation then determines beta^2 from the cosh^(-5/2)
    coefficient.  Returns a :class:`DerivationReport` with the derived
    constants, the residual of the derived profile, and the residual of the
    quoted amplitude pair evaluated with its own orientation.  The frozen
    report is derived on the first call and shared by every later one.
    """
    # a' = -a + u^2 b with a ~ e^{t/2} cosh^{-3/2}: dividing by a and using
    # u^2 b / a = alpha^2 (1 - tanh t), the constant part 1/2 = -1 + alpha^2
    # and the tanh part -3/2 = -alpha^2 both give alpha^2 = 3/2.
    # u'' = -(a^2+b^2) u + u/4 with a^2+b^2 = 2 beta^2 cosh^{-2}: the
    # cosh^{-5/2} coefficient -(3/4) alpha = -2 beta^2 alpha gives beta^2 = 3/8
    alpha_sq, beta_sq = 1.5, 0.375
    alpha = float(np.sqrt(alpha_sq))
    beta = float(np.sqrt(beta_sq))
    grid = np.linspace(-10.0, 10.0, 4001)
    res_derived = float(np.max(np.abs(_ansatz_residual(grid, alpha, beta, +1.0))))
    qa, qb = QUOTED_AMPLITUDES
    res_quoted = float(np.max(np.abs(_ansatz_residual(grid, qa, qb, -1.0))))
    return DerivationReport(
        alpha=alpha, beta=beta,
        alpha_sq=alpha_sq, beta_sq=beta_sq,
        residual_derived=res_derived,
        quoted_amplitudes=QUOTED_AMPLITUDES,
        residual_quoted=res_quoted,
    )


@dataclass(frozen=True)
class DerivationReport:
    alpha: float
    beta: float
    alpha_sq: float
    beta_sq: float
    residual_derived: float
    quoted_amplitudes: tuple
    residual_quoted: float


@dataclass(frozen=True)
class HomoclinicProfile:
    """Closed-form homoclinic orbit; callable as profile(t) -> states, or
    profile(t, slope=False) -> the states (u, a, b) alone.

    ``orientation=+1`` is the convention a ~ e^{+t/2}, b ~ e^{-t/2}; the
    time-reversal/swap symmetry maps t -> -t onto the same profile.
    """
    alpha: float
    beta: float
    orientation: float = 1.0

    def __call__(self, t, slope=True):
        return _ansatz_states(t, self.alpha, self.beta, self.orientation,
                              slope)

    def ode_residual(self, t):
        """Max-norm residual of the cylinder system at times t."""
        return np.max(np.abs(_ansatz_residual(t, self.alpha, self.beta,
                                              self.orientation)), axis=0)

    def energy(self, t):
        from .dynamics import hamiltonian
        return hamiltonian(self(t))


def derived_profile():
    """The homoclinic profile with the derived amplitudes."""
    rep = derive_constants()
    return HomoclinicProfile(alpha=rep.alpha, beta=rep.beta)


def quoted_profile():
    """Profile built from the quoted amplitude pair (for comparison only)."""
    qa, qb = QUOTED_AMPLITUDES
    return HomoclinicProfile(alpha=qa, beta=qb, orientation=-1.0)


def limit_energy_quadrature():
    """The oracle for :data:`DELTA0`: the limit problem's ground-state
    energy (1/2) * int u^2 |z|^2 dt by adaptive quadrature along the derived
    homoclinic, independent of the closed form it is compared against.
    """
    from scipy.integrate import quad
    prof = derived_profile()

    def integrand(t):
        u, _, a, b = prof(t)
        return 0.5 * u * u * (a * a + b * b)

    val, _ = quad(integrand, -60.0, 60.0, epsabs=1e-14, epsrel=1e-12,
                  limit=400)
    return float(val)


#: ground-state energy of the limit problem along the derived homoclinic,
#: (1/2) * int u^2 |z|^2 dt = (9/8) * (1/2) * int cosh^-3 dt = 9*pi/32
DELTA0 = 9.0 * np.pi / 32.0
