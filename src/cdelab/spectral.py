"""Fourier-spectral machinery for the rescaled periodic problem.

Everything lives in the epsilon-chart: 2-periodic fields on [-1, 1] with
epsilon = 1/T, where 2T is the period in the original time variable.  A field
is a scalar u plus a two-component spinor z = (a, b); the first-order spinor
operator acts per Fourier mode k as the Hermitian matrix

    [[0, 1 - i w_k], [1 + i w_k, 0]],   w_k = k*pi/T = eps*k*pi,

with eigenvalues +/- sqrt(1 + w_k^2) and no kernel (min |lambda| = 1).  One
spectrum per (eps, K) holds eps, the eigenpairs and the Newton operator.  A
field is its spectrum and the packed real vector of its (u, a, b)
coefficients; its eigenbasis coordinates (plus/minus parts) are views.

Discretization: truncated Fourier collocation with K modes on a dealiased
grid of N points, N the smallest even 2*3*5-smooth number above 4K.  N > 4K
integrates the quartic coupling term exactly (and keeps the cubic residual
free of aliasing on |k| <= K), evenness puts t = 0 on a node, and
smoothness keeps every FFT off pocketfft's Bluestein path.  Coefficient
arrays use the centered order k = -K..K.

The rescaled energy of a field is

    E_eps(u, z) = (1/(2 eps)) * int_{-1}^{1} [ eps^2 |u'|^2 + u^2/4
                    + <A_eps z, z> - u^2 |z|^2 ] dt

and its critical points solve -eps^2 u'' + u/4 = u |z|^2, A_eps z = u^2 z.
"""

import numpy as np
from dataclasses import dataclass, replace
from functools import cached_property

from .errors import TruncationMismatch, SolverStall, NonConvergence
from . import dynamics, homoclinic

#: documented truncation table: coefficient tails of the limit profile fall
#: below 1e-10 once K >= 6.4/eps (decay rate exp(-K*eps*pi^2/2)), giving
#: K = 32, 64, 128 at eps = 0.2, 0.1, 0.05; ValueError past MAX_MODES
def default_modes(eps):
    K = np.ceil(6.4 / eps)
    if not K <= MAX_MODES:
        raise ValueError(f"eps = {eps!r} needs {K:.4g} modes, more than "
                         f"MAX_MODES = {MAX_MODES}")
    return int(K)


def grid_size(K):
    """Collocation size: the smallest even 5-smooth N > 4K, for K >= 1."""
    if not K >= 1:
        raise ValueError(f"require K >= 1, got {K!r}")
    N = 4 * K + 2
    while True:
        m = N
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return N
        N += 2


def grid(N):
    """Collocation nodes t_j = -1 + 2j/N on the period-2 interval."""
    return -1.0 + 2.0 * np.arange(N) / N


# ----------------------------------------------------------------------
# coefficient <-> value transforms (centered order k = -K..K)

def coeffs_to_values(c, N):
    """Evaluate sum_k c_k e^{i pi k t} on the N-point grid; batched on axis 1."""
    c = np.asarray(c)
    single = c.ndim == 1
    cc = c[:, None] if single else c
    M = cc.shape[0]
    K = (M - 1) // 2
    if N < M:
        raise ValueError("grid too coarse for the truncation")
    k = np.arange(-K, K + 1)
    spread = np.zeros((N,) + cc.shape[1:], dtype=complex)
    phase = np.where(k % 2 == 0, 1.0, -1.0)       # e^{-i pi k} shift to t=-1
    spread[k % N] = cc * phase[:, None]             # distinct: N >= M
    vals = N * np.fft.ifft(spread, axis=0)
    return vals[:, 0] if single else vals


def values_to_coeffs(v, K):
    """Truncated Fourier coefficients of grid samples; batched on axis 1."""
    v = np.asarray(v)
    single = v.ndim == 1
    vv = v[:, None] if single else v
    N = vv.shape[0]
    F = np.fft.fft(vv, axis=0) / N
    k = np.arange(-K, K + 1)
    phase = np.where(k % 2 == 0, 1.0, -1.0)
    c = F[k % N] * phase[:, None]
    return c[:, 0] if single else c


def derivative_coeffs(c):
    """d/dt on [-1,1]: multiply mode k by i*pi*k."""
    c = np.asarray(c)
    K = (c.shape[0] - 1) // 2
    k = np.arange(-K, K + 1)
    mult = 1j * np.pi * k
    return c * (mult[:, None] if c.ndim > 1 else mult)


# ----------------------------------------------------------------------
# the spinor operator

class SpectrumA:
    """The discretization at eps with K modes: the spinor operator on modes
    |k| <= K, and the Euler-Lagrange residual and its parts on the packed
    unknowns of a real field (see :class:`PeriodicField`), with grid values
    on N = grid_size(K) nodes.  Make one with :func:`build_spectrum`.

    Per mode the operator's eigenvalues are +/- lam_k with lam_k = sqrt(1 +
    omega_k^2) exactly, omega_k = k*pi/T = eps*k*pi (centered arrays ``k``,
    ``omega``, ``lam``); ``eigvec_plus``/``eigvec_minus`` hold the
    orthonormal eigenvectors in the (a, b) Fourier representation.

    The mode-diagonal parts of the residual are two-term gathers,
    ``gather(x, (s, c)) = s * x[swap] + c * x[cross]``: ``swap`` exchanges a
    and b at the same entry, ``cross`` exchanges them and also Re and Im of
    the same mode; both fix the entries of u.  The weights ``linear_w`` give
    the residual's linear part, ``inverse_w`` its exact inverse (the Newton
    preconditioner) and ``eps_w`` its derivative in eps.  The reflection
    R(u, v, a, b) = (u, -v, b, a) is ``sign * x[swap]``, sign = +1 on c_0
    and Re c_k, -1 on Im c_k.  Raises ValueError unless 0 < eps < inf and
    K >= 1.
    """

    def __init__(self, eps, K):
        if not 0.0 < eps < np.inf:
            raise ValueError(f"epsilon must be in (0, inf), got {eps!r}")
        self.epsilon, self.num_modes, self.N = eps, K, grid_size(K)
        self.k = np.arange(-K, K + 1)
        self.omega = self.k * np.pi / (1.0 / eps)
        self.lam = np.sqrt(1.0 + self.omega * self.omega)
        M = 2 * K + 1
        j = np.arange(M)
        k = np.where(j > K, j - K, j)                 # the mode of each entry
        comp = np.array([[0], [2], [1]]) * M          # u fixed, a <-> b
        self.swap = (comp + j).ravel()
        self.cross = (comp + np.where(j > K, k, k + K * (k > 0))).ravel()
        self.alternate = 1.0 - 2.0 * (j[:K + 1] % 2)     # e^{-i pi k}, k >= 0
        sign = np.where(j > K, -1.0, 1.0)
        self.sign = np.tile(sign, 3)
        self.parseval = np.tile(np.where(j > 0, 2.0, 1.0), 3)   # sum over +-k
        omega, kpi = self.omega[K + k], np.pi * k
        u_mult, z_mult = omega ** 2 + 0.25, 1.0 + omega ** 2
        spinor = np.array([[0.0], [1.0], [-1.0]]) * sign   # c's sign per entry
        one, zero = np.ones(M), np.zeros(M)
        # (omega^2 + 1/4) u, and A_k (a, b) = ((1 - i omega) b, (1 + i omega) a)
        self.linear_w = (np.concatenate([u_mult, one, one]),
                         (spinor * omega).ravel())
        # u / (omega^2 + 1/4), and A_k^{-1} = A_k / (1 + omega^2)
        self.inverse_w = (1.0 / np.concatenate([u_mult, z_mult, z_mult]),
                          (spinor * (omega / z_mult)).ravel())
        # only omega_k = eps k pi depends on eps
        self.eps_w = (np.concatenate([2.0 * omega * kpi, zero, zero]),
                      (spinor * kpi).ravel())

    @property
    def half_period(self):
        return 1.0 / self.epsilon

    @cached_property
    def eigvec_plus(self):       # (M, 2) complex
        top = (1.0 - 1j * self.omega) / (np.sqrt(2.0) * self.lam)
        return np.stack([top, np.full_like(top, 1.0 / np.sqrt(2.0))], axis=1)

    @cached_property
    def eigvec_minus(self):      # (M, 2) complex
        top = self.eigvec_plus[:, 0]
        return np.stack([top, np.full_like(top, -1.0 / np.sqrt(2.0))], axis=1)

    def eigenvalue_table(self):
        """Rows (k, omega, +lam, -lam) for every retained mode."""
        return np.stack([self.k, self.omega, self.lam, -self.lam], axis=1)

    def gather(self, x, weights):
        s, c = weights
        return s * x[self.swap] + c * x[self.cross]

    def symmetric(self, x):
        """Projection (x + Rx)/2 onto the time-reversal-even fields: Im u_k
        = 0 and a_k = conj(b_k)."""
        return 0.5 * (x + self.sign * x[self.swap])

    def to_grid(self, x):
        """Grid values (3, N) of (u, a, b) at the packed point x; (n, N) of
        any n packed components."""
        K = self.num_modes
        c = x.reshape(-1, 2 * K + 1)
        spread = np.zeros((len(c), self.N // 2 + 1), dtype=complex)
        spread.real[:, :K + 1] = c[:, :K + 1] * self.alternate
        spread.imag[:, 1:K + 1] = c[:, K + 1:] * self.alternate[1:]
        return np.fft.irfft(spread, self.N, axis=1, norm="forward")

    def to_packed(self, v):
        """Packed truncated coefficients of real grid values v (3, N)."""
        c = (np.fft.rfft(v, axis=1, norm="forward")[:, :self.num_modes + 1]
             * self.alternate)
        return np.concatenate([c.real, c.imag[:, 1:]], axis=1).ravel()

    def residual(self, x):
        """Packed Euler-Lagrange residual at the packed point x, its
        eps-weighted L^2 norm, and the grid values of x."""
        vals = self.to_grid(x)
        u, a, b = vals
        uz = u * (a * a + b * b)
        u2 = u * u
        r = self.gather(x, self.linear_w) - self.to_packed(
            np.stack([uz, u2 * a, u2 * b]))
        return r, self.norm(r), vals

    def norm(self, r):
        """eps-weighted L^2 norm of the packed field r."""
        return float(np.sqrt((2.0 / self.epsilon)
                             * (self.parseval @ (r * r))))

    def linearization(self, vals):
        """Jacobian-vector product of the residual at the point with grid
        values ``vals``: packed direction -> packed derivative."""
        u, a, b = vals
        z2, u2, ua, ub = a * a + b * b, u * u, 2.0 * u * a, 2.0 * u * b

        def jvp(h):
            hu, ha, hb = self.to_grid(h)
            return self.gather(h, self.linear_w) - self.to_packed(np.stack([
                hu * z2 + ua * ha + ub * hb,
                u2 * ha + ua * hu,
                u2 * hb + ub * hu]))
        return jvp


def build_spectrum(eps, K):
    """The :class:`SpectrumA` at eps with truncation K."""
    return SpectrumA(eps, K)


def split_spinor(z_ab, sp):
    """(a, b) coefficients (M, 2) -> eigenbasis coordinates (plus, minus)."""
    _check_modes(z_ab.shape[0], sp)
    p = np.einsum('ki,ki->k', np.conj(sp.eigvec_plus), z_ab)
    m = np.einsum('ki,ki->k', np.conj(sp.eigvec_minus), z_ab)
    return p, m


def merge_spinor(p, m, sp):
    """Eigenbasis coordinates -> (a, b) coefficients (M, 2)."""
    _check_modes(p.shape[0], sp)
    return p[:, None] * sp.eigvec_plus + m[:, None] * sp.eigvec_minus


def project(z_ab, sp):
    """Split z into its plus/minus spectral parts, both in (a, b) coefficients.

    The parts are complementary (z = z_plus + z_minus), the projectors are
    idempotent, and the parts are L^2-orthogonal.
    """
    p, m = split_spinor(z_ab, sp)
    zero = np.zeros_like(p)
    return merge_spinor(p, zero, sp), merge_spinor(zero, m, sp)


def apply_A(z_plus, z_minus, sp):
    """Diagonal action of the operator: +lam on plus, -lam on minus coords."""
    _check_modes(z_plus.shape[0], sp)
    _check_modes(z_minus.shape[0], sp)
    return sp.lam * z_plus, -sp.lam * z_minus


def apply_A_ab(z_ab, sp):
    """Same operator in the (a, b) representation: per-mode Hermitian matrix."""
    _check_modes(z_ab.shape[0], sp)
    out = np.empty_like(z_ab)
    out[:, 0] = (1.0 - 1j * sp.omega) * z_ab[:, 1]
    out[:, 1] = (1.0 + 1j * sp.omega) * z_ab[:, 0]
    return out


def _check_modes(M, sp):
    if M != 2 * sp.num_modes + 1:
        raise TruncationMismatch(
            f"field truncation {(M - 1) // 2} != spectrum truncation {sp.num_modes}")


# ----------------------------------------------------------------------
# fields

@dataclass(frozen=True)
class PeriodicField:
    """Scalar/spinor pair on a ``spectrum``, which holds eps and K, stored
    as the packed real vector ``x`` that Newton solves on: per component u,
    a, b the Fourier coefficient c_0, then Re c_k and Im c_k for k = 1..K (a
    real field's c_{-k} is conj(c_k)).  ``x`` is a read-only copy.

    The other forms are cached read-only views: ``u_coeffs`` and
    ``z_ab_coeffs()`` the centered coefficients of u and (a, b),
    ``z_plus``/``z_minus`` the spinor's coordinates against the positive/
    negative eigenvectors of the operator spectrum (:func:`split_spinor`),
    and ``grid_values`` the (4, N) values of the states (u, v, a, b) on the
    grid, v = eps du/ds the slope in original time.
    """
    spectrum: SpectrumA
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _readonly(np.array(self.x, dtype=float)))

    epsilon = property(lambda self: self.spectrum.epsilon)
    num_modes = property(lambda self: self.spectrum.num_modes)

    @cached_property
    def _views(self):
        """u_coeffs, (a, b) coefficients (2K+1, 2), z_plus, z_minus."""
        K = self.num_modes
        seg = self.x.reshape(3, 2 * K + 1)
        pos = seg[:, 1:K + 1] + 1j * seg[:, K + 1:]
        c = _readonly(np.concatenate([np.conj(pos[:, ::-1]), seg[:, :1], pos],
                                     axis=1))
        p, m = map(_readonly, split_spinor(c[1:].T, self.spectrum))
        return c[0], c[1:].T, p, m

    u_coeffs = property(lambda self: self._views[0])
    z_plus = property(lambda self: self._views[2])
    z_minus = property(lambda self: self._views[3])

    def z_ab_coeffs(self):
        return self._views[1]

    @cached_property
    def grid_values(self):
        K, M, x = self.num_modes, 2 * self.num_modes + 1, self.x
        kpi = np.pi * self.epsilon * np.arange(1, K + 1)
        # (Re, Im) of i pi k c_k are (-pi k Im c_k, pi k Re c_k)
        du = np.concatenate([[0.0], -kpi * x[K + 1:M], kpi * x[1:K + 1]])
        u, a, b, v = self.spectrum.to_grid(np.concatenate([x, du]))
        return _readonly(np.stack([u, v, a, b]))

    def shifted(self, tau):
        """Translate the field by tau in s: f(s) -> f(s + tau), each mode's
        (Re c_k, Im c_k) rotated by pi k tau."""
        K = self.num_modes
        seg = self.x.reshape(3, 2 * K + 1)
        re, im = seg[:, 1:K + 1], seg[:, K + 1:]
        theta = np.pi * np.remainder(tau * np.arange(1, K + 1), 2.0)
        c, s = np.cos(theta), np.sin(theta)
        x = np.concatenate([seg[:, :1], re * c - im * s, re * s + im * c],
                           axis=1)
        return PeriodicField(self.spectrum, x.ravel())


def _readonly(a):
    a.flags.writeable = False
    return a


def field_from_coeffs(sp, u_coeffs, z_plus, z_minus):
    """The field on the spectrum sp with centered coefficients ``u_coeffs``
    (2K+1) and spinor eigenbasis coordinates ``z_plus``, ``z_minus``: (a, b)
    from :func:`merge_spinor`, then packed from the modes k >= 0 of a
    conjugate-symmetric field."""
    K = sp.num_modes
    c = np.column_stack([u_coeffs, merge_spinor(z_plus, z_minus, sp)])[K:].T
    x = np.concatenate([c.real, c[:, 1:].imag], axis=1).ravel()
    return PeriodicField(sp, x)


def field_from_values(eps, K, values):
    """The field at eps with K modes of real samples ``values`` (3, N) of
    (u, a, b) on any uniform grid of [-1, 1) with N > 2K nodes: their
    truncated coefficients, packed by one real transform."""
    sp = build_spectrum(eps, K)
    return PeriodicField(sp, sp.to_packed(np.asarray(values, dtype=float)))


# ----------------------------------------------------------------------
# energy, gradient

@dataclass(frozen=True)
class EnergyBreakdown:
    scalar_quadratic: float   # squared (1,eps)-norm of u
    spinor_quadratic: float   # (1/eps) int <A_eps z, z>
    coupling: float           # (1/eps) int u^2 |z|^2
    total: float


def _energy_and_gradient(field):
    """:func:`energy` and :func:`gradient` of field from one transform to
    the grid, whose values give the coupling term; the quadratic terms pair
    the packed field with its linear part, per component."""
    sp, eps, x = field.spectrum, field.epsilon, field.x
    r, _, (u, a, b) = sp.residual(x)
    quadratic = (sp.parseval * x * sp.gather(x, sp.linear_w)).reshape(3, -1)
    scal = (2.0 / eps) * float(np.sum(quadratic[0]))
    spin = (2.0 / eps) * float(np.sum(quadratic[1:]))
    coup = (2.0 / (u.size * eps)) * float(np.sum(u * u * (a * a + b * b)))
    eb = EnergyBreakdown(scalar_quadratic=scal, spinor_quadratic=spin,
                         coupling=coup, total=0.5 * (scal + spin - coup))
    return eb, PeriodicField(sp, r)


def energy(field):
    """Rescaled energy with its quadratic/coupling breakdown."""
    return _energy_and_gradient(field)[0]


def gradient(field):
    """Euler-Lagrange residual pair as a field in the same coefficient space.

    The scalar part is -eps^2 u'' + u/4 - u|z|^2 and the spinor part is
    A_eps z - u^2 z; both vanish exactly at solutions.  Pairing a direction h
    against this representative in the eps-weighted L^2 product reproduces
    the directional derivative of the energy.
    """
    return _energy_and_gradient(field)[1]


# ----------------------------------------------------------------------
# concave reduction onto the minus space

def reduce_g(u_coeffs, z_plus, sp, tol=1e-12, max_iter=2000):
    """Unique maximizer of the concave minus-space restriction.

    Solves lam*w + P^-(u^2 (w + v)) = 0 in minus coordinates by conjugate
    gradient on the (positive definite) operator lam + P^- u^2 P^-, with the
    diagonal 1/lam preconditioner.  The returned w satisfies
    A_eps w - P^-(u^2 (w + v)) = 0 to the requested tolerance.
    """
    M = u_coeffs.shape[0]
    K = (M - 1) // 2
    _check_modes(M, sp)
    N = grid_size(K)
    u = coeffs_to_values(u_coeffs, N).real
    u2 = u * u
    zero = np.zeros(M, dtype=complex)

    def minus_part_of_u2_times(p, m):
        z_ab = merge_spinor(p, m, sp)
        zv = coeffs_to_values(z_ab, N).real
        prod = values_to_coeffs(u2[:, None] * zv, K)
        _, mm = split_spinor(prod, sp)
        return mm

    def operator(m):
        return sp.lam * m + minus_part_of_u2_times(zero, m)

    rhs = -minus_part_of_u2_times(z_plus, zero)
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros(M, dtype=complex)

    def inner(x, y):
        return float(np.real(np.sum(np.conj(x) * y)))

    w = np.zeros(M, dtype=complex)
    r = rhs - operator(w)
    z = r / sp.lam
    d = z.copy()
    rz = inner(r, z)
    for _ in range(max_iter):
        if np.linalg.norm(r) <= tol * rhs_norm:
            return w
        ad = operator(d)
        alpha = rz / inner(d, ad)
        w = w + alpha * d
        r = r - alpha * ad
        z = r / sp.lam
        rz_new = inner(r, z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    if np.linalg.norm(r) <= tol * rhs_norm * 100:
        return w
    raise SolverStall(
        f"reduction CG stalled at relative residual {np.linalg.norm(r) / rhs_norm:.3e}")


# ----------------------------------------------------------------------
# Nehari residuals

@dataclass(frozen=True)
class NehariResiduals:
    """Defects of the three natural critical-point identities.

    r1: scalar identity |  ||u||^2_{1,eps} - c |
    r2: spinor identity |  (1/eps) int <A_eps z, z> - c |
    r3: eps-L^2 norm of the minus-space residual P^-(A_eps z - u^2 z)
    with c the coupling (1/eps) int u^2 |z|^2.  The zero field satisfies all
    three trivially but is excluded from the constraint set; it is flagged.
    """
    r1: float
    r2: float
    r3: float
    coupling: float
    excluded_trivial: bool = False

    def relative(self):
        floor = max(abs(self.coupling), 1e-300)
        return (self.r1 / floor, self.r2 / floor, self.r3 / floor)

    def max_relative(self):
        return max(self.relative())


def nehari_residuals(field):
    """The three residuals of ``field``."""
    return _nehari(field, *_energy_and_gradient(field))


def _nehari(field, eb, g):
    """The residuals of ``field``, its :func:`energy` eb and gradient g."""
    r3 = float(np.sqrt((2.0 / field.epsilon) * np.sum(np.abs(g.z_minus) ** 2)))
    trivial = np.max(np.abs(field.x)) < 1e-14
    return NehariResiduals(r1=abs(eb.scalar_quadratic - eb.coupling),
                           r2=abs(eb.spinor_quadratic - eb.coupling),
                           r3=r3, coupling=eb.coupling,
                           excluded_trivial=bool(trivial))


# ----------------------------------------------------------------------
# cutoff test pair

def bump(t):
    """Smooth bump: 1 on [-1/2, 1/2], supported in (-1, 1)."""
    t = np.asarray(t, dtype=float)

    def psi(x):
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = np.exp(-1.0 / x[pos])
        return out

    x = np.clip((1.0 - np.abs(t)) / 0.5, 0.0, 1.0)
    num = psi(x)
    return num / (num + psi(1.0 - x))


def cutoff_test_pair(eps, K=None):
    """Bump-localized copy of the limit profile, rescaled into [-1, 1].

    u(t) = beta(t) U(t/eps), z(t) = beta(t) Z(t/eps) with (U, Z) the derived
    homoclinic profile and beta the smooth bump above.  Requires eps <= 1/4
    so the localized pulse fits inside the bump plateau.
    """
    if eps > 0.25:
        raise ValueError("cutoff pair requires eps <= 1/4")
    K = default_modes(eps) if K is None else K
    N = grid_size(K)
    t = grid(N)
    prof = homoclinic.derived_profile()
    states = prof(t / eps)
    return field_from_values(eps, K, bump(t) * states[[0, 2, 3]])


# ----------------------------------------------------------------------
# ground-state solver

#: GMRES in the Newton polish: floor of each solve's forcing (its bound on
#: the preconditioned residual relative to the preconditioned right-hand
#: side), basis size, cap on restart cycles.  A lower floor converges too (no
#: translation null mode on the time-reversal-even fields) but costs more
#: where it binds, at merits above 1e-5: at eps = 0.1, 0.2, 0.3 and 0.37,
#: 173 JVPs in 16 ms, and 204 in 19 ms at 1e-12 (process time, 2-vCPU VM)
KRYLOV_FORCING = 1e-8
#: each Newton step's forcing is max(KRYLOV_FORCING, min(0.1, KRYLOV_GAMMA *
#: tol / merit)) (Eisenstat & Walker 1996).  12 ground states at eps in
#: [0.025, 0.06] take 7 steps and 63 JVPs in 16 ms (14, 89 and 22 ms at a
#: fixed forcing 1e-8); gamma = 1e-2 takes 56 JVPs
KRYLOV_GAMMA = 1e-3
KRYLOV_RESTART = 50
KRYLOV_MAX_RESTARTS = 20
#: Newton steps :func:`ground_state` takes at most
MAX_NEWTON_ITERS = 40
#: largest K :func:`ground_state` accepts: the Krylov basis alone holds
#: (KRYLOV_RESTART + 1) * 3(2K+1) floats, about 2.4 kB per mode (245 MB here)
MAX_MODES = 100_000

#: bound on a solution's :func:`coefficient_tail`.  At the default K it is
#: at most 1.7e-12 for eps in [0.025, 0.37]; at eps = 0.05 with K = 3, 8, 32
#: and 64 it is 0.34, 0.11, 1.6e-3 and 1.75e-6
TAIL_TOL = 1e-8


def coefficient_tail(field):
    """The largest |coefficient| of u, z_plus and z_minus over |k| > 0.9 K,
    relative to the largest overall (0.0 for the zero field)."""
    coeffs = np.abs(np.stack([field.u_coeffs, field.z_plus, field.z_minus]))
    peak = coeffs.max()
    tail = coeffs[:, np.abs(field.spectrum.k) > 0.9 * field.num_modes].max()
    return float(tail / peak) if peak else 0.0


def is_constant(field):
    """Whether every coefficient with k != 0 is at most 1e-8 in modulus: a
    constant field solves the problem only at P0 or P+-."""
    coeffs = np.stack([field.u_coeffs, field.z_plus, field.z_minus])
    return bool(np.abs(coeffs[:, field.spectrum.k != 0]).max() <= 1e-8)


@dataclass(frozen=True)
class SolverReport:
    """What the Newton solve behind a :class:`Solution` did: the merits of
    its start and of each step (the last the returned field's), and the
    Jacobian-vector products of each GMRES solve (one more solve than steps
    when the line search rejects the last step); then the field's
    :func:`coefficient_tail` and why the acceptance stopped: "converged",
    "residual", "constant" or "truncated".  ``steps`` counts the steps
    taken, one per merit after the start's."""
    merits: list
    jvps: list
    tail: float = None
    stop: str = None

    @property
    def steps(self):
        return len(self.merits) - 1


@dataclass(frozen=True)
class Solution:
    """A solution at eps = 1/T: a ground state at eps, or equally a periodic
    orbit of half-period T.  ``field`` is the last iterate of the Newton
    solve in ``report`` and ``merit`` that solve's last merit; ``energy``
    and ``nehari`` are the field's certificate.  The rest derives from the
    field: ``delta_eps`` is the energy's total, ``initial_state`` the state
    (u, v, a, b) at t = 0 summed from the coefficients (v(0) = 0.0 on a
    time-reversal-even field) and ``hamiltonian`` H at t = -T, the grid node
    farthest from a pulse at t = 0, where every term of H is O(e^(-1/eps))
    as H is."""
    field: PeriodicField
    energy: EnergyBreakdown
    nehari: NehariResiduals
    report: SolverReport

    @property
    def merit(self):
        return float(self.report.merits[-1])

    @property
    def half_period(self):
        return self.field.spectrum.half_period

    @property
    def period(self):
        return 2.0 * self.half_period

    @property
    def delta_eps(self):
        return self.energy.total

    @cached_property
    def initial_state(self):
        f = self.field
        du = derivative_coeffs(f.u_coeffs) * f.epsilon
        return np.array([f.u_coeffs.sum().real, du.sum().real,
                         *f.z_ab_coeffs().sum(axis=0).real])

    @cached_property
    def hamiltonian(self):
        return float(dynamics.hamiltonian(self.field.grid_values[:, 0]))


def _newton_step(r, jvp, ops, border=None, forcing=KRYLOV_FORCING):
    """GMRES solve of J dx = -r on the time-reversal-even fields,
    left-preconditioned by the inverse linear part M: the operator is
    B = S M S J, S the projection onto those fields.  With ``border = (dr,
    p, e)`` eps is an unknown too, and the bordered system [S M S (J dx + dr
    deps); p . dx] = -[S M S r; e] is solved for the step (dx, deps).
    M maps even fields to even fields exactly, so S M S = M S.  ``ops`` is
    the :class:`SpectrumA` of the point; GMRES runs to the given forcing.
    Returns the step and the number of Jacobian-vector products."""
    jvps = 0

    def precondition(y):
        return ops.gather(ops.symmetric(y), ops.inverse_w)

    def operator(v):
        nonlocal jvps
        jvps += 1
        if border is None:
            return precondition(jvp(v))
        dr, p, _ = border
        return np.append(precondition(jvp(v[:-1]) + v[-1] * dr), p @ v[:-1])

    c = precondition(-r)
    if border is not None:
        c = np.append(c, -border[2])
    return _gmres(operator, c, forcing), jvps


def _gmres(operator, c, forcing=KRYLOV_FORCING):
    """Restarted GMRES (Saad & Schultz 1986) for operator(x) = c: Arnoldi
    with modified Gram-Schmidt and Givens rotations.  A cycle stops when the
    Arnoldi estimate of the residual reaches ``forcing`` times |c|, or on
    a happy breakdown; a cycle of KRYLOV_RESTART steps that stops short
    restarts from the true residual.  Returns the iterate, also when the
    last of KRYLOV_MAX_RESTARTS cycles stops short."""
    tol = forcing * np.linalg.norm(c)
    m = KRYLOV_RESTART
    x = np.zeros(c.size)
    for cycle in range(KRYLOV_MAX_RESTARTS):
        res = c - operator(x) if cycle else c
        beta = np.linalg.norm(res)
        if beta <= tol:
            break
        V = np.empty((m + 1, c.size))
        H = np.zeros((m, m))
        rot, g = [], [float(beta)]
        V[0] = res / beta
        for j in range(m):
            w = operator(V[j])
            w_norm = np.linalg.norm(w)
            col = []
            for i in range(j + 1):
                col.append(float(V[i] @ w))
                w -= col[i] * V[i]
            h = float(np.linalg.norm(w))
            done = h <= np.finfo(float).eps * w_norm     # happy breakdown
            if done:
                h = 0.0
            else:
                V[j + 1] = w / h
            for i, (cs, sn) in enumerate(rot):
                col[i], col[i + 1] = (cs * col[i] + sn * col[i + 1],
                                      cs * col[i + 1] - sn * col[i])
            rho = np.hypot(col[j], h)
            cs, sn = float(col[j] / rho), float(h / rho)
            rot.append((cs, sn))
            H[:j + 1, j] = col[:j] + [rho]
            g[j:] = cs * g[j], -sn * g[j]
            done = done or abs(g[j + 1]) <= tol
            if done:
                break
        y = np.linalg.solve(H[:j + 1, :j + 1], g[:j + 1])
        x = x + y @ V[:j + 1]
        if done:
            break
    return x


def _newton(field, tol, max_iters, pin=None):
    """Inexact Newton on the time-reversal-even fields from the projection
    of ``field`` onto them, each step solved by :func:`_newton_step`
    to the forcing max(KRYLOV_FORCING, min(0.1, KRYLOV_GAMMA * tol / merit))
    and halved up to 30 times until the merit decreases; stops once the
    merit is at most tol.  The merit is the residual's eps-weighted L^2
    norm.  With ``pin`` eps is an unknown too, fixed by u(0) = sum_k u_k =
    pin, and the merit is the hypot of that norm and u(0) - pin; a trial
    step to eps <= 0 or a non-finite eps has infinite merit.  Returns the
    last iterate as a field at the final eps and the :class:`SolverReport`
    of its merits, steps and Jacobian-vector products."""
    K, eps, ops = field.num_modes, field.epsilon, field.spectrum
    x = ops.symmetric(field.x)
    p = np.zeros(x.size)          # u(0) = u_0 + 2 sum_{k > 0} Re u_k
    p[:K + 1] = 2.0
    p[0] = 1.0

    def evaluate(x, eps):
        if not 0.0 < eps < np.inf:      # a rejected trial, not bad input
            return None, None, np.inf, None
        o = ops if pin is None else build_spectrum(eps, K)
        r, gn, vals = o.residual(x)
        return o, r, (gn if pin is None else np.hypot(gn, p @ x - pin)), vals

    _, r, merit, vals = evaluate(x, eps)
    merits, jvps_per_solve = [merit], []
    while merit > tol and len(merits) <= max_iters:
        border = None if pin is None else (ops.gather(x, ops.eps_w), p,
                                           p @ x - pin)
        forcing = max(KRYLOV_FORCING, min(0.1, KRYLOV_GAMMA * tol / merit))
        step, jvps = _newton_step(r, ops.linearization(vals), ops, border,
                                  forcing)
        dx, de = (step, 0.0) if pin is None else (step[:-1], step[-1])
        jvps_per_solve.append(jvps)
        lam = 1.0
        for _ in range(30):
            trial = evaluate(x + lam * dx, eps + lam * de)
            if trial[2] < merit:
                break
            lam *= 0.5
        else:
            break
        x, eps = x + lam * dx, eps + lam * de
        ops, r, merit, vals = trial
        merits.append(merit)
    return (PeriodicField(ops, x),
            SolverReport(merits=merits, jvps=jvps_per_solve))


def nehari_scale(u_hat, z_plus, sp, tol=1e-11, max_iter=40):
    """Scalings (t, s) putting (t*u, s*z_plus + g(t*u, s*z_plus)) on the
    constraint set; 2D Newton with finite-difference Jacobian."""
    def point(t, s):
        uh = t * u_hat
        ph = s * z_plus
        f = field_from_coeffs(sp, uh, ph, reduce_g(uh, ph, sp))
        eb = energy(f)
        scale = max(1.0, abs(eb.coupling))
        return np.array([eb.scalar_quadratic - eb.coupling,
                         eb.spinor_quadratic - eb.coupling]) / scale, f

    ts = np.array([1.0, 1.0])
    res, f = point(*ts)
    for _ in range(max_iter):
        if np.max(np.abs(res)) <= tol:
            return ts[0], ts[1], f
        jac = np.empty((2, 2))
        for j in range(2):
            d = np.zeros(2)
            d[j] = 1e-6 * max(ts[j], 1e-3)
            rp, _ = point(*(ts + d))
            jac[:, j] = (rp - res) / d[j]
        try:
            dts = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        while np.any(ts + lam * dts <= 0):
            lam *= 0.5
            if lam < 1e-8:
                break
        ts = ts + lam * dts
        res, f = point(*ts)
    if np.max(np.abs(res)) <= tol * 100:
        return ts[0], ts[1], f
    raise NonConvergence("Nehari scaling Newton did not converge")


def _periodized_homoclinic(eps, K):
    """Newton's start at eps with K modes: U(t/w) + U((t -+ 2)/w), U the
    derived homoclinic and w = min(eps, 1/4), sampled on the grid."""
    t = grid(grid_size(K)) + np.array([[-2.0], [0.0], [2.0]])
    u, _, a, b = homoclinic.derived_profile()(t / min(eps, 0.25)).sum(axis=1)
    return field_from_values(eps, K, np.stack([u, a, b]))


def _accept(field, report, tol, label, hint=""):
    """The :class:`Solution` of a Newton result, its report completed with
    the tail and the stop reason; its merit is the report's last, which for
    a solve at fixed eps is the gradient norm of its certificate.  Raises
    NonConvergence with that Solution as ``best`` unless the merit is at
    most tol and every relative Nehari residual at most 1e-6 (else
    "residual"), the field is not
    :func:`is_constant` ("constant") and its :func:`coefficient_tail` is at
    most TAIL_TOL ("truncated", the message ending with ``hint``)."""
    eb, g = _energy_and_gradient(field)
    nehari = _nehari(field, eb, g)
    merit = float(report.merits[-1])
    tail = coefficient_tail(field)
    where = f"{label} at eps={field.epsilon}"
    if not (merit <= tol and nehari.max_relative() <= 1e-6):
        stop, message = "residual", (
            f"{where} did not reach tolerance {tol:g}: relative Nehari "
            f"residual {nehari.max_relative():.3e}, spectral residual "
            f"{merit:.3e}")
    elif is_constant(field):
        stop, message = "constant", f"{where} is a constant solution"
    elif not tail <= TAIL_TOL:
        stop, message = "truncated", (
            f"{where} is truncated: K = {field.num_modes} modes leave a "
            f"coefficient tail of {tail:.3e} > {TAIL_TOL:g}{hint}")
    else:
        stop, message = "converged", None
    solution = Solution(field=field, energy=eb, nehari=nehari,
                        report=replace(report, tail=tail, stop=stop))
    if message:
        raise NonConvergence(message, best=solution)
    return solution


def ground_state(eps, K=None, grad_tol=1e-8):
    """Ground state of the rescaled problem at the given epsilon.

    Strategy: inexact Newton steps that GMRES solves matrix-free on the
    time-reversal-even fields (u_k real, a_k = conj(b_k)), where the
    translation null mode is absent and the phase stays pinned at t = 0.
    Every solve starts from the derived homoclinic at width min(eps, 1/4)
    plus its period translates, with K modes: it solves the problem up to
    O(e^(-1/eps)), and above 1/4 it is close enough for Newton to reach the
    nontrivial branch up to its end at eps* = 2^(1/4)/pi.  Each step's
    forcing follows the merit (see :func:`_newton`).

    Returns the :class:`Solution`, whose merit is its gradient norm, when
    :func:`_accept` takes it at tolerance ``grad_tol``; a constant result
    lies past eps*.  Raises ValueError unless 0 < eps < inf and both K and
    the default K at eps are at most MAX_MODES.
    """
    if not 0.0 < eps < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {eps!r}")
    K_default = default_modes(eps)
    K = K_default if K is None else K
    if K > MAX_MODES:
        raise ValueError(f"{K:.4g} modes exceed MAX_MODES = {MAX_MODES}")
    field, report = _newton(_periodized_homoclinic(eps, K),
                            min(grad_tol, 1e-10), MAX_NEWTON_ITERS)
    return _accept(field, report, grad_tol, "ground state",
                   hint=f" (default K is {K_default})")


# ----------------------------------------------------------------------
# concentration diagnostic

def concentration_diagnostic(field, r0):
    """Windowed-mass concentration check.

    Finds the window center y maximizing (1/eps) * int_{|t-y| <= eps*r0} u^2
    (periodic distance) and reports that mass together with the spinor mass
    in the same window.
    """
    eps = field.epsilon
    u, _, a, b = field.grid_values
    N = u.size
    t = grid(N)
    z2 = a * a + b * b
    half_width = eps * r0
    # circular convolution with the window indicator via FFT
    dt_idx = np.minimum(np.arange(N), N - np.arange(N)) * (2.0 / N)
    kernel = (dt_idx <= half_width).astype(float)
    window = np.fft.rfft(kernel)
    fu = np.fft.irfft(np.fft.rfft(u * u) * window, N)
    fz = np.fft.irfft(np.fft.rfft(z2) * window, N)
    masses_u = (2.0 / (N * eps)) * fu
    j = int(np.argmax(masses_u))
    masses_z = (2.0 / (N * eps)) * fz
    return {"y_center": float(t[j]), "mass_u": float(masses_u[j]),
            "mass_z": float(masses_z[j])}
