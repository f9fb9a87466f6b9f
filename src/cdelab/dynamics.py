"""Closed-form evaluation of the cylinder Hamiltonian system.

The phase space is the set of 4-vectors ``(u, v, a, b)`` with ``v = u'`` and
``(a, b)`` the two real spinor components.  States are plain numpy arrays of
64-bit reals; the complex spinor form is a view, not storage.  All functions
accept either a single state of shape ``(4,)`` or a batch of states stacked
along trailing axes, shape ``(4, ...)``.

The flow is generated by

    H(u, v, a, b) = v**2/2 + u**2/2 * (a**2 + b**2 - 1/4) - a*b

with canonical pairs (u, v) and (a, b).
"""

import numpy as np

SQRT2 = np.sqrt(2.0)

#: saddle equilibrium at the origin
P0 = np.zeros(4)
#: center equilibria (u >= 0 branch)
P_PLUS = np.array([1.0, 0.0, 1.0 / (2.0 * SQRT2), 1.0 / (2.0 * SQRT2)])
P_MINUS = np.array([1.0, 0.0, -1.0 / (2.0 * SQRT2), -1.0 / (2.0 * SQRT2)])


def hamiltonian(s):
    """Conserved energy H of a state (vectorized over trailing axes)."""
    u, v, a, b = np.asarray(s, dtype=float)
    return 0.5 * v * v + 0.5 * u * u * (a * a + b * b - 0.25) - a * b


def vector_field(s):
    """Right-hand side (u', v', a', b') of the cylinder system."""
    u, v, a, b = np.asarray(s, dtype=float)
    return np.stack([v, -(a * a + b * b - 0.25) * u,
                     -a + u * u * b, b - u * u * a])


def time_reversal_swap(s):
    """Discrete symmetry (u, v, a, b) -> (u, -v, b, a).

    If t -> s(t) solves the system, so does t -> time_reversal_swap(s(-t)).
    Equivalently f(sigma(s)) = -sigma(f(s)) for the vector field f.
    """
    u, v, a, b = np.asarray(s, dtype=float)
    return np.stack([u, -v, b, a])


def to_rotated(s):
    """Rotate (a, b) into the diagonalizing variables (abar, bbar).

    abar = (a+b)/sqrt(2), bbar = (a-b)/sqrt(2).  The rotation is a symmetric
    orthogonal involution, its own inverse :data:`from_rotated`.  The rotated
    chart's vector field is to_rotated(vector_field(from_rotated(r))), as the
    rotation is linear, and its energy is hamiltonian(from_rotated(r)).
    """
    u, v, a, b = np.asarray(s, dtype=float)
    return np.stack([u, v, (a + b) / SQRT2, (a - b) / SQRT2])


from_rotated = to_rotated

#: the center equilibrium P+ in the rotated chart, (1, 0, 1/2, 0); exactly
#: representable, so it is written out rather than produced by the rotation
P_PLUS_ROTATED = np.array([1.0, 0.0, 0.5, 0.0])


def equilibria():
    """(name, state, H) of P0, P+ and P-, each state a copy and H exact."""
    return tuple((name, p.copy(), float(hamiltonian(p)))
                 for name, p in (("P0", P0), ("P+", P_PLUS), ("P-", P_MINUS)))


def spinor_from_state(s):
    """Complex spinor view psi = a + i b of the (a, b) components."""
    _, _, a, b = np.asarray(s, dtype=float)
    return complex(a, b)


def state_from_spinor(u, v, psi):
    """Rebuild a state from (u, v) and the spinor psi = a + i b."""
    return np.array([u, v, psi.real, psi.imag])
