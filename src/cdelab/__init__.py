"""Numerical laboratory for a coupled scalar/spinor Hamiltonian system.

The reduced system on the cylinder,

    u' = v,  v' = -(a^2 + b^2 - 1/4) u,  a' = -a + u^2 b,  b' = b - u^2 a,

is conserved by H = v^2/2 + u^2/2 (a^2 + b^2 - 1/4) - a b.  The package
provides: exact dynamics and linearization, symplectic time integration,
a Fourier-spectral realization of the periodic variational problem with a
Newton-Krylov ground-state solver, started from a bump-localized copy of
the homoclinic along the whole branch 0 < eps < 2^(1/4)/pi, whose core also
finds periodic orbits at fixed period or pinned amplitude, continuation
toward the explicit homoclinic orbit, and conformal transforms
producing singular-solution profiles on punctured euclidean space and the
sphere minus two antipodal points.
"""

from . import dynamics, linear, integrators, spectral, orbits, homoclinic
from . import geometry, serialize, verify, errors

from .dynamics import (P0, P_PLUS, P_MINUS, hamiltonian, vector_field,
                       equilibria, to_rotated, from_rotated,
                       rotated_vector_field, hamiltonian_rotated,
                       time_reversal_swap, spinor_from_state,
                       state_from_spinor, SpinorPair, EquilibriumCatalog)
from .linear import (jacobian_at, eigenvalues_4x4, lyapunov_period, matrix_c,
                     Jacobian4, SpectrumReport)
from .integrators import (StepperConfig, Trajectory, step, integrate,
                          energy_drift)
from .spectral import (SpectrumA, PeriodicField, EnergyBreakdown,
                       NehariResiduals, build_spectrum, apply_A, project,
                       norms, energy, gradient, gradient_norm, reduce_g,
                       nehari_residuals, ground_state, cutoff_test_pair,
                       concentration_diagnostic, GroundStateResult)
from .orbits import (PeriodicOrbit, shoot_periodic, lyapunov_family,
                     field_to_orbit, distance_to_homoclinic,
                     period_energy_diagram, HomoclinicProfile,
                     derive_constants, derived_profile, quoted_profile,
                     limit_energy_quadrature, DELTA0)
from .geometry import (RadialProfile, Spinor2, clifford_mult,
                       ground_state_closed_form, closed_form_profile,
                       cylinder_to_euclidean, euclidean_to_cylinder,
                       euclidean_to_sphere, coupling_constant_fit,
                       CouplingFit, best_fit_scale)

__version__ = "0.1.0"
