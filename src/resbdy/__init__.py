"""Potential theory on infinite resistance networks.

Energy kernels, effective resistance, monopoles and transience, the Royden
decomposition, Gram-Schmidt orthonormal bases with their evaluation
identities, Gaussian Monte Carlo checks of the energy-space embedding, and
boundary sums along exhaustions.
"""

from .energy import (Potential, SubgraphView, energy, potential_from_values,
                     window_laplacian)
from .errors import *  # noqa: F401,F403
from .ladder import (LadderHarmonic, du_bound_satisfied, du_upper_bounds,
                     harmonic_residuals, ladder_energy, ladder_harmonic,
                     ladder_vs_halfline_transitions)
from .network import (BinaryTreeGenerator, Exhaustion,
                      GeometricHalfLineGenerator, IntegerLatticeGenerator,
                      LadderGenerator, Network, build_finite,
                      default_exhaustion, doubling_exhaustion,
                      enumerate_vertices, generator_from_spec)
from .onb import (OnbSystem, build_onb, coefficient_vector,
                  entries_E_via_evaluation, entries_M_via_laplacian,
                  gram_product_check, gram_schmidt, kronecker_sum_check,
                  number_operator, number_pairing_check, p_seminorm,
                  reconstruction_check)
from .royden import RoydenSplit, royden_split, sup_norm
from .solver import (ConvergenceReport, MonopoleResult, effective_resistance,
                     energy_kernel, exhaustion_independence, monopole,
                     solve_dipole_level)
from .walk import (HittingEstimate, WalkConfig, hitting_probability_mc,
                   hitting_reference)
from .wiener import (CheckResult, GaussianEnsemble, boundary_integral_check,
                     isometry_check, kernel_coefficients, minlos_check,
                     moment_check, mu_negative_fraction,
                     resistance_via_expectation, sample_ensemble,
                     wiener_transform)
from .boundary import (BoundaryPointEval, GaussGreenReport, PathToInfinity,
                       boundary_point_eval, boundary_sum_harmonic,
                       gauss_green_verify, path_equivalence)

__version__ = "0.1.0"
