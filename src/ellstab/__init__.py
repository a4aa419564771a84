"""Numerical elliptic stable envelopes for cyclic quiver varieties.

The package evaluates, at generic complex parameter points, the theta-function
stable envelopes of cyclic-quiver varieties together with everything the
construction induces: shuffle products, dynamical R-matrices and their
Yang-Baxter relation, lowest-weight Fock representation coefficients,
K-theoretic vertex-function series, Bethe saddle-point equations, and the
closed-form exchange scalars.
"""

from .core import (HBAR, Monomial, ParamPoint, SingularityError, BudgetError,
                   qpoch_fin, qpoch_inf, theta_modular_residual, theta_p,
                   vartheta1)
from .envelopes import (Envelope, EnvelopeSpec, ThetaProduct, default_kahler,
                        factorization_residual, kahler_args, kahler_point,
                        restrict, restriction_values, shuffle_residual)
from .fock import (box_weight, exchange_pairs, exchange_residual,
                   exchange_sides, lowering_coefficient, phi_eigenvalue,
                   raising_coefficient, vector_action)
from .partitions import (Box, ColoredPartition, FixedPoint, FramingGroup,
                         LambdaTree, addable_removable, box_order_cmp, chern_slots,
                         fixed_points, index_degrees, k_eigen_sum_ok,
                         lambda_trees, make_fixed_point, phi_weight, rho_less,
                         spanning_trees, weight_identity_ok)
from .rmatrix import (TransitionResult, bare_transition,
                      composition_residual, leading_pair_factorization_residual,
                      restriction_matrix, shift_invariance_residual,
                      transition_r, transition_r_star,
                      transpose_relation_residual, weight_block_residual,
                      ybe_residual)
from .sampling import Annuli, random_assignment, sample_param_point
from .scalars import (chi_exchange, eta_pairing, mu_exchange,
                      mu_exchange_scalar, mu_star_exchange, mu_vacuum_ope,
                      rho_plus, rho_ratio, rll_scalar_residual,
                      vacuum_c_constants)
from .vertex import (BetheSolution, VertexSeries, bethe_residuals, bethe_solve,
                     jackson_term_ratio, normalization_factor, vertex_series)

__version__ = "0.1.0"
