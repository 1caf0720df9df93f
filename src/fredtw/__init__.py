"""
fredtw: Fredholm determinants of Schrodinger-type integrable kernels.

Three independent evaluation routes for the gap probability
F(I) = det(I - K)|_I -- Nystrom determinant, a functional of the
resolvent boundary value q, and an alternative moment representation --
plus the auxiliary-wave-function identity registry, endpoint
Hamiltonians, isomonodromic (Lax/Schlesinger) truncations, and
finite-temperature kernels.
"""

from .errors import (NonConvergent, PsiTooSmall, SingularOperator,
                     WeightVanishes)
from .wavefun import (WaveModel, airy_model, damped_airy_model,
                      tabulated_model, zero_model, psi_second,
                      check_regularity)
from .kernel import (cd_kernel, kernel_diag, kernel_direct,
                     kernel_derivative_residual, kernel_matrix)
from .fredholm import (GridConfig, IntervalUnion, build_grid, discretize,
                       discretize_matrix, fredholm_det, fredholm_series,
                       gap_probability, half_line, nystrom, resolve)
from .awf import (AwfTable, IDENTITIES, build_awf, identity_residual,
                  resolvent_endpoint, resolvent_kernel)
from .hamiltonian import (ROUTES, hamiltonian, h1_derivative_residual,
                          logdet_link_residual)
from .lax import (LaxTruncation, build_A, build_B, build_truncation,
                  lax_system_residual, schlesinger_mask,
                  schlesinger_residual)
from .twsolver import (QSolution, det_via_alternative, det_via_functional,
                       q_ode_residual, solve_q)
from .kpz import (FiniteTempSpec, generic_ft_kernel, kpz_gap, kpz_kernel,
                  u_reparam_check)

__version__ = "0.1.0"
