"""liftlab: lift-and-project relaxations of the Knapsack LP.

Exact rational machinery for two moment-based hierarchies over the
Knapsack polytope: membership checkers, the uniform-instance gap
certificate, an exact simplex over the linear lifted system, an
approximate semidefinite optimizer (a numerical lower estimate), and
the decomposition of vanishing-condition points into conditioned
0/1 parts.
"""

from .decomposition import (DecompositionResult, big_items, decompose,
                            vanishing_condition, verify_decomposition)
from .hierarchy import (CertificateCheck, MembershipReport, Violation,
                        certificate_alpha, certificate_membership,
                        convex_combination, integer_to_moment,
                        lasserre_membership, sa_gap_certificate,
                        sa_membership, verify_gap_certificate)
from .knapsack import (KnapsackInstance, greedy, instance_from_json,
                       instance_to_json, lp_value, make_instance, opt_solution,
                       residual, uniform_gap_instance)
from .psd import EigenConvergenceError, project_psd, psd_exact
from .rationals import ONE, Q, ZERO, rat, rat_str
from .simplex import LPProblem, LPUnbounded, simplex_exact
from .solvers import (LasserreEstimate, lasserre_value, sa_lp_problem,
                      sa_value)
from .subsets import (SetVector, extend, family_p_t, family_powerset,
                      indices_of, is_closed_under_shifting, mask_of,
                      moment_matrix, restrict_reindex, setvector_from_json,
                      setvector_to_json, shift, signed_base, submasks,
                      z_vector)
from .sweep import ResultRow, SweepConfig, run_sweep

__version__ = "0.1.0"

__all__ = [
    "CertificateCheck", "DecompositionResult", "EigenConvergenceError",
    "KnapsackInstance", "LPProblem", "LPUnbounded",
    "LasserreEstimate", "MembershipReport", "ONE", "Q", "ResultRow",
    "SetVector", "SweepConfig",
    "Violation", "ZERO", "big_items", "certificate_alpha",
    "certificate_membership", "convex_combination", "decompose",
    "extend",
    "family_p_t", "family_powerset", "greedy", "indices_of",
    "instance_from_json", "instance_to_json", "integer_to_moment",
    "is_closed_under_shifting", "lasserre_membership", "lasserre_value",
    "lp_value", "make_instance", "mask_of", "moment_matrix",
    "opt_solution", "project_psd", "psd_exact", "rat", "rat_str", "residual",
    "restrict_reindex", "run_sweep", "sa_gap_certificate",
    "sa_lp_problem", "sa_membership", "sa_value",
    "setvector_from_json", "setvector_to_json", "shift", "signed_base",
    "simplex_exact", "submasks", "uniform_gap_instance", "vanishing_condition",
    "verify_decomposition", "verify_gap_certificate", "z_vector",
]
