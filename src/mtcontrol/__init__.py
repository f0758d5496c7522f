"""Analysis of multitime first-order linear PDE control systems.

Verifies complete-integrability conditions, computes fundamental matrices
and solutions, controllability/reachability gramians and the autonomous
controllability matrix, decides controllability and reachability of
phases, and synthesizes controls realizing feasible phase transfers.
"""

from .core import (DEFAULT_CONFIG, NumericConfig, PolylineCurve, as_point,
                   as_points, curve_segment, staircase)
from .expr import Expr, ExprDomainError, ExprError, differentiate, parse
from .flow import (FundamentalMatrix, fundamental_matrix, solve_adjoint,
                   solve_affine, solve_controlled, solve_homogeneous, transition)
from .gramian import (Gramian, SubspaceBasis, TransferDecision,
                      controllability_gramian, controllability_space,
                      decide_complete, decide_transfer, gramian_integrand,
                      image_basis, numerical_rank, reachability_gramian)
from .kalman import (AutonomousReport, ControllabilityMatrix, autonomous_analysis,
                     controllability_matrix, rank_G)
from .pathint import OneFormFamily, integrate_along
from .synth import (SynthesisResult, SynthesizedControl, TransferVerification,
                    synthesize_transfer, verify_transfer)
from .system import (CompatibilityError, ConditionReport, LinearSystem,
                     MatrixFamily, MatrixFunction, check_control_compat,
                     check_F_compatibility, check_gramian_compat,
                     check_M_commutation, require)

__version__ = "0.1.0"
