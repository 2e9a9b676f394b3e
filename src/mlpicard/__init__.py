"""Multilevel Picard Monte Carlo approximation of semilinear heat
equations with gradient-dependent nonlinearities.

The estimator returns joint (value, gradient) approximations at a
single space-time point, with reproducible keyed randomness, exact cost
instrumentation, Gauss-Legendre time quadrature, and the matching
a-priori error bounds and cost recursions.
"""

from .analysis import (
    BoundInputs,
    binomial,
    bound_nmq,
    constant_C,
    cost_fe_exact,
    cost_rn_exact,
    iterated_gl_upper_bound,
    log_gamma,
    norm_log_subadditivity_check,
)
from .errors import BudgetError, ConfigError, EvaluationError
from .mlp_core import (
    CostCounters,
    Estimate,
    ErrorReport,
    FkResidual,
    Problem,
    check_request,
    discrete_fk_residual,
    mc_l2_error,
    mlp_estimate,
)
from .problems import PROBLEMS, build_problem, heat_quadratic, manufactured_sine
from .quadrature import (
    GaussLegendreRule,
    build_rule,
    frac_moment_sum,
    integrate,
    iterated_gl_lhs,
    iterated_gl_rhs,
    scale_weight,
)
from .randomness import MultiIndex, PathIncrements, sample_path
from .selfcheck import CheckResult, run_selfcheck

__version__ = "0.1.0"

__all__ = [
    "BoundInputs",
    "BudgetError",
    "CheckResult",
    "ConfigError",
    "CostCounters",
    "Estimate",
    "ErrorReport",
    "EvaluationError",
    "FkResidual",
    "GaussLegendreRule",
    "MultiIndex",
    "PROBLEMS",
    "PathIncrements",
    "Problem",
    "binomial",
    "bound_nmq",
    "build_problem",
    "build_rule",
    "check_request",
    "constant_C",
    "cost_fe_exact",
    "cost_rn_exact",
    "discrete_fk_residual",
    "frac_moment_sum",
    "heat_quadratic",
    "integrate",
    "iterated_gl_lhs",
    "iterated_gl_rhs",
    "iterated_gl_upper_bound",
    "log_gamma",
    "manufactured_sine",
    "mc_l2_error",
    "mlp_estimate",
    "norm_log_subadditivity_check",
    "run_selfcheck",
    "sample_path",
    "scale_weight",
]
