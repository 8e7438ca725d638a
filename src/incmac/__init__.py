"""Numerics for the incomplete Macdonald function and its relatives.

The package provides a quadrature reference oracle over three equivalent
integral representations, convergent series and asymptotic evaluators, a
regime-switching front end, derivative and recurrence identity residual
checks, conversions to the generalized incomplete gamma, leaky aquifer,
and truncated cosh-integral forms, and a verification battery.
"""

from .core import (
    DEFAULT_TOLERANCES,
    FLAG_UNDERFLOW,
    DomainError,
    Evaluation,
    MethodTag,
    NearPoleWarning,
    NonConvergence,
    PoleError,
    ShuParams,
    StepTooCoarse,
    Tolerances,
    validate,
)
from .evaluator import (
    GridCell,
    RegimeDecision,
    closed_form_half,
    evaluate,
    evaluate_grid,
)
from .expansions import (
    asympt_large_t,
    leading_imb_large_z,
    leading_large_z,
    leading_small_t,
    leading_small_z,
    series_small_t,
    series_small_z,
)
from .gamma import (
    gamma,
    incomplete_gamma_asymptotic,
    macdonald_k,
    upper_incomplete_gamma,
)
from .quadrature import QuadratureResult, integrate_adaptive, shu_oracle, shu_oracle_cosh
from .relations import (
    ResidualReport,
    dS_dt,
    dS_dz,
    diff_relation1_residual,
    diff_relation2_residual,
    gen_incomplete_gamma,
    incomplete_modified_bessel,
    leaky_aquifer,
    pde_residual,
    recurrence1_residual,
    recurrence2_residual,
)
from .verification import IDENTITY_TOLERANCES, VerifyRecord, run_verification, summarize

__version__ = "0.1.0"
