"""Zygmund and Fejér means on periodic convolution classes.

A numerical library for the approximation theory of 2*pi-periodic functions
representable as convolutions of unit-ball L_1 sources with kernels whose
cosine coefficients follow a prescribed decay profile.  It provides:

* decay-profile families and their structural classification (`decay`),
* trigonometric polynomial algebra, classical kernels, and the Zygmund and
  Fejér summation operators (`trig`),
* integral-metric norms and best approximation (`norms`),
* the calibrated extremal witness and its pairing lower bounds (`witness`),
* closed-form rate laws and bounded-ratio experiments (`rates`),
* a config-driven CLI emitting CSV reports (`cli`).
"""

from .decay import (
    Convexity,
    MethodParams,
    Power,
    PowerInvLog,
    PowerLog,
    PowerLogLog,
    PsiFunction,
    Regime,
    RegimeResult,
    check_almost_decreasing,
    check_doubling,
    classify_regime,
    growth_function,
    reciprocal_convexity,
)
from .errors import ZygmundError
from .norms import BestApproxResult, NormRequest, best_approx, l1_norm, l2_norm_coeffs, lq_norm
from .rates import (
    RateReport,
    best_vs_method_experiment,
    critical_integral,
    loglog_slope,
    ratio_experiment,
    theoretical_rate,
    unit_ball_deviations,
    unit_ball_sources,
    upper_bound_estimate,
)
from .trig import (
    TrigPoly,
    convolve,
    dirichlet,
    dirichlet_closed,
    fejer_sum,
    from_samples,
    psi_beta_derivative,
    sample,
    vallee_poussin,
    zygmund_sum,
)
from .witness import (
    WitnessConfig,
    WitnessResult,
    build_witness,
    calibrate_alpha0,
    dual_test_poly,
)

__version__ = "0.1.0"

__all__ = [
    "Convexity",
    "MethodParams",
    "Power",
    "PowerInvLog",
    "PowerLog",
    "PowerLogLog",
    "PsiFunction",
    "Regime",
    "RegimeResult",
    "check_almost_decreasing",
    "check_doubling",
    "classify_regime",
    "growth_function",
    "reciprocal_convexity",
    "ZygmundError",
    "BestApproxResult",
    "NormRequest",
    "best_approx",
    "l1_norm",
    "l2_norm_coeffs",
    "lq_norm",
    "RateReport",
    "best_vs_method_experiment",
    "critical_integral",
    "loglog_slope",
    "ratio_experiment",
    "theoretical_rate",
    "unit_ball_deviations",
    "unit_ball_sources",
    "upper_bound_estimate",
    "TrigPoly",
    "convolve",
    "dirichlet",
    "dirichlet_closed",
    "fejer_sum",
    "from_samples",
    "psi_beta_derivative",
    "sample",
    "vallee_poussin",
    "zygmund_sum",
    "WitnessConfig",
    "WitnessResult",
    "build_witness",
    "calibrate_alpha0",
    "dual_test_poly",
    "__version__",
]
