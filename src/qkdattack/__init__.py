"""Optimal memoryless eavesdropping on basis-announcing key distribution.

The adversary must measure her probe before the basis announcement but may
tailor the measurement to exploit it afterwards.  This package maximizes her
mutual information over measurements and source purifications at each error
rate, computes the resulting secret-key rates and security thresholds, and
cross-validates the analytic numbers with a Monte Carlo sampler.
"""

from .information import (
    ConditionalDistribution,
    Povm,
    binary_entropy,
    conditional_probs,
    lambda_fn,
    mutual_info_ae,
)
from .keyrate import (
    CurvePoint,
    NumericalFailure,
    ThresholdReport,
    bb84_closed_form_iae,
    find_threshold,
    key_rate,
    reference_thresholds,
    tabulate_curve,
)
from .linalg import TOL, Tolerances, dagger, partial_trace
from .optimizer import AttackResult, OptimizerConfig, optimize_attack
from .simulator import (
    JointDistribution,
    empirical_stats,
    joint_distribution,
    sample_rounds,
    sampled_estimates,
)
from .states import (
    BB84,
    PROTOCOLS,
    SARG04,
    SIX_STATE,
    BellDiagonalParams,
    Protocol,
    PurifiedState,
    alpha_range,
    bell_basis,
    eve_conditional_state,
    purified_state,
    purify,
    qber_in_basis,
    rho_ab,
)

__version__ = "0.1.0"

__all__ = [
    "BB84",
    "PROTOCOLS",
    "SARG04",
    "SIX_STATE",
    "TOL",
    "AttackResult",
    "BellDiagonalParams",
    "ConditionalDistribution",
    "CurvePoint",
    "JointDistribution",
    "NumericalFailure",
    "OptimizerConfig",
    "Povm",
    "Protocol",
    "PurifiedState",
    "ThresholdReport",
    "Tolerances",
    "alpha_range",
    "bb84_closed_form_iae",
    "bell_basis",
    "binary_entropy",
    "conditional_probs",
    "dagger",
    "empirical_stats",
    "eve_conditional_state",
    "find_threshold",
    "joint_distribution",
    "key_rate",
    "lambda_fn",
    "mutual_info_ae",
    "optimize_attack",
    "partial_trace",
    "purified_state",
    "purify",
    "qber_in_basis",
    "reference_thresholds",
    "sample_rounds",
    "sampled_estimates",
    "tabulate_curve",
]
