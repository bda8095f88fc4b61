"""Bayesian decision model with two signal-source qualities and
self-imposed sampling windows: posteriors and optimal actions, expected
utility of hard and soft windows, window optimizers, a seeded Monte Carlo
oracle, and a CSV/SVG figure CLI."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateRadiusError,
    DomainError,
    NumericFailure,
    QuadratureError,
    RejectionStallError,
    ScanBoundError,
    SignalOutsideSupportError,
    UndefinedOddsError,
)
from .model import (
    DEFAULT_NUMERICS,
    DEFAULT_PARAMS,
    UNBOUNDED,
    ModelParams,
    NormalWeight,
    NumericsConfig,
    Radius,
    SamplingPolicy,
    is_unbounded,
)
from .inference import (
    PosteriorSummary,
    action_map,
    optimal_action,
    posterior_density,
    prob_high_closed,
    source_odds_closed,
    uncensored_linear_action,
)
from .censor import (
    OptimumResult,
    UtilityCurve,
    expected_utility,
    optimize_radius,
    signal_moments_vs_r,
    utility_curve,
)
from .normal_sampling import (
    closed_form_objective,
    locate_critical_point,
    naive_action,
    optimize_sampling_variance,
    single_type_critical_point,
    single_type_objective_offcenter,
)
from .mc import (
    DrawSet,
    McEstimate,
    grid_posterior_oracle,
    mc_high_prob_within_radius,
    simulate_draws,
)
from .verify import ALL_CHECKS, CheckResult, format_report, run_checks
