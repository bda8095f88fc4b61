"""Soft-window sampling: a Gaussian admission weight with variance sig_g2
replaces the hard censoring radius.

Conditional on the state, the admitted signal of a type-q source is normal
with mean pulled toward the window center and variance below the source
variance (the product-of-Gaussians convolution). The decision rule evaluated
here is the two-step shrinkage scheme built from the printed weights: a
quality belief from the admission-free predictive densities with the prior
type share, then a precision-style shrinkage of the signal toward the prior
mean. That rule is not the generative posterior mean; its value can fall
below minus the prior variance, which no posterior-mean rule admits. The
objective is evaluated by the closed form where the blended prior weight is
constant (single-type or equal-variance cases) and by double quadrature
otherwise.
"""
from __future__ import annotations

import numpy as np
from scipy.special import expit

from .censor import _naive_loss, _scan_then_refine, expected_utility, scan_radii
from .model import (
    ModelParams,
    NormalWeight,
    NumericsConfig,
    Radius,
    UNBOUNDED,
    _log_weights,
    is_unbounded,
    norm_logpdf,
)
from .quadrature import _checked


def _per_type(params: ModelParams, policy: NormalWeight, q: str) -> tuple[float, float, float]:
    """(alpha_q, lambda_q, sig_gq2_q) from the precision definitions."""
    qv = params.signal_var(q)
    p0 = 1.0 / params.prior_var
    pq = 1.0 / qv
    pg = 1.0 / policy.var
    alpha = p0 / (p0 + pg + pq)
    lam = pq / (pq + pg)
    sig_gq2 = 1.0 / (pg + pq)
    return alpha, lam, sig_gq2


def naive_prob_high(s, params: ModelParams, policy: NormalWeight):
    """Quality belief of the two-step rule: admitted-signal predictive
    densities under the prior state law, blended with the prior type share.

    In the no-window limit this coincides with the closed-form source odds.
    """
    s = np.asarray(s, dtype=float)
    logs = {}
    for q in ("H", "L"):
        _, lam, sig_gq2 = _per_type(params, policy, q)
        mean = params.prior_mean + (1.0 - lam) * policy.mean
        var = lam * lam * params.prior_var + sig_gq2
        logs[q] = norm_logpdf(s, mean, var)
    lh, ll = _log_weights(params)
    log_odds = lh - ll + logs["H"] - logs["L"]
    return expit(log_odds)


def naive_action(s, params: ModelParams, policy: NormalWeight):
    """The two-step rule's action: belief-blended prior weight on the prior
    mean, remainder on the raw signal."""
    s = np.asarray(s, dtype=float)
    aH, _, _ = _per_type(params, policy, "H")
    aL, _, _ = _per_type(params, policy, "L")
    p_high = naive_prob_high(s, params, policy)
    alpha_bar = p_high * aH + (1.0 - p_high) * aL
    return alpha_bar * params.prior_mean + (1.0 - alpha_bar) * s


def closed_form_objective(params: ModelParams, sampling_var, cfg: NumericsConfig) -> float:
    """Expected utility of the soft window centered at the prior mean.

    sampling_var = 0 returns minus the prior variance analytically and
    UNBOUNDED returns the no-restriction benchmark, expected_utility.
    Where the blended prior weight is constant in the signal (a single
    type, or equal variances) this is single_type_objective_offcenter at
    offset 0, for the low type when high_share = 0 and the high type
    otherwise. Mixed cases are evaluated by double quadrature of the same
    objective, since the blended prior weight then varies with the signal,
    and that value passes the Kronrod-Gauss self-check in units of
    prior_var, or QuadratureError is raised.
    """
    if is_unbounded(sampling_var):
        return expected_utility(Radius(UNBOUNDED), params, cfg)
    v = float(sampling_var)
    if v < 0.0:
        raise ValueError(f"sampling variance must be nonnegative, got {v!r}")
    if v == 0.0:
        return -params.prior_var
    if params.high_share in (0.0, 1.0) or params.high_var == params.low_var:
        q = "H" if params.high_share > 0.0 else "L"
        return single_type_objective_offcenter(params, q, v, 0.0)
    policy = NormalWeight(mean=0.0, var=v)
    objective = lambda c: -_naive_loss(naive_action, policy, params, c)  # noqa: E731
    return float(_checked("soft-window objective", objective, params.prior_var, cfg))


def single_type_objective_offcenter(
    params: ModelParams, q: str, sampling_var: float, offset: float
) -> float:
    """Single-type closed form for a window centered offset away from the
    prior mean; the off-center penalty enters through the attenuation
    factor."""
    policy = NormalWeight(mean=offset, var=sampling_var)
    alpha, lam, sig_gq2 = _per_type(params, policy, q)
    s0 = params.prior_var
    return -(
        (1.0 - (1.0 - alpha) * lam) ** 2 * s0
        + (1.0 - alpha) ** 2 * sig_gq2
        + (1.0 - lam) ** 2 * offset**2
    )


def single_type_critical_point(params: ModelParams, q: str) -> float:
    """Stationary sampling variance of the single-type closed form:
    prior_var * (q_var - 2 prior_var) / (q_var + prior_var). Positive only
    when the source variance exceeds twice the prior variance. The ratio is
    taken first, so that no product of variances overflows."""
    qv = params.signal_var(q)
    s0 = params.prior_var
    return s0 * ((qv - 2.0 * s0) / (qv + s0))


def locate_critical_point(
    params: ModelParams, lo: float, hi: float, cfg: NumericsConfig
) -> tuple[float, str]:
    """Numerically locate a stationary point of the objective in (lo, hi)
    by bisecting the sign change of a central-difference derivative, and
    classify it as 'min' or 'max' by the local curvature."""

    def deriv(v: float) -> float:
        step = 1e-6 * (1.0 + v)
        up = closed_form_objective(params, v + step, cfg)
        dn = closed_form_objective(params, v - step, cfg)
        return (up - dn) / (2.0 * step)

    # imported here: only this diagnostic needs a root finder
    from scipy.optimize import brentq

    v_star = float(brentq(deriv, lo, hi, xtol=1e-10))
    mid = closed_form_objective(params, v_star, cfg)
    spread = 0.05 * (1.0 + v_star)
    left = closed_form_objective(params, v_star - spread, cfg)
    right = closed_form_objective(params, v_star + spread, cfg)
    kind = "min" if mid <= min(left, right) else "max"
    return v_star, kind


def optimize_sampling_variance(params: ModelParams, cfg: NumericsConfig):
    """Maximize the soft-window objective over the sampling variance on the
    square of the radius family's scan grid, against the no-restriction
    benchmark. Returns the same result type as the censoring-radius
    optimizer, with the optimizing sampling variance in r_star. Every
    quadrature value it compares has passed the Kronrod-Gauss self-check,
    or QuadratureError is raised."""
    return _scan_then_refine(
        lambda v: closed_form_objective(params, v, cfg),
        scan_radii(params) ** 2,
        params.prior_var,
        params.prior_var,
        "sampling-variance",
    )
