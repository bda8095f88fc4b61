"""Posterior beliefs, source-quality probabilities, and optimal actions.

For a Radius policy the likelihood of state omega given an admitted signal s
is the window-renormalized mixture f(s|omega) / D_r(omega), so the posterior
is tilted toward states less likely to have produced an in-window signal.
For a NormalWeight policy the likelihood is the soft-window analogue: each
type's sampled signal is normal with shrunk mean and variance, and type
weights acquire a state-dependent factor proportional to the type's overall
admission probability.

Every summary carries a joint-consistent decomposition: the action equals
prob_high * action_H + (1 - prob_high) * action_L up to floating error,
because weights and type actions are integrals of the same tilted joint.
The direct action is nevertheless computed through the mixed likelihood in a
separate floating-point pass, so the decomposition identity remains a live
numerical health check rather than a tautology.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import expit

from .errors import DegenerateRadiusError, SignalOutsideSupportError, UndefinedOddsError
from .model import (
    ModelParams,
    NormalWeight,
    NumericsConfig,
    Radius,
    SamplingPolicy,
    _log_weights,
    norm_logpdf,
    window_logmass,
)
from .quadrature import signal_rule, state_rule


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior mean (the optimal action), posterior variance, probability
    that the source is high quality, and the two type-conditional actions."""

    action: float
    posterior_var: float
    prob_high: float
    type_actions: tuple[float, float]

    @property
    def combination(self) -> float:
        """The decomposed action: quality-probability mix of type actions."""
        aH, aL = self.type_actions
        return self.prob_high * aH + (1.0 - self.prob_high) * aL


def source_odds_closed(s, params: ModelParams):
    """Closed-form odds of a high-quality source given an unrestricted signal.

    Independent of any sampling radius by construction.
    """
    h = params.high_share
    if h <= 0.0 or h >= 1.0:
        raise UndefinedOddsError(f"odds need high_share in (0, 1), got {h!r}")
    vh = params.high_var + params.prior_var
    vl = params.low_var + params.prior_var
    s = np.asarray(s, dtype=float)
    quad = (s - params.prior_mean) ** 2 * (params.low_var - params.high_var) / (2.0 * vh * vl)
    return (h / (1.0 - h)) * math.sqrt(vl / vh) * np.exp(-quad)


def prob_high_closed(s, params: ModelParams):
    odds = source_odds_closed(s, params)
    return odds / (1.0 + odds)


def uncensored_linear_action(s, params: ModelParams, q: str):
    """Known-type, no-restriction policy: precision-weighted average of the
    prior mean and the signal."""
    var = params.signal_var(q)
    s = np.asarray(s, dtype=float)
    return (var * params.prior_mean + params.prior_var * s) / (var + params.prior_var)


# ---------------------------------------------------------------------------
# quadrature internals

def _log_terms(omega, s, policy: SamplingPolicy, params: ModelParams):
    """The policy's log joint of (state, admitted signal), in pieces.

    Returns (tilt, like_H, like_L) with omega and s broadcast against each
    other: tilt(omega) is the log prior less the log admission probability
    of the state, and like_q(omega, s) is the log density of an admitted
    type-q signal times that type's admission probability. The type-q joint
    integrand, type share excluded, is tilt + like_q; mixing like_q over
    types gives the admitted-signal density at omega up to a state factor.
    """
    if not isinstance(policy, (Radius, NormalWeight)):
        raise TypeError(f"unsupported policy {policy!r}")
    omega = np.asarray(omega, dtype=float)
    tilt = norm_logpdf(omega, params.prior_mean, params.prior_var)
    variances = (params.high_var, params.low_var)
    if isinstance(policy, NormalWeight) and not policy.unbounded:
        # a type-q signal is admitted with probability N(omega; mean, q_var + var)
        # and is then normal with shrunk mean and the product variance
        mean, var = policy.mean, float(policy.var)
        admit = [norm_logpdf(omega, mean, qv + var) for qv in variances]
        like = []
        for qv, log_admit in zip(variances, admit):
            lam = var / (var + qv)
            shrunk = lam * omega + (1.0 - lam) * mean
            like.append(log_admit + norm_logpdf(s, shrunk, qv * var / (qv + var)))
        lh, ll = _log_weights(params)
        tilt = tilt - np.logaddexp(lh + admit[0], ll + admit[1])
        return tilt, like[0], like[1]
    if not policy.unbounded:
        if policy.r == 0.0:
            raise DegenerateRadiusError("r = 0 admits no signal")
        tilt = tilt - window_logmass(omega, policy.r, params)
    return (tilt,) + tuple(norm_logpdf(s, omega, qv) for qv in variances)


def _policy_pieces(s_values: np.ndarray, policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig):
    """Per-type log joint integrand B_q[i, j] (excluding the type share) and
    the mixed log integrand, over state nodes i and signal values j."""
    omega, w = state_rule(params, cfg)
    tilt, like_H, like_L = _log_terms(omega[:, None], s_values[None, :], policy, params)
    bH = tilt + like_H
    bL = tilt + like_L
    lh, ll = _log_weights(params)
    b_mix = np.logaddexp(lh + bH, ll + bL)
    return omega, w, bH, bL, b_mix, (lh, ll)


def _shifted_moments(b: np.ndarray, omega: np.ndarray, w: np.ndarray):
    """Stable (logZ, mean, second moment) columns for integrand exp(b)."""
    m = b.max(axis=0)
    e = np.exp(b - m[None, :])
    s0 = e.T @ w
    s1 = e.T @ (w * omega)
    s2 = e.T @ (w * omega * omega)
    logz = m + np.log(s0)
    return logz, s1 / s0, s2 / s0


def posterior_summaries(
    s_values, policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized core: arrays (action, posterior_var, prob_high, a_H, a_L)
    for each signal in s_values. Does not enforce the support precondition;
    callers that expose single-signal contracts do."""
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    omega, w, bH, bL, b_mix, (lh, ll) = _policy_pieces(s_values, policy, params, cfg)
    logz_H, mean_H, _ = _shifted_moments(bH, omega, w)
    logz_L, mean_L, _ = _shifted_moments(bL, omega, w)
    logz_mix, action, m2 = _shifted_moments(b_mix, omega, w)
    post_var = np.maximum(m2 - action**2, 0.0)
    # prob_high through the log-odds so extreme signals stay in [0, 1]
    log_odds = (lh + logz_H) - (ll + logz_L)
    prob_high = expit(log_odds)
    return action, post_var, prob_high, mean_H, mean_L


def _check_support(s: float, policy: SamplingPolicy, params: ModelParams) -> None:
    if isinstance(policy, Radius) and not policy.unbounded:
        if abs(s - params.prior_mean) >= policy.r:
            raise SignalOutsideSupportError(
                f"signal {s!r} lies outside the open window of half-width {policy.r!r} "
                f"around {params.prior_mean!r}"
            )


def optimal_action(
    s: float, policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig
) -> PosteriorSummary:
    """Full posterior summary at one signal.

    The action is the posterior mean computed through the mixed likelihood;
    prob_high and the type actions come from the per-type passes of the same
    joint, so the convex-combination identity holds up to floating error.
    """
    _check_support(s, policy, params)
    action, post_var, prob_high, aH, aL = posterior_summaries(
        np.array([s], dtype=float), policy, params, cfg
    )
    return PosteriorSummary(
        action=float(action[0]),
        posterior_var=float(post_var[0]),
        prob_high=float(prob_high[0]),
        type_actions=(float(aH[0]), float(aL[0])),
    )


def posterior_density(
    omega, s: float, policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig
):
    """Normalized posterior density of the state at omega, given signal s."""
    _check_support(s, policy, params)
    nodes, w, _, _, b_mix, (lh, ll) = _policy_pieces(np.array([s], dtype=float), policy, params, cfg)
    log_norm, _, _ = _shifted_moments(b_mix, nodes, w)
    tilt, like_H, like_L = _log_terms(omega, s, policy, params)
    return np.exp(np.logaddexp(lh + (tilt + like_H), ll + (tilt + like_L)) - log_norm[0])


def action_map(policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig):
    """Monotone-cubic interpolant of s -> optimal action over the policy
    support, for consumers that evaluate the action many times (figures,
    Monte Carlo). Quadrature nodes double as interpolation knots."""
    windowed = isinstance(policy, Radius) and not policy.unbounded
    if windowed and policy.r == 0.0:
        raise DegenerateRadiusError("r = 0 admits no signal")
    nodes, _ = signal_rule(policy, params, cfg)
    if windowed:
        # the window edges are knots too, so no admitted signal extrapolates
        m, r = params.prior_mean, policy.r
        nodes = np.concatenate(([m - r], nodes, [m + r]))
    grid = np.unique(nodes)
    action, _, _, _, _ = posterior_summaries(grid, policy, params, cfg)
    return PchipInterpolator(grid, action, extrapolate=True)
