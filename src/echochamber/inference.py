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
from scipy.interpolate import make_interp_spline
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
    sq_norm_logpdf,
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

# Cells per signal block of the kernel tensor: 2^15 doubles are 256 KiB, so
# one block's log integrands and temporaries stay in a 2 MiB L2 cache.
_BLOCK_CELLS = 2**15


def _log_terms(omega, s, policy: SamplingPolicy, params: ModelParams):
    """The policy's log joint of (state, admitted signal), in pieces.

    Returns (tilt, like_H, like_L) with omega and s broadcast against each
    other: tilt(omega) is the log prior less the log admission probability
    of the state, and like_q(omega, s) is the log density of an admitted
    type-q signal times that type's admission probability. The type-q joint
    integrand, type share excluded, is tilt + like_q; mixing like_q over
    types gives the admitted-signal density at omega up to a state factor.
    """
    tilt, like = _state_terms(omega, policy, params)
    return (tilt,) + like(s)


def _state_terms(omega, policy: SamplingPolicy, params: ModelParams):
    """_log_terms split at the signal: (tilt, like), where like(s) gives
    (like_H, like_L) at signals s. Everything that depends on the state
    alone is computed here, once, however many signal blocks like serves."""
    if not isinstance(policy, (Radius, NormalWeight)):
        raise TypeError(f"unsupported policy {policy!r}")
    omega = np.asarray(omega, dtype=float)
    tilt = norm_logpdf(omega, params.prior_mean, params.prior_var)
    variances = (params.high_var, params.low_var)
    if isinstance(policy, NormalWeight):
        # a type-q signal is admitted with probability N(omega; mean, q_var + var)
        # and is then normal with shrunk mean and the product variance
        mean, var = policy.mean, policy.var
        admit = [norm_logpdf(omega, mean, qv + var) for qv in variances]
        shrunk = []
        for qv in variances:
            lam = var / (var + qv)
            shrunk.append(lam * omega + (1.0 - lam) * mean)
        lh, ll = _log_weights(params)
        tilt = tilt - np.logaddexp(lh + admit[0], ll + admit[1])

        def like(s):
            return tuple(
                log_admit + norm_logpdf(s, m, qv * var / (qv + var))
                for qv, log_admit, m in zip(variances, admit, shrunk)
            )

        return tilt, like
    if not policy.unbounded:
        if policy.r == 0.0:
            raise DegenerateRadiusError("r = 0 admits no signal")
        tilt = tilt - window_logmass(omega, policy.r, params)

    def like(s):
        # both types are centred on omega: one squared deviation serves both
        d2 = np.subtract(s, omega, dtype=float)
        d2 *= d2
        return tuple(sq_norm_logpdf(d2, qv) for qv in variances)

    return tilt, like


def _policy_pieces(
    s_values: np.ndarray,
    policy: SamplingPolicy,
    params: ModelParams,
    cfg: NumericsConfig,
    types: bool = False,
):
    """The joint over state nodes i and signal values j: returns (omega, w,
    e_mix, shift, e_types, m_types), with w the two weight rows of the
    state rule. The mixed integrand, type shares included, is
    e_mix[i, j] * exp(shift[j]) (see _linear_mix). With types,
    e_types[q, i, j] * exp(m_types[q, j]) is the type-q integrand (q = 0
    high, 1 low), type share excluded, exponentiated under its own column
    maxima; without, e_types and m_types have no rows.

    The tensor is built in blocks of about _BLOCK_CELLS cells, so only the
    outputs are full size. Each entry depends on its own column alone, so
    the blocks give the same bits as one pass. Callers reduce the whole
    tensor with one _moments product, never per block: BLAS picks its
    kernel, and so its rounding, by the product's shape."""
    omega, w = state_rule(params, cfg)
    tilt, like = _state_terms(omega, policy, params)
    n, m = len(omega), len(s_values)
    e_mix = np.empty((n, m))
    shift = np.empty(m)
    e_types = np.empty((2 if types else 0, n, m))
    m_types = np.empty((len(e_types), m))
    step = max(1, _BLOCK_CELLS // n)
    for j in range(0, m, step):
        cols = slice(j, j + step)
        # a block is laid out (signal, state), so every broadcast runs along
        # the long state axis; .T views it as (state, signal)
        bH, bL = like(s_values[cols, None])
        bH += tilt
        bL += tilt
        bH, bL = bH.T, bL.T
        e_mix[:, cols], shift[cols] = _linear_mix(bH, bL, params)
        if types:
            for q, b in enumerate((bH, bL)):
                m_types[q, cols] = peak = b.max(axis=0)
                e_types[q, :, cols] = np.exp(b - peak)
    return omega, w, e_mix, shift, e_types, m_types


def _linear_mix(bH: np.ndarray, bL: np.ndarray, params: ModelParams):
    """(e, shift) with e * exp(shift) = h exp(bH) + (1 - h) exp(bL), mixed
    in the linear domain under the per-column shift of the larger type
    term, so the largest entry of each column of e is at least 1. A type of
    share 0 contributes exact zeros. Columns are independent: _policy_pieces
    calls it on one block of signal columns at a time."""
    lh, ll = _log_weights(params)
    shift = np.maximum(lh + bH.max(axis=0), ll + bL.max(axis=0))
    e = bH - (shift - lh)
    np.exp(e, out=e)
    e_low = bL - (shift - ll)
    e += np.exp(e_low, out=e_low)
    return e, shift


def _moments(e: np.ndarray, shift: np.ndarray, omega: np.ndarray, w: np.ndarray):
    """(logZ, mean, second moment) of the integrand e * exp(shift) over
    nodes omega, one column per column of e and one row per row of
    weights w: row 0 under the Kronrod rule, row 1 under the embedded Gauss
    rule. omega is one row of nodes, or one row per row of w. All rows come
    from one product with e."""
    w_omega = w * omega
    s0, s1, s2 = np.split(np.concatenate((w, w_omega, w_omega * omega)) @ e, 3)
    return shift + np.log(s0), s1 / s0, s2 / s0


def posterior_summaries(
    s_values, policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized core: arrays (action, posterior_var, prob_high, a_H, a_L)
    for each signal in s_values. Does not enforce the support precondition;
    callers that expose single-signal contracts do."""
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    omega, w, e_mix, shift, e_types, m_types = _policy_pieces(
        s_values, policy, params, cfg, types=True
    )
    w = w[:1]  # the Kronrod rule alone: every result is a single row
    # the per-type passes reduce their own exponentials, so the mixed action
    # and the type actions come from separate floating-point passes
    logz_H, mean_H, _ = _moments(e_types[0], m_types[0], omega, w)
    logz_L, mean_L, _ = _moments(e_types[1], m_types[1], omega, w)
    _, action, m2 = _moments(e_mix, shift, omega, w)
    post_var = np.maximum(m2 - action**2, 0.0)
    # prob_high through the log-odds so extreme signals stay in [0, 1]
    lh, ll = _log_weights(params)
    log_odds = (lh + logz_H) - (ll + logz_L)
    prob_high = expit(log_odds)
    return action[0], post_var[0], prob_high[0], mean_H[0], mean_L[0]


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
    nodes, w, e_mix, shift, _, _ = _policy_pieces(np.array([s], dtype=float), policy, params, cfg)
    log_norm = _moments(e_mix, shift, nodes, w[:1])[0][0, 0]
    tilt, like_H, like_L = _log_terms(omega, s, policy, params)
    lh, ll = _log_weights(params)
    return np.exp(lh + tilt + like_H - log_norm) + np.exp(ll + tilt + like_L - log_norm)


def action_map(policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig):
    """Degree-7 interpolating spline of s -> optimal action over the policy
    support, for consumers that evaluate the action many times (Monte
    Carlo). The Kronrod nodes of the signal rule double as knots; at the
    defaults a monotone cubic through them is up to 4.1e-6 off, this spline
    up to 2.5e-12."""
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
    return make_interp_spline(grid, action, k=7)
