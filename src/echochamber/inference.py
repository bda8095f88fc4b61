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
from scipy.special import expit

from .errors import DegenerateRadiusError, SignalOutsideSupportError, UndefinedOddsError
from .model import (
    ModelParams,
    NormalWeight,
    NumericsConfig,
    Radius,
    SamplingPolicy,
    _LOG_SQRT_2PI,
    _log_weights,
    is_even,
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

# Cells per signal block of the kernel: 2^15 doubles are 256 KiB, so one
# block's log integrands and temporaries stay in a 2 MiB L2 cache.
_BLOCK_CELLS = 2**15


def _state_terms(d, policy: SamplingPolicy, params: ModelParams):
    """The policy's log joint of (state, admitted signal), in pieces, at the
    state's deviation d from the prior mean: (tilt, terms). tilt(d) is the
    log prior less the log admission probability of the state. terms holds
    one (offset, centre, scale) per type, high first, from which _likes
    gives like_q(d, x) = offset + scale * (x - centre)^2, the log density
    of an admitted type-q signal at deviation x times that type's admission
    probability. The type-q joint integrand, type share excluded, is
    tilt + like_q; mixing like_q over types gives the admitted-signal
    density at d up to a state factor. Everything here depends on the state
    alone, so it is computed once however many signal blocks it serves.
    Under a Radius both types are centred on the state itself."""
    if not isinstance(policy, (Radius, NormalWeight)):
        raise TypeError(f"unsupported policy {policy!r}")
    d = np.asarray(d, dtype=float)
    tilt = norm_logpdf(d, 0.0, params.prior_var)
    variances = (params.high_var, params.low_var)
    if isinstance(policy, NormalWeight):
        # a type-q signal is admitted with probability N(d; mean, q_var + var)
        # and is then normal with shrunk mean and the product variance
        mean, var = policy.mean, policy.var
        admit = [norm_logpdf(d, mean, qv + var) for qv in variances]
        lh, ll = _log_weights(params)
        tilt = tilt - np.logaddexp(lh + admit[0], ll + admit[1])
        normals = []
        for qv, log_admit in zip(variances, admit):
            lam = var / (var + qv)
            # the product variance formed in units of prior_var: qv * var can over/underflow
            pv = params.prior_var
            product_var = (qv / pv) * (var / pv) / ((qv + var) / pv) * pv
            normals.append((log_admit, lam * d + (1.0 - lam) * mean, product_var))
    else:
        if not policy.unbounded:
            if policy.r == 0.0:
                raise DegenerateRadiusError("r = 0 admits no signal")
            tilt = tilt - window_logmass(d, policy.r, params)
        normals = [(0.0, d, qv) for qv in variances]
    # log_admit + log N(x; centre, v), with the normal's log constant folded in
    terms = [(a - (0.5 * math.log(v) + _LOG_SQRT_2PI), c, -0.5 / v) for a, c, v in normals]
    return tilt, terms


def _likes(x, terms, out=None):
    """like_H and like_L at signal deviations x from _state_terms' terms,
    x broadcast against the states: offset + scale * (x - centre)^2, as
    fresh arrays or, given out, in out[1] and out[2], with out[0] for the
    squared deviation. Types centred on the same array share one squared
    deviation."""
    d2_out, *like_out = (None, None, None) if out is None else out
    likes, shared = [], None
    for (offset, centre, scale), o in zip(terms, like_out):
        if centre is not shared:
            d2 = np.subtract(x, centre, out=d2_out, dtype=float)
            d2 *= d2
            shared = centre
        like = np.multiply(d2, scale, out=o)
        like += offset
        likes.append(like)
    return likes


def _policy_pieces(
    x_values: np.ndarray,
    policy: SamplingPolicy,
    params: ModelParams,
    cfg: NumericsConfig,
    types: bool = False,
):
    """The joint over the state rule and the signal deviations x_values,
    reduced signal by signal: returns (logz, mean, m2), the log mass and
    the first two moments of the state's deviation under each signal's
    integrand, one column per signal. Rows 0 and 1 reduce the mixed
    integrand, type shares included, under the Kronrod rule and its
    embedded Gauss rule. With types, rows 2 and 3 reduce the high and the
    low type's integrands, type share excluded, each exponentiated under
    its own maxima, under the Kronrod rule.

    The log integrands are built in blocks of about _BLOCK_CELLS cells,
    laid out (signal, state), and each block is mixed and reduced as soon
    as it is built, so no array of the whole (state, signal) size exists.
    Every step treats each signal's row on its own, and _moments sums a row
    in an order set by its length, so a signal's moments are the same bits
    whatever block, batch or BLAS thread count computes them.

    Under an even policy (model.is_even) the joint is even under
    (d, x) -> (-d, -x), so each |x| is reduced once and scattered back:
    logz and m2 as they are, mean negated where x < 0. x and -x thus share
    their bits, in any batch."""
    fold = is_even(policy)
    if fold:
        x_signed = x_values
        x_values, back = np.unique(np.abs(x_signed), return_inverse=True)
    d, w = state_rule(params, cfg)
    tilt, terms = _state_terms(d, policy, params)
    # moments of z = d / prior sd, scaled back below: w * d * d can over/underflow
    sd = math.sqrt(params.prior_var)
    z = d / sd
    weights = np.concatenate((w, w * z, w * z * z))
    kronrod = weights[::2]  # w has two rows: Kronrod, embedded Gauss
    rows = np.empty((3, 4 if types else 2, len(x_values)))
    step = max(1, _BLOCK_CELLS // len(d))
    # one set of block buffers serves every block: the squared deviation,
    # the two log integrands and, with types, a per-type exponential. Fresh
    # block-sized arrays go back to the OS when freed and fault in again,
    # which made building a block's log integrands 4x slower
    buffers = np.empty((4 if types else 3, min(step, len(x_values)), len(d)))
    for j in range(0, len(x_values), step):
        cols = slice(j, j + step)
        x = x_values[cols, None]
        blocks = _likes(x, terms, out=buffers[:3, : len(x)])
        peaks = []
        for b in blocks:
            b += tilt
            peaks.append(b.max(axis=1))
        if types:
            for q, (b, peak) in enumerate(zip(blocks, peaks), start=2):
                e = np.subtract(b, peak[:, None], out=buffers[3, : len(x)])
                rows[:, q : q + 1, cols] = _moments(np.exp(e, out=e), peak, kronrod)
        rows[:, :2, cols] = _moments(*_linear_mix(*blocks, peaks, params), weights)
    rows[1] *= sd
    rows[2] *= params.prior_var
    if fold:
        rows = rows[..., back]
        np.negative(rows[1], out=rows[1], where=x_signed < 0.0)
    return tuple(rows)


def _linear_mix(bH: np.ndarray, bL: np.ndarray, peaks, params: ModelParams):
    """(e, shift) with e * exp(shift) = h exp(bH) + (1 - h) exp(bL), one
    integrand per row, given peaks, the row maxima of bH and bL. Mixed in
    place (e is bH, and bL is spent) in the linear domain under each row's
    shift, the larger type term, so the largest entry of each row of e is
    at least 1. A type of share 0 contributes exact zeros."""
    lh, ll = _log_weights(params)
    shift = np.maximum(lh + peaks[0], ll + peaks[1])
    bH -= (shift - lh)[:, None]
    bL -= (shift - ll)[:, None]
    np.exp(bH, out=bH)
    bH += np.exp(bL, out=bL)
    return bH, shift


def _moments(e: np.ndarray, shift: np.ndarray, weights: np.ndarray):
    """(logZ, mean, second moment) of each row of the integrand
    e * exp(shift), against weights, the rows (w, w * x, w * x^2) of a rule
    w on nodes x stacked, so every result has one row per row of w and one
    column per row of e. einsum without BLAS sums each row of e in an order
    fixed by its length alone. A row with no mass under a rule gives
    -inf and NaN moments, without a warning."""
    s0, s1, s2 = np.split(np.einsum("ki,ji->kj", weights, e, optimize=False), 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        return shift + np.log(s0), s1 / s0, s2 / s0


def posterior_summaries(
    s_values, policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized core: arrays (action, posterior_var, prob_high, a_H, a_L)
    for each signal in s_values, under the Kronrod rule. Does not enforce
    the support precondition; callers that expose single-signal contracts
    do."""
    m = params.prior_mean
    x = np.atleast_1d(np.asarray(s_values, dtype=float)) - m
    # the per-type rows reduce their own exponentials, so the mixed action
    # and the type actions come from separate floating-point passes
    logz, mean, m2 = _policy_pieces(x, policy, params, cfg, types=True)
    post_var = np.maximum(m2[0] - mean[0] ** 2, 0.0)
    # prob_high through the log-odds so extreme signals stay in [0, 1]
    lh, ll = _log_weights(params)
    prob_high = expit((lh + logz[2]) - (ll + logz[3]))
    return mean[0] + m, post_var, prob_high, mean[2] + m, mean[3] + m


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
    m = params.prior_mean
    log_norm = _policy_pieces(np.array([s - m], dtype=float), policy, params, cfg)[0][0, 0]
    tilt, terms = _state_terms(np.subtract(omega, m), policy, params)
    like_H, like_L = _likes(s - m, terms)
    lh, ll = _log_weights(params)
    return np.exp(lh + tilt + like_H - log_norm) + np.exp(ll + tilt + like_L - log_norm)


# a double's top 16 bits (sign, exponent, 4 mantissa bits) name its bucket
_BUCKET_SHIFT = 48


def _interval_finder(breaks: np.ndarray):
    """(find, steps): find(x) gives each double x's interval among the
    sorted breaks as PPoly.__call__ finds it, searchsorted(breaks, x,
    "right") - 1 clipped to the end intervals, which is the number of
    interior breaks at or below x. A table indexed by x's top 16 bits
    gives how many distinct interior breaks lie below every double of x's
    bucket; find then steps up past each further break at or below x, in
    steps passes, the most distinct breaks any bucket holds. A bucket's
    doubles share a sign, an exponent and 4 mantissa bits, so the knots
    of a quadrature rule, graded in width like them, fall a few to a
    bucket however widely they spread. Comparisons are of doubles, so -0.0
    finds the interval of 0.0, and NaN some interval."""
    inner = breaks[1:-1]
    distinct = np.unique(inner)
    top = np.arange(-(2**15), 2**15, dtype=np.int64) << _BUCKET_SHIFT
    ends = top.view(float), (top | ((1 << _BUCKET_SHIFT) - 1)).view(float)
    below = np.searchsorted(distinct, np.fmin(*ends), "left")
    steps = int((np.searchsorted(distinct, np.fmax(*ends), "right") - below).max())
    # NaN compares false, so no step passes the last break
    stairs = np.append(distinct, np.nan)
    at_or_below = np.concatenate(([0], np.searchsorted(inner, distinct, "right")))

    def find(x: np.ndarray) -> np.ndarray:
        j = below.take((x.view(np.int64) >> _BUCKET_SHIFT) + 2**15)
        step, passed = np.empty_like(x), np.empty(x.shape, dtype=bool)
        for _ in range(steps):
            j += np.greater_equal(x, stairs.take(j, out=step), out=passed)
        return at_or_below.take(j)

    return find, steps


def action_map(policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig):
    """Degree-7 interpolating spline of s -> optimal action over the policy
    support, for consumers that evaluate the action many times (Monte
    Carlo). The Kronrod nodes of the signal rule double as knots; at the
    defaults a monotone cubic through them is up to 4.1e-6 off, this spline
    up to 2.5e-12. Its coefficients come from PPoly.from_spline, and it is
    evaluated in NumPy by the steps of PPoly.__call__ and to its bits: each
    signal's interval, clipped to the end intervals, then the power sum
    from the lowest degree up, its terms written in place. NumPy releases
    the GIL, so the Monte Carlo checks' worker threads evaluate it side by
    side, where PPoly holds it. The intervals come from _interval_finder's
    table, exact and in a bounded number of steps, rather than a binary
    search. An infinite signal gives NaN silently, as under PPoly."""
    # imported here: only the Monte Carlo utility checks need scipy.interpolate
    from scipy.interpolate import PPoly, make_interp_spline

    nodes, _ = signal_rule(policy, params, cfg)
    if isinstance(policy, Radius) and not policy.unbounded:
        # the window edges are knots too, so no admitted signal extrapolates
        nodes = np.concatenate(([-policy.r], nodes, [policy.r]))
    m = params.prior_mean
    grid = np.unique(nodes + m)
    # the mixed rows' mean alone: the knots need no per-type pass
    action = _policy_pieces(grid - m, policy, params, cfg)[1][0] + m
    pp = PPoly.from_spline(make_interp_spline(grid, action, k=7))
    breaks, coeffs = pp.x, pp.c  # coeffs[j] multiplies dx**(degree - j)
    find, _ = _interval_finder(breaks)

    def evaluate(s):
        s = np.asarray(s, dtype=float)
        x = s.reshape(-1)
        i = find(x)
        dx = x - breaks.take(i)
        out = coeffs[-1].take(i)
        out += 0.0  # 0.0 + c, as PPoly starts its sum
        z, term = np.ones_like(dx), np.empty_like(dx)
        with np.errstate(invalid="ignore"):  # an infinite dx gives inf - inf
            for row in coeffs[-2::-1]:
                z *= dx
                out += np.multiply(row.take(i, out=term), z, out=term)
        return out.reshape(s.shape)

    return evaluate
