"""An independent discretized posterior oracle: Bayes' rule on a uniform
grid over the states that can carry the posterior's mass, one log-space
formula for every policy. It takes no density, window mass or kernel from
model or inference, so it checks the quadrature path.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr

from .model import ModelParams, NormalWeight, SamplingPolicy


def _log_npdf(sq, var, out=None):
    """log N(x; m, var), given sq = (x - m)^2, written into out when it is
    given."""
    out = np.negative(sq, out=out)
    out /= 2.0 * var
    out -= 0.5 * math.log(2.0 * math.pi * var)
    return out


_LOG_DROPPED = 46.0  # the span drops at most exp(-46) = 1e-20 of each type's mass


def _log_admission(d, var: float, policy: SamplingPolicy):
    """log of the probability that a signal of variance var about the
    state deviation d is admitted: 0 without a window, the window mass for
    a hard window, the Gaussian weight's expectation for a soft one. Each
    step is written in place into the one or two arrays the call makes."""
    if isinstance(policy, NormalWeight):
        out = np.subtract(d, policy.mean)
        np.square(out, out=out)
        out /= 2.0 * (var + policy.var)
        return np.subtract(0.5 * (math.log(policy.var) - math.log(var + policy.var)), out, out=out)
    if policy.unbounded:
        return 0.0
    # the window mass Phi(b) - Phi(a), mirrored into the lower tail
    # (a = -(|d| + r)/sd, b = (r - |d|)/sd), where it does not cancel unless
    # the window is narrow; there it is 2r N(d; 0, var), to within a
    # relative (2r/sd)^2 (1 + |d|/sd)^2 / 24 < 4e-10
    sd, r, d = math.sqrt(var), policy.r, np.abs(d)
    out = np.divide(d, sd)
    out += 1.0
    out *= 2.0 * r / sd
    narrow = out < 1e-4
    near = d[narrow] if narrow.any() else None
    la = np.add(d, r, out=out)
    np.negative(la, out=la)
    la /= sd
    log_ndtr(la, out=la)
    lb = np.subtract(r, d, out=d)
    lb /= sd
    log_ndtr(lb, out=lb)
    la -= lb
    np.minimum(la, 0.0, out=la)
    np.exp(la, out=la)
    np.negative(la, out=la)
    with np.errstate(divide="ignore"):
        np.log1p(la, out=la)
    la += lb
    if near is not None:
        near = _log_npdf(np.multiply(near, near, out=near), var, out=near)
        near += math.log(2.0 * r)
        la[narrow] = near
    return la


def _log_sum_exp(terms):
    """logaddexp over the terms in order, accumulated into the first."""
    total = next(terms)
    for term in terms:
        total = np.logaddexp(total, term, out=total if isinstance(total, np.ndarray) else None)
    return total


def _posterior_span(x: float, policy: SamplingPolicy, params: ModelParams, types) -> tuple[float, float]:
    """The state deviations outside which the posterior at signal
    deviation x has less than about 1e-20 of its mass.

    With A_q the admission probability of a type-q signal and A = sum_q
    h_q A_q <= 1, the posterior is w = prior sum_q h_q N(x; d, v_q) / A.
    Each term is at most g_q = prior N(x; d, v_q) / A_q, the posterior
    if every source were of type q, and the mass of w is at least m(x) =
    sum_q h_q N(x; 0, prior_var + v_q), its mass with A = 1. log A_q has
    curvature in [-1/v_q, 0] (a window or Gaussian weight smoothed by the
    type's noise), so log g_q has curvature at most -1/prior_var: past t
    from its mode, g_q falls below its peak G_q by exp(-t^2 / 2 prior_var),
    and its mass there is below G_q sqrt(2 pi prior_var) of that.

    Each mode solves d / prior_var = (x - E_q(d)) / v_q, with E_q(d) the
    mean of an admitted type-q signal: d itself without a window, within
    the window for a hard one (a bracket searched on a grid below), and
    linear in d for a soft window. The mode can lie outside [0, x] and far
    from the window when the types are narrow."""
    pv = params.prior_var
    log_m = _log_sum_exp(math.log(h) + _log_npdf(x * x, pv + v) for h, v in types)
    lo, hi = math.inf, -math.inf
    for _, var in types:
        if isinstance(policy, NormalWeight):
            lam = policy.var / (policy.var + var)  # E_q(d) = lam d + (1 - lam) mean
            a = b = (x - (1.0 - lam) * policy.mean) / var / (1.0 / pv + lam / var)
        elif policy.unbounded:
            a = b = pv / (pv + var) * x
        else:
            a, b = pv / var * (x - policy.r), pv / var * (x + policy.r)
        post_sd = math.sqrt(pv / (pv + var) * var)
        while True:
            # log g_q is concave: the best of the probes brackets the mode
            probe = np.linspace(a, b, 65)
            sq = (x - probe) ** 2
            log_g = _log_npdf(sq, var) - _log_admission(probe, var, policy) + _log_npdf(probe * probe, pv)
            k = int(np.argmax(log_g))
            step = probe[1] - probe[0]
            if not step > post_sd:  # nor when a bracket beyond the doubles gave NaN
                break
            a, b = probe[max(k - 1, 0)], probe[min(k + 1, 64)]
        # within step of the mode, log g_q is at most step^2 / 2 post_sd^2 below G_q
        log_peak = log_g[k] + 0.5 + 0.5 * math.log(2.0 * math.pi * pv)
        t = math.sqrt(2.0 * pv * (max(log_peak - log_m, 0.0) + _LOG_DROPPED)) + step
        lo, hi = min(lo, probe[k] - t), max(hi, probe[k] + t)
    return lo, hi


def grid_posterior_oracle(
    s: float, policy: SamplingPolicy, params: ModelParams, grid_points: int
) -> tuple[float, float]:
    """Posterior mean and variance of the state by direct normalized
    summation on a uniform grid: a deliberately plain Bayes rule that shares
    no machinery with the quadrature path. Every policy takes one formula,
    in log space, where far from the window or the signal the densities and
    admission probabilities underflow while their ratio does not:

        log w(omega) = log prior(omega) + logsumexp_q[log h_q + log N(s; omega, v_q)]
                       - logsumexp_q[log h_q + log A_q(omega)],

    with A_q(omega) the probability that a type-q source at state omega is
    admitted (_log_admission). The signal's own admission weight is the same
    for every state and cancels. The grid spans the states that carry the
    posterior's mass (_posterior_span), whatever the variances' scale."""
    if grid_points < 1001:
        raise ValueError(f"grid_points must be >= 1001, got {grid_points!r}")
    h = params.high_share
    types = [(share, var) for share, var in ((h, params.high_var), (1.0 - h, params.low_var)) if share > 0.0]
    x = s - params.prior_mean
    d = np.linspace(*_posterior_span(x, policy, params, types), int(grid_points))
    # each step is written in place: at most five grid-sized arrays are live

    def log_admit(share: float, var: float):
        term = _log_admission(d, var, policy)
        term += math.log(share)
        return term

    def log_mix(share: float, var: float) -> np.ndarray:
        term = _log_npdf(sq, var)
        term += math.log(share)
        return term

    log_a = _log_sum_exp(log_admit(*t) for t in types)
    sq = np.subtract(x, d)
    np.square(sq, out=sq)
    log_weight = _log_sum_exp(log_mix(*t) for t in types)
    log_weight -= log_a
    del log_a
    tmp = np.multiply(d, d, out=sq)
    tmp /= 2.0 * params.prior_var
    log_weight -= tmp  # the log prior, up to a constant
    log_weight -= log_weight.max()
    weight = np.exp(log_weight, out=log_weight)

    z = weight.sum()
    mean = float(np.multiply(weight, d, out=tmp).sum() / z)
    # the second moment about the mean, which does not cancel far from 0
    np.square(np.subtract(d, mean, out=tmp), out=tmp)
    tmp *= weight
    return params.prior_mean + mean, float(tmp.sum() / z)
