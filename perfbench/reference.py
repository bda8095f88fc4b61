"""Independent reference values for the benchmark's correctness gates.

Written from the model's definition with plain NumPy and shares no code with
the package: a uniform trapezoid grid on the state axis (spectrally accurate
for the smooth, Gaussian-tailed integrands here) and Gauss-Legendre panels on
the window, split at the prior mean. The unrestricted benchmark reduces to a
one-dimensional integral because each source type is then conjugate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import ndtr

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class Model:
    prior_mean: float = 0.0
    prior_var: float = 1.0
    high_var: float = 0.5
    low_var: float = 3.0
    high_share: float = 0.5


def _lognorm(x, mean, var):
    return -0.5 * (x - mean) ** 2 / var - 0.5 * math.log(var) - _LOG_SQRT_2PI


def _state_grid(m: Model) -> np.ndarray:
    # the state marginal of the joint is the prior, so +/- 12 prior sd
    # covers it; the step resolves the narrowest posterior in the state
    sd0 = math.sqrt(m.prior_var)
    step = 0.1 * min(sd0, math.sqrt(m.high_var))
    n = int(math.ceil(24.0 * sd0 / step)) + 1
    return np.linspace(m.prior_mean - 12.0 * sd0, m.prior_mean + 12.0 * sd0, n)


def _window_mass(omega: np.ndarray, r: float, m: Model) -> np.ndarray:
    mass = np.zeros_like(omega)
    lo, hi = m.prior_mean - r, m.prior_mean + r
    for share, var in ((m.high_share, m.high_var), (1.0 - m.high_share, m.low_var)):
        zlo = (lo - omega) / math.sqrt(var)
        zhi = (hi - omega) / math.sqrt(var)
        # both CDFs on their small side, so the difference never cancels
        mass += share * np.where(zlo + zhi > 0.0, ndtr(-zlo) - ndtr(-zhi), ndtr(zhi) - ndtr(zlo))
    return mass


def _joint(r: float, m: Model, nodes: int = 120):
    """State grid, signal nodes, and the (state, signal) joint weights of the
    state-marginal-preserving window law, quadrature weights included."""
    omega = _state_grid(m)
    w_om = np.full(len(omega), omega[1] - omega[0])
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * r
    s = np.concatenate([m.prior_mean - r + half * (x + 1.0), m.prior_mean + half * (x + 1.0)])
    w_s = np.concatenate([half * w, half * w])
    col = omega[:, None]
    mix = m.high_share * np.exp(_lognorm(s[None, :], col, m.high_var)) + (
        1.0 - m.high_share
    ) * np.exp(_lognorm(s[None, :], col, m.low_var))
    prior = np.exp(_lognorm(omega, m.prior_mean, m.prior_var))
    joint = (prior * w_om / _window_mass(omega, r, m))[:, None] * mix * w_s[None, :]
    return omega, s, joint / joint.sum()


def expected_utility(r: float, m: Model) -> float:
    """Minus the expected quadratic loss of the posterior mean under a hard
    window of half-width r (r > 0)."""
    omega, _, joint = _joint(r, m)
    col_mass = joint.sum(axis=0)
    action = (joint * omega[:, None]).sum(axis=0) / col_mass
    second = (joint * (omega * omega)[:, None]).sum(axis=0)
    return -float((second - col_mass * action * action).sum())


def signal_moments(r: float, m: Model) -> tuple[float, float]:
    """Variance of the admitted signal and its correlation with the state."""
    omega, s, joint = _joint(r, m)
    ps = joint.sum(axis=0)
    po = joint.sum(axis=1)
    mean_s, mean_o = float(ps @ s), float(po @ omega)
    var_s = float(ps @ (s * s)) - mean_s**2
    var_o = float(po @ (omega * omega)) - mean_o**2
    cov = float(omega @ joint @ s) - mean_s * mean_o
    return var_s, cov / math.sqrt(var_s * var_o)


def posterior(s_values, r: float | None, m: Model):
    """Arrays (action, posterior_var, prob_high, a_H, a_L) at each signal,
    for a hard window of half-width r, or no window when r is None."""
    s = np.asarray(s_values, dtype=float)[None, :]
    omega = _state_grid(m)
    col = omega[:, None]
    log_prior = _lognorm(omega, m.prior_mean, m.prior_var)
    if r is not None:
        log_prior = log_prior - np.log(_window_mass(omega, r, m))
    base = np.exp(log_prior - log_prior.max())[:, None]
    # both type terms share one shift so their masses stay comparable
    lh = _lognorm(s, col, m.high_var)
    ll = _lognorm(s, col, m.low_var)
    shift = np.maximum(lh.max(axis=0), ll.max(axis=0))
    jh = m.high_share * base * np.exp(lh - shift)
    jl = (1.0 - m.high_share) * base * np.exp(ll - shift)
    zh, zl = jh.sum(axis=0), jl.sum(axis=0)
    mean_h = (jh * col).sum(axis=0) / zh if m.high_share > 0.0 else np.zeros(s.shape[1])
    mean_l = (jl * col).sum(axis=0) / zl if m.high_share < 1.0 else np.zeros(s.shape[1])
    joint = jh + jl
    z = zh + zl
    action = (joint * col).sum(axis=0) / z
    var = (joint * col * col).sum(axis=0) / z - action**2
    return action, var, zh / z, mean_h, mean_l


def expected_action(omegas, r: float | None, m: Model) -> np.ndarray:
    """Mean optimal action at each true state: the posterior mean integrated
    against the admitted-signal law given the state."""
    omegas = np.asarray(omegas, dtype=float)
    if r is None:
        half = float(np.abs(omegas - m.prior_mean).max()) + 12.0 * math.sqrt(m.low_var)
        step = 0.1 * math.sqrt(m.high_var)
        s = np.linspace(m.prior_mean - half, m.prior_mean + half, int(math.ceil(2 * half / step)) + 1)
        w = np.full(len(s), s[1] - s[0])
    else:
        x, gw = np.polynomial.legendre.leggauss(120)
        half = 0.5 * r
        s = np.concatenate([m.prior_mean - r + half * (x + 1.0), m.prior_mean + half * (x + 1.0)])
        w = np.concatenate([half * gw, half * gw])
    action = posterior(s, r, m)[0]
    col = omegas[:, None]
    dens = m.high_share * np.exp(_lognorm(s[None, :], col, m.high_var)) + (
        1.0 - m.high_share
    ) * np.exp(_lognorm(s[None, :], col, m.low_var))
    return (dens @ (w * action)) / (dens @ w)


def expected_utility_unbounded(m: Model) -> float:
    """The no-restriction benchmark: minus the posterior variance of the
    state, averaged over the signal's marginal law."""
    sd_wide = math.sqrt(m.prior_var + m.low_var)
    step = 0.1 * math.sqrt(m.prior_var * m.high_var / (m.prior_var + m.high_var))
    n = min(int(math.ceil(24.0 * sd_wide / step)) + 1, 4_000_001)
    s = np.linspace(m.prior_mean - 12.0 * sd_wide, m.prior_mean + 12.0 * sd_wide, n)
    comps = []
    for share, var in ((m.high_share, m.high_var), (1.0 - m.high_share, m.low_var)):
        if share == 0.0:
            continue
        tot = m.prior_var + var
        dens = share * np.exp(_lognorm(s, m.prior_mean, tot))
        mean = m.prior_mean + m.prior_var / tot * (s - m.prior_mean)
        comps.append((dens, mean, m.prior_var * var / tot))
    f = sum(d for d, _, _ in comps)
    post_mean = sum(d * mu for d, mu, _ in comps) / f
    second = sum(d * (v + mu * mu) for d, mu, v in comps) / f
    return -float((f * (second - post_mean**2)).sum() / f.sum())


def best_radius(m: Model, near: float, half_width: float = 0.5) -> float:
    """The radius that maximizes the expected utility within half_width of near."""
    res = minimize_scalar(
        lambda r: -expected_utility(r, m),
        bounds=(max(near - half_width, 0.05), near + half_width),
        method="bounded",
        options={"xatol": 1e-6},
    )
    return float(res.x)
