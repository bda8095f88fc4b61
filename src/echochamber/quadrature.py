"""Gauss-Legendre panel quadrature.

Panels matter here: truncation endpoints are always panel edges, never
interior nodes, because the integrands are discontinuous there.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .model import ModelParams, NormalWeight, NumericsConfig, Radius, SamplingPolicy


@lru_cache(maxsize=32)
def _base_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def panel_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for one panel [a, b]."""
    x, w = _base_rule(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def paneled_rule(edges: tuple[float, ...] | list[float], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated rule over consecutive panels bounded by sorted edges."""
    nodes = []
    weights = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        x, w = panel_rule(a, b, n)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


@lru_cache(maxsize=128)
def state_rule(params: ModelParams, cfg: NumericsConfig) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature rule over the state axis.

    Panels are sized to the prior scale near the prior mean and widen toward
    the tails; node count per panel is halved relative to quad_nodes since
    eight panels already oversample a Gaussian.
    """
    sd = math.sqrt(max(params.prior_var, params.low_var))
    m = params.prior_mean
    hw = cfg.support_halfwidth_sd * sd
    mult = sorted({1.0, 2.0, 4.0, cfg.support_halfwidth_sd})
    edges = [m - hw] + [m - k * sd for k in reversed(mult[:-1])] + [m] + [
        m + k * sd for k in mult[:-1]
    ] + [m + hw]
    edges = tuple(sorted(set(edges)))
    n = max(cfg.quad_nodes // 2 + 1, 51)
    return paneled_rule(edges, n)


def signal_rule_window(
    params: ModelParams, cfg: NumericsConfig, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Signal rule over the window (prior_mean - r, prior_mean + r)."""
    m = params.prior_mean
    edges = (m - r, m, m + r)
    return paneled_rule(edges, cfg.quad_nodes)


def signal_rule_unbounded(
    params: ModelParams, cfg: NumericsConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Signal rule over the effective support of the unrestricted marginal."""
    m = params.prior_mean
    hw = cfg.support_halfwidth_sd * math.sqrt(params.prior_var + params.low_var)
    edges = (m - hw, m - hw / 4.0, m, m + hw / 4.0, m + hw)
    return paneled_rule(edges, cfg.quad_nodes)


def signal_rule_soft(
    params: ModelParams, cfg: NumericsConfig, center: float
) -> tuple[np.ndarray, np.ndarray]:
    """Signal rule for a soft admission window centered off the prior mean.

    The admitted-signal marginal concentrates between the prior mean and the
    window center, never wider than the unrestricted marginal, so the
    unrestricted halfwidth padded by the offset covers it.
    """
    m = params.prior_mean
    hw = cfg.support_halfwidth_sd * math.sqrt(params.prior_var + params.low_var)
    hw += abs(center - m)
    edges = sorted({m - hw, m - hw / 4.0, min(m, center), max(m, center), m + hw / 4.0, m + hw})
    return paneled_rule(tuple(edges), cfg.quad_nodes)


def signal_rule(
    policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Signal rule over the support of the signals the policy admits."""
    if isinstance(policy, Radius) and not policy.unbounded:
        return signal_rule_window(params, cfg, policy.r)
    if isinstance(policy, NormalWeight) and not policy.unbounded:
        return signal_rule_soft(params, cfg, policy.mean)
    return signal_rule_unbounded(params, cfg)
