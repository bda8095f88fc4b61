"""Compound Gauss-Legendre rules on graded, scale-aware panels.

Both axes of the package's double quadrature, (state, signal), use rules
from one edge builder, panel_edges: around the prior mean it puts edges at
GRADES x each length scale of the integrand, so a feature of width w meets
panels about w wide whether w is 0.1 or 500 (compound rules on graded
panels; Davis & Rabinowitz, Methods of Numerical Integration, 1984, ch. 6).
Every panel gets NumericsConfig.quad_nodes Gauss-Legendre nodes.

- State axis: half-width SUPPORT_SDS x sqrt(max(prior_var, low_var));
  scales the prior sd, both signal sds and the high-type posterior sd.
  Inside the prior's SUPPORT_SDS-sd band, where the narrow high-type
  posterior of any admitted signal sits, no panel is wider than
  STATE_CAP_SDS high-type posterior sds.
- Signal axis: the window, or SUPPORT_SDS x sqrt(prior_var + low_var)
  widened by a soft window's offset; scales the two marginal signal sds,
  sqrt(high_var) and a soft window's sd.

Window ends and the soft-window centre are always panel edges, never
interior nodes, because the integrands are not smooth there.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .model import ModelParams, NormalWeight, NumericsConfig, Radius, SamplingPolicy

GRADES = (0.5, 1.0, 2.0, 4.0, 8.0)
STATE_CAP_SDS = 3.0
SUPPORT_SDS = 10.0


@lru_cache(maxsize=32)
def _base_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def paneled_rule(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on each panel between consecutive sorted
    edges, concatenated."""
    x, w = _base_rule(n)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()


def panel_edges(center: float, halfwidth: float, scales, breaks=()) -> np.ndarray:
    """Sorted panel edges on [center - halfwidth, center + halfwidth]: both
    ends, the centre, each break inside, and center +/- g * scale for every
    grade g in GRADES and every scale."""
    offsets = np.outer(scales, GRADES).ravel()
    points = np.concatenate(([-halfwidth, 0.0, halfwidth], -offsets, offsets))
    points = np.concatenate((center + points, breaks))
    return np.unique(points[np.abs(points - center) <= halfwidth])


def _capped(edges: np.ndarray, lo: float, hi: float, width: float) -> np.ndarray:
    """Split every panel inside [lo, hi] into equal parts no wider than width."""
    out = [edges[:1]]
    for a, b in zip(edges[:-1], edges[1:]):
        parts = math.ceil((b - a) / width) if lo <= a and b <= hi else 1
        out.append(np.linspace(a, b, parts + 1)[1:])
    return np.concatenate(out)


@lru_cache(maxsize=128)
def state_rule(params: ModelParams, cfg: NumericsConfig) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature rule over the state axis; see the module docstring."""
    m, pv, hv, lv = params.prior_mean, params.prior_var, params.high_var, params.low_var
    post_sd = math.sqrt(pv * hv / (pv + hv))
    near = SUPPORT_SDS * math.sqrt(pv)
    lo, hi = m - near, m + near
    scales = (math.sqrt(pv), math.sqrt(hv), math.sqrt(lv), post_sd)
    edges = panel_edges(m, SUPPORT_SDS * math.sqrt(max(pv, lv)), scales, (lo, hi))
    return paneled_rule(_capped(edges, lo, hi, STATE_CAP_SDS * post_sd), cfg.quad_nodes)


def signal_rule(policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig):
    """Signal rule over the support of the signals the policy admits."""
    m, pv, hv, lv = params.prior_mean, params.prior_var, params.high_var, params.low_var
    scales = (math.sqrt(pv + hv), math.sqrt(pv + lv), math.sqrt(hv))
    halfwidth, breaks = SUPPORT_SDS * math.sqrt(pv + lv), ()
    if isinstance(policy, Radius) and not policy.unbounded:
        halfwidth = policy.r
    elif isinstance(policy, NormalWeight) and not policy.unbounded:
        # admitted signals lie between the prior mean and the window centre,
        # no wider than the unrestricted marginal, within a few window sds
        scales += (math.sqrt(policy.var),)
        halfwidth, breaks = halfwidth + abs(policy.mean - m), (policy.mean,)
    return paneled_rule(panel_edges(m, halfwidth, scales, breaks), cfg.quad_nodes)
