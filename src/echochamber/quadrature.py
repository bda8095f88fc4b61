"""Compound Gauss-Kronrod rules on graded, scale-aware panels.

Both axes of the package's double quadrature, (state, signal), use rules
from one edge builder, panel_edges: around the prior mean it puts edges at
GRADES x each length scale of the integrand, so a feature of width w meets
panels about w wide whether w is 0.1 or 500 (compound rules on graded
panels; Davis & Rabinowitz, Methods of Numerical Integration, 1984, ch. 6).

Every panel carries the Gauss-Kronrod pair G_n/K_(2n+1), n =
NumericsConfig.quad_nodes: 2n + 1 Kronrod nodes, n of which are the
n-point Gauss-Legendre nodes (Laurie, "Calculation of Gauss-Kronrod
quadrature rules", Math. Comp. 66, 1997; Piessens et al., QUADPACK, 1983).
A rule returns its nodes and two rows of weights: row 0 the Kronrod
weights, row 1 the embedded Gauss weights, zero at the n + 1 Kronrod-only
nodes. One integrand tensor thus gives the Kronrod result and, from the
same evaluations, the coarser Gauss result that checks it.

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
def gauss_kronrod(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The G_n/K_(2n+1) pair on [-1, 1]: the 2n + 1 sorted Kronrod nodes
    and weights of shape (2, 2n + 1), Kronrod in row 0 and the embedded
    Gauss rule in row 1. Its nodes are the odd-indexed Kronrod nodes.

    The nodes are the eigenvalues of the Jacobi-Kronrod matrix built from
    the Legendre recurrence by Laurie's algorithm (Gautschi's r_kronrod);
    the weights integrate P_0 ... P_2n exactly."""
    k = np.arange(1, (3 * n + 1) // 2 + 1)
    a = np.zeros(2 * n + 1)
    b = np.zeros(2 * n + 1)
    b[0] = 2.0
    b[k] = k * k / (4.0 * k * k - 1.0)
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        l = m - k
        s[k + 1] = np.cumsum(
            (a[k + n + 1] - a[l]) * t[k + 1] + b[k + n + 1] * s[k] - b[l] * s[k + 1]
        )
        s, t = t, s
    j = np.arange(n // 2, -1, -1)
    s[j + 1] = s[j]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        l = m - k
        j = n - 1 - l
        s[j + 1] = np.cumsum(
            -(a[k + n + 1] - a[l]) * t[j + 1] - b[k + n + 1] * s[j + 1] + b[l] * s[j + 2]
        )
        j, k = j[-1], (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    off = np.sqrt(b[1:])
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(off, 1) + np.diag(off, -1))
    x = 0.5 * (x - x[::-1])  # exactly symmetric, with 0 in the middle
    exact = np.zeros(2 * n + 1)
    exact[0] = 2.0
    wk = np.linalg.solve(np.polynomial.legendre.legvander(x, 2 * n).T, exact)
    w = np.zeros((2, 2 * n + 1))
    w[0] = 0.5 * (wk + wk[::-1])
    w[1, 1::2] = np.polynomial.legendre.leggauss(n)[1]
    return x, w


def paneled_rule(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The G_n/K_(2n+1) pair on each panel between consecutive sorted
    edges, concatenated: nodes, and weights of shape (2, len(nodes)) with
    the Kronrod rule in row 0 and the embedded Gauss rule in row 1."""
    x, w = gauss_kronrod(n)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (edges[:-1, None] + half * (x + 1.0)).ravel()
    return nodes, (half * w[:, None, :]).reshape(2, -1)


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
    elif isinstance(policy, NormalWeight):
        # admitted signals lie between the prior mean and the window centre,
        # no wider than the unrestricted marginal, within a few window sds
        scales += (math.sqrt(policy.var),)
        halfwidth, breaks = halfwidth + abs(policy.mean - m), (policy.mean,)
    return paneled_rule(panel_edges(m, halfwidth, scales, breaks), cfg.quad_nodes)
