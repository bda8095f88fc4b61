"""The scale-aware quadrature rules, checked against independent oracles
across the parameter domain.

eu_unbounded_oracle states the unrestricted expected utility as a 1-D
integral over the signal: without a window the posterior given s is a
two-component Gaussian mixture with closed-form weights (prob_high_closed),
means (uncensored_linear_action) and conjugate variances, so no double
quadrature and nothing of inference._log_terms is involved. The integral is
a trapezoid sum on a uniform grid, which converges geometrically for these
smooth, Gaussian-tailed integrands.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from echochamber.censor import expected_utility
from echochamber.inference import optimal_action, prob_high_closed, uncensored_linear_action
from echochamber.mc import grid_posterior_oracle
from echochamber.model import DEFAULT_NUMERICS, DEFAULT_PARAMS, ModelParams, Radius, UNBOUNDED
from echochamber.quadrature import panel_edges, signal_rule, state_rule

P = DEFAULT_PARAMS
C = DEFAULT_NUMERICS
R_UNB = Radius(UNBOUNDED)


def _npdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def eu_unbounded_oracle(params: ModelParams) -> float:
    """Minus the expected posterior variance without a window, by a 1-D
    trapezoid sum over the signal."""
    m, pv, h = params.prior_mean, params.prior_var, params.high_share
    vh, vl = pv + params.high_var, pv + params.low_var
    half = 12.0 * math.sqrt(vl)
    n = int(2.0 * half / (math.sqrt(vh) / 10.0)) + 1
    s = np.linspace(m - half, m + half, n)
    density = h * _npdf(s, m, vh) + (1.0 - h) * _npdf(s, m, vl)
    pi = prob_high_closed(s, params) if 0.0 < h < 1.0 else np.full(n, h)
    mu_h = uncensored_linear_action(s, params, "H")
    mu_l = uncensored_linear_action(s, params, "L")
    var_h = pv * params.high_var / vh
    var_l = pv * params.low_var / vl
    post_var = pi * var_h + (1.0 - pi) * var_l + pi * (1.0 - pi) * (mu_h - mu_l) ** 2
    return -float(np.trapezoid(density * post_var, s))


def _grid_points(params: ModelParams) -> int:
    """Grid size at which grid_posterior_oracle's uniform spacing is a third
    of the high-type posterior sd, never below the tests' 200001."""
    pv, hv = params.prior_var, params.high_var
    post_sd = math.sqrt(pv * hv / (pv + hv))
    span = 20.0 * math.sqrt(max(pv, params.low_var))
    return max(200_001, int(3.0 * span / post_sd) + 1)


def test_eu_oracle_matches_pins_and_closed_form(oracle: dict) -> None:
    assert abs(eu_unbounded_oracle(P) - oracle["eu"]["unbounded"]) < 1e-12
    p1 = replace(P, high_share=1.0)
    assert abs(eu_unbounded_oracle(p1) - oracle["eu"]["unbounded_h1"]) < 1e-12


def test_panel_edges_keep_ends_centre_and_breaks() -> None:
    edges = panel_edges(1.0, 3.0, (0.5, 2.0), (1.7, 9.0))
    assert edges[0] == -2.0 and edges[-1] == 4.0
    assert 1.0 in edges and 1.7 in edges and 9.0 not in edges
    assert np.all(np.diff(edges) > 0.0)
    # 8 x 0.5 = 4 and the grades of 2.0 past 1 x 2.0 fall outside
    assert set(np.round(edges - 1.0, 12)) == {
        -3.0, -2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 0.7, 1.0, 2.0, 3.0
    }


def test_window_ends_and_centre_are_panel_edges() -> None:
    m = P.prior_mean
    for r in (0.01, 0.3, 2.35, 20.0):
        nodes, weights = signal_rule(Radius(r), P, C)
        assert np.all(np.abs(nodes - m) < r)
        assert abs(weights[nodes < m].sum() - r) < 1e-12 * r
        assert abs(weights[nodes > m].sum() - r) < 1e-12 * r


def test_state_panels_near_the_prior_resolve_the_high_type_posterior() -> None:
    p = replace(P, high_var=0.01, low_var=300.0)
    nodes, weights = state_rule(p, C)
    post_sd = math.sqrt(p.prior_var * p.high_var / (p.prior_var + p.high_var))
    near = np.abs(nodes - p.prior_mean) < 10.0 * math.sqrt(p.prior_var)
    gaps = np.diff(nodes[near])
    assert gaps.max() < post_sd / 2.0
    assert abs(weights.sum() - 2.0 * 10.0 * math.sqrt(p.low_var)) < 1e-9


_BASE = dict(
    prior_var=1.0, high_ratio=0.5, low_var=3e4, high_share=0.5, r_sd=2.35, u=0.4
)


@st.composite
def _points(draw):
    prior_var = math.exp(draw(st.floats(math.log(0.04), math.log(25.0))))
    high_ratio = math.exp(draw(st.floats(math.log(0.01), 0.0)))
    high_var = high_ratio * prior_var
    low_var = min(3e5, math.exp(draw(st.floats(math.log(high_var), math.log(3e5)))))
    return dict(
        prior_var=prior_var,
        high_ratio=high_ratio,
        low_var=max(low_var, high_var),
        high_share=draw(st.floats(0.0, 1.0)),
        r_sd=draw(st.floats(0.1, 10.0)),
        u=draw(st.floats(-0.95, 0.95)),
    )


@settings(
    derandomize=True,
    max_examples=30,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_points())
@example(_BASE)
@example(dict(_BASE, low_var=3e5))
@example(dict(_BASE, high_ratio=0.01, low_var=300.0))
@example(dict(_BASE, prior_var=25.0, high_ratio=0.02, low_var=3.0))
def test_quadrature_matches_oracles_across_the_domain(point: dict) -> None:
    p = ModelParams(
        prior_var=point["prior_var"],
        high_var=point["high_ratio"] * point["prior_var"],
        low_var=point["low_var"],
        high_share=point["high_share"],
    )
    # the benchmark, self-checked, against the 1-D oracle
    eu = expected_utility(R_UNB, p, C)
    assert abs(eu - eu_unbounded_oracle(p)) < C.abs_tol, (eu, eu_unbounded_oracle(p))

    prior_sd = math.sqrt(p.prior_var)
    r = point["r_sd"] * prior_sd
    cases = (
        (Radius(r), p.prior_mean + point["u"] * r),
        (R_UNB, p.prior_mean + 3.0 * point["u"] * math.sqrt(p.prior_var + p.high_var)),
    )
    n_grid = _grid_points(p)
    for policy, s in cases:
        summary = optimal_action(s, policy, p, C)
        mean, var = grid_posterior_oracle(s, policy, p, n_grid)
        assert abs(summary.action - mean) < 1e-6, (policy, s, summary.action, mean)
        assert abs(summary.posterior_var - var) < 1e-6, (policy, s, summary.posterior_var, var)
        assert abs(summary.action - summary.combination) < C.invariant_tol
