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
import pytest

from echochamber.censor import _bayes_loss, expected_utility
from echochamber.errors import QuadratureError
from echochamber.inference import (
    _policy_pieces,
    optimal_action,
    prob_high_closed,
    uncensored_linear_action,
)
from echochamber.mc import grid_posterior_oracle
from echochamber.normal_sampling import closed_form_objective
from echochamber.model import (
    ABS_TOL,
    DEFAULT_NUMERICS,
    DEFAULT_PARAMS,
    INVARIANT_TOL,
    ModelParams,
    NormalWeight,
    Radius,
    UNBOUNDED,
)
from echochamber.quadrature import gauss_kronrod, panel_edges, signal_rule, state_rule

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


# QUADPACK's qk15 and qk21 constants (Piessens et al., 1983): the
# nonnegative Kronrod nodes in decreasing order, their Kronrod weights, and
# the Gauss weights of the odd-indexed ones down to the centre
QK15 = (
    [0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
     0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
     0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
     0.207784955007898467600689403773245, 0.000000000000000000000000000000000],
    [0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
     0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
     0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
     0.204432940075298892414161999234649, 0.209482141084727828012999174891714],
    [0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
     0.381830050505118944950369775488975, 0.417959183673469387755102040816327],
)
QK21 = (
    [0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
     0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
     0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
     0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
     0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
     0.000000000000000000000000000000000],
    [0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
     0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
     0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
     0.123491976262065851077600525452394, 0.134709217311473325928054001771707,
     0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
     0.149445554002916905664936468389821],
    [0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
     0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
     0.295524224714752870173892994651338],
)


@pytest.mark.parametrize("n, table", [(7, QK15), (10, QK21)], ids=["GK15", "GK21"])
def test_gauss_kronrod_matches_quadpack(n: int, table) -> None:
    x, w = gauss_kronrod(n)
    xgk, wgk, wg = (np.array(col) for col in table)
    assert np.max(np.abs(x[: n + 1] + xgk)) < 1e-15
    assert np.max(np.abs(x[n:] - xgk[::-1])) < 1e-15
    assert np.max(np.abs(w[0, : n + 1] - wgk)) < 1e-15
    gauss = w[1, : n + 1]
    assert np.max(np.abs(gauss[1::2] - wg[: len(gauss[1::2])])) < 1e-15
    assert np.all(gauss[0::2] == 0.0)


def test_gauss_kronrod_embeds_gauss_legendre() -> None:
    for n in range(1, 16):
        x, w = gauss_kronrod(n)
        gx, gw = np.polynomial.legendre.leggauss(n)
        assert len(x) == 2 * n + 1 and np.all(np.diff(x) > 0.0), n
        assert np.max(np.abs(x[1::2] - gx)) < 1e-15, n
        assert np.array_equal(w[1, 1::2], gw) and np.all(w[1, 0::2] == 0.0), n
        assert np.all(w[0] > 0.0), n
        # K_(2n+1) is exact to degree 3n + 1
        for k in range(3 * n + 2):
            assert abs(w[0] @ x**k - (2.0 / (k + 1) if k % 2 == 0 else 0.0)) < 1e-14, (n, k)


def test_self_check_accepts_an_accurate_coarse_rule() -> None:
    # at quad_nodes=3 the benchmark's Kronrod-Gauss estimate is 9.2e-7,
    # under the 1e3 * ABS_TOL gate, and K7 itself is 2.6e-12 off the oracle
    c3 = replace(C, quad_nodes=3)
    kronrod, gauss = -_bayes_loss(R_UNB, P, c3)
    assert 5e-7 < abs(kronrod - gauss) < 1e3 * ABS_TOL
    assert abs(kronrod - eu_unbounded_oracle(P)) < 1e-11
    assert expected_utility(R_UNB, P, c3) == kronrod


def test_self_check_refuses_an_inaccurate_coarse_rule() -> None:
    # at sigmaL2=300 and quad_nodes=1 the estimate is 9.7e-3 and K3 is
    # 1.0e-4 off the oracle, beyond ABS_TOL: the check must refuse it
    p, c1 = replace(P, low_var=300.0), replace(C, quad_nodes=1)
    kronrod, gauss = -_bayes_loss(R_UNB, p, c1)
    assert abs(kronrod - gauss) > 1e3 * ABS_TOL
    assert abs(kronrod - eu_unbounded_oracle(p)) > ABS_TOL
    # the rule at twice the order (estimate 1.3e-3) does not rescue it
    # either, and the error names the pair of the rule as configured
    refined = -_bayes_loss(R_UNB, p, replace(c1, quad_nodes=2))
    assert abs(refined[0] - refined[1]) > 1e3 * ABS_TOL
    with pytest.raises(QuadratureError, match="failed its self-check") as exc:
        expected_utility(R_UNB, p, c1)
    assert f"{float(kronrod)!r} under the Kronrod rule vs {float(gauss)!r}" in str(exc.value)


def test_self_check_refines_an_accurate_rule_by_doubling_its_order() -> None:
    # a narrow window at sigmaH2=0.01, sigmaL2=3e5: the estimate, G7's
    # error, is 1.1e-5 while K15 is 1.2e-9 off; at twice the order the
    # estimate drops to 2.4e-9, and K29's value is returned
    p, window = replace(P, high_var=0.01, low_var=3e5), Radius(0.25)
    built = -_bayes_loss(window, p, C)
    refined = -_bayes_loss(window, p, replace(C, quad_nodes=2 * C.quad_nodes))
    reference = -_bayes_loss(window, p, replace(C, quad_nodes=30))[0]
    assert abs(built[0] - built[1]) > 1e3 * ABS_TOL
    assert abs(built[0] - reference) < ABS_TOL
    assert abs(refined[0] - refined[1]) < ABS_TOL
    assert expected_utility(window, p, C) == refined[0]
    assert abs(refined[0] - reference) < 1e-12


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
        for w in weights:  # the Kronrod rule and its embedded Gauss rule
            assert abs(w[nodes < m].sum() - r) < 1e-12 * r
            assert abs(w[nodes > m].sum() - r) < 1e-12 * r


def test_state_panels_near_the_prior_resolve_the_high_type_posterior() -> None:
    p = replace(P, high_var=0.01, low_var=300.0)
    nodes, weights = state_rule(p, C)
    post_sd = math.sqrt(p.prior_var * p.high_var / (p.prior_var + p.high_var))
    near = np.abs(nodes - p.prior_mean) < 10.0 * math.sqrt(p.prior_var)
    gaps = np.diff(nodes[near])
    assert gaps.max() < post_sd / 2.0
    assert np.all(np.abs(weights.sum(axis=1) - 2.0 * 10.0 * math.sqrt(p.low_var)) < 1e-9)


_BASE = dict(
    prior_var=1.0, high_ratio=0.5, low_var=3e4, high_share=0.5, r_sd=2.35, u=0.4
)


def _points(seed: int, n: int) -> list[dict]:
    """n domain points from default_rng(seed): prior_var log-uniform on
    [0.04, 25], high_var / prior_var log-uniform on [0.01, 1], low_var
    log-uniform on [high_var, 3e5], and high_share, the window in prior
    sds and the signal's place in it uniform."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        prior_var = math.exp(rng.uniform(math.log(0.04), math.log(25.0)))
        high_ratio = math.exp(rng.uniform(math.log(0.01), 0.0))
        high_var = high_ratio * prior_var
        low_var = min(3e5, math.exp(rng.uniform(math.log(high_var), math.log(3e5))))
        points.append(
            dict(
                prior_var=prior_var,
                high_ratio=high_ratio,
                low_var=max(low_var, high_var),
                high_share=rng.uniform(0.0, 1.0),
                r_sd=rng.uniform(0.1, 10.0),
                u=rng.uniform(-0.95, 0.95),
            )
        )
    return points


# windows far narrower than the signal sds, where most states have a window
# mass far below the double range: the sampled point of the optimizer's CLI
# test, and two with both signal variances at most 1 % of prior_var
_POINT_A = dict(
    prior_var=14.523350130266536,
    high_ratio=0.18004094483670416 / 14.523350130266536,
    low_var=0.27785667542948683,
    high_share=0.020215573356146876,
    r_sd=0.1 / math.sqrt(14.523350130266536),
    u=0.5,
)
_POINT_B = dict(_BASE, prior_var=1.0, high_ratio=0.005, low_var=0.01, r_sd=0.25)
_POINT_C = dict(_BASE, prior_var=1e4, high_ratio=5e-5, low_var=3.0, r_sd=0.01)

# a fixed sample: ten chosen points, then 30 drawn from a seed fixed
# before any was looked at
_EXAMPLES = [
    _BASE,
    dict(_BASE, low_var=3e5),
    dict(_BASE, high_ratio=0.01, low_var=300.0),
    dict(_BASE, prior_var=25.0, high_ratio=0.02, low_var=3.0),
    dict(_BASE, high_ratio=1.0, low_var=8103.0, high_share=1.0, r_sd=1.0, u=0.0),
    dict(_BASE, high_ratio=0.01, low_var=3e5, r_sd=0.25),
    dict(_BASE, high_ratio=0.093, low_var=20.09, high_share=0.984, r_sd=0.5),
    _POINT_A,
    _POINT_B,
    _POINT_C,
]
_DOMAIN = [pytest.param(pt, id=f"example-{i}") for i, pt in enumerate(_EXAMPLES)] + [
    pytest.param(pt, id=f"sample-{i}") for i, pt in enumerate(_points(20250823, 30))
]


def _params(point: dict) -> ModelParams:
    return ModelParams(
        prior_var=point["prior_var"],
        high_var=point["high_ratio"] * point["prior_var"],
        low_var=point["low_var"],
        high_share=point["high_share"],
    )


@pytest.mark.parametrize("point", _DOMAIN)
def test_quadrature_matches_oracles_across_the_domain(point: dict) -> None:
    p = _params(point)
    # the benchmark, self-checked, against the 1-D oracle
    eu = expected_utility(R_UNB, p, C)
    assert abs(eu - eu_unbounded_oracle(p)) < ABS_TOL, (eu, eu_unbounded_oracle(p))

    prior_sd = math.sqrt(p.prior_var)
    r = point["r_sd"] * prior_sd
    # a finite window's utility passes its self-check and lies between the
    # uninformed value and no loss
    eu_r = expected_utility(Radius(r), p, C)
    assert -p.prior_var <= eu_r <= 0.0, (r, eu_r)
    # the tilt -log D_r(omega) gives every state back its prior mass, so
    # the unnormalised joint mass is 1
    soft = NormalWeight(mean=p.prior_mean, var=r * r)
    for policy in (Radius(r), R_UNB, soft):
        s_nodes, s_w = signal_rule(policy, p, C)
        logz = _policy_pieces(s_nodes, policy, p, C)[0]
        mass = s_w[0] @ np.exp(logz[0])
        assert abs(mass - 1.0) < ABS_TOL, (policy, mass)
    # the soft window's objective passes its self-check; its two-step rule
    # is not a posterior mean, so it may lose more than the prior variance
    objective = closed_form_objective(p, soft.var, C)
    assert math.isfinite(objective) and objective <= 0.0, objective
    cases = (
        (Radius(r), p.prior_mean + point["u"] * r),
        (R_UNB, p.prior_mean + 3.0 * point["u"] * math.sqrt(p.prior_var + p.high_var)),
        (soft, p.prior_mean + 3.0 * point["u"] * r),
    )
    n_grid = _grid_points(p)
    for policy, s in cases:
        summary = optimal_action(s, policy, p, C)
        mean, var = grid_posterior_oracle(s, policy, p, n_grid)
        assert abs(summary.action - mean) < 1e-6, (policy, s, summary.action, mean)
        assert abs(summary.posterior_var - var) < 1e-6, (policy, s, summary.posterior_var, var)
        assert abs(summary.action - summary.combination) < INVARIANT_TOL


@pytest.mark.parametrize(
    "point, r", [(_POINT_A, 0.1), (_POINT_A, 0.9527), (_POINT_B, 0.25)], ids=["A-0.1", "A-0.9527", "B"]
)
def test_narrow_window_utility_matches_a_finer_rule(point: dict, r: float) -> None:
    # most states lie where the window mass is far below the double range,
    # so the rule as configured matches a 30-node rule only if every
    # state's tilt -log D_r(omega) is exact
    p = _params(point)
    reference = -_bayes_loss(Radius(r), p, replace(C, quad_nodes=30))[0]
    assert abs(expected_utility(Radius(r), p, C) - reference) < ABS_TOL * p.prior_var
