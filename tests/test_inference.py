from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import PAPER_EXAMPLE

from echochamber import inference
from echochamber.censor import expected_utility, signal_law, signal_moments_vs_r
from echochamber.errors import (
    DegenerateRadiusError,
    QuadratureError,
    SignalOutsideSupportError,
    UndefinedOddsError,
)
from echochamber.inference import (
    _likes,
    _policy_pieces,
    _state_terms,
    action_map,
    expected_action,
    optimal_action,
    posterior_density,
    posterior_summaries,
    prob_high_closed,
    source_odds_closed,
    uncensored_linear_action,
)
from echochamber.mc import simulate_draws
from echochamber.model import (
    ABS_TOL,
    DEFAULT_NUMERICS,
    DEFAULT_PARAMS,
    INVARIANT_TOL,
    NormalWeight,
    Radius,
    UNBOUNDED,
    _log_weights,
)
from echochamber.normal_sampling import single_type_critical_point
from echochamber.quadrature import gauss_kronrod, signal_rule, state_rule

P = DEFAULT_PARAMS
C = DEFAULT_NUMERICS
R_UNB = Radius(UNBOUNDED)


def test_summary_pinned_windowed(oracle: dict) -> None:
    want = oracle["posterior"]
    got = optimal_action(1.0, Radius(2.0), P, C)
    assert math.isclose(got.action, want["action_s1_r2"], abs_tol=1e-10)
    assert math.isclose(got.posterior_var, want["posterior_var_s1_r2"], abs_tol=1e-9)
    assert math.isclose(got.prob_high, want["prob_high_s1_r2"], abs_tol=1e-10)
    a_h, a_l = got.type_actions
    assert math.isclose(a_h, want["action_high_s1_r2"], abs_tol=1e-10)
    assert math.isclose(a_l, want["action_low_s1_r2"], abs_tol=1e-10)


def test_summary_pinned_unbounded(oracle: dict) -> None:
    want = oracle["posterior"]
    assert math.isclose(
        optimal_action(1.0, R_UNB, P, C).action,
        want["action_s1_unbounded"],
        abs_tol=1e-10,
    )
    assert math.isclose(
        optimal_action(1.0, Radius(4.0), P, C).action,
        want["action_s1_r4"],
        abs_tol=1e-10,
    )
    assert math.isclose(
        optimal_action(2.0, R_UNB, P, C).action,
        want["action_s2_unbounded"],
        abs_tol=1e-10,
    )
    assert math.isclose(
        optimal_action(4.0, R_UNB, P, C).action,
        want["action_s4_unbounded"],
        abs_tol=1e-10,
    )


def test_summary_pinned_soft_window(oracle: dict) -> None:
    want = oracle["soft_posterior"]
    got = optimal_action(1.0, NormalWeight(P.prior_mean, 2.0), P, C)
    assert math.isclose(got.action, want["action_s1_v2"], abs_tol=1e-10)
    assert math.isclose(got.posterior_var, want["posterior_var_s1_v2"], abs_tol=1e-9)
    assert math.isclose(got.prob_high, want["prob_high_s1_v2"], abs_tol=1e-10)
    a_h, a_l = got.type_actions
    assert math.isclose(a_h, want["action_high_s1_v2"], abs_tol=1e-10)
    assert math.isclose(a_l, want["action_low_s1_v2"], abs_tol=1e-10)


def test_decomposition_identity_holds() -> None:
    policies = [Radius(0.8), Radius(2.0), Radius(5.0), R_UNB, NormalWeight(0.0, 1.3)]
    for policy in policies:
        r_cap = 0.75 if isinstance(policy, Radius) and not policy.unbounded else 3.0
        for s in np.linspace(-0.95 * r_cap, 0.95 * r_cap, 9):
            got = optimal_action(float(s), policy, P, C)
            assert abs(got.action - got.combination) < INVARIANT_TOL


def test_decomposition_is_not_a_tautology(oracle: dict) -> None:
    # per-type weights renormalized within each type produce different
    # numbers; the identity only holds for the jointly normalized pair
    want = oracle["posterior"]
    got = optimal_action(1.0, Radius(2.0), P, C)
    a_h, a_l = got.type_actions
    assert abs(a_h - want["action_high_s1_r2_own_norm"]) > 1e-3
    assert abs(a_l - want["action_low_s1_r2_own_norm"]) > 1e-2
    assert abs(want["combination_own_norm_s1_r2"] - got.action) > 1e-3


def test_action_symmetry() -> None:
    for policy in (Radius(2.0), R_UNB):
        for delta in (0.4, 0.9, 1.6):
            up = optimal_action(P.prior_mean + delta, policy, P, C).action
            dn = optimal_action(P.prior_mean - delta, policy, P, C).action
            assert abs((up - P.prior_mean) + (dn - P.prior_mean)) < INVARIANT_TOL


def test_action_at_center_is_prior_mean() -> None:
    for policy in (Radius(1.0), Radius(3.0), R_UNB, NormalWeight(0.0, 2.0)):
        got = optimal_action(P.prior_mean, policy, P, C)
        assert abs(got.action - P.prior_mean) < 1e-12


def test_nonmonotone_action_at_high_low_dispersion(oracle: dict) -> None:
    p30 = replace(P, low_var=30.0)
    a2 = optimal_action(2.0, R_UNB, p30, C).action
    a3 = optimal_action(3.0, R_UNB, p30, C).action
    assert math.isclose(
        a2, oracle["posterior"]["action_s2_unbounded_lowvar30"], abs_tol=1e-9
    )
    assert math.isclose(
        a3, oracle["posterior"]["action_s3_unbounded_lowvar30"], abs_tol=1e-9
    )
    assert a2 > a3


def test_unbounded_action_has_interior_peak_at_high_low_dispersion() -> None:
    p30 = replace(P, low_var=30.0)
    grid = np.linspace(0.0, 8.0, 81)
    actions = [optimal_action(float(s), R_UNB, p30, C).action for s in grid]
    k = int(np.argmax(actions))
    assert 0 < k < len(grid) - 1


def test_prob_high_closed_pinned(oracle: dict) -> None:
    assert math.isclose(
        prob_high_closed(0.0, P), oracle["belief"]["prob_high_s0"], abs_tol=1e-12
    )
    assert math.isclose(
        prob_high_closed(2.0, P), oracle["belief"]["prob_high_s2"], abs_tol=1e-12
    )


def test_source_odds_hand_values() -> None:
    # sqrt((low_var + prior_var) / (high_var + prior_var)) at the center
    assert math.isclose(source_odds_closed(0.0, P), math.sqrt(4.0 / 1.5), rel_tol=1e-12)
    want2 = math.sqrt(4.0 / 1.5) * math.exp(-10.0 / 12.0)
    assert math.isclose(source_odds_closed(2.0, P), want2, rel_tol=1e-12)


def test_source_odds_equal_variances_constant() -> None:
    p = replace(P, high_var=2.0, low_var=2.0, high_share=0.3)
    for s in (-3.0, 0.0, 1.7, 6.0):
        assert math.isclose(source_odds_closed(s, p), 0.3 / 0.7, rel_tol=1e-12)


def test_source_odds_undefined_at_pure_share() -> None:
    for h in (0.0, 1.0):
        with pytest.raises(UndefinedOddsError):
            source_odds_closed(1.0, replace(P, high_share=h))


def test_closed_vs_quadrature_belief_unbounded() -> None:
    for s in np.linspace(-6.0, 6.0, 13):
        closed = prob_high_closed(float(s), P)
        quad = optimal_action(float(s), R_UNB, P, C).prob_high
        assert abs(closed - quad) < 1e-9


def test_belief_decreasing_in_signal_magnitude() -> None:
    grid = np.linspace(0.0, 6.0, 25)
    vals = [prob_high_closed(float(s), P) for s in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_quality_belief_depends_on_radius_and_matches_closed_form_unbounded(
    oracle: dict,
) -> None:
    """The quality belief at a fixed admitted signal depends on the radius.
    Out-of-window signals are redrawn, not discarded, so the joint is divided
    by the window mass D_r(omega) and r does not cancel from the type odds
    (a radius-free belief would belong to a censoring model that discards
    them). The unbounded belief equals the closed form; each finite-radius
    belief differs from it by more than INVARIANT_TOL."""
    s = 0.3
    vals = {
        "r0.5": optimal_action(s, Radius(0.5), P, C).prob_high,
        "r2": optimal_action(s, Radius(2.0), P, C).prob_high,
        "unbounded": optimal_action(s, R_UNB, P, C).prob_high,
        "closed": prob_high_closed(s, P),
    }
    want = oracle["posterior"]
    assert math.isclose(vals["r0.5"], want["prob_high_s03_r05"], abs_tol=1e-9)
    assert math.isclose(vals["r2"], want["prob_high_s03_r2"], abs_tol=1e-9)
    assert math.isclose(vals["unbounded"], want["prob_high_s03_unbounded"], abs_tol=1e-9)
    assert math.isclose(vals["unbounded"], vals["closed"], abs_tol=INVARIANT_TOL), vals
    for key in ("r0.5", "r2"):
        assert abs(vals[key] - vals["closed"]) > INVARIANT_TOL, (key, vals)


def test_type_conditional_actions() -> None:
    # unbounded single-type action is the conjugate shrinkage
    got = optimal_action(1.0, R_UNB, P, C).type_actions[0]
    assert math.isclose(got, 1.0 / 1.5, abs_tol=1e-9)
    # windowed high-type action responds more than the conjugate one
    windowed = optimal_action(1.0, Radius(2.0), P, C).type_actions[0]
    assert windowed > 1.0 / 1.5 + 1e-3


def test_type_actions_strictly_increasing() -> None:
    for policy in (Radius(2.0), R_UNB):
        hi = 1.9 if not policy.unbounded else 5.0
        grid = np.linspace(-hi, hi, 15)
        actions = [optimal_action(float(s), policy, P, C).type_actions for s in grid]
        for vals in zip(*actions):  # high type, then low type
            assert all(b > a for a, b in zip(vals, vals[1:]))


def test_uncensored_linear_action_formula() -> None:
    assert uncensored_linear_action(P.prior_mean, P, "H") == P.prior_mean
    assert math.isclose(uncensored_linear_action(4.0, P, "L"), 1.0, rel_tol=1e-12)
    for s in np.linspace(-4.0, 4.0, 21):
        type_actions = optimal_action(float(s), R_UNB, P, C).type_actions
        for q, quad in zip(("H", "L"), type_actions):
            closed = uncensored_linear_action(float(s), P, q)
            assert abs(closed - quad) < INVARIANT_TOL


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [1.0, 1e160, 1e300])
def test_closed_forms_and_signal_moments_are_scale_free(k: float) -> None:
    # the defaults with every variance times k, at signals and a radius k^(1/2)
    # times larger: the odds, the beliefs and the correlation are the same, an
    # action scales by k^(1/2) and a variance by k. A product of two variances
    # overflows near k = 1e154, so each form is taken in units of prior_var
    scaled = replace(P, prior_var=k * P.prior_var, high_var=k * P.high_var, low_var=k * P.low_var)
    s = np.linspace(-6.0, 6.0, 25)
    root = math.sqrt(k)
    for f in (source_odds_closed, prob_high_closed):
        np.testing.assert_allclose(f(root * s, scaled), f(s, P), rtol=1e-13)
    for q in ("H", "L"):
        got = uncensored_linear_action(root * s, scaled, q)
        np.testing.assert_allclose(got, root * uncensored_linear_action(s, P, q), rtol=1e-13)
        got = single_type_critical_point(scaled, q)
        assert math.isclose(got, k * single_type_critical_point(P, q), rel_tol=1e-13)
    var_s, corr = signal_moments_vs_r(scaled, Radius(2.0 * root), C)
    want_var, want_corr = signal_moments_vs_r(P, Radius(2.0), C)
    assert math.isclose(var_s, k * want_var, rel_tol=1e-12)
    assert math.isclose(corr, want_corr, rel_tol=1e-12)


def test_updating_direction_and_prior_responsiveness() -> None:
    wider = replace(P, prior_var=2.0)
    for q in ("H", "L"):
        for s in (-2.0, -0.5, 0.5, 2.0):
            a = uncensored_linear_action(s, P, q)
            assert (a - P.prior_mean) * (s - P.prior_mean) > 0.0
            assert abs(uncensored_linear_action(s, wider, q)) > abs(a)


def test_conjugate_posterior_single_type(oracle: dict) -> None:
    p1 = replace(P, high_share=1.0)
    got = optimal_action(0.7, R_UNB, p1, C).action
    assert math.isclose(
        got, oracle["posterior"]["conjugate_action_s07_h1"], abs_tol=1e-10
    )
    # density matches the conjugate normal
    post_var = 1.0 * 0.5 / 1.5
    post_mean = 0.7 / 1.5
    for w in (-0.5, 0.2, 0.9):
        want = math.exp(-((w - post_mean) ** 2) / (2 * post_var)) / math.sqrt(
            2 * math.pi * post_var
        )
        assert math.isclose(posterior_density(w, 0.7, R_UNB, p1, C), want, rel_tol=1e-8)


def test_posterior_density_normalized_and_pinned(oracle: dict) -> None:
    got = posterior_density(0.5, 1.0, Radius(2.0), P, C)
    assert math.isclose(
        got, oracle["densities"]["posterior_pdf_s1_r2_at_w05"], abs_tol=1e-9
    )
    grid = np.linspace(-8.0, 8.0, 4001)
    vals = np.array([posterior_density(float(w), 1.0, Radius(2.0), P, C) for w in grid])
    assert math.isclose(float(np.trapezoid(vals, grid)), 1.0, abs_tol=1e-6)


def test_posterior_density_symmetric_at_center_signal() -> None:
    for w in (0.3, 1.1, 2.4):
        up = posterior_density(P.prior_mean + w, P.prior_mean, Radius(1.5), P, C)
        dn = posterior_density(P.prior_mean - w, P.prior_mean, Radius(1.5), P, C)
        assert math.isclose(up, dn, rel_tol=1e-10)


def test_signal_outside_support_raises() -> None:
    for s in (2.0, -2.0, 5.1, 2.5):
        with pytest.raises(SignalOutsideSupportError):
            optimal_action(s, Radius(2.0), P, C)
    with pytest.raises(SignalOutsideSupportError):
        posterior_density(0.0, 2.0, Radius(2.0), P, C)


@pytest.mark.filterwarnings("error")
def test_action_map_matches_pointwise_and_extends() -> None:
    amap = action_map(Radius(2.0), P, C)
    for s in (-1.83, -0.41, 0.57, 1.9):
        direct = optimal_action(s, Radius(2.0), P, C).action
        assert abs(float(amap(s)) - direct) < 1e-6
    amap_u = action_map(R_UNB, P, C)
    for s in (-3.3, 0.9, 4.7):
        direct = optimal_action(s, R_UNB, P, C).action
        assert abs(float(amap_u(s)) - direct) < 1e-6
    # an infinite or NaN signal gives NaN, silently; a 0-d input a 0-d result
    assert np.isnan(amap_u(np.array([np.inf, -np.inf, np.nan]))).all()
    for x in (0.3, np.float64(-1.7), np.inf, np.nan):
        assert amap_u(x).shape == ()


@pytest.mark.filterwarnings("error")
def test_action_map_is_nan_beyond_its_signal_rule() -> None:
    # under Unbounded at low_var = 300 the signal rule ends at +-173.5; its
    # end panels' polynomials, extrapolated, gave 2.19e10 at s = 1e3, where
    # the action is 3.32, and 2.56e207 at 1e17. NaN there makes a Monte
    # Carlo check fail instead of passing a wrong number
    params = replace(P, low_var=300.0)
    amap = action_map(R_UNB, params, C)
    assert np.isnan(amap(np.array([1e3, -1e3, 1e17, -1e17]))).all()
    # the outer edges of the rule's end panels, as the map reads them
    nodes, _ = signal_rule(R_UNB, params, C)
    ref, _ = gauss_kronrod(C.quad_nodes)
    ends = nodes.reshape(-1, len(ref))[[0, -1]]
    half = (ends[:, -1] - ends[:, 0]) / (ref[-1] - ref[0])
    edges = ends[:, C.quad_nodes] + np.array([-1.0, 1.0]) * half
    assert abs(edges[1] - 173.5) < 0.1
    inside = np.nextafter(edges, 0.0)
    assert np.max(np.abs(amap(inside) - _closed_form_action(inside, params))) <= 1e-12
    assert np.isnan(amap(np.nextafter(edges, edges * np.inf))).all()


@pytest.mark.parametrize("prior_mean", [10.0, 1000.0, 1e5])
def test_absolute_actions_move_with_the_prior_mean(prior_mean) -> None:
    # prior_mean + d is exact at these d, and the kernel sees d itself, so
    # an action may differ only by the rounding of prior_mean + action, at
    # most a spacing of the doubles near prior_mean (1.5e-11 at 1e5). The
    # posterior variance is a centred moment: uncentred, it was 1.1e-5 off
    # at 1e5
    moved = replace(P, prior_mean=prior_mean)
    tol = 1e-12 + np.spacing(prior_mean)
    omegas = np.array([-1.2, 0.0, 2.5])
    # a soft window's mean is an offset from the prior mean, like a radius
    for policy in (R_UNB, Radius(2.35), NormalWeight(0.5, 2.0)):
        for d in (-1.5, 0.0, 1.0, 2.25):
            want = optimal_action(d, policy, P, C)
            got = optimal_action(prior_mean + d, policy, moved, C)
            assert abs((got.action - prior_mean) - want.action) <= tol, (policy, d)
            assert abs(got.posterior_var - want.posterior_var) <= 1e-12, (policy, d)
        got = expected_action(prior_mean + omegas, policy, moved, C) - prior_mean
        assert np.max(np.abs(got - expected_action(omegas, policy, P, C))) <= tol, policy
        density = posterior_density(prior_mean + omegas, prior_mean + 1.0, policy, moved, C)
        assert np.allclose(density, posterior_density(omegas, 1.0, policy, P, C), rtol=1e-9)


def _closed_form_action(s, params):
    """The unrestricted action in closed form: the two-type conjugate
    posterior's mean, as eu_unbounded_oracle in test_quadrature builds it."""
    pi = prob_high_closed(s, params)
    return pi * uncensored_linear_action(s, params, "H") + (1.0 - pi) * uncensored_linear_action(s, params, "L")


@pytest.mark.parametrize("low_var", [3.0, 300.0, 1e8, 1e16, 1e32])
def test_action_map_adds_at_most_abs_tol_to_the_loss(low_var) -> None:
    # the map serves the squared-error loss of the Monte Carlo utility
    # checks, where an error delta(s) adds E[delta^2]; from 1e8 on, the
    # signal rule's panels range from 0.1 to more than 1e4 wide
    params = replace(P, low_var=low_var)
    s = simulate_draws(params, R_UNB, 100_000, 11).accepted_signals
    delta = action_map(R_UNB, params, C)(s) - _closed_form_action(s, params)
    assert np.mean(delta**2) <= ABS_TOL * params.prior_var


def test_action_map_is_pointwise_exact_at_the_defaults() -> None:
    nodes, _ = signal_rule(R_UNB, P, C)
    s = np.linspace(nodes[0], nodes[-1], 4000)
    assert np.max(np.abs(action_map(R_UNB, P, C)(s) - _closed_form_action(s, P))) <= 1e-12


def test_action_map_follows_a_soft_window_at_a_wide_low_type() -> None:
    params = replace(P, low_var=1e16)
    policy = NormalWeight(0.0, 2.0)
    s = simulate_draws(params, policy, 100_000, 11).accepted_signals[:4000]
    delta = action_map(policy, params, C)(s) - posterior_summaries(s, policy, params, C)[0]
    assert np.mean(delta**2) <= ABS_TOL * params.prior_var


def test_action_map_refuses_panels_too_wide_for_the_action() -> None:
    # at r = 2.35 a high type of variance 1e-4 makes the action vary on
    # scales narrower than the signal rule's panels: the map would add
    # 6.7e-8 * prior_var to the loss
    with pytest.raises(QuadratureError, match="action map"):
        action_map(Radius(2.35), replace(P, high_var=1e-4, low_var=300.0), C)


def test_action_map_refuses_a_zero_radius() -> None:
    with pytest.raises(DegenerateRadiusError):
        action_map(Radius(0.0), P, C)


def test_posterior_density_soft_window_normalized_and_matches_oracle() -> None:
    from echochamber.mc import grid_posterior_oracle

    policy = NormalWeight(mean=0.5, var=2.0)
    grid = np.linspace(-10.0, 10.0, 8001)
    vals = np.asarray(posterior_density(grid, 1.0, policy, P, C))
    assert math.isclose(float(np.trapezoid(vals, grid)), 1.0, abs_tol=1e-6)
    mean = float(np.trapezoid(grid * vals, grid))
    assert abs(mean - optimal_action(1.0, policy, P, C).action) < 1e-6
    oracle_mean, _ = grid_posterior_oracle(1.0, policy, P, 200_001)
    assert abs(mean - oracle_mean) < 1e-6


def _log_domain_moments(s_values, policy, params):
    """(logZ, mean, m2) of the mixed integrand, mixed in the log domain with
    np.logaddexp over the whole tensor and exponentiated under the column
    maxima: the kernel's formula before it mixed in the linear domain."""
    omega, w = state_rule(params, C)
    tilt, terms = _state_terms(omega[:, None], policy, params)
    like_H, like_L = _likes(s_values[None, :], terms)
    lh, ll = _log_weights(params)
    b = np.logaddexp(lh + (tilt + like_H), ll + (tilt + like_L))
    m = b.max(axis=0)
    e = np.exp(b - m)
    s0 = w @ e  # one row per rule: Kronrod, embedded Gauss
    return m + np.log(s0), ((w * omega) @ e) / s0, ((w * omega**2) @ e) / s0


@pytest.mark.parametrize(
    "params",
    [
        P,
        PAPER_EXAMPLE,
        replace(P, low_var=3e5),
        replace(P, high_var=0.01, low_var=300.0),
        replace(P, prior_var=25.0, high_var=2.0, low_var=50.0),
        replace(P, high_share=0.2),
    ],
    ids=["defaults", "paper-example", "low_var=3e5", "high_var=0.01", "prior_var=25", "h=0.2"],
)
def test_linear_mix_matches_log_domain_reference(params) -> None:
    # the reference reduces every signal as it is; the kernel folds the
    # three even policies onto |x| and reduces the soft window off the
    # prior mean, NormalWeight(1.5, 2.0), over every signal
    for policy in (Radius(2.35), R_UNB, NormalWeight(0.0, 2.0), NormalWeight(1.5, 2.0)):
        s_nodes, _ = signal_rule(policy, params, C)
        logz, mean, m2 = _policy_pieces(s_nodes, policy, params, C)
        want_logz, want_mean, want_m2 = _log_domain_moments(s_nodes, policy, params)
        assert np.max(np.abs(logz - want_logz)) < 1e-10, policy
        assert np.max(np.abs(mean - want_mean)) < 1e-10, policy
        assert np.max(np.abs(m2 / want_m2 - 1.0)) < 1e-10, policy


@pytest.mark.parametrize(
    "policy", [R_UNB, Radius(0.5), NormalWeight(0.0, 2.0)], ids=["unbounded", "r=0.5", "normal-weight"]
)
def test_blocked_tensor_is_bit_identical_to_one_block(policy, monkeypatch) -> None:
    # 480, 60 and 510 signals at the defaults, folded onto 240, 30 and 255
    # magnitudes, in blocks of 11 at a budget of 2^13 cells (the default
    # budget takes r = 0.5 in one block); a cell budget above the tensor's
    # size builds and reduces it in one block. Each signal's row is reduced
    # in an order fixed by its length, so a signal alone gets the bits it
    # gets among all the others
    monkeypatch.setattr(inference, "_BLOCK_CELLS", 2**13)
    s_nodes, _ = signal_rule(policy, P, C)
    magnitudes = np.unique(np.abs(s_nodes))
    assert len(state_rule(P, C)[0]) * len(magnitudes) > 2 * inference._BLOCK_CELLS
    omegas = np.linspace(-3.0, 3.0, 13)

    def outputs():
        return (
            _policy_pieces(s_nodes, policy, P, C, types=True)
            + signal_law(policy, P, C)
            + posterior_summaries(s_nodes, policy, P, C)
            + (expected_action(omegas, policy, P, C),)
        )

    blocked = outputs()
    summaries = blocked[7:12]
    for i, s in enumerate(s_nodes):
        alone = optimal_action(float(s), policy, P, C)
        got = (alone.action, alone.posterior_var, alone.prob_high, *alone.type_actions)
        assert got == tuple(float(a[i]) for a in summaries), (i, s)
    monkeypatch.setattr(inference, "_BLOCK_CELLS", 2**62)
    whole = outputs()
    assert len(blocked) == len(whole) == 13
    for i, (a, b) in enumerate(zip(blocked, whole)):
        assert np.array_equal(a, b), i


@pytest.mark.parametrize(
    "policy", [R_UNB, Radius(0.5), NormalWeight(0.0, 2.0)], ids=["unbounded", "r=0.5", "normal-weight"]
)
def test_policy_pieces_mirror_exactly_under_an_even_policy(policy) -> None:
    # the joint is even under (d, x) -> (-d, -x), so the kernel reduces |x|
    # once: -x gets the log mass and second moment of x and its mean
    # negated, bit for bit, alone or in a batch with x
    x = np.array([0.45, 0.3, 0.2, 0.3])
    for types in (False, True):
        plus = _policy_pieces(x, policy, P, C, types=types)
        minus = _policy_pieces(-x, policy, P, C, types=types)
        both = _policy_pieces(np.concatenate((-x, x)), policy, P, C, types=types)
        assert np.array_equal(minus[0], plus[0]) and np.array_equal(minus[2], plus[2])
        assert np.array_equal(minus[1], -plus[1])
        for a, b, ab in zip(minus, plus, both):
            assert np.array_equal(np.concatenate((a, b), axis=1), ab)


def test_zero_high_share_is_the_low_type_conjugate() -> None:
    # high_share 0 puts the high type's log weight at -inf, so its terms
    # must drop out as exact zeros
    p0 = replace(P, high_share=0.0)
    s = np.linspace(-5.0, 5.0, 11)
    action, _, prob_high, a_h, a_l = posterior_summaries(s, R_UNB, p0, C)
    assert np.all(prob_high == 0.0)
    assert np.all(np.isfinite(a_h)) and np.all(np.isfinite(a_l))
    assert np.max(np.abs(action - uncensored_linear_action(s, p0, "L"))) < 1e-12
    want = -p0.prior_var * p0.low_var / (p0.prior_var + p0.low_var)  # -0.75
    assert math.isclose(expected_utility(R_UNB, p0, C), want, abs_tol=1e-12)
