from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from echochamber import normal_sampling
from echochamber.censor import _naive_loss, optimize_radius
from echochamber.inference import _likes, _state_terms, optimal_action
from echochamber.model import (
    DEFAULT_NUMERICS,
    DEFAULT_PARAMS,
    ModelParams,
    NormalWeight,
    Radius,
    UNBOUNDED,
)
from echochamber.normal_sampling import (
    _per_type,
    closed_form_objective,
    locate_critical_point,
    naive_action,
    naive_prob_high,
    optimize_sampling_variance,
    single_type_critical_point,
    single_type_objective_offcenter,
)

P = DEFAULT_PARAMS
C = DEFAULT_NUMERICS

# single-type reference configs used throughout: one noisy (var 4), one
# precise (var 0.5, the window-centering worked example)
P_SD4 = replace(P, high_share=1.0, high_var=4.0, low_var=4.0)
P_PRECISE = replace(P, high_share=1.0, high_var=0.5)


def test_per_type_weights_hand_values() -> None:
    # low type, source var 4, window var 0.4: precisions are 1, 2.5, 0.25
    p, pol = replace(P, low_var=4.0), NormalWeight(mean=0.0, var=0.4)
    alpha_L, lambda_L, sig_gq_L = _per_type(p, pol, "L")
    alpha_H, lambda_H, sig_gq_H = _per_type(p, pol, "H")
    assert math.isclose(lambda_L, 1.0 / 11.0, rel_tol=1e-14)
    assert math.isclose(sig_gq_L, 4.0 / 11.0, rel_tol=1e-14)
    assert math.isclose(alpha_L, 4.0 / 15.0, rel_tol=1e-14)
    assert math.isclose(lambda_H, 4.0 / 9.0, rel_tol=1e-14)
    assert math.isclose(sig_gq_H, 2.0 / 9.0, rel_tol=1e-14)
    assert math.isclose(alpha_H, 2.0 / 11.0, rel_tol=1e-14)


def test_per_type_weights_in_range_and_naive_action_blends() -> None:
    pol = NormalWeight(mean=0.0, var=2.0)
    alpha_H, lambda_H, sig_gq_H = _per_type(P, pol, "H")
    alpha_L, lambda_L, sig_gq_L = _per_type(P, pol, "L")
    for x in (alpha_H, alpha_L, lambda_H, lambda_L):
        assert 0.0 < x < 1.0
    assert sig_gq_H < P.high_var and sig_gq_L < P.low_var
    # the action puts the belief-blended prior weight on the prior mean
    s = np.array([-2.0, 1.0, 3.5])
    p = naive_prob_high(s, P, pol)
    alpha_bar = p * alpha_H + (1 - p) * alpha_L
    want = alpha_bar * P.prior_mean + (1 - alpha_bar) * s
    assert np.allclose(naive_action(s, P, pol), want, rtol=1e-14, atol=0.0)


def test_admitted_signal_shrinks_toward_window_center() -> None:
    # the kernel's admitted type-L signal at state omega is normal with mean
    # lambda * omega + (1 - lambda) * center and variance sig_gq2
    s = np.linspace(-60.0, 60.0, 120001)
    for omega, center in ((2.0, 0.0), (0.0, 3.0)):
        pol = NormalWeight(mean=center, var=2.0)
        _, lam, var = _per_type(P, pol, "L")
        _, like_L = _likes(s, _state_terms(omega, pol, P)[1])
        f = np.exp(like_L - like_L.max())
        mean = float(f @ s / f.sum())
        assert math.isclose(mean, lam * omega + (1.0 - lam) * center, abs_tol=1e-9)
        assert math.isclose(float(f @ (s - mean) ** 2 / f.sum()), var, rel_tol=1e-9)
        # pulled toward the window's own center, not the prior mean
        assert min(omega, center) < mean < max(omega, center)
        assert var < P.low_var
    # widening the window without limit restores the raw source distribution
    assert _per_type(P, NormalWeight(mean=0.0, var=1e300), "L")[1:] == (1.0, P.low_var)


def test_single_type_objective_values(oracle: dict) -> None:
    assert closed_form_objective(P_SD4, 0.0, C) == -P.prior_var
    got = closed_form_objective(P_SD4, 0.4, C)
    assert math.isclose(got, -16.0 / 15.0, rel_tol=1e-12)
    assert math.isclose(got, oracle["soft_objective"]["single_sd4_v04"], rel_tol=1e-12)
    unb = closed_form_objective(P_SD4, UNBOUNDED, C)
    assert math.isclose(unb, -0.8, abs_tol=1e-9)
    assert math.isclose(unb, oracle["soft_objective"]["single_sd4_unbounded"], abs_tol=1e-9)


def test_single_type_interior_dip_below_no_data_value() -> None:
    # the two-step rule can underperform ignoring the data outright: its
    # value at the stationary variance sits below minus the prior variance
    assert closed_form_objective(P_SD4, 0.4, C) < -P.prior_var


def test_critical_point_formula() -> None:
    assert math.isclose(single_type_critical_point(P_SD4, "H"), 0.4, rel_tol=1e-14)
    # below twice the prior variance there is no positive stationary point
    assert single_type_critical_point(P_PRECISE, "H") < 0.0


def test_locate_critical_point_classifies_minimum() -> None:
    v_star, kind = locate_critical_point(P_SD4, 0.05, 2.0, C)
    assert abs(v_star - 0.4) < 1e-6
    assert kind == "min"


def test_mixed_objective_pinned(oracle: dict) -> None:
    for key in ("v1", "v4", "v16", "v1e6"):
        got = closed_form_objective(P, float(key[1:]), C)
        assert math.isclose(got, oracle["soft_objective"][key], abs_tol=1e-7), key


def test_mixed_objective_self_check_consistent() -> None:
    pair = -_naive_loss(naive_action, NormalWeight(0.0, 4.0), P, C)
    assert closed_form_objective(P, 4.0, C) == pair[0]
    assert 0.0 < abs(pair[0] - pair[1]) < 1e-12  # a live, passing estimate


def test_objective_rejects_negative_variance() -> None:
    with pytest.raises(ValueError):
        closed_form_objective(P, -1.0, C)


def test_naive_rule_recovers_bayes_action_without_window() -> None:
    pol = NormalWeight(mean=P.prior_mean, var=1e10)
    for s in (0.5, 1.0, 2.0):
        naive = float(naive_action(s, P, pol))
        bayes = optimal_action(s, Radius(UNBOUNDED), P, C).action
        assert abs(naive - bayes) < 1e-8, s


def test_naive_prob_high_degenerate_shares() -> None:
    pol = NormalWeight(mean=0.0, var=2.0)
    assert float(naive_prob_high(1.3, replace(P, high_share=1.0), pol)) == 1.0
    assert float(naive_prob_high(1.3, replace(P, high_share=0.0), pol)) == 0.0
    p = naive_prob_high(np.array([-2.0, 0.0, 2.0]), P, pol)
    assert np.all((p > 0.0) & (p < 1.0))
    assert math.isclose(p[0], p[2], rel_tol=1e-12)


def test_equal_variance_objective_ignores_type_share() -> None:
    # with identical variances the type label carries nothing, so the value
    # cannot depend on the share
    base = replace(P, high_var=2.0, low_var=2.0, high_share=0.5)
    v = 1.7
    want = closed_form_objective(base, v, C)
    for h in (0.0, 0.3, 1.0):
        got = closed_form_objective(replace(base, high_share=h), v, C)
        assert math.isclose(got, want, rel_tol=1e-13), h


def test_degenerate_closed_form_matches_quadrature() -> None:
    # the single-type closed form and a direct double quadrature of the
    # same rule must agree when the blended prior weight is constant in the
    # signal: one type (high or low) or equal variances
    for params in (P_SD4, replace(P, high_var=2.0, low_var=2.0), replace(P, high_share=0.0)):
        for v in (0.4, 2.0, 10.0):
            closed = closed_form_objective(params, v, C)
            quad = -_naive_loss(naive_action, NormalWeight(mean=params.prior_mean, var=v), params, C)[0]
            assert math.isclose(closed, quad, abs_tol=1e-9), (params.high_share, v)


def test_optimize_sampling_variance_default_unbounded() -> None:
    opt = optimize_sampling_variance(P, C)
    assert not opt.is_finite
    assert opt.utility_at_opt == opt.utility_uncensored


def test_optimize_sampling_variance_single_type_unbounded() -> None:
    assert not optimize_sampling_variance(P_SD4, C).is_finite
    assert not optimize_sampling_variance(
        replace(P, high_var=2.0, low_var=2.0), C
    ).is_finite


def test_optimize_sampling_variance_low_dispersion_regime(oracle: dict) -> None:
    p300 = replace(P, low_var=300.0)
    opt = optimize_sampling_variance(p300, C)
    assert opt.is_finite
    assert abs(opt.r_star - oracle["soft_objective"]["lowvar300_vertex_v"]) < 5e-3
    assert math.isclose(
        opt.utility_at_opt, oracle["soft_objective"]["lowvar300_at_vertex"], abs_tol=1e-7
    )
    assert math.isclose(
        opt.utility_uncensored, oracle["soft_objective"]["lowvar300_unbounded"], abs_tol=1e-7
    )
    assert opt.utility_at_opt > opt.utility_uncensored + 0.1


def test_both_optimizers_are_scale_free() -> None:
    # the state in units k^(1/2) times larger: variances and utilities scale
    # by k, a radius by k^(1/2), a sampling variance by k. At h=0.999 the
    # radius optimum beats the benchmark by only 4.6e-6 prior_var, so k=0.1
    # tests that ties and surpluses are judged relative to prior_var; k=1e8
    # does the same for the quadrature self-check. k=1e-12 needs Brent to
    # search in prior sds, since its tolerance is absolute, and 1e-300 and
    # 1e300 need every product of two variances formed in prior sds
    cases = (
        (replace(P, low_var=300.0), (1e-300, 1e-12, 1e-4, 1e4, 1e8, 1e300)),
        (replace(P, high_share=0.999), (0.1,)),
    )
    for unit, ks in cases:
        for optimize, power in ((optimize_radius, 0.5), (optimize_sampling_variance, 1.0)):
            want = optimize(unit, C)
            for k in ks:
                scaled = replace(
                    unit,
                    prior_var=k * unit.prior_var,
                    high_var=k * unit.high_var,
                    low_var=k * unit.low_var,
                )
                got = optimize(scaled, C)
                assert got.is_finite == want.is_finite, (unit, k)
                if want.is_finite:
                    assert math.isclose(got.r_star, k**power * want.r_star, rel_tol=1e-6)
                assert math.isclose(got.utility_at_opt, k * want.utility_at_opt, rel_tol=1e-9)
                assert math.isclose(
                    got.utility_uncensored, k * want.utility_uncensored, rel_tol=1e-9
                )


@pytest.mark.parametrize("low_var, budget", [(3.0, 40), (300.0, 55)])
def test_optimize_sampling_variance_evaluation_budget(monkeypatch, low_var, budget) -> None:
    calls = []
    original = normal_sampling.closed_form_objective

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(normal_sampling, "closed_form_objective", counted)
    optimize_sampling_variance(replace(P, low_var=low_var), C)
    assert len(calls) <= budget


def test_offcenter_objective_worked_example() -> None:
    # source var 0.5, window var 1: lambda = 2/3, so an offset of 1 costs
    # (1/3)^2 = 1/9 regardless of the other terms
    center = single_type_objective_offcenter(P_PRECISE, "H", 1.0, 0.0)
    margins = [
        center - single_type_objective_offcenter(P_PRECISE, "H", 1.0, off)
        for off in (0.5, 1.0, 2.0)
    ]
    assert math.isclose(margins[1], 1.0 / 9.0, rel_tol=1e-12)
    assert math.isclose(center, -7.0 / 16.0, rel_tol=1e-12)
    assert margins == sorted(margins)
    assert all(m > 0.0 for m in margins)


def test_offcenter_penalty_matches_formula() -> None:
    off = single_type_objective_offcenter(P_PRECISE, "H", 1.0, 1.0)
    center = single_type_objective_offcenter(P_PRECISE, "H", 1.0, 0.0)
    assert math.isclose(center - off, (1.0 / 3.0) ** 2, rel_tol=1e-12)
