from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtri

from echochamber.censor import expected_utility
from echochamber.errors import RejectionStallError
from echochamber.inference import action_map, optimal_action
from echochamber.mc import (
    grid_posterior_oracle,
    mc_expected_utility,
    mc_high_prob_within_radius,
    simulate_draws,
)
from echochamber.model import (
    DEFAULT_NUMERICS,
    DEFAULT_PARAMS,
    NormalWeight,
    Radius,
    UNBOUNDED,
)

P = DEFAULT_PARAMS
C = DEFAULT_NUMERICS
R_UNB = Radius(UNBOUNDED)


def test_draws_are_deterministic_and_seed_sensitive() -> None:
    a = simulate_draws(P, Radius(2.0), 5000, seed=7)
    b = simulate_draws(P, Radius(2.0), 5000, seed=7)
    c = simulate_draws(P, Radius(2.0), 5000, seed=8)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert a.digest() != simulate_draws(P, R_UNB, 5000, seed=7).digest()


def test_unbounded_policy_accepts_every_attempt() -> None:
    d = simulate_draws(P, R_UNB, 3000, seed=1)
    assert d.n_attempts == 3000


def test_accepted_states_consistent_across_chunk_boundary() -> None:
    # 70000 records straddle the 65536-record chunk boundary, which is where
    # local-vs-global index bookkeeping would break
    n, seed = 70_000, 42
    d = simulate_draws(P, Radius(1.2), n, seed=seed)
    assert len(d.accepted_states) == n
    # each record's accepted state is its chunk's prior draw, recomputed here
    # from the [seed, chunk] Philox key: the state is drawn once per record
    # and held fixed while (quality, signal) are redrawn
    expected = []
    for chunk, start in enumerate(range(0, n, 65536)):
        size = min(65536, n - start)
        rng = np.random.Generator(np.random.Philox(key=[seed, chunk]))
        k = rng.integers(0, 2**53, size=size, dtype=np.int64)
        expected.append(P.prior_mean + math.sqrt(P.prior_var) * ndtri((k + 0.5) / 2.0**53))
    assert np.array_equal(d.accepted_states, np.concatenate(expected))
    assert d.n_attempts > n  # the window actually forced redraws


def test_memory_is_bounded_by_accepted_records() -> None:
    # about 76 attempts per record at this narrow window; only the accepted
    # records are kept: 8 + 1 + 8 bytes of state, quality and signal each
    n = 20_000
    d = simulate_draws(replace(P, low_var=768.0), Radius(0.1), n, seed=5)
    assert d.n_attempts > 50 * n
    arrays = [v for v in vars(d).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) == 17 * n


def test_accepted_signals_respect_hard_window() -> None:
    d = simulate_draws(P, Radius(1.5), 20_000, seed=3)
    assert np.all(np.abs(d.accepted_signals - P.prior_mean) < 1.5)


def test_single_type_share_is_degenerate() -> None:
    d = simulate_draws(replace(P, high_share=1.0), Radius(2.0), 5000, seed=2)
    assert np.all(d.accepted_qualities == 1)


def test_vanishing_window_stalls() -> None:
    with pytest.raises(RejectionStallError):
        simulate_draws(P, Radius(0.0), 100, seed=0)
    with pytest.raises(RejectionStallError):
        simulate_draws(P, Radius(1e-9), 1000, seed=0)


def test_equal_variances_make_acceptance_type_blind() -> None:
    p_eq = replace(P, high_var=2.0, low_var=2.0)
    d = simulate_draws(p_eq, Radius(1.0), 20_000, seed=9)
    share = d.accepted_qualities.mean()
    se = math.sqrt(0.25 / 20_000)
    assert abs(share - p_eq.high_share) < 3.0 * se


def test_state_marginal_is_preserved_by_redraw() -> None:
    # holding the action at the prior mean, the loss is the accepted-state
    # second moment; the redraw scheme keeps that marginal at the prior
    d = simulate_draws(P, Radius(1.0), 200_000, seed=C.mc_seed)
    est = mc_expected_utility(d, lambda s: np.full_like(s, P.prior_mean), P)
    assert abs(est.value - (-P.prior_var)) < 3.0 * est.std_error


def test_mc_utility_matches_quadrature_windowed() -> None:
    d = simulate_draws(P, Radius(2.35), 200_000, seed=C.mc_seed)
    est = mc_expected_utility(d, action_map(Radius(2.35), P, C), P)
    quad = expected_utility(Radius(2.35), P, C)
    assert abs(est.value - quad) < 3.0 * est.std_error


def test_mc_utility_matches_quadrature_unbounded() -> None:
    d = simulate_draws(P, R_UNB, 200_000, seed=C.mc_seed)
    est = mc_expected_utility(d, action_map(R_UNB, P, C), P)
    quad = expected_utility(R_UNB, P, C)
    assert abs(est.value - quad) < 3.0 * est.std_error


def test_high_fraction_matches_closed_value(oracle: dict) -> None:
    est = mc_high_prob_within_radius(P, 1.0, 200_000, seed=11)
    want = oracle["high_fraction_r1"]["lowvar3"]
    assert abs(est.value - want) < 3.0 * est.std_error


def test_high_fraction_grows_with_low_type_noise(oracle: dict) -> None:
    # a tight window screens out the noisy type more aggressively the noisier
    # it is, so the admitted high-quality share climbs toward one
    values = []
    for lv, key in ((48.0, "lowvar48"), (768.0, "lowvar768")):
        est = mc_high_prob_within_radius(replace(P, low_var=lv), 1.0, 100_000, seed=11)
        want = oracle["high_fraction_r1"][key]
        assert abs(est.value - want) < 3.0 * est.std_error, key
        values.append(est.value)
    assert oracle["high_fraction_r1"]["lowvar3"] < values[0] < values[1]


def test_soft_window_conditional_moments() -> None:
    # given state and type, the admitted signal is normal around the state
    # shrunk toward the window center; the residual is pivotal
    v = 2.0
    pol = NormalWeight(mean=0.0, var=v)
    d = simulate_draws(P, pol, 50_000, seed=5)
    for q, code in (("H", 1), ("L", 0)):
        qv = P.signal_var(q)
        lam = v / (v + qv)
        sig2 = qv * v / (qv + v)
        mask = d.accepted_qualities == code
        resid = d.accepted_signals[mask] - lam * d.accepted_states[mask]
        m = int(mask.sum())
        assert abs(resid.mean()) < 3.0 * math.sqrt(sig2 / m), q
        var_se = sig2 * math.sqrt(2.0 / (m - 1))
        assert abs(resid.var(ddof=1) - sig2) < 3.0 * var_se, q
    # admitted type share against the integrated-acceptance closed form
    wH = P.high_share / math.sqrt(P.prior_var + v + P.high_var)
    wL = (1.0 - P.high_share) / math.sqrt(P.prior_var + v + P.low_var)
    share = wH / (wH + wL)
    se = math.sqrt(share * (1.0 - share) / d.n)
    assert abs(d.accepted_qualities.mean() - share) < 3.0 * se


def test_grid_oracle_agrees_with_quadrature_windowed() -> None:
    mean, var = grid_posterior_oracle(1.0, Radius(2.0), P, 200_001)
    summ = optimal_action(1.0, Radius(2.0), P, C)
    assert abs(mean - summ.action) < 1e-6
    assert abs(var - summ.posterior_var) < 1e-6


def test_grid_oracle_agrees_with_quadrature_soft() -> None:
    pol = NormalWeight(mean=0.0, var=2.0)
    mean, var = grid_posterior_oracle(1.0, pol, P, 200_001)
    summ = optimal_action(1.0, pol, P, C)
    assert abs(mean - summ.action) < 1e-6
    assert abs(var - summ.posterior_var) < 1e-6


def test_grid_oracle_agrees_with_quadrature_unbounded() -> None:
    mean, var = grid_posterior_oracle(2.0, R_UNB, P, 200_001)
    summ = optimal_action(2.0, R_UNB, P, C)
    assert abs(mean - summ.action) < 1e-6
    assert abs(var - summ.posterior_var) < 1e-6


def test_grid_oracle_symmetry_at_center() -> None:
    for policy in (Radius(2.0), NormalWeight(mean=0.0, var=2.0), R_UNB):
        mean, _ = grid_posterior_oracle(P.prior_mean, policy, P, 4001)
        assert abs(mean - P.prior_mean) < 1e-12, policy


def test_grid_oracle_single_type_conjugate() -> None:
    p1 = replace(P, high_share=1.0)
    mean, var = grid_posterior_oracle(0.7, R_UNB, p1, 4001)
    shrink = p1.prior_var / (p1.prior_var + p1.high_var)
    assert abs(mean - shrink * 0.7) < 1e-6
    assert abs(var - shrink * p1.high_var) < 1e-6


def test_grid_oracle_resolution_converged() -> None:
    coarse = grid_posterior_oracle(1.0, Radius(2.0), P, 4001)
    fine = grid_posterior_oracle(1.0, Radius(2.0), P, 8001)
    assert abs(coarse[0] - fine[0]) < 1e-8
    assert abs(coarse[1] - fine[1]) < 1e-8


def test_grid_oracle_rejects_coarse_grid() -> None:
    with pytest.raises(ValueError):
        grid_posterior_oracle(1.0, Radius(2.0), P, 999)


def test_estimate_fields_are_sane() -> None:
    est = mc_high_prob_within_radius(P, 2.0, 1000, seed=1)
    assert est.n_effective == 1000
    assert 0.0 < est.value < 1.0
    assert est.std_error > 0.0
