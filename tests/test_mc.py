from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import echochamber
from echochamber import mc
from echochamber.censor import expected_utility
from echochamber.errors import RejectionStallError
from echochamber.inference import action_map, optimal_action, posterior_summaries
from echochamber.mc import (
    _Stream,
    grid_posterior_oracle,
    mc_high_prob_within_radius,
    mc_signal_variance,
    mc_simulated_utility,
    simulate_draws,
)
from echochamber.model import (
    DEFAULT_NUMERICS,
    DEFAULT_PARAMS,
    ModelParams,
    NormalWeight,
    Radius,
    UNBOUNDED,
)
from echochamber.quadrature import signal_rule, state_rule

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


# DrawSet.digest(), recorded from the simulator as it stood before any
# optimization of it: a change to the simulator must keep every draw set
# byte-identical. The r = 1 rungs span acceptance from 0.39 to 0.11 per
# attempt; n = 70001 and 66000 end inside a second 65536-record chunk, and
# n = 300000 spans five chunks. A pure high type at r = 1 leaves a long tail
# of far-out states that are admitted with tiny probability (about 29
# attempts per record at this seed).
_PINNED_DIGESTS = {
    "unbounded": (P, R_UNB, 5000, 11, 5000, "2c2c94c7008c574ddd6142bc28db75a20379c2192c4e33bc1894e2478390263d"),
    "r2.35": (P, Radius(2.35), 5000, 11, 5956, "dc0a8a207b7a02409fa87b5735e946aadb179b54631abad4bd0f7c2deb3ed91e"),
    "r1-low_var3": (replace(P, low_var=3.0), Radius(1.0), 5000, 11, 12850, "991e3f082a3e469d8ec3df2f52a0e5a252dd79d3d070edc0bda34c019733b5bc"),
    "r1-low_var768": (replace(P, low_var=768.0), Radius(1.0), 5000, 11, 27312, "75a1c97cfbb20fdb5d41080ef93221614081f75f349ca3e9b088e52d9055a264"),
    "r1-low_var196608": (replace(P, low_var=196608.0), Radius(1.0), 2000, 11, 18312, "47321d9ea62b9d41763db9d90b4a6a342f668c9847f2c54a048639df213f35d8"),
    "soft-var2": (P, NormalWeight(0.0, 2.0), 5000, 11, 7836, "200d333a337c81c7697e70c504c40e2097a6f29f11c0cf725dcdfeb0c79e772f"),
    "high_share0-r2.35": (replace(P, high_share=0.0), Radius(2.35), 5000, 11, 6681, "91006229ecad9a869bf6895ee056305fba1dbc610b046ce98be2e0005359e8fe"),
    "high_share1-r2.35": (replace(P, high_share=1.0), Radius(2.35), 1000, 11, 1087, "9e89bbc1d6879fddedac881b12ee15a6d5226b03de4c572001204b363a2a48c5"),
    "high_share1-r1": (replace(P, high_share=1.0), Radius(1.0), 10_000, 20250823, 288603, "a6961456eff79b1a156edd8ceb8435ff1fcbdc8cf3e86802fe7c4eb60b5131f1"),
    "unbounded-n70001": (P, R_UNB, 70001, 11, 70001, "e0b3f51bd09b302d9d1b7a4c7568cbb4a08c2dca2cdc6e92b2b3c4a54edeb412"),
    "r2.35-n66000": (P, Radius(2.35), 66000, 11, 79572, "a69406d31e7eebe8125d3f774f7cdd1b468459c5f67b123275341b07844c0dc6"),
    "soft-var2-n300000": (P, NormalWeight(0.0, 2.0), 300_000, 11, 471704, "b1ca941609a95723c660acf0f2ab06e7e06cda461a81ccdbb963d4cc7dbd8c5d"),
}


@pytest.mark.parametrize("case", list(_PINNED_DIGESTS))
def test_draw_set_digest_is_pinned(case: str) -> None:
    params, policy, n, seed, attempts, digest = _PINNED_DIGESTS[case]
    d = simulate_draws(params, policy, n, seed=seed)
    assert (d.n_attempts, d.digest()) == (attempts, digest)


@pytest.mark.parametrize("cpus", [1, 8])
def test_draw_sets_do_not_depend_on_the_worker_count(monkeypatch, cpus: int) -> None:
    # chunks run on one thread per usable CPU: with one they run one after
    # another; with eight, likely more threads than cores write their slices
    # while the interpreter switches threads often
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for params, policy, n, seed, attempts, digest in _PINNED_DIGESTS.values():
            d = simulate_draws(params, policy, n, seed=seed)
            assert (d.n_attempts, d.digest()) == (attempts, digest)
    finally:
        sys.setswitchinterval(interval)


# The Monte Carlo estimates of verify at the defaults, as (value, standard
# error) in float.hex. Each check is the mean of one per-record statistic:
# every chunk is reduced to (n, sum, M2) in its worker and the chunks are
# combined in chunk order, so the estimates are the same at any worker
# count; an exact two-pass over simulate_draws' records checks them below.
# Formed so, the prop1 and utility estimates kept the bits they had as
# whole-array means over one value per record. eu-unbounded was recorded
# again when the action map became one polynomial per signal-rule panel:
# its value moved by 1 ulp and its standard error by 13. exante_total_var
# was recorded again when it became the mean of (s - prior_mean)^2 in place
# of the sample variance about the signals' own mean: both entries moved,
# from (0x1.5f7bdad936366p+1, 0x1.23c4e99cccb30p-9), since the statistic is
# a different one.
_PINNED_ESTIMATES = {
    "prop1-low_var3": ("0x1.21ac9afe1da7bp-1", "0x1.03ddc7793bd44p-11"),
    "prop1-low_var48": ("0x1.95143bf727137p-1", "0x1.aa37bb2042b96p-12"),
    "prop1-low_var768": ("0x1.d865d7cb2d906p-1", "0x1.181ea4100c53bp-12"),
    "eu-unbounded": ("-0x1.3cf895dd3753bp-1", "0x1.ede65be4e4a06p-11"),
    "eu-r2.35": ("-0x1.518da202519afp-1", "0x1.16922dccf7afdp-10"),
    "exante_total_var": ("0x1.5f7bdc5edc60dp+1", "0x1.23c4e94219cdbp-9"),
}


def _verify_estimates() -> dict[str, tuple[str, str]]:
    n, seed = C.mc_n, C.mc_seed
    ests = {
        f"prop1-low_var{lv:g}": mc_high_prob_within_radius(replace(P, low_var=lv), 1.0, n, seed)
        for lv in (3.0, 48.0, 768.0)
    }
    for key, policy in (("eu-unbounded", R_UNB), ("eu-r2.35", Radius(2.35))):
        ests[key] = mc_simulated_utility(P, policy, action_map(policy, P, C), n, seed)
    ests["exante_total_var"] = mc_signal_variance(P, R_UNB, 4 * n, seed)
    return {k: (e.value.hex(), e.std_error.hex()) for k, e in ests.items()}


@pytest.mark.parametrize("cpus", [1, 8])
def test_verify_estimates_are_pinned_at_any_worker_count(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _verify_estimates() == _PINNED_ESTIMATES
    finally:
        sys.setswitchinterval(interval)


def _fsum_estimate(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of values by a two-pass over exactly rounded
    sums."""
    n = len(values)
    mean = math.fsum(values) / n
    return mean, math.sqrt(math.fsum((values - mean) ** 2) / (n - 1)) / math.sqrt(n)


def test_streamed_estimates_match_an_exact_two_pass() -> None:
    # n = 300000 spans five chunks, the last one partial. Each check's value
    # and standard error lie within 4 ulps of a math.fsum two-pass over the
    # per-record values of the same draw set; prop1's value is the
    # high-quality count over n. The utility is checked under each policy
    # family: Unbounded, hard windows and a soft window
    n, seed = 300_000, 11
    p768 = replace(P, low_var=768.0)
    qualities = simulate_draws(p768, Radius(1.0), n, seed).accepted_qualities
    signals = simulate_draws(P, R_UNB, n, seed).accepted_signals
    cases = {
        "prop1": (mc_high_prob_within_radius(p768, 1.0, n, seed), qualities.astype(float)),
        "exante_total_var": (
            mc_signal_variance(P, R_UNB, n, seed),
            (signals - P.prior_mean) ** 2,
        ),
    }
    for policy in (Radius(2.35), R_UNB, Radius(1.2), NormalWeight(0.0, 2.0)):
        amap, d = action_map(policy, P, C), simulate_draws(P, policy, n, seed)
        cases[f"utility {policy!r}"] = (
            mc_simulated_utility(P, policy, amap, n, seed),
            -((d.accepted_states - amap(d.accepted_signals)) ** 2),
        )
    for name, (est, values) in cases.items():
        assert est.n_effective == n
        for got, want in zip((est.value, est.std_error), _fsum_estimate(values)):
            assert abs(got - want) <= 4 * math.ulp(want), (name, got.hex(), want.hex())
    assert cases["prop1"][0].value == int(np.count_nonzero(qualities)) / n


def test_one_record_takes_the_floor_error() -> None:
    # one record has no spread: each check's value is its own statistic of
    # that record, and its standard error the 1/n floor
    amap = action_map(Radius(2.35), P, C)
    d = simulate_draws(P, Radius(2.35), 1, seed=3)
    cases = {
        "prop1": (mc_high_prob_within_radius(P, 2.35, 1, 3), float(d.accepted_qualities[0])),
        "mc_eu_radius": (
            mc_simulated_utility(P, Radius(2.35), amap, 1, 3),
            -float((d.accepted_states[0] - amap(d.accepted_signals[0])) ** 2),
        ),
        "exante_total_var": (
            mc_signal_variance(P, Radius(2.35), 1, 3),
            float((d.accepted_signals[0] - P.prior_mean) ** 2),
        ),
    }
    for name, (est, value) in cases.items():
        assert (est.value, est.std_error, est.n_effective) == (value, 1.0, 1), name


def test_stream_uniforms_stay_below_one() -> None:
    # the largest value Generator.random gives, 1 - 2**-53, plus the half
    # step 2**-54 rounds up to 1.0; the stream must clamp it
    class Top:
        calls = 0

        def random(self, out: np.ndarray) -> None:
            Top.calls += 1
            out[...] = 1.0 - 2.0**-53

    stream = _Stream(0, 0, np.empty(mc._WORDS))
    stream._gen = Top()
    u = stream.take(1000)
    assert Top.calls == 1
    assert np.all(u < 1.0)
    assert np.all(np.isfinite(ndtri(u)))


def test_stream_is_the_53_bit_uniforms_of_its_chunk_key() -> None:
    # takes of every size the simulator asks for, from single values to
    # three chunks, each followed by a partial rewind, cross many refills
    # of the word buffer; the values handed out are the chunk's raw Philox
    # words k as min(((k >> 11) + 0.5) / 2**53, the largest double below 1)
    seed, chunk = 20250823, 3
    stream = _Stream(seed, chunk, np.empty(mc._WORDS))
    rng = np.random.default_rng(0)
    got, pos = [], 0
    while pos < 1_200_000:
        size = int(rng.choice([1, 7, 64, 3 * 64 * 256, 65_536, 2 * 65_536, 3 * 65_536]))
        values = stream.take(size).copy()  # a take is valid until the next
        back = int(rng.integers(0, size + 1)) if rng.random() < 0.5 else 0
        stream.rewind(back)
        got.append(values[: size - back])
        pos += size - back
    got = np.concatenate(got)
    raw = np.random.Philox(key=[seed, chunk]).random_raw(len(got))
    want = np.minimum(((raw >> 11) + 0.5) / 2.0**53, np.nextafter(1.0, 0.0))
    assert np.array_equal(got, want)


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


def _peak_of(run, n: int) -> int:
    tracemalloc.start()
    try:
        run(n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_bytes(params, policy, n: int) -> int:
    return _peak_of(lambda n: simulate_draws(params, policy, n, seed=5), n)


def test_peak_memory_does_not_follow_the_rejection_rate() -> None:
    # the narrow window takes about 76 attempts per record, the unbounded
    # one exactly one; the working set is set by the chunk and block sizes
    n = 200_000
    narrow = _peak_bytes(replace(P, low_var=768.0), Radius(0.1), n)
    unbounded = _peak_bytes(P, R_UNB, n)
    # both peaks hold the draw set and a worker's scratch arrays
    assert unbounded >= 17 * n + 8 * mc._WORDS
    assert narrow <= 1.25 * unbounded, (narrow, unbounded)


def test_monte_carlo_checks_keep_one_value_per_record(monkeypatch) -> None:
    # the slope of the peak between two sizes is the memory a check keeps
    # per record. Each chunk is reduced in its worker to a few moments, so
    # the checks keep nothing per record; a check that kept one float per
    # record (8 B of quality, signal or loss, as they did before streaming
    # their moments) or the full draw set (17 B) fails the 1 B bound. One
    # worker keeps the simulation's working set (about 4.5 MB) below each
    # size's peak, so an n-array would show in the slope.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    amap = action_map(Radius(2.35), P, C)
    checks = {
        "exante_total_var": lambda n: mc_signal_variance(P, R_UNB, n, 5),
        "mc_eu_radius": lambda n: mc_simulated_utility(P, Radius(2.35), amap, n, 5),
        "prop1 at low_var=768": lambda n: mc_high_prob_within_radius(replace(P, low_var=768.0), 1.0, n, 5),
    }
    small, large = 1_048_576, 2_097_152
    for name, run in checks.items():
        run(65_536)  # warm any cache outside the traced runs
        slope = (_peak_of(run, large) - _peak_of(run, small)) / (large - small)
        assert slope <= 1.0, (name, slope)


@pytest.mark.parametrize(
    "params, policy, extra",
    [(P, R_UNB, 1.0), (P, Radius(2.35), 12.0), (P, Radius(1.0), 12.0)],
    ids=["unbounded", "r2.35", "r1"],
)
def test_one_worker_keeps_its_scratch_and_little_else(monkeypatch, params, policy, extra: float) -> None:
    # per chunk record, one worker's scratch holds 63 B (the states,
    # signals, trial signals and temporary, 8 B each, the stream's 28 B of
    # words and four 1 B arrays); an unbounded chunk needs nothing else,
    # and a windowed one only its pending records' indices. A simulator
    # that keeps an index array over the chunk, or writes its first round
    # through the trial buffer and scatters it, reads 84-95 B
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    scratch = sum(a.nbytes for a in vars(mc._Scratch()).values()) / mc._CHUNK

    def run(n: int) -> None:
        mc._run_chunks(params, policy, n, 5, lambda *chunk: None)

    run(2 * mc._CHUNK)  # warm any cache outside the traced run
    peak = _peak_of(run, 2 * mc._CHUNK) / mc._CHUNK
    assert peak <= scratch + extra, (scratch, peak)


_AFTER_PROP1 = """
import resource, sys
from dataclasses import replace
from echochamber.mc import mc_high_prob_within_radius, mc_signal_variance
from echochamber.model import DEFAULT_NUMERICS as C, DEFAULT_PARAMS as P, Radius, UNBOUNDED
if sys.argv[1] == "after-prop1":
    for low_var in (3.0, 48.0, 768.0):
        mc_high_prob_within_radius(replace(P, low_var=low_var), 1.0, C.mc_n, C.mc_seed)
mc_signal_variance(P, Radius(UNBOUNDED), 4 * C.mc_n, C.mc_seed)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux gives it")
def test_prop1_leaves_no_resident_memory_under_the_next_check() -> None:
    # verify runs exante_total_var after prop1's three rungs: nothing of the
    # rungs may stay resident under it. When each check kept a per-record
    # array (exante_total_var's signals were 32 MB at the default size), the
    # rungs' freed arrays, taken from the heap, stayed resident (11 MB)
    env = dict(os.environ, PYTHONPATH=str(Path(echochamber.__file__).parents[1]))

    def peak_mb(mode: str) -> float:
        argv = [sys.executable, "-c", _AFTER_PROP1, mode]
        return int(subprocess.run(argv, capture_output=True, check=True, env=env).stdout) / 1024

    alone, after = peak_mb("alone"), peak_mb("after-prop1")
    assert after <= alone + 5.0, (alone, after)


def test_kernel_peak_memory_is_a_few_blocks() -> None:
    # each cache-sized block of signals is reduced as soon as it is built,
    # so no evaluation holds an array of the whole (state, signal) size
    params = replace(P, high_var=1e-4, low_var=300.0)
    s_nodes, _ = signal_rule(R_UNB, params, C)
    tensor_bytes = 8 * len(state_rule(params, C)[0]) * len(s_nodes)
    for evaluate in (
        lambda: expected_utility(R_UNB, params, C),
        lambda: posterior_summaries(s_nodes, R_UNB, params, C),
    ):
        tracemalloc.start()
        try:
            evaluate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * tensor_bytes, peak / tensor_bytes


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


# The stall guard's message, recorded before any optimization of the
# simulator. n = 50 and 7 stall in the tail (at most 64 pending records):
# the guard trips at the first round whose running attempt count reaches
# 1e6, which for n = 7 is 1000006. At n = 70000 both chunks stall, chunk 0
# after 16 rounds of 65536 and chunk 1 after 1004400 attempts; the error of
# the first chunk in chunk order is the one raised.
@pytest.mark.parametrize(
    "n, attempts", [(50, 1_000_000), (7, 1_000_006), (70_000, 1_048_576)]
)
def test_stall_guard_message_is_pinned(n: int, attempts: int) -> None:
    want = (
        f"acceptance rate 0 below 1e-06 after {attempts} attempts; "
        "the admission window is effectively empty"
    )
    with pytest.raises(RejectionStallError) as err:
        simulate_draws(P, Radius(1e-9), n, seed=0)
    assert str(err.value) == want


def test_equal_variances_make_acceptance_type_blind() -> None:
    p_eq = replace(P, high_var=2.0, low_var=2.0)
    d = simulate_draws(p_eq, Radius(1.0), 20_000, seed=9)
    share = d.accepted_qualities.mean()
    se = math.sqrt(0.25 / 20_000)
    assert abs(share - p_eq.high_share) < 3.0 * se


def test_state_marginal_is_preserved_by_redraw() -> None:
    # holding the action at the prior mean, the loss is the accepted-state
    # second moment; the redraw scheme keeps that marginal at the prior
    est = mc_simulated_utility(P, Radius(1.0), lambda s: np.full_like(s, P.prior_mean), 200_000, C.mc_seed)
    assert abs(est.value - (-P.prior_var)) < 3.0 * est.std_error


def test_mc_utility_matches_quadrature_windowed() -> None:
    est = mc_simulated_utility(P, Radius(2.35), action_map(Radius(2.35), P, C), 200_000, C.mc_seed)
    quad = expected_utility(Radius(2.35), P, C)
    assert abs(est.value - quad) < 3.0 * est.std_error


def test_mc_utility_matches_quadrature_unbounded() -> None:
    est = mc_simulated_utility(P, R_UNB, action_map(R_UNB, P, C), 200_000, C.mc_seed)
    quad = expected_utility(R_UNB, P, C)
    assert abs(est.value - quad) < 3.0 * est.std_error


def test_high_fraction_matches_closed_value(oracle: dict) -> None:
    est = mc_high_prob_within_radius(P, 1.0, 200_000, seed=11)
    want = oracle["high_fraction_r1"]["lowvar3"]
    assert abs(est.value - want) < 3.0 * est.std_error


def test_high_fraction_of_a_single_type_model_is_one_with_the_floor_error() -> None:
    # every draw is high quality, so the sample has no spread and the
    # standard error takes its conservative 1/n floor
    est = mc_high_prob_within_radius(replace(P, high_share=1.0), 1.0, 1000, seed=11)
    assert est.value == 1.0
    assert est.std_error == 1.0 / est.n_effective


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


# the third to fifth put the signal where a soft window's densities underflow in
# linear arithmetic over much of the grid: far from the prior under a wide
# prior, and far outside a narrow window. The last two need the grid on the
# posterior's span: a grid on 10 low-type sds, 1e17 here, put one node in the
# prior and returned (0, 0); with narrow types the posterior mean, 1.61,
# lies outside both [0, s] and the window
_FAR_PRIOR = ModelParams(prior_var=1e4)


@pytest.mark.parametrize(
    "s, policy, params",
    [
        (1.0, Radius(2.0), P),
        (1.0, NormalWeight(mean=0.0, var=2.0), P),
        (2.0, R_UNB, P),
        (30.0, NormalWeight(mean=0.0, var=2.0), _FAR_PRIOR),
        (60.0, NormalWeight(mean=0.0, var=2.0), _FAR_PRIOR),
        (5.0, NormalWeight(mean=0.0, var=1e-3), P),
        (0.5, Radius(2.0), replace(P, low_var=1e32)),
        (0.99, Radius(1.0), replace(P, high_var=1e-2, low_var=1e-2)),
    ],
    ids=[
        "windowed", "soft", "unbounded", "soft-far-s30", "soft-far-s60", "soft-narrow-s5",
        "windowed-low_var1e32", "windowed-narrow-types",
    ],
)
def test_grid_oracle_agrees_with_quadrature(s, policy, params) -> None:
    mean, var = grid_posterior_oracle(s, policy, params, 200_001)
    summ = optimal_action(s, policy, params, C)
    assert abs(mean - summ.action) < 1e-6
    assert abs(var - summ.posterior_var) < 1e-6


@pytest.mark.parametrize("r", [1e-10, 1e-14, 1e-16])
def test_grid_oracle_narrow_window(r: float) -> None:
    # the hard-window mass cancelled in the tail difference: at r = 1e-14
    # the oracle gave (4.2e-5, 0.99552), and at 1e-16 (nan, nan) with
    # warnings. A narrow window's signal says nothing about the state, so
    # both the oracle and the quadrature give the prior, (0, 1). The suite
    # turns warnings into errors, so this also asserts that none is raised
    oracle = grid_posterior_oracle(0.3 * r, Radius(r), P, 200_001)
    summ = optimal_action(0.3 * r, Radius(r), P, C)
    for mean, var in (oracle, (summ.action, summ.posterior_var)):
        assert abs(mean - oracle[0]) < 1e-6 and abs(var - oracle[1]) < 1e-6
        assert abs(mean) < 1e-6 and abs(var - P.prior_var) < 1e-6


@pytest.mark.parametrize(
    "s, policy, params",
    [(2.9, Radius(2.35), P), (0.4, NormalWeight(0.0, 2.0), P), (3e-7, Radius(1e-6), P)],
    ids=["windowed", "soft", "narrow-r1e-6"],
)
def test_grid_oracle_holds_at_most_five_grid_arrays(s, policy, params) -> None:
    # each step is written in place; building every step as a fresh array,
    # the oracle held 11 arrays of the grid's size at r = 2.35 and r = 1e-6
    grid_points = 200_001
    grid_posterior_oracle(s, policy, params, grid_points)  # warm any cache
    peak = _peak_of(lambda n: grid_posterior_oracle(s, policy, params, n), grid_points)
    assert peak <= 5.25 * 8 * grid_points, peak / (8 * grid_points)


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
