"""Seeded Monte Carlo simulation of the generative process and an
independent discretized posterior oracle.

Reproducibility design: each 65536-record chunk reads its own counter-based
stream, Philox keyed [seed, chunk_index], and writes its own slice of the
result. Chunks may therefore run concurrently (one thread per usable CPU);
their records are placed by chunk index and their attempts summed in chunk
order, so identical (params, policy, n, seed) give byte-identical draws
whatever the number of workers, on any platform. Every variate comes from a
53-bit uniform (k + 0.5) / 2**53 with k the top 53 bits of one raw 64-bit
Philox word, and normals from its inverse CDF. The words are read in blocks
of half a chunk to three chunks and sliced, which gives the same sequence
as successive Generator.integers(0, 2**53) calls.

Within a chunk, each round draws in a fixed order: one quality uniform per
pending record, then one standard normal each, then (for a soft window) one
acceptance uniform each. A record keeps its state across rounds and redraws
(quality, signal) until a signal is admitted, so the accepted-state marginal
is the prior. Rejected attempts are counted but not stored, so memory is
bounded by n and the chunk size, never by the rejection rate.

In the tail, when at most 64 records are pending, a chunk reads k rounds at
once as if none admits a record, keeps the rounds through the first that
does, and returns the rest of the uniforms to its stream. k doubles after a
block with no admission, up to 256, and after an admission in round j it
restarts at 2(j + 1). The stall guard is replayed round by round, so the
draws, the attempt counts and the errors are those of one round at a time.

The grid oracle is Bayes' rule on a uniform state grid, one log-space
formula for every policy, which takes no density, window mass or kernel
from model or inference, so it checks the quadrature path.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy.special import log_ndtr, ndtri

from .errors import RejectionStallError
from .model import ModelParams, NormalWeight, Radius, SamplingPolicy

_CHUNK = 65536
_BLOCK = _CHUNK // 2  # least raw words per read; no read exceeds 3 * _CHUNK
_U53 = float(2**53)
_TAIL = 64  # pending records at or below which rounds are read ahead
_MAX_AHEAD = 256
_STALL_MIN_ATTEMPTS = 1_000_000
_STALL_RATE = 1e-6


class _Stream:
    """A chunk's uniforms in (0, 1), read from its Philox in raw blocks.
    take(size) hands out the next values; rewind(size) gives back the last
    size values of the latest take."""

    def __init__(self, seed: int, chunk_index: int) -> None:
        self._bitgen = np.random.Philox(key=[int(seed), int(chunk_index)])
        self._buf = np.empty(0)
        self._pos = 0

    def take(self, size: int) -> np.ndarray:
        end = self._pos + size
        if end > len(self._buf):
            left = len(self._buf) - self._pos
            count = max(_BLOCK, size - left)
            buf = np.empty(left + count)
            buf[:left] = self._buf[self._pos :]
            self._buf, self._pos, end = buf, 0, size
            raw = self._bitgen.random_raw(count)
            raw >>= 11
            np.add(raw, 0.5, out=buf[left:])
            buf[left:] /= _U53
        out = self._buf[self._pos : end]
        self._pos = end
        return out

    def rewind(self, size: int) -> None:
        self._pos -= size


@dataclass(frozen=True)
class DrawSet:
    """The n accepted records of a simulation in record order, plus the
    number of attempts it took to admit them. quality codes: 1 high, 0 low."""

    n: int
    seed: int
    n_attempts: int
    accepted_states: np.ndarray = field(repr=False)
    accepted_qualities: np.ndarray = field(repr=False)
    accepted_signals: np.ndarray = field(repr=False)

    def digest(self) -> str:
        """SHA-256 over n, seed, the attempt count and the raw bytes of the
        accepted arrays; equal digests mean byte-identical draw sets."""
        hasher = hashlib.sha256()
        hasher.update(f"{self.n}:{self.seed}:{self.n_attempts}:".encode())
        for arr in (self.accepted_states, self.accepted_qualities, self.accepted_signals):
            hasher.update(np.ascontiguousarray(arr).tobytes())
        return hasher.hexdigest()


def _admission(policy: SamplingPolicy, params: ModelParams):
    """Uniforms per attempt, and the rule mapping a block's signals and its
    (rounds, width, m) uniforms to the admitted mask; a soft window's
    acceptance uniforms are the third row of each round."""
    if isinstance(policy, Radius):
        if policy.unbounded:
            return 2, lambda s, u: np.ones(s.shape, dtype=bool)
        return 2, lambda s, u: np.abs(s - params.prior_mean) < policy.r
    if isinstance(policy, NormalWeight):
        return 3, lambda s, u: u[:, 2] < np.exp(-((s - policy.mean) ** 2) / (2.0 * policy.var))
    raise TypeError(f"unsupported policy {policy!r}")


def _stall_guard(attempts: int, accepted: int) -> None:
    if attempts >= _STALL_MIN_ATTEMPTS and accepted < _STALL_RATE * attempts:
        raise RejectionStallError(
            f"acceptance rate {accepted / attempts:.3g} below "
            f"{_STALL_RATE} after {attempts} attempts; the admission "
            f"window is effectively empty"
        )


def _simulate_chunk(
    params: ModelParams,
    width: int,
    admitted,
    stream: _Stream,
    states: np.ndarray,
    qualities: np.ndarray,
    signals: np.ndarray,
) -> int:
    """Fill one chunk's slices of the accepted arrays; return its attempts."""
    sd_by_quality = np.sqrt([params.low_var, params.high_var])
    sd0 = math.sqrt(params.prior_var)
    states[:] = params.prior_mean + sd0 * ndtri(stream.take(len(states)))
    pending = np.arange(len(states))
    attempts = accepted = 0
    ahead = 2
    while len(pending):
        # read `rounds` rounds as if none admits a record, keep them through
        # the first that does and give the rest back to the stream
        m = len(pending)
        rounds = ahead if m <= _TAIL else 1
        u = stream.take(rounds * width * m).reshape(rounds, width, m)
        quality = (u[:, 0] < params.high_share).view(np.uint8)
        s = states[pending] + sd_by_quality.take(quality) * ndtri(u[:, 1])
        acc = admitted(s, u)
        hit_rounds = np.flatnonzero(acc.any(axis=1))
        used = int(hit_rounds[0]) + 1 if len(hit_rounds) else rounds
        stream.rewind((rounds - used) * width * m)
        admit = acc[used - 1]
        hit_pos = np.flatnonzero(admit)
        n_hit = len(hit_pos)
        for i in range(used):
            attempts += m
            accepted += n_hit if i == used - 1 else 0
            _stall_guard(attempts, accepted)
        if n_hit:
            hit = pending[hit_pos]
            qualities[hit] = quality[used - 1, hit_pos]
            signals[hit] = s[used - 1, hit_pos]
            pending = pending[~admit]
            ahead = min(2 * used, _MAX_AHEAD)
        else:
            ahead = min(2 * ahead, _MAX_AHEAD)
        # a chunk holds one round's arrays at a time
        del u, quality, s, acc, admit
    return attempts


def _workers() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_draws(
    params: ModelParams, policy: SamplingPolicy, n: int, seed: int
) -> DrawSet:
    """Draw n accepted records of the generative process under the policy.

    State from the prior, quality from the type share, signal from the
    type's conditional; for a hard window the pair is redrawn until the
    signal lands inside, for a soft window acceptance is Bernoulli with the
    Gaussian weight. Raises RejectionStallError when the running acceptance
    rate of a chunk falls below 1e-6; when several chunks fail, the error
    of the first in chunk order is raised.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if isinstance(policy, Radius) and not policy.unbounded and policy.r == 0.0:
        raise RejectionStallError("r = 0 admits no signal")
    width, admitted = _admission(policy, params)
    acc_state = np.empty(n)
    acc_qual = np.empty(n, dtype=np.uint8)
    acc_sig = np.empty(n)

    def run(chunk: int) -> int:
        part = slice(chunk * _CHUNK, min((chunk + 1) * _CHUNK, n))
        return _simulate_chunk(
            params, width, admitted, _Stream(seed, chunk),
            acc_state[part], acc_qual[part], acc_sig[part],
        )

    # imported here so that runs which never simulate do not load the pool
    from concurrent.futures import ThreadPoolExecutor

    n_chunks = (n + _CHUNK - 1) // _CHUNK
    with ThreadPoolExecutor(max_workers=min(n_chunks, _workers())) as pool:
        total_attempts = sum(pool.map(run, range(n_chunks)))

    return DrawSet(
        n=n,
        seed=int(seed),
        n_attempts=total_attempts,
        accepted_states=acc_state,
        accepted_qualities=acc_qual,
        accepted_signals=acc_sig,
    )


@dataclass(frozen=True)
class McEstimate:
    """Sample mean of a per-record statistic with its standard error."""

    value: float
    std_error: float
    n_effective: int


def _estimate(stat: np.ndarray) -> McEstimate:
    n_eff = len(stat)
    value = float(stat.mean())
    if n_eff > 1:
        se = float(stat.std(ddof=1)) / math.sqrt(n_eff)
    else:
        se = 0.0
    if se == 0.0:
        # degenerate sample: conservative 1/n floor keeps the field positive
        se = 1.0 / n_eff
    return McEstimate(value=value, std_error=se, n_effective=n_eff)


def mc_expected_utility(draws: DrawSet, action_map, params: ModelParams) -> McEstimate:
    """Mean quadratic loss (negated) of an action rule over the accepted
    records. action_map must accept a signal array. It is evaluated on the
    sorted signals, where a spline's interval search is cheap, and each
    action goes back to its record, so the sum runs in record order."""
    order = np.argsort(draws.accepted_signals)
    actions = np.empty(len(order))
    actions[order] = action_map(draws.accepted_signals[order])
    loss = -((draws.accepted_states - actions) ** 2)
    return _estimate(loss)


def mc_high_prob_within_radius(
    params: ModelParams, r: float, n: int, seed: int
) -> McEstimate:
    """Fraction of accepted draws that came from a high-quality source
    under the hard window of radius r."""
    draws = simulate_draws(params, Radius(r), n, seed)
    return _estimate(draws.accepted_qualities.astype(float))


def _log_npdf(sq, var):
    """log N(x; m, var), given sq = (x - m)^2."""
    return -sq / (2.0 * var) - 0.5 * math.log(2.0 * math.pi * var)


def grid_posterior_oracle(
    s: float, policy: SamplingPolicy, params: ModelParams, grid_points: int
) -> tuple[float, float]:
    """Posterior mean and variance of the state by direct normalized
    summation on a uniform grid: a deliberately plain Bayes rule that shares
    no machinery with the quadrature path. Every policy takes one formula,
    in log space, where far from the window or the signal the densities and
    admission probabilities underflow while their ratio does not:

        log w(omega) = log prior(omega) + logsumexp_q[log h_q + log N(s; omega, v_q)]
                       - logsumexp_q[log h_q + log A_q(omega)],

    with A_q(omega) the probability that a type-q source at state omega is
    admitted: 1 without a window, the window mass for a hard window, and
    N(omega; mean, v_q + var), up to a factor shared by the types, for a
    soft one. The signal's own admission weight is the same for every state
    and cancels."""
    if grid_points < 1001:
        raise ValueError(f"grid_points must be >= 1001, got {grid_points!r}")
    half = 10.0 * math.sqrt(max(params.prior_var, params.low_var))
    omega = np.linspace(params.prior_mean - half, params.prior_mean + half, int(grid_points))
    h = params.high_share
    d = np.abs(omega - params.prior_mean)
    sq = (s - omega) ** 2
    if isinstance(policy, NormalWeight):
        sq_window = (omega - policy.mean) ** 2
    log_mix, log_admit = [], []
    for share, var in ((h, params.high_var), (1.0 - h, params.low_var)):
        if share == 0.0:
            continue
        log_mix.append(math.log(share) + _log_npdf(sq, var))
        if isinstance(policy, NormalWeight):
            log_mass = _log_npdf(sq_window, var + policy.var)
        elif policy.unbounded:
            log_mass = 0.0
        else:
            # the window mass Phi(b) - Phi(a), mirrored into the lower tail
            # (a = -(d + r)/sd, b = (r - d)/sd), where it does not cancel
            sd = math.sqrt(var)
            la = log_ndtr(-(d + policy.r) / sd)
            lb = log_ndtr((policy.r - d) / sd)
            log_mass = lb + np.log1p(-np.exp(la - lb))
        log_admit.append(math.log(share) + log_mass)
    log_weight = reduce(np.logaddexp, log_mix) - reduce(np.logaddexp, log_admit)
    log_weight -= d * d / (2.0 * params.prior_var)  # the log prior, up to a constant
    weight = np.exp(log_weight - log_weight.max())

    z = weight.sum()
    mean = float((weight * omega).sum() / z)
    # the second moment about the mean, which does not cancel far from 0
    return mean, float((weight * (omega - mean) ** 2).sum() / z)
