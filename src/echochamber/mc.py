"""Seeded Monte Carlo simulation of the generative process.

Reproducibility design: each 65536-record chunk reads its own counter-based
stream, Philox keyed [seed, chunk_index], and writes its own slice of the
result. Chunks may therefore run concurrently (one thread per usable CPU);
their records are placed by chunk index and their attempts summed in chunk
order, so identical (params, policy, n, seed) give byte-identical draws
whatever the number of workers, on any platform. Every variate comes from a
53-bit uniform (k + 0.5) / 2**53 with k the top 53 bits of one raw 64-bit
Philox word, and normals from its inverse CDF. Generator.random reads the
words in blocks of half a chunk to three chunks, as k 2**-53, into a word
buffer that a worker reuses, and 2**-54 is added, which rounds once, as
(k + 0.5) / 2**53 does; the values are sliced from the buffer in the order
of successive Generator.integers(0, 2**53) calls.

Within a chunk, each round draws in a fixed order: one quality uniform per
pending record, then one standard normal each, then (for a soft window) one
acceptance uniform each. A record keeps its state across rounds and redraws
(quality, signal) until a signal is admitted, so the accepted-state marginal
is the prior. Rejected attempts are counted but not stored, so memory is
bounded by n and the chunk size, never by the rejection rate.

Every simulation runs through one chunk driver, _run_chunks. Each worker
draws its chunks into one scratch set kept for the whole call, 63 B per
chunk record (a chunk's state, quality and signal arrays, its stream's
words and a later round's arrays, all written in place). A chunk's first
round, one attempt per record, writes straight into the records' quality
and signal slots; only the records it does not admit are redrawn, by
index, through the later rounds' arrays. So an unbounded chunk ends after
that round, and a windowed chunk adds only its pending records' indices.
The worker hands each finished chunk to a per-chunk function in its own
thread, which keeps only what the simulation returns: simulate_draws all
three arrays (17 B per record), and mc_high_prob_within_radius the
qualities as floats, mc_signal_variance the signals and
mc_simulated_utility each record's loss (8 B per record each).
Each kept array lives in its own anonymous mapping, so freeing it returns
its pages to the OS: freed from the heap, an array that size raises the
allocator's mmap threshold to its size, and the arrays after it stay
resident once freed. The estimators' reductions are whole-array NumPy
reductions in record order, so their estimates are those of the same
reduction over the records of simulate_draws, bit for bit.

In the tail, when at most 64 records are pending, a chunk reads k rounds at
once as if none admits a record, keeps the rounds through the first that
does, and returns the rest of the uniforms to its stream. k doubles after a
block with no admission, up to 256, and after an admission in round j it
restarts at 2(j + 1). The stall guard is replayed round by round, so the
draws, the attempt counts and the errors are those of one round at a time.

The grid posterior oracle, which checks the quadrature path, lives in
oracle and is re-exported here.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import RejectionStallError
from .model import ModelParams, NormalWeight, Radius, SamplingPolicy
from .oracle import grid_posterior_oracle  # noqa: F401 (re-exported: its callers import it from mc)

_CHUNK = 65536
_BLOCK = _CHUNK // 2  # least words per read; no read exceeds 3 * _CHUNK
# a stream's word buffer: a take is at most 3 * _CHUNK words, and a refill
# keeps the unread words, fewer than the take, and reads _BLOCK or more
_WORDS = 3 * _CHUNK + _BLOCK
_HALF_STEP = 2.0**-54  # k 2**-53 + 2**-54 rounds once, as (k + 0.5) / 2**53
_BELOW_ONE = np.nextafter(1.0, 0.0)  # the top word would round up to 1.0
_TAIL = 64  # pending records at or below which rounds are read ahead
_MAX_AHEAD = 256
_STALL_MIN_ATTEMPTS = 1_000_000
_STALL_RATE = 1e-6


def _mapped(n: int, dtype=float) -> np.ndarray:
    """A zeroed n-array in its own anonymous mapping: freeing it
    returns its pages to the OS at once, and never moves the allocator's
    thresholds, which would leave later arrays of its size on the heap."""
    import mmap  # imported here, like the pool: runs that never simulate skip it

    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, n * dtype.itemsize), dtype)


class _Stream:
    """A chunk's uniforms in (0, 1), read from its Philox in blocks into
    words, a buffer of _WORDS values that a worker reuses for chunk after
    chunk. take(size) hands out the next values as a view of that buffer,
    valid only until the next take; rewind(size) gives back the last size
    values of the latest take."""

    def __init__(self, seed: int, chunk_index: int, words: np.ndarray) -> None:
        self._gen = np.random.Generator(np.random.Philox(key=[int(seed), int(chunk_index)]))
        self._words = words
        self._pos = self._end = 0

    def take(self, size: int) -> np.ndarray:
        end = self._pos + size
        if end > self._end:
            words, left = self._words, self._end - self._pos
            words[:left] = words[self._pos : self._end]
            fresh = words[left : left + max(_BLOCK, size - left)]
            self._gen.random(out=fresh)  # k 2**-53, k the top 53 bits of a word
            fresh += _HALF_STEP
            np.minimum(fresh, _BELOW_ONE, out=fresh)
            self._pos, self._end, end = 0, left + len(fresh), size
        out = self._words[self._pos : end]
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
    """Uniforms per attempt, and the rule that writes a block's admitted
    mask from its signals and its (rounds, width, m) uniforms, through a
    temporary of the signals' shape; a soft window's acceptance uniforms
    are the third row of each round."""
    if isinstance(policy, Radius):
        if policy.unbounded:

            def admit_all(s, u, tmp, mask):
                mask[...] = True

            return 2, admit_all

        def inside(s, u, tmp, mask):
            np.subtract(s, params.prior_mean, out=tmp)
            np.abs(tmp, out=tmp)
            np.less(tmp, policy.r, out=mask)

        return 2, inside
    if isinstance(policy, NormalWeight):
        centre = params.prior_mean + policy.mean

        def weighted(s, u, tmp, mask):
            np.subtract(s, centre, out=tmp)
            np.square(tmp, out=tmp)
            np.negative(tmp, out=tmp)
            tmp /= 2.0 * policy.var
            np.exp(tmp, out=tmp)
            np.less(u[:, 2], tmp, out=mask)

        return 3, weighted
    raise TypeError(f"unsupported policy {policy!r}")


def _stall_guard(attempts: int, accepted: int) -> None:
    if attempts >= _STALL_MIN_ATTEMPTS and accepted < _STALL_RATE * attempts:
        raise RejectionStallError(
            f"acceptance rate {accepted / attempts:.3g} below "
            f"{_STALL_RATE} after {attempts} attempts; the admission "
            f"window is effectively empty"
        )


class _Scratch:
    """One worker's arrays for a whole simulation: a chunk's records, its
    stream's words, and one later round's quality flags, trial signals,
    admitted mask and a temporary (the types' sds, then the pending states,
    then the admission test); the first round uses the mask and the
    temporary. A later round holds at most _CHUNK attempts: one per pending
    record, or up to _MAX_AHEAD rounds of at most _TAIL."""

    def __init__(self) -> None:
        self.states, self.signals = np.empty(_CHUNK), np.empty(_CHUNK)
        self.qualities = np.empty(_CHUNK, dtype=np.uint8)
        self.words = np.empty(_WORDS)
        self.flags, self.mask = np.empty(_CHUNK, dtype=bool), np.empty(_CHUNK, dtype=bool)
        self.trial, self.tmp = np.empty(_CHUNK), np.empty(_CHUNK)


def _scale_by_quality(s, flags, sds, tmp) -> None:
    """s *= the sd of each attempt's type, flags marking the high type."""
    tmp.fill(sds[0])
    np.copyto(tmp, sds[1], where=flags)
    s *= tmp


def _simulate_chunk(
    params: ModelParams, width: int, admitted, stream: _Stream, scratch: _Scratch, size: int
) -> int:
    """Fill the first size records of the scratch arrays; return the
    attempts. The first round draws every record's attempt straight into
    its own quality and signal slots; later rounds redraw only the records
    still pending, by index, through the round arrays, and write each
    admitted attempt into its record's slots."""
    states, qualities, signals = scratch.states[:size], scratch.qualities[:size], scratch.signals[:size]
    sds = (math.sqrt(params.low_var), math.sqrt(params.high_var))
    ndtri(stream.take(size), out=states)
    states *= math.sqrt(params.prior_var)
    states += params.prior_mean
    u = stream.take(width * size).reshape(1, width, size)
    high, tmp, acc = qualities.view(bool), scratch.tmp[:size], scratch.mask[:size]
    np.less(u[0, 0], params.high_share, out=high)
    ndtri(u[0, 1], out=signals)
    _scale_by_quality(signals, high, sds, tmp)
    signals += states
    admitted(signals[None], u, tmp[None], acc[None])
    pending = np.flatnonzero(np.logical_not(acc, out=acc))
    attempts, accepted = size, size - len(pending)
    _stall_guard(attempts, accepted)
    ahead = 2
    while len(pending):
        # read `rounds` rounds as if none admits a record, keep them through
        # the first that does and give the rest back to the stream
        m = len(pending)
        rounds = ahead if m <= _TAIL else 1
        u = stream.take(rounds * width * m).reshape(rounds, width, m)
        flags, s, tmp, acc = (
            a[: rounds * m].reshape(rounds, m)
            for a in (scratch.flags, scratch.trial, scratch.tmp, scratch.mask)
        )
        np.less(u[:, 0], params.high_share, out=flags)
        ndtri(u[:, 1], out=s)
        _scale_by_quality(s, flags, sds, tmp)
        s += np.take(states, pending, out=tmp[0], mode="clip")
        admitted(s, u, tmp, acc)
        hit_rounds = np.flatnonzero(acc.any(axis=1))
        used = int(hit_rounds[0]) + 1 if len(hit_rounds) else rounds
        stream.rewind((rounds - used) * width * m)
        admit = acc[used - 1]
        n_hit = int(np.count_nonzero(admit))
        for i in range(used):
            attempts += m
            accepted += n_hit if i == used - 1 else 0
            _stall_guard(attempts, accepted)
        if n_hit:
            # a boolean index copies the entries kept alone; np.compress
            # would hold their indices beside them
            hit = pending[admit]
            qualities[hit] = flags[used - 1][admit]
            signals[hit] = s[used - 1][admit]
            del hit  # not held beside the compacted pending records
            pending = pending[np.logical_not(admit, out=admit)]
            ahead = min(2 * used, _MAX_AHEAD)
        else:
            ahead = min(2 * ahead, _MAX_AHEAD)
    return attempts


def _workers() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_request(policy: SamplingPolicy, n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if isinstance(policy, Radius) and not policy.unbounded and policy.r == 0.0:
        raise RejectionStallError("r = 0 admits no signal")


def _run_chunks(
    params: ModelParams, policy: SamplingPolicy, n: int, seed: int, each_chunk
) -> int:
    """Simulate n accepted records chunk by chunk on the worker pool and
    return the attempts. Each worker draws its chunks into one scratch set
    kept for the whole call, and hands each finished chunk as (slice,
    states, qualities, signals) to each_chunk in that worker's thread. When
    several chunks fail, the error of the first in chunk order is raised."""
    width, admitted = _admission(policy, params)
    # imported here so that runs which never simulate do not load the pool
    import threading
    from concurrent.futures import ThreadPoolExecutor

    local = threading.local()

    def run(chunk: int) -> int:
        part = slice(chunk * _CHUNK, min((chunk + 1) * _CHUNK, n))
        if not hasattr(local, "scratch"):
            local.scratch = _Scratch()
        sc, size = local.scratch, part.stop - part.start
        attempts = _simulate_chunk(params, width, admitted, _Stream(seed, chunk, sc.words), sc, size)
        each_chunk(part, sc.states[:size], sc.qualities[:size], sc.signals[:size])
        return attempts

    n_chunks = (n + _CHUNK - 1) // _CHUNK
    with ThreadPoolExecutor(max_workers=min(n_chunks, _workers())) as pool:
        return sum(pool.map(run, range(n_chunks)))


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
    _check_request(policy, n)
    states, qualities, signals = _mapped(n), _mapped(n, np.uint8), _mapped(n)

    def keep(part: slice, *chunk) -> None:
        states[part], qualities[part], signals[part] = chunk

    attempts = _run_chunks(params, policy, n, seed, keep)
    return DrawSet(
        n=n,
        seed=int(seed),
        n_attempts=attempts,
        accepted_states=states,
        accepted_qualities=qualities,
        accepted_signals=signals,
    )


def _simulate_values(
    params: ModelParams, policy: SamplingPolicy, n: int, seed: int, value
) -> np.ndarray:
    """value(states, qualities, signals) of each of the n records that
    simulate_draws would draw, in record order, as floats; only this array
    is kept."""
    _check_request(policy, n)
    kept = _mapped(n)

    def keep(part: slice, states, qualities, signals) -> None:
        kept[part] = value(states, qualities, signals)

    _run_chunks(params, policy, n, seed, keep)
    return kept


@dataclass(frozen=True)
class McEstimate:
    """Sample mean of a per-record statistic with its standard error."""

    value: float
    std_error: float
    n_effective: int


def _estimate(stat: np.ndarray) -> McEstimate:
    """Mean and standard error of stat, the steps of mean() and
    std(ddof=1) with the deviations formed in place: stat is overwritten."""
    n_eff = len(stat)
    value = float(stat.mean())
    se = 0.0
    if n_eff > 1:
        stat -= value
        stat *= stat
        se = math.sqrt(float(stat.sum()) / (n_eff - 1)) / math.sqrt(n_eff)
    if se == 0.0:
        # degenerate sample: conservative 1/n floor keeps the field positive
        se = 1.0 / n_eff
    return McEstimate(value=value, std_error=se, n_effective=n_eff)


def _loss(action_map, states: np.ndarray, signals: np.ndarray) -> np.ndarray:
    return -((states - action_map(signals)) ** 2)


def mc_expected_utility(draws: DrawSet, action_map) -> McEstimate:
    """Mean quadratic loss (negated) of an action rule over the accepted
    records, summed in record order. action_map must accept a signal
    array."""
    return _estimate(_loss(action_map, draws.accepted_states, draws.accepted_signals))


def mc_simulated_utility(
    params: ModelParams, policy: SamplingPolicy, action_map, n: int, seed: int
) -> McEstimate:
    """mc_expected_utility over simulate_draws(params, policy, n, seed),
    keeping only each record's loss; action_map is evaluated in the
    simulation's worker threads, one chunk at a time."""
    loss = _simulate_values(
        params, policy, n, seed, lambda states, qualities, signals: _loss(action_map, states, signals)
    )
    return _estimate(loss)


def mc_high_prob_within_radius(
    params: ModelParams, r: float, n: int, seed: int
) -> McEstimate:
    """Fraction of accepted draws that came from a high-quality source
    under the hard window of radius r."""
    # the quality codes 0 and 1 are kept as the floats 0.0 and 1.0
    qualities = _simulate_values(params, Radius(r), n, seed, lambda states, qualities, signals: qualities)
    return _estimate(qualities)


def mc_signal_variance(
    params: ModelParams, policy: SamplingPolicy, n: int, seed: int
) -> McEstimate:
    """Variance (divisor n) of the accepted signals, as the mean of their
    squared deviations from the sample mean, with its standard error."""
    dev2 = _simulate_values(params, policy, n, seed, lambda states, qualities, signals: signals)
    dev2 -= dev2.mean()
    dev2 *= dev2
    return _estimate(dev2)
