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
is the prior. Rejected attempts are counted but not stored: a draw set's
memory is bounded by n, a check's by the chunk size, and neither by the
rejection rate.

Every simulation runs through one chunk driver, _run_chunks. Each worker
draws its chunks into one scratch set kept for the whole call, 63 B per
chunk record, all written in place. A chunk's first round, one attempt per
record, writes straight into the records' quality and signal slots; only
the records it does not admit are redrawn, by index, through the later
rounds' arrays. The worker hands each finished chunk to a per-chunk
function in its own thread. simulate_draws copies the records out into a
draw set of three ordinary arrays, 17 B per record. The Monte Carlo checks
keep nothing per record: each chunk's statistic is reduced to its moments
in place, through the chunk's own arrays, and the chunks' moments are
combined in chunk order (_combine), so an estimate is the same at any
number of workers and equals that of mc_expected_utility over
simulate_draws, bit for bit.

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
from functools import reduce

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


def _draw_attempts(u, params: ModelParams, flags, s, tmp) -> None:
    """From (rounds, width, m) uniforms, each attempt's quality flag, set
    for the high type, and its noise s, a standard normal times the sd of
    its type."""
    np.less(u[:, 0], params.high_share, out=flags)
    ndtri(u[:, 1], out=s)
    tmp.fill(math.sqrt(params.low_var))
    np.copyto(tmp, math.sqrt(params.high_var), where=flags)
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
    ndtri(stream.take(size), out=states)
    states *= math.sqrt(params.prior_var)
    states += params.prior_mean
    u = stream.take(width * size).reshape(1, width, size)
    high, tmp, acc = qualities.view(bool), scratch.tmp[:size], scratch.mask[:size]
    _draw_attempts(u, params, high[None], signals[None], tmp[None])
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
        _draw_attempts(u, params, flags, s, tmp)
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
) -> tuple[int, tuple]:
    """Simulate n accepted records chunk by chunk on the worker pool; return
    the attempts and each_chunk's results in chunk order. Each worker draws
    its chunks into one scratch set kept for the whole call, and hands each
    finished chunk as (slice, states, qualities, signals) to each_chunk in
    that worker's thread; the arrays are the scratch's, which each_chunk may
    overwrite. When several chunks fail, the error of the first in chunk
    order is raised."""
    width, admitted = _admission(policy, params)
    # imported here so that runs which never simulate do not load the pool
    import threading
    from concurrent.futures import ThreadPoolExecutor

    local = threading.local()

    def run(chunk: int) -> tuple:
        part = slice(chunk * _CHUNK, min((chunk + 1) * _CHUNK, n))
        if not hasattr(local, "scratch"):
            local.scratch = _Scratch()
        sc, size = local.scratch, part.stop - part.start
        attempts = _simulate_chunk(params, width, admitted, _Stream(seed, chunk, sc.words), sc, size)
        return attempts, each_chunk(part, sc.states[:size], sc.qualities[:size], sc.signals[:size])

    n_chunks = (n + _CHUNK - 1) // _CHUNK
    with ThreadPoolExecutor(max_workers=min(n_chunks, _workers())) as pool:
        attempts, results = zip(*pool.map(run, range(n_chunks)))
    return sum(attempts), results


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
    states, qualities, signals = np.empty(n), np.empty(n, dtype=np.uint8), np.empty(n)

    def keep(part: slice, *chunk) -> None:
        states[part], qualities[part], signals[part] = chunk

    attempts, _ = _run_chunks(params, policy, n, seed, keep)
    return DrawSet(
        n=n,
        seed=int(seed),
        n_attempts=attempts,
        accepted_states=states,
        accepted_qualities=qualities,
        accepted_signals=signals,
    )


def _moments(values, dev, sq) -> tuple:
    """(n, sum, M2, M3, M4) of one chunk's values, M_p the sum of the p-th
    powers of their deviations from their mean, written through two float
    arrays of their size that the caller no longer needs: dev, which may be
    the values, and sq."""
    total = float(values.sum())
    np.subtract(values, total / len(values), out=dev)
    np.square(dev, out=sq)
    dev *= sq
    m2 = float(sq.sum())
    sq *= sq
    return len(values), total, m2, float(dev.sum()), float(sq.sum())


def _combine(a, b) -> tuple:
    """The moments of two runs of records, by the pairwise update of Chan,
    Golub & LeVeque (1979), to every order as in Pebay (SAND2008-6212):
    about the combined mean, a run whose own mean lies d from it has M_p =
    sum_k C(p, k) d^k M_{p-k}, with M_0 = n and M_1 = 0. A run keeps its
    sum, not its mean, as Chan et al. do, so a count stays exact."""
    n, total, m = a[0] + b[0], a[1] + b[1], [0.0, 0.0, 0.0]
    for nx, tx, *mx in (a, b):
        d, mx = tx / nx - total / n, (nx, 0.0, *mx)
        for p in (2, 3, 4):
            m[p - 2] += sum(math.comb(p, k) * d**k * mx[p - k] for k in range(p + 1))
    return n, total, *m


def _streamed_moments(params: ModelParams, policy: SamplingPolicy, n: int, seed: int, chunk_moments) -> tuple:
    """The moments of each record's statistic over the n records that
    simulate_draws would draw, chunk_moments(states, qualities, signals)
    reducing a chunk's with _moments through the chunk's own float arrays.
    Each chunk is reduced in its worker's thread and the chunks' moments are
    combined in chunk order: nothing is kept per record, and the result is
    the same at any number of workers."""
    _check_request(policy, n)
    return reduce(_combine, _run_chunks(params, policy, n, seed, lambda part, *chunk: chunk_moments(*chunk))[1])


@dataclass(frozen=True)
class McEstimate:
    """Sample mean of a per-record statistic with its standard error."""

    value: float
    std_error: float
    n_effective: int


def _estimate(moments) -> McEstimate:
    """Mean and standard error of n values from their moments (n, sum,
    M2): the sum over n, and sqrt(M2 / (n - 1)) / sqrt(n), or, for a
    sample without spread, the conservative floor 1/n."""
    n, total, m2 = moments[:3]
    se = math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0
    return McEstimate(total / n, se or 1.0 / n, n)


def _loss_moments(action_map, states, signals) -> tuple:
    """The moments of each record's loss -(state - action(signal))^2, the
    losses written over the states and their squared deviations over the
    signals."""
    loss = np.subtract(states, action_map(signals), out=states)
    loss *= loss
    return _moments(np.negative(loss, out=loss), loss, signals)


def mc_expected_utility(draws: DrawSet, action_map) -> McEstimate:
    """Mean quadratic loss (negated) of an action rule over the accepted
    records, reduced as mc_simulated_utility reduces them: a chunk at a
    time, each through copies of its states and signals. action_map must
    accept a signal array."""
    states, signals = draws.accepted_states, draws.accepted_signals
    parts = [
        _loss_moments(action_map, states[i : i + _CHUNK].copy(), signals[i : i + _CHUNK].copy())
        for i in range(0, draws.n, _CHUNK)
    ]
    return _estimate(reduce(_combine, parts))


def mc_simulated_utility(
    params: ModelParams, policy: SamplingPolicy, action_map, n: int, seed: int
) -> McEstimate:
    """mc_expected_utility over simulate_draws(params, policy, n, seed),
    bit for bit, without keeping the draws: action_map and each chunk's
    reduction run in the simulation's worker threads."""
    return _estimate(
        _streamed_moments(
            params, policy, n, seed, lambda states, qualities, signals: _loss_moments(action_map, states, signals)
        )
    )


def mc_high_prob_within_radius(
    params: ModelParams, r: float, n: int, seed: int
) -> McEstimate:
    """Fraction of accepted draws that came from a high-quality source
    under the hard window of radius r: the count of high-quality records
    over n, as a mean over their codes 0 and 1 gives it."""
    # each chunk's quality codes, 1 and 0, reduced as the floats 1.0 and
    # 0.0 through its states and signals
    return _estimate(
        _streamed_moments(
            params, Radius(r), n, seed, lambda states, qualities, signals: _moments(qualities, states, signals)
        )
    )


def mc_signal_variance(
    params: ModelParams, policy: SamplingPolicy, n: int, seed: int
) -> McEstimate:
    """Variance (divisor n) of the accepted signals, as the mean of their
    squared deviations from the sample mean, M2 / n, with its standard
    error: the squared deviations' own M2 is M4 - M2^2 / n."""
    # each chunk's signals reduced in place, through its states
    n, _, m2, _, m4 = _streamed_moments(
        params, policy, n, seed, lambda states, qualities, signals: _moments(signals, signals, states)
    )
    # the update of M4 may round a spreadless sample's M4 - M2^2 / n below 0
    return _estimate((n, m2, max(m4 - m2 * m2 / n, 0.0)))
