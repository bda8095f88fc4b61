"""Seeded Monte Carlo simulation of the generative process and an
independent discretized posterior oracle.

Reproducibility design: a counter-based generator (Philox) is keyed per
65536-record chunk as [seed, chunk_index], chunks are reduced by a serial
ordered fold, and normal variates come from the inverse CDF applied to
53-bit uniforms. Identical (params, policy, n, seed) therefore give
byte-identical draws regardless of how chunks are scheduled, on any
platform.

Within a chunk, each round draws in a fixed order: one quality uniform, one
standard normal, and (for a soft window) one acceptance uniform per pending
record. A record keeps its state across rounds and redraws (quality, signal)
until a signal is admitted, so the accepted-state marginal is the prior.
Rejected attempts are counted but not stored, so memory is bounded by n and
the chunk size, never by the rejection rate.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import RejectionStallError
from .model import ModelParams, NormalWeight, Radius, SamplingPolicy

_CHUNK = 65536
_U53 = float(2**53)
_STALL_MIN_ATTEMPTS = 1_000_000
_STALL_RATE = 1e-6


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[int(seed), int(chunk_index)]))


def _uniforms(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniforms strictly inside (0, 1) from 53-bit integers."""
    k = rng.integers(0, 2**53, size=size, dtype=np.int64)
    return (k + 0.5) / _U53


def _normals(rng: np.random.Generator, size: int) -> np.ndarray:
    return ndtri(_uniforms(rng, size))


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


def _acceptance(policy: SamplingPolicy, params: ModelParams, s: np.ndarray, rng) -> np.ndarray:
    if isinstance(policy, Radius):
        if policy.unbounded:
            return np.ones(len(s), dtype=bool)
        return np.abs(s - params.prior_mean) < policy.r
    if isinstance(policy, NormalWeight):
        u = _uniforms(rng, len(s))
        return u < np.exp(-((s - policy.mean) ** 2) / (2.0 * policy.var))
    raise TypeError(f"unsupported policy {policy!r}")


def simulate_draws(
    params: ModelParams, policy: SamplingPolicy, n: int, seed: int
) -> DrawSet:
    """Draw n accepted records of the generative process under the policy.

    State from the prior, quality from the type share, signal from the
    type's conditional; for a hard window the pair is redrawn until the
    signal lands inside, for a soft window acceptance is Bernoulli with the
    Gaussian weight. Raises RejectionStallError when the running acceptance
    rate of a chunk falls below 1e-6.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if isinstance(policy, Radius) and not policy.unbounded and policy.r == 0.0:
        raise RejectionStallError("r = 0 admits no signal")
    sd0 = math.sqrt(params.prior_var)
    sd_h = math.sqrt(params.high_var)
    sd_l = math.sqrt(params.low_var)
    h = params.high_share

    total_attempts = 0
    acc_state = np.empty(n)
    acc_qual = np.empty(n, dtype=np.uint8)
    acc_sig = np.empty(n)

    n_chunks = (n + _CHUNK - 1) // _CHUNK
    for chunk in range(n_chunks):
        start = chunk * _CHUNK
        size = min(_CHUNK, n - start)
        rng = _chunk_rng(seed, chunk)
        omega = params.prior_mean + sd0 * _normals(rng, size)
        pending = np.arange(size)
        attempts = 0
        accepted_count = 0
        while len(pending):
            m = len(pending)
            u_q = _uniforms(rng, m)
            is_high = u_q < h
            z = _normals(rng, m)
            s = omega[pending] + np.where(is_high, sd_h, sd_l) * z
            acc = _acceptance(policy, params, s, rng)

            hit_local = pending[acc]
            hit = start + hit_local
            acc_state[hit] = omega[hit_local]
            acc_qual[hit] = is_high[acc]
            acc_sig[hit] = s[acc]

            attempts += m
            accepted_count += int(acc.sum())
            pending = pending[~acc]
            if attempts >= _STALL_MIN_ATTEMPTS and accepted_count < _STALL_RATE * attempts:
                raise RejectionStallError(
                    f"acceptance rate {accepted_count / attempts:.3g} below "
                    f"{_STALL_RATE} after {attempts} attempts; the admission "
                    f"window is effectively empty"
                )
        total_attempts += attempts

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
    records. action_map must accept a signal array."""
    actions = np.asarray(action_map(draws.accepted_signals), dtype=float)
    loss = -((draws.accepted_states - actions) ** 2)
    return _estimate(loss)


def mc_high_prob_within_radius(
    params: ModelParams, r: float, n: int, seed: int
) -> McEstimate:
    """Fraction of accepted draws that came from a high-quality source
    under the hard window of radius r."""
    draws = simulate_draws(params, Radius(r), n, seed)
    return _estimate(draws.accepted_qualities.astype(float))


def _npdf(x, mean, var):
    return np.exp(-((x - mean) ** 2) / (2.0 * var)) / np.sqrt(2.0 * math.pi * var)


def grid_posterior_oracle(
    s: float, policy: SamplingPolicy, params: ModelParams, grid_points: int
) -> tuple[float, float]:
    """Posterior mean and variance of the state by direct normalized
    summation on a uniform grid: a deliberately plain, linear-space Bayes
    rule that shares no machinery with the quadrature path."""
    if grid_points < 1001:
        raise ValueError(f"grid_points must be >= 1001, got {grid_points!r}")
    sd_max = math.sqrt(max(params.prior_var, params.low_var))
    half = 10.0 * sd_max
    omega = np.linspace(params.prior_mean - half, params.prior_mean + half, int(grid_points))
    h = params.high_share
    prior = _npdf(omega, params.prior_mean, params.prior_var)

    if isinstance(policy, Radius) and not policy.unbounded:
        mix = h * _npdf(s, omega, params.high_var) + (1.0 - h) * _npdf(
            s, omega, params.low_var
        )
        lo = params.prior_mean - policy.r
        hi = params.prior_mean + policy.r
        mass = np.zeros_like(omega)
        for share, var in ((h, params.high_var), (1.0 - h, params.low_var)):
            sd = math.sqrt(var)
            zlo = (lo - omega) / sd
            zhi = (hi - omega) / sd
            # two near-one CDF values cancel to zero left of the window;
            # mirror so both are evaluated on their small side
            term = np.where(
                zlo + zhi > 0.0, ndtr(-zlo) - ndtr(-zhi), ndtr(zhi) - ndtr(zlo)
            )
            mass += share * term
        weight = np.divide(
            prior * mix, mass, out=np.zeros_like(mass), where=mass > 0.0
        )
    elif isinstance(policy, NormalWeight):
        v = policy.var
        num = np.zeros_like(omega)
        den = np.zeros_like(omega)
        for share, var in ((h, params.high_var), (1.0 - h, params.low_var)):
            lam = v / (v + var)
            admit = _npdf(omega, policy.mean, var + v)
            g = _npdf(s, lam * omega + (1.0 - lam) * policy.mean, var * lam)
            num += share * admit * g
            den += share * admit
        weight = np.divide(
            prior * num, den, out=np.zeros_like(den), where=den > 0.0
        )
    else:
        mix = h * _npdf(s, omega, params.high_var) + (1.0 - h) * _npdf(
            s, omega, params.low_var
        )
        weight = prior * mix

    z = weight.sum()
    mean = float((weight * omega).sum() / z)
    second = float((weight * omega * omega).sum() / z)
    return mean, max(second - mean * mean, 0.0)
