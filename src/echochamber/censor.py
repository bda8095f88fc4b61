"""Expected utility of a censoring radius, the utility curve, optimal-radius
search, and the signal-moment / expected-action diagnostics.

The generative joint of (state, admitted signal) keeps the state marginal at
the prior: conditional on the state, signals are redrawn until one lands in
the window, so the signal density is the window-renormalized mixture. The
expected utility of a radius is the negative expected quadratic loss of the
posterior-mean action under that joint.

r = 0 is handled analytically: an admitted signal carries no information in
the limit, the action is the prior mean, and the value is minus the prior
variance. The unbounded entry is the no-restriction benchmark.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import QuadratureError, ScanBoundError
from .inference import _linear_mix, _log_terms, _moments, _policy_pieces, posterior_summaries
from .model import (
    ABS_TOL,
    INVARIANT_TOL,
    UNBOUNDED,
    Extent,
    ModelParams,
    NormalWeight,
    NumericsConfig,
    Radius,
    SamplingPolicy,
)
from .quadrature import signal_rule


@dataclass(frozen=True)
class UtilityCurve:
    """Expected utility sampled over an ordered radius grid. The last entry
    is the unbounded benchmark; a leading 0.0 entry holds the analytic limit
    (minus the prior variance)."""

    radii: tuple[Extent, ...]
    utilities: tuple[float, ...]
    params: ModelParams


@dataclass(frozen=True)
class OptimumResult:
    """Located optimum of a one-dimensional policy family.

    r_star is the optimizing scalar (censoring radius, or sampling variance
    for the soft-window family), or UNBOUNDED when no interior maximum beats
    the no-restriction benchmark within the scan bound. bracket records the
    final refinement interval; for an unbounded result its upper end is inf.
    """

    r_star: Extent
    utility_at_opt: float
    utility_uncensored: float
    is_finite: bool
    bracket: tuple[float, float]


def signal_law(policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig):
    """The admitted-signal law on the policy's signal nodes, by double
    quadrature: returns (s_nodes, p, mean, m2), where p holds the
    probability weights of the nodes (summing to one) and mean, m2 the
    posterior first and second state moments at each node."""
    s_nodes, s_w = signal_rule(policy, params, cfg)
    omega, w, _, _, e_mix, shift = _policy_pieces(s_nodes, policy, params, cfg)
    logz, mean, m2 = _moments(e_mix, shift, omega, w)
    p = s_w * np.exp(logz - logz.max())
    mass = float(p.sum())
    if not (mass > 0.0 and math.isfinite(mass)):
        raise QuadratureError(f"joint mass degenerated to {mass!r}")
    return s_nodes, p / mass, mean, m2


def _bayes_loss(policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig) -> float:
    """Expected quadratic loss of the posterior-mean action: the mean
    posterior variance under the admitted-signal law."""
    _, p, mean, m2 = signal_law(policy, params, cfg)
    return float(p @ (m2 - mean * mean))


def _naive_loss(policy: NormalWeight, params: ModelParams, cfg: NumericsConfig) -> float:
    """Like _bayes_loss but with the action map replaced by the two-step
    shrinkage rule that treats type weights as radius-free predictive ones.
    Used by the soft-window objective; see normal_sampling."""
    from .normal_sampling import naive_action

    s_nodes, p, mean, m2 = signal_law(policy, params, cfg)
    action = naive_action(s_nodes, params, policy)
    return float(p @ (m2 - 2.0 * action * mean + action * action))


def _self_checked(what: str, evaluate, cfg: NumericsConfig):
    """evaluate(cfg), a float or an array, repeated at half the nodes per
    panel, rounded up (always fewer than quad_nodes). A disagreement beyond
    1e3 * ABS_TOL anywhere raises QuadratureError naming what."""
    value = evaluate(cfg)
    halved = copy.copy(cfg)  # not replace(): 3 halves to 2, below the minimum
    object.__setattr__(halved, "quad_nodes", (cfg.quad_nodes + 1) // 2)
    coarse = evaluate(halved)
    k = int(np.argmax(np.abs(np.subtract(value, coarse))))
    fine_k, coarse_k = float(np.ravel(value)[k]), float(np.ravel(coarse)[k])
    if abs(fine_k - coarse_k) > 1e3 * ABS_TOL:
        raise QuadratureError(
            f"{what} failed its self-check: {fine_k!r} at "
            f"{cfg.quad_nodes} nodes per panel vs {coarse_k!r} at half resolution"
        )
    return value


def expected_utility(policy: Radius, params: ModelParams, cfg: NumericsConfig) -> float:
    """Negative expected quadratic loss of the optimal action under the
    given censoring radius. r = 0 returns minus the prior variance
    analytically; UNBOUNDED gives the no-restriction benchmark."""
    if isinstance(policy, Radius) and not policy.unbounded and policy.r == 0.0:
        return -params.prior_var
    return -_bayes_loss(policy, params, cfg)


def utility_curve(params: ModelParams, grid, cfg: NumericsConfig) -> UtilityCurve:
    """Expected utility over a radius grid, with a 0.0 entry (analytic) in
    front and the UNBOUNDED benchmark appended. The benchmark passes the
    half-resolution self-check, or QuadratureError is raised.
    """
    radii = [float(r) for r in grid]
    if any(r < 0 for r in radii) or radii != sorted(radii):
        raise ValueError(f"radius grid must be nonnegative and ordered, got {radii!r}")
    if not radii or radii[0] > 0.0:
        radii = [0.0] + radii
    utilities = [expected_utility(Radius(r), params, cfg) for r in radii]
    utilities.append(
        _self_checked(
            "expected utility",
            lambda c: expected_utility(Radius(UNBOUNDED), params, c),
            cfg,
        )
    )
    return UtilityCurve(
        radii=tuple(radii) + (UNBOUNDED,),
        utilities=tuple(utilities),
        params=params,
    )


def _scan_then_refine(
    fn, grid: np.ndarray, cfg: NumericsConfig, family: str, what: str
) -> OptimumResult:
    """Shared optimizer core: coarse scan, boundary rule against the
    unbounded benchmark, bounded Brent refinement of interior maxima,
    smaller-argument tie-breaking.

    fn(x, c) is the objective at x under numerics c; fn(UNBOUNDED, c) is the
    benchmark. The benchmark (named "expected utility" in a failure) and a
    finite optimum (named what) pass the half-resolution self-check, so a
    quadrature too coarse for them raises QuadratureError instead of
    returning a bad number.
    """
    benchmark = _self_checked("expected utility", lambda c: fn(UNBOUNDED, c), cfg)
    values = np.array([fn(float(g), cfg) for g in grid])
    tol = INVARIANT_TOL

    # a scan peak within 10 * ABS_TOL of the benchmark is float noise in the
    # converged tail, not an optimum worth refining
    brackets = [
        (float(grid[i - 1]), float(grid[i + 1]))
        for i in range(1, len(grid) - 1)
        if values[i] >= values[i - 1]
        and values[i] >= values[i + 1]
        and abs(values[i] - benchmark) > 10.0 * ABS_TOL
    ]
    if values[0] > values[1]:
        brackets.append((float(grid[0]), float(grid[1])))
    candidates: list[tuple[float, float, tuple[float, float]]] = []
    for lo, hi in brackets:
        res = minimize_scalar(
            lambda x: -fn(x, cfg), bounds=(lo, hi), method="bounded", options={"xatol": 1e-9}
        )
        candidates.append((float(res.x), -float(res.fun), (lo, hi)))

    boundary_rising = values[-1] - values[-2] >= -tol
    best = None
    for cand in candidates:
        if best is None or cand[1] > best[1] + tol or (
            abs(cand[1] - best[1]) <= tol and cand[0] < best[0]
        ):
            best = cand

    if best is not None and best[1] > max(values[-1], benchmark) + tol:
        finite = True
    elif boundary_rising:
        if values[-1] > benchmark + tol:
            raise ScanBoundError(
                f"{family} objective still rising at scan bound {float(grid[-1])!r} "
                f"(value {float(values[-1])!r} above the unrestricted benchmark "
                f"{benchmark!r}); the quadrature is likely too coarse: raise quad_nodes"
            )
        finite = False
    else:
        finite = best is not None and best[1] >= benchmark - tol
    if not finite:
        return OptimumResult(
            r_star=UNBOUNDED,
            utility_at_opt=benchmark,
            utility_uncensored=benchmark,
            is_finite=False,
            bracket=(float(grid[-1]), math.inf),
        )
    _self_checked(what, lambda c: fn(best[0], c), cfg)
    return OptimumResult(
        r_star=best[0],
        utility_at_opt=best[1],
        utility_uncensored=benchmark,
        is_finite=True,
        bracket=best[2],
    )


def scan_radii(params: ModelParams) -> np.ndarray:
    """The optimizers' coarse scan: a 32-point geometric grid from
    sqrt(prior_var) / 4 to ten low-type signal standard deviations,
    10 * sqrt(prior_var + low_var), where the utility has converged to the
    benchmark. It scales with the units of the state."""
    bound = 10.0 * math.sqrt(params.prior_var + params.low_var)
    return np.geomspace(math.sqrt(params.prior_var) / 4.0, bound, 32)


def optimize_radius(params: ModelParams, cfg: NumericsConfig) -> OptimumResult:
    """Locate the utility-maximizing censoring radius.

    Coarse scan on scan_radii(params), then bounded Brent refinement of each
    interior bracket. Returns UNBOUNDED when the curve is nondecreasing at
    the scan bound without exceeding the unbounded benchmark; a bound hit
    while the curve still rises above the benchmark raises ScanBoundError.
    The benchmark and a finite optimum pass the half-resolution self-check,
    or QuadratureError is raised.
    """

    def fn(r: Extent, c: NumericsConfig) -> float:
        return expected_utility(Radius(r), params, c)

    return _scan_then_refine(fn, scan_radii(params), cfg, "censoring-radius", "expected utility")


def signal_moments_vs_r(
    params: ModelParams, policy: Radius, cfg: NumericsConfig
) -> tuple[float, float]:
    """Variance of the admitted signal and its correlation with the state,
    under the state-marginal-preserving joint, by double quadrature."""
    if not policy.unbounded and policy.r == 0.0:
        return 0.0, 0.0
    s, p, mean, m2 = signal_law(policy, params, cfg)
    mean_s, mean_om = float(p @ s), float(p @ mean)
    var_s = max(float(p @ (s * s)) - mean_s**2, 0.0)
    var_om = max(float(p @ m2) - mean_om**2, 0.0)
    cov = float(p @ (s * mean)) - mean_s * mean_om
    corr = cov / math.sqrt(var_s * var_om) if var_s > 0.0 and var_om > 0.0 else 0.0
    return var_s, float(np.clip(corr, -1.0, 1.0))


def expected_action(
    omegas, policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig
) -> np.ndarray:
    """Conditional expectation of the optimal action at each true state in
    the 1-D array omegas: the action map integrated against the
    admitted-signal density."""
    omegas = np.asarray(omegas, dtype=float)
    if isinstance(policy, Radius) and not policy.unbounded and policy.r == 0.0:
        return np.full(omegas.shape, params.prior_mean)
    s_nodes, s_w = signal_rule(policy, params, cfg)
    action, _, _, _, _ = posterior_summaries(s_nodes, policy, params, cfg)
    _, like_H, like_L = _log_terms(omegas[None, :], s_nodes[:, None], policy, params)
    _, mean, _ = _moments(*_linear_mix(like_H, like_L, params), action, s_w)
    return mean
