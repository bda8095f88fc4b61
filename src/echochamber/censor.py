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

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import QuadratureError, ScanBoundError
from .inference import _linear_mix, _log_terms, _moments, _policy_pieces
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
    probability weights of the nodes (each row summing to one) and mean, m2
    the posterior first and second state moments at each node. p, mean and
    m2 have two rows: row 0 from the Kronrod rule, row 1 from the embedded
    Gauss rule on both axes, both reduced from one tensor."""
    s_nodes, s_w = signal_rule(policy, params, cfg)
    omega, w, _, _, e_mix, shift = _policy_pieces(s_nodes, policy, params, cfg)
    logz, mean, m2 = _moments(e_mix, shift, omega, w)
    p = s_w * np.exp(logz - logz.max(axis=1, keepdims=True))
    mass = p.sum(axis=1, keepdims=True)
    if not np.all((mass > 0.0) & np.isfinite(mass)):
        raise QuadratureError(f"joint mass degenerated to {mass.ravel().tolist()!r}")
    return s_nodes, p / mass, mean, m2


def _bayes_loss(policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig) -> np.ndarray:
    """Expected quadratic loss of the posterior-mean action: the mean
    posterior variance under the admitted-signal law, as the pair
    (Kronrod, embedded Gauss)."""
    _, p, mean, m2 = signal_law(policy, params, cfg)
    return np.sum(p * (m2 - mean * mean), axis=1)


def _naive_loss(policy: NormalWeight, params: ModelParams, cfg: NumericsConfig) -> np.ndarray:
    """Like _bayes_loss but with the action map replaced by the two-step
    shrinkage rule that treats type weights as radius-free predictive ones.
    Used by the soft-window objective; see normal_sampling."""
    from .normal_sampling import naive_action

    s_nodes, p, mean, m2 = signal_law(policy, params, cfg)
    action = naive_action(s_nodes, params, policy)
    return np.sum(p * (m2 - 2.0 * action * mean + action * action), axis=1)


def _checked(what: str, pair, unit: float):
    """pair[0], a Kronrod result (a float or an array), after the check
    against pair[1], the embedded Gauss result from the same tensor. A
    difference beyond 1e3 * ABS_TOL * unit anywhere, or a non-finite one,
    raises QuadratureError naming what. unit is the scale of the quantity:
    prior_var for a utility, its square root for an action."""
    kronrod, gauss = pair
    gap = np.abs(np.subtract(kronrod, gauss))
    k = int(np.argmax(gap))  # the first NaN, if any
    if not np.ravel(gap)[k] <= 1e3 * ABS_TOL * unit:
        raise QuadratureError(
            f"{what} failed its self-check: {float(np.ravel(kronrod)[k])!r} under the "
            f"Kronrod rule vs {float(np.ravel(gauss)[k])!r} under its embedded Gauss "
            f"rule; raise quad_nodes"
        )
    return kronrod


def _utility(policy: Radius, params: ModelParams, cfg: NumericsConfig) -> np.ndarray:
    """expected_utility as the pair (Kronrod, embedded Gauss)."""
    if isinstance(policy, Radius) and not policy.unbounded and policy.r == 0.0:
        return np.full(2, -params.prior_var)
    return -_bayes_loss(policy, params, cfg)


def expected_utility(policy: Radius, params: ModelParams, cfg: NumericsConfig) -> float:
    """Negative expected quadratic loss of the optimal action under the
    given censoring radius. r = 0 returns minus the prior variance
    analytically; UNBOUNDED gives the no-restriction benchmark."""
    return float(_utility(policy, params, cfg)[0])


def checked_utility(policy: Radius, params: ModelParams, cfg: NumericsConfig) -> float:
    """expected_utility after the Kronrod-Gauss self-check, in units of
    prior_var; a quadrature too coarse for it raises QuadratureError."""
    return float(_checked("expected utility", _utility(policy, params, cfg), params.prior_var))


def utility_curve(params: ModelParams, grid, cfg: NumericsConfig) -> UtilityCurve:
    """Expected utility over a radius grid, with a 0.0 entry (analytic) in
    front and the UNBOUNDED benchmark appended. The benchmark passes the
    Kronrod-Gauss self-check, or QuadratureError is raised.
    """
    radii = [float(r) for r in grid]
    if any(r < 0 for r in radii) or radii != sorted(radii):
        raise ValueError(f"radius grid must be nonnegative and ordered, got {radii!r}")
    if not radii or radii[0] > 0.0:
        radii = [0.0] + radii
    utilities = [expected_utility(Radius(r), params, cfg) for r in radii]
    utilities.append(checked_utility(Radius(UNBOUNDED), params, cfg))
    return UtilityCurve(
        radii=tuple(radii) + (UNBOUNDED,),
        utilities=tuple(utilities),
        params=params,
    )


def _scan_then_refine(
    fn, pair, grid: np.ndarray, unit: float, family: str, what: str
) -> OptimumResult:
    """Shared optimizer core: coarse scan, boundary rule against the
    unbounded benchmark, bounded Brent refinement of interior maxima,
    smaller-argument tie-breaking.

    fn(x) is the objective at x and fn(UNBOUNDED) the benchmark; pair(x) is
    the same objective as (Kronrod, embedded Gauss) values. The benchmark
    (named "expected utility" in a failure) and a finite optimum (named
    what) pass the self-check through pair, so a quadrature too coarse for
    them raises QuadratureError instead of returning a bad number. unit is
    the objective's scale, prior_var: ties, surpluses, the scan tail and
    the self-check are all judged relative to it.
    """
    benchmark = float(_checked("expected utility", pair(UNBOUNDED), unit))
    values = np.array([fn(float(g)) for g in grid])
    tol = INVARIANT_TOL * unit

    # a scan peak within 10 * ABS_TOL * unit of the benchmark is float noise
    # in the converged tail, not an optimum worth refining
    brackets = [
        (float(grid[i - 1]), float(grid[i + 1]))
        for i in range(1, len(grid) - 1)
        if values[i] >= values[i - 1]
        and values[i] >= values[i + 1]
        and abs(values[i] - benchmark) > 10.0 * ABS_TOL * unit
    ]
    if values[0] > values[1]:
        brackets.append((float(grid[0]), float(grid[1])))
    candidates: list[tuple[float, float, tuple[float, float]]] = []
    for lo, hi in brackets:
        res = minimize_scalar(
            lambda x: -fn(x), bounds=(lo, hi), method="bounded", options={"xatol": 1e-9}
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
    _checked(what, pair(best[0]), unit)
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
    The benchmark and a finite optimum pass the Kronrod-Gauss self-check,
    or QuadratureError is raised.
    """
    return _scan_then_refine(
        lambda r: expected_utility(Radius(r), params, cfg),
        lambda r: _utility(Radius(r), params, cfg),
        scan_radii(params),
        params.prior_var,
        "censoring-radius",
        "expected utility",
    )


def signal_moments_vs_r(
    params: ModelParams, policy: Radius, cfg: NumericsConfig
) -> tuple[float, float]:
    """Variance of the admitted signal and its correlation with the state,
    under the state-marginal-preserving joint, by double quadrature."""
    if not policy.unbounded and policy.r == 0.0:
        return 0.0, 0.0
    s, p, mean, m2 = signal_law(policy, params, cfg)
    p, mean, m2 = p[0], mean[0], m2[0]  # the Kronrod rule
    mean_s, mean_om = float(p @ s), float(p @ mean)
    var_s = max(float(p @ (s * s)) - mean_s**2, 0.0)
    var_om = max(float(p @ m2) - mean_om**2, 0.0)
    cov = float(p @ (s * mean)) - mean_s * mean_om
    corr = cov / math.sqrt(var_s * var_om) if var_s > 0.0 and var_om > 0.0 else 0.0
    return var_s, float(np.clip(corr, -1.0, 1.0))


def _expected_action(
    omegas, policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig
) -> np.ndarray:
    """expected_action as two rows: the Kronrod rule, and the embedded
    Gauss rule on both axes (the actions and their integral)."""
    omegas = np.asarray(omegas, dtype=float)
    if isinstance(policy, Radius) and not policy.unbounded and policy.r == 0.0:
        return np.full((2,) + omegas.shape, params.prior_mean)
    s_nodes, s_w = signal_rule(policy, params, cfg)
    omega, w, _, _, e_mix, shift = _policy_pieces(s_nodes, policy, params, cfg)
    _, action, _ = _moments(e_mix, shift, omega, w)
    _, like_H, like_L = _log_terms(omegas[None, :], s_nodes[:, None], policy, params)
    _, mean, _ = _moments(*_linear_mix(like_H, like_L, params), action, s_w)
    return mean


def expected_action(
    omegas, policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig
) -> np.ndarray:
    """Conditional expectation of the optimal action at each true state in
    the 1-D array omegas: the action map integrated against the
    admitted-signal density."""
    return _expected_action(omegas, policy, params, cfg)[0]
