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
from dataclasses import dataclass, replace

import numpy as np

from .errors import QuadratureError, ScanBoundError
from .inference import _likes, _linear_mix, _moments, _policy_pieces, _state_terms
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
from .quadrature import SUPPORT_SDS, signal_rule


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
    quadrature: returns (x_nodes, p, mean, m2), where p holds the
    probability weights of the nodes (each row summing to one) and mean, m2
    the posterior first and second state moments at each node, all in
    deviations from the prior mean, as a soft window's mean is given. p,
    mean and m2 have two rows: row 0 from the Kronrod rule, row 1 from the
    embedded Gauss rule on both axes, both reduced from the same blocks. A far-tail
    node whose posterior falls between the state nodes of a rule has no
    mass under that rule, and zero moments."""
    x_nodes, x_w = signal_rule(policy, params, cfg)
    logz, mean, m2 = _policy_pieces(x_nodes, policy, params, cfg)
    p = x_w * np.exp(logz - logz.max(axis=1, keepdims=True))
    mass = p.sum(axis=1, keepdims=True)
    if not np.all((mass > 0.0) & np.isfinite(mass)):
        raise QuadratureError(f"joint mass degenerated to {mass.ravel().tolist()!r}")
    return x_nodes, p / mass, np.where(p > 0.0, mean, 0.0), np.where(p > 0.0, m2, 0.0)


def _bayes_loss(policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig):
    """Expected quadratic loss of the posterior-mean action: the mean
    posterior variance under the admitted-signal law, as the pair
    (Kronrod, embedded Gauss)."""
    _, p, mean, m2 = signal_law(policy, params, cfg)
    return np.sum(p * (m2 - mean * mean), axis=1)


def _naive_loss(rule, policy: NormalWeight, params: ModelParams, cfg: NumericsConfig):
    """Like _bayes_loss but with the posterior-mean action replaced by
    rule(s, params, policy), an action rule such as the soft window's
    two-step shrinkage (normal_sampling.naive_action). The rule takes the
    centred model, like the posterior moments it is scored against."""
    params = replace(params, prior_mean=0.0)
    x_nodes, p, mean, m2 = signal_law(policy, params, cfg)
    action = rule(x_nodes, params, policy)
    return np.sum(p * (m2 - 2.0 * action * mean + action * action), axis=1)


def _checked(what: str, evaluate, unit: float, cfg: NumericsConfig):
    """The Kronrod result (a float or an array) of evaluate(cfg), a
    (Kronrod, embedded Gauss) pair from one kernel pass, after its self-check:
    the two are finite and differ by at most 1e3 * ABS_TOL * unit
    everywhere. unit is the scale of the quantity: prior_var for a utility,
    its square root for an action, or an array of scales, one per entry of
    a result of several quantities. A pair that fails is evaluated again by
    the same rule at twice the order, quad_nodes doubled on both axes, and
    that pair decides; if it fails too, QuadratureError names what and the
    first pair's worst point (its first NaN, if any). Only the evaluators
    call it (expected_utility, signal_moments_vs_r, expected_action and the
    quadrature branch of normal_sampling.closed_form_objective), so every
    value they return has passed it, and no other code re-evaluates."""
    for c in (cfg, replace(cfg, quad_nodes=2 * cfg.quad_nodes)):
        pair = evaluate(c)
        gap = np.abs(np.subtract(*pair))
        if np.all(gap <= 1e3 * ABS_TOL * unit):
            return pair[0]
        if c is cfg:
            kronrod, gauss = pair
            k = int(np.argmax(np.ravel(gap / unit)))  # the first NaN, if any
    raise QuadratureError(
        f"{what} failed its self-check: {float(np.ravel(kronrod)[k])!r} under the "
        f"Kronrod rule vs {float(np.ravel(gauss)[k])!r} under its embedded Gauss "
        f"rule; raise quad_nodes"
    )


def expected_utility(policy: Radius, params: ModelParams, cfg: NumericsConfig) -> float:
    """Negative expected quadratic loss of the optimal action under the
    given censoring radius. r = 0 returns minus the prior variance
    analytically; UNBOUNDED gives the no-restriction benchmark. The value
    passes the Kronrod-Gauss self-check in units of prior_var, or
    QuadratureError is raised."""
    if isinstance(policy, Radius) and not policy.unbounded and policy.r == 0.0:
        return -params.prior_var
    utility = lambda c: -_bayes_loss(policy, params, c)  # noqa: E731
    return float(_checked("expected utility", utility, params.prior_var, cfg))


def utility_curve(params: ModelParams, grid, cfg: NumericsConfig) -> UtilityCurve:
    """Expected utility over a radius grid, with a 0.0 entry (analytic) in
    front and the UNBOUNDED benchmark appended. The benchmark is evaluated
    first, so a quadrature too coarse for the parameters fails on it.
    """
    radii = [float(r) for r in grid]
    if any(r < 0 for r in radii) or radii != sorted(radii):
        raise ValueError(f"radius grid must be nonnegative and ordered, got {radii!r}")
    if not radii or radii[0] > 0.0:
        radii = [0.0] + radii
    benchmark = expected_utility(Radius(UNBOUNDED), params, cfg)
    utilities = [expected_utility(Radius(r), params, cfg) for r in radii] + [benchmark]
    return UtilityCurve(
        radii=tuple(radii) + (UNBOUNDED,),
        utilities=tuple(utilities),
        params=params,
    )


def _scan_then_refine(
    fn, grid: np.ndarray, unit: float, x_unit: float, family: str
) -> OptimumResult:
    """Shared optimizer core: coarse scan, boundary rule against the
    unbounded benchmark, bounded Brent refinement of interior maxima,
    smaller-argument tie-breaking.

    fn(x) is the objective at x and fn(UNBOUNDED) the benchmark, evaluated
    first. fn checks every value it returns, and the optimum is a point
    fn has evaluated, so a quadrature too coarse for them raises
    QuadratureError instead of returning a bad number. unit is the
    objective's scale, prior_var: ties, surpluses and the scan tail are
    judged relative to it. The result is finite only when the best candidate
    beats both the benchmark and the last scan value by tol = INVARIANT_TOL
    * unit. x_unit is the argument's scale, sqrt(prior_var) for a radius
    and prior_var for a sampling variance: Brent searches x / x_unit, as
    its absolute tolerance and its own arithmetic need the argument near 1.
    """
    benchmark = fn(UNBOUNDED)
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
        # imported here: a scan without an interior peak never loads scipy.optimize
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            lambda t: -fn(t * x_unit),
            bounds=(lo / x_unit, hi / x_unit),
            method="bounded",
            options={"xatol": 1e-9},
        )
        candidates.append((float(res.x) * x_unit, -float(res.fun), (lo, hi)))

    best = None
    for cand in candidates:
        if best is None or cand[1] > best[1] + tol or (
            abs(cand[1] - best[1]) <= tol and cand[0] < best[0]
        ):
            best = cand

    finite = best is not None and best[1] > max(values[-1], benchmark) + tol
    boundary_rising = values[-1] - values[-2] >= -tol
    if not finite and boundary_rising and values[-1] > benchmark + tol:
        raise ScanBoundError(
            f"{family} objective still rising at scan bound {float(grid[-1])!r} "
            f"(value {float(values[-1])!r} above the unrestricted benchmark "
            f"{benchmark!r}); the quadrature is likely too coarse: raise quad_nodes"
        )
    if not finite:
        return OptimumResult(
            r_star=UNBOUNDED,
            utility_at_opt=benchmark,
            utility_uncensored=benchmark,
            is_finite=False,
            bracket=(float(grid[-1]), math.inf),
        )
    return OptimumResult(
        r_star=best[0],
        utility_at_opt=best[1],
        utility_uncensored=benchmark,
        is_finite=True,
        bracket=best[2],
    )


def scan_radii(params: ModelParams) -> np.ndarray:
    """The optimizers' coarse scan: a 32-point geometric grid from
    sqrt(prior_var) / 4 to the signal rule's support, SUPPORT_SDS low-type
    signal sds, where the utility has converged to the benchmark. It scales
    with the units of the state."""
    bound = SUPPORT_SDS * math.sqrt(params.prior_var + params.low_var)
    return np.geomspace(math.sqrt(params.prior_var) / 4.0, bound, 32)


def optimize_radius(params: ModelParams, cfg: NumericsConfig) -> OptimumResult:
    """Locate the utility-maximizing censoring radius.

    Coarse scan on scan_radii(params), then bounded Brent refinement of each
    interior bracket. Returns UNBOUNDED when no refined maximum beats the
    unbounded benchmark and the scan's last value; a bound hit while the
    curve still rises above the benchmark raises ScanBoundError.
    Every value it compares has passed the Kronrod-Gauss self-check, or
    QuadratureError is raised.
    """
    return _scan_then_refine(
        lambda r: expected_utility(Radius(r), params, cfg),
        scan_radii(params),
        params.prior_var,
        math.sqrt(params.prior_var),
        "censoring-radius",
    )


def signal_moments_vs_r(
    params: ModelParams, policy: Radius, cfg: NumericsConfig
) -> tuple[float, float]:
    """Variance of the admitted signal and its correlation with the state,
    under the state-marginal-preserving joint, by double quadrature. Both
    pass the Kronrod-Gauss self-check, the variance in units of prior_var
    and the correlation in units of 1, or QuadratureError is raised."""
    if not policy.unbounded and policy.r == 0.0:
        return 0.0, 0.0

    pv = params.prior_var

    def moments(s, p, mean, m2):
        mean_s, mean_om = float(p @ s), float(p @ mean)
        var_s = max(float(p @ (s * s)) - mean_s**2, 0.0)
        var_om = max(float(p @ m2) - mean_om**2, 0.0)
        cov = float(p @ (s * mean)) - mean_s * mean_om
        # in units of prior_var, where the variances' product cannot overflow
        both = (var_s / pv) * (var_om / pv)
        corr = (cov / pv) / math.sqrt(both) if both > 0.0 else 0.0
        return var_s, float(np.clip(corr, -1.0, 1.0))

    def evaluate(c: NumericsConfig) -> np.ndarray:
        s, *law = signal_law(policy, params, c)
        return np.array([moments(s, *rule) for rule in zip(*law)])  # Kronrod, Gauss

    units = np.array([params.prior_var, 1.0])
    var_s, corr = _checked("signal moments", evaluate, units, cfg)
    return float(var_s), float(corr)


def expected_action(
    omegas, policy: SamplingPolicy, params: ModelParams, cfg: NumericsConfig
) -> np.ndarray:
    """Conditional expectation of the optimal action at each true state in
    the 1-D array omegas: the action map integrated against the
    admitted-signal density. Every entry passes the Kronrod-Gauss
    self-check (the actions and their integral, both under each rule) in
    units of sqrt(prior_var), or QuadratureError is raised."""
    m = params.prior_mean
    omegas = np.asarray(omegas, dtype=float)
    if isinstance(policy, Radius) and not policy.unbounded and policy.r == 0.0:
        return np.full(omegas.shape, m)
    # the admitted-signal density's terms at each state, one state per row
    _, terms = _state_terms(omegas[:, None] - m, policy, params)

    def evaluate(c: NumericsConfig) -> np.ndarray:
        x_nodes, x_w = signal_rule(policy, params, c)
        action = _policy_pieces(x_nodes, policy, params, c)[1]
        like_H, like_L = _likes(x_nodes, terms)
        peaks = (like_H.max(axis=1), like_L.max(axis=1))
        weights = np.concatenate((x_w, x_w * action, x_w * action * action))
        return _moments(*_linear_mix(like_H, like_L, peaks, params), weights)[1]

    return _checked("expected action", evaluate, math.sqrt(params.prior_var), cfg) + m
