"""Named verification checks over the model's structural results.

Each check states a measurable property of the implementation, measures it,
and reports pass/fail together with the measured quantity, the tolerance
applied, and the seed when Monte Carlo is involved. Checks that only hold
in a specific parameter regime evaluate there and say so in their detail
line. Every check takes the standardized model (see run_checks), so its
signals, radii and thresholds count in prior sds from the prior mean, and
the default battery passes wherever the defaults' shape holds.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .censor import expected_utility, optimize_radius
from .inference import (
    action_map,
    optimal_action,
    posterior_summaries,
    prob_high_closed,
    uncensored_linear_action,
)
from .mc import mc_high_prob_within_radius, mc_signal_variance, mc_simulated_utility
from .model import (
    INVARIANT_TOL,
    REFERENCE_RADIUS,
    UNBOUNDED,
    DEFAULT_PARAMS,
    ModelParams,
    NormalWeight,
    NumericsConfig,
    Radius,
    standard,
)


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    measured: str
    tolerance: str
    detail: str
    seed: int | None = None
    name: str = ""  # the check's ALL_CHECKS key, set by run_checks


def _g(x: float) -> str:
    return f"{x:.6g}"


def _linearity_dev(params: ModelParams, cfg: NumericsConfig) -> float:
    """Max residual of the unrestricted action map against its least-squares
    line over s within 4 of the prior mean."""
    x = np.linspace(-4.0, 4.0, 21)
    a, _, _, _, _ = posterior_summaries(x, Radius(UNBOUNDED), params, cfg)
    slope, intercept = np.polyfit(x, a, 1)
    return float(np.max(np.abs(a - (intercept + slope * x))))


def check_lemma1(params: ModelParams, cfg: NumericsConfig) -> CheckResult:
    s = np.array([-3.0, -1.5, -0.5, 0.0, 0.7, 1.3, 2.2, 3.1])
    worst = 0.0
    for policy in (Radius(0.8), Radius(2.0), Radius(UNBOUNDED), NormalWeight(mean=0.0, var=1.0)):
        inside = s if not isinstance(policy, Radius) or policy.unbounded else s[abs(s) < policy.r]
        a, _, p_h, a_h, a_l = posterior_summaries(inside, policy, params, cfg)
        worst = max(worst, float(np.max(np.abs(a - (p_h * a_h + (1.0 - p_h) * a_l)))))
    return CheckResult(
        passed=worst < INVARIANT_TOL,
        measured=f"max decomposition residual {worst:.3e}",
        tolerance=f"< {INVARIANT_TOL:g}",
        detail="action equals the quality-probability mix of type actions",
    )


def check_lemma2(params: ModelParams, cfg: NumericsConfig) -> CheckResult:
    u_single = expected_utility(Radius(UNBOUNDED), replace(params, high_share=1.0), cfg)
    mixed = replace(params, high_share=0.5)
    u_mixed = expected_utility(Radius(UNBOUNDED), mixed, cfg)
    gap = u_single - u_mixed
    return CheckResult(
        passed=gap > 0.0,
        measured=f"U(all-high) {_g(u_single)} vs U(half-low) {_g(u_mixed)}, gap {_g(gap)}",
        tolerance="> 0",
        detail="diluting high-quality sources with noisier ones lowers value",
    )


def check_lemma3(params: ModelParams, cfg: NumericsConfig) -> CheckResult:
    worst = math.inf
    for policy, lo, hi in ((Radius(1.5), -1.4, 1.4), (Radius(UNBOUNDED), -4.0, 4.0)):
        s = np.linspace(lo, hi, 17)
        _, _, _, a_h, a_l = posterior_summaries(s, policy, params, cfg)
        worst = min(worst, float(np.diff(a_h).min()), float(np.diff(a_l).min()))
    return CheckResult(
        passed=worst > 0.0,
        measured=f"min type-action increment {worst:.3e}",
        tolerance="> 0",
        detail="known-type actions increase strictly in the signal",
    )


def check_lemma5(params: ModelParams, cfg: NumericsConfig) -> CheckResult:
    s = np.linspace(-6.0, 6.0, 25)
    path_dev = math.nan
    mono_ok = True
    if 0.0 < params.high_share < 1.0:
        closed = prob_high_closed(s, params)
        _, _, quad, _, _ = posterior_summaries(s, Radius(UNBOUNDED), params, cfg)
        path_dev = float(np.max(np.abs(closed - quad)))
        right = prob_high_closed(np.linspace(0.0, 6.0, 25), params)
        mono_ok = bool(np.all(np.diff(right) < 0.0))
    p0 = prob_high_closed(0.0, DEFAULT_PARAMS)
    p2 = prob_high_closed(2.0, DEFAULT_PARAMS)
    pinned_ok = abs(p0 - 0.6202) < 1e-3 and abs(p2 - 0.4152) < 1e-3
    passed = pinned_ok and mono_ok and (math.isnan(path_dev) or path_dev < 1e-6)
    return CheckResult(
        passed=passed,
        measured=(
            f"P(high|0) {p0:.6f}, P(high|2) {p2:.6f} at default params; "
            f"closed-vs-quadrature max dev {path_dev:.3e}"
        ),
        tolerance="pinned +/- 1e-3; path agreement < 1e-6; decreasing in |s|",
        detail="closed-form source odds match the quadrature belief",
    )


def check_prop1(params: ModelParams, cfg: NumericsConfig) -> CheckResult:
    rungs = []
    for low_var in (3.0, 48.0, 768.0):
        p = replace(params, low_var=max(low_var, params.high_var))
        rungs.append(mc_high_prob_within_radius(p, 1.0, cfg.mc_n, cfg.mc_seed))
    z_steps = []
    for a, b in zip(rungs[:-1], rungs[1:]):
        z_steps.append((b.value - a.value) / math.hypot(a.std_error, b.std_error))
    passed = all(z > 3.0 for z in z_steps)
    measured = " -> ".join(f"{r.value:.4f}+/-{r.std_error:.4f}" for r in rungs)
    return CheckResult(
        passed=passed,
        measured=f"high fraction at r=1: {measured}; step z {_g(z_steps[0])}, {_g(z_steps[1])}",
        tolerance="each increase > 3 SE",
        seed=cfg.mc_seed,
        detail="noisier low types are filtered out ever more strongly by the window",
    )


def check_prop2(params: ModelParams, cfg: NumericsConfig) -> CheckResult:
    p = replace(params, low_var=300.0)
    opt = optimize_radius(p, cfg)
    passed = opt.is_finite and opt.utility_at_opt > opt.utility_uncensored + INVARIANT_TOL
    r_txt = "Unbounded" if not opt.is_finite else _g(float(opt.r_star))
    return CheckResult(
        passed=passed,
        measured=(
            f"low_var=300: r* {r_txt}, U(r*) {_g(opt.utility_at_opt)}, "
            f"U(inf) {_g(opt.utility_uncensored)}"
        ),
        tolerance=f"finite and surplus > {INVARIANT_TOL:g}",
        detail="a finite window wins once low-type dispersion is large enough",
    )


def check_prop3(params: ModelParams, cfg: NumericsConfig) -> CheckResult:
    a2, a4, a_inf = (
        optimal_action(1.0, Radius(r), params, cfg).action for r in (2.0, 4.0, UNBOUNDED)
    )
    return CheckResult(
        passed=a2 - a4 > 1e-4 and a4 - a_inf > 1e-4,
        measured=f"a(1, r=2) {a2:.6f} > a(1, r=4) {a4:.6f} > a(1, inf) {a_inf:.6f}",
        tolerance="each gap > 1e-4",
        detail="tighter windows amplify the response to an admitted signal",
    )


def check_prop4(params: ModelParams, cfg: NumericsConfig) -> CheckResult:
    p = replace(params, low_var=30.0)
    x = np.linspace(0.0, 8.0, 41)
    a, _, _, _, _ = posterior_summaries(x, Radius(UNBOUNDED), p, cfg)
    i = int(np.argmax(a))
    interior = 0 < i < len(x) - 1
    a2 = float(np.interp(2.0, x, a))
    a3 = float(np.interp(3.0, x, a))
    passed = interior and a2 > a3
    return CheckResult(
        passed=passed,
        measured=(
            f"low_var=30: action peaks at s={x[i]:.2f} (interior={interior}); "
            f"a(2) {a2:.4f} > a(3) {a3:.4f}"
        ),
        tolerance="interior peak; a(2) > a(3)",
        detail="with very noisy low types the unrestricted action is non-monotone in s",
    )


def check_prop5(params: ModelParams, cfg: NumericsConfig) -> CheckResult:
    p_ratio = replace(params, low_var=params.high_var * 1.01)
    p_share = replace(params, high_share=0.999)
    opt_ratio = optimize_radius(p_ratio, cfg)
    opt_share = optimize_radius(p_share, cfg)
    dev_ratio = _linearity_dev(p_ratio, cfg)
    dev_share = _linearity_dev(p_share, cfg)
    # only the near-equal-variance route is asserted: at high share 0.999 a
    # genuine interior optimum survives (surplus ~5e-6 over the benchmark)
    # and the action map keeps visible curvature, so that arm is report-only
    passed = (not opt_ratio.is_finite) and dev_ratio < 1e-3
    share_r = "Unbounded" if not opt_share.is_finite else f"{opt_share.r_star:.4g}"
    return CheckResult(
        passed=passed,
        measured=(
            f"variance ratio 1.01: r*={'finite' if opt_ratio.is_finite else 'Unbounded'}, "
            f"linearity dev {dev_ratio:.3e}; high share 0.999 (reported): "
            f"r*={share_r}, linearity dev {dev_share:.3e}"
        ),
        tolerance="ratio config: Unbounded optimum and linearity dev < 1e-3",
        detail=(
            "near-homogeneous qualities remove the value of windowing; the "
            "action map is linear in the equal-variance limit"
        ),
    )


def check_uds(params: ModelParams, cfg: NumericsConfig) -> CheckResult:
    s = np.array([-2.0, -0.5, 0.5, 2.0])
    _, _, _, a_h, a_l = posterior_summaries(s, Radius(UNBOUNDED), params, cfg)
    worst = float(min(np.min(a_h * s), np.min(a_l * s)))
    return CheckResult(
        passed=worst > 0.0,
        measured=f"min (action shift x signal shift) {worst:.3e}",
        tolerance="> 0",
        detail="the posterior mean moves toward the observed signal",
    )


def check_priorvar(params: ModelParams, cfg: NumericsConfig) -> CheckResult:
    wider = replace(params, prior_var=2.0 * params.prior_var)
    base = optimal_action(1.5, Radius(UNBOUNDED), params, cfg).type_actions
    wide = optimal_action(1.5, Radius(UNBOUNDED), wider, cfg).type_actions
    worst = min(abs(w) - abs(b) for b, w in zip(base, wide))
    return CheckResult(
        passed=worst > 0.0,
        measured=f"min action-shift increase under doubled prior variance {worst:.3e}",
        tolerance="> 0",
        detail="a vaguer prior lets the same signal move the action further",
    )


def check_hvanish(params: ModelParams, cfg: NumericsConfig) -> CheckResult:
    value = abs(
        float(prob_high_closed(10.0, params)) * float(uncensored_linear_action(10.0, params, "H"))
    )
    return CheckResult(
        passed=value < 1e-6,
        measured=f"P(high|mean+10) x a_high(mean+10) = {value:.3e}",
        tolerance="< 1e-6",
        detail="extreme signals are attributed to low types; the high-type term dies",
    )


def check_exante_total_var(params: ModelParams, cfg: NumericsConfig) -> CheckResult:
    # a variance statistic has a kurtosis-heavy sampling law; quadruple the
    # draw count so the 3-SE band is tight relative to it
    est = mc_signal_variance(params, Radius(UNBOUNDED), 4 * cfg.mc_n, cfg.mc_seed)
    target = params.prior_var + params.high_share * params.high_var + (
        1.0 - params.high_share
    ) * params.low_var
    z = abs(est.value - target) / est.std_error
    # five significant digits, whatever the variances' scale: the estimate's
    # standard error is near 1e-3 of it at the default draw count, and digits
    # down to its last bits would show the order of its summation
    return CheckResult(
        passed=z <= 3.0,
        measured=f"sample var {est.value:#.5g} vs total-variance value {target:#.5g}, z {_g(z)}",
        tolerance="within 3 SE",
        seed=cfg.mc_seed,
        detail="unrestricted signal variance equals prior plus mean source variance",
    )


def _mc_eu_check(policy: Radius, params: ModelParams, cfg: NumericsConfig, detail: str) -> CheckResult:
    ref = expected_utility(policy, params, cfg)
    amap = action_map(policy, params, cfg)
    est = mc_simulated_utility(params, policy, amap, cfg.mc_n, cfg.mc_seed)
    z = abs(est.value - ref) / est.std_error
    return CheckResult(
        passed=z <= 3.0,
        measured=f"MC {est.value:.5f}+/-{est.std_error:.5f} vs quadrature {ref:.5f}, z {_g(z)}",
        tolerance="within 3 SE",
        seed=cfg.mc_seed,
        detail=detail,
    )


ALL_CHECKS = {
    "lemma1": check_lemma1,
    "lemma2": check_lemma2,
    "lemma3": check_lemma3,
    "lemma5": check_lemma5,
    "prop1": check_prop1,
    "prop2": check_prop2,
    "prop3": check_prop3,
    "prop4": check_prop4,
    "prop5": check_prop5,
    "uds": check_uds,
    "priorvar": check_priorvar,
    "hvanish": check_hvanish,
    "exante_total_var": check_exante_total_var,
    "mc_eu_unbounded": partial(
        _mc_eu_check,
        Radius(UNBOUNDED),
        detail="simulation confirms the unrestricted expected utility",
    ),
    "mc_eu_radius": partial(
        _mc_eu_check,
        Radius(REFERENCE_RADIUS),
        detail=f"simulation confirms the windowed expected utility at r={REFERENCE_RADIUS:g}",
    ),
}


def run_checks(
    params: ModelParams, cfg: NumericsConfig, names: list[str] | None = None
) -> list[CheckResult]:
    """Run the named checks, all by default, on the standardized model
    (model.standard), so the report is the same at any prior mean and in
    any unit of the state."""
    params = standard(params)
    if names is None:
        names = list(ALL_CHECKS)
    unknown = [n for n in names if n not in ALL_CHECKS]
    if unknown:
        raise KeyError(
            f"unknown check(s) {unknown!r}; available: {', '.join(ALL_CHECKS)}"
        )
    results = []
    for name in names:
        try:
            result = ALL_CHECKS[name](params, cfg)
        except Exception as exc:  # a blown-up check is a failed check, not a crash
            result = CheckResult(
                passed=False,
                measured=f"raised {type(exc).__name__}: {exc}",
                tolerance="check must complete",
                detail="the check could not be evaluated at these parameters",
            )
        results.append(replace(result, name=name))
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        seed_txt = f"; seed {r.seed}" if r.seed is not None else ""
        lines.append(f"{status} {r.name:<18} {r.measured}; tol {r.tolerance}{seed_txt}")
        lines.append(f"     {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"


def report_json(results: list[CheckResult], params: ModelParams, cfg: NumericsConfig) -> dict:
    return {
        "params": asdict(params),
        "mc_seed": cfg.mc_seed,
        "mc_n": cfg.mc_n,
        "checks": [asdict(r) for r in results],
        "passed": all(r.passed for r in results),
    }
