from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import PAPER_EXAMPLE

from echochamber.censor import (
    expected_action,
    expected_utility,
    optimize_radius,
    signal_moments_vs_r,
    utility_curve,
)
from echochamber import censor
from echochamber.errors import ScanBoundError
from echochamber.model import (
    ABS_TOL,
    DEFAULT_NUMERICS,
    DEFAULT_PARAMS,
    INVARIANT_TOL,
    Radius,
    UNBOUNDED,
    is_unbounded,
)
from echochamber.normal_sampling import closed_form_objective

P = DEFAULT_PARAMS
C = DEFAULT_NUMERICS
R_UNB = Radius(UNBOUNDED)

EU_TOL = 1e-7


def test_expected_utility_pinned_curve(oracle: dict) -> None:
    for key, want in oracle["eu"].items():
        if key.startswith("r"):
            got = expected_utility(Radius(float(key[1:])), P, C)
            assert math.isclose(got, want, abs_tol=EU_TOL), key


def test_expected_utility_unbounded(oracle: dict) -> None:
    got = expected_utility(R_UNB, P, C)
    assert math.isclose(got, oracle["eu"]["unbounded"], abs_tol=EU_TOL)


def test_expected_utility_degenerate_endpoints(oracle: dict) -> None:
    assert expected_utility(Radius(0.0), P, C) == -P.prior_var
    # and r -> 0: -prior_var + O(r^2). A window mass cancelled in the tail
    # difference gave -1.0000000046 at r = 1e-8, below what any
    # posterior-mean rule reaches, and -0.99999963 at 1e-10
    for r in (1e-8, 1e-10, 1e-12):
        assert abs(expected_utility(Radius(r), P, C) + P.prior_var) <= ABS_TOL * P.prior_var, r
    p1 = replace(P, high_share=1.0)
    got = expected_utility(R_UNB, p1, C)
    assert math.isclose(got, -1.0 / 3.0, abs_tol=1e-9)
    assert math.isclose(got, oracle["eu"]["unbounded_h1"], abs_tol=1e-9)


def test_zero_radius_admits_nothing() -> None:
    # r = 0 admits no signal: no signal variance to speak of, and the action
    # is the prior mean at every state
    assert signal_moments_vs_r(P, Radius(0.0), C) == (0.0, 0.0)
    omegas = np.linspace(-3.0, 3.0, 7)
    assert np.array_equal(expected_action(omegas, Radius(0.0), P, C), np.full(7, P.prior_mean))


@pytest.mark.parametrize("prior_mean", [10.0, 1000.0, 1e5, 1e10])
def test_utilities_and_signal_moments_do_not_depend_on_the_prior_mean(prior_mean) -> None:
    # every integral is taken in deviations from the prior mean, so moving
    # the prior gives the same bits. Built about the prior mean instead, the
    # rule at 1000 lost the end panels of r = 2.35 (-0.63806 for -0.65971),
    # and at 1e5 the uncentred m2 - mean^2 put the benchmark 1.8e-7 off
    moved = replace(P, prior_mean=prior_mean)
    for policy in (R_UNB, Radius(2.35), Radius(float(censor.scan_radii(P)[10]))):
        assert expected_utility(policy, moved, C) == expected_utility(policy, P, C), policy
        assert signal_moments_vs_r(moved, policy, C) == signal_moments_vs_r(P, policy, C), policy
    # the soft window's quadrature branch: its two-step rule, taken in
    # absolute signals and back, moved by 6.2e-8 at a prior mean of 1e10
    p300 = replace(P, low_var=300.0)
    moved = replace(p300, prior_mean=prior_mean)
    assert closed_form_objective(moved, 2.0, C) == closed_form_objective(p300, 2.0, C)


def test_expected_utility_low_dispersion_regime(oracle: dict) -> None:
    p300 = replace(P, low_var=300.0)
    for key, want in oracle["eu_lowvar300"].items():
        if key.startswith("r"):
            got = expected_utility(Radius(float(key[1:])), p300, C)
            assert math.isclose(got, want, abs_tol=EU_TOL), key
    got_u = expected_utility(R_UNB, p300, C)
    assert math.isclose(got_u, oracle["eu_lowvar300"]["unbounded"], abs_tol=EU_TOL)


def test_expected_utility_self_check_consistent() -> None:
    # the Kronrod-Gauss check passes at the defaults and returns the
    # Kronrod row of the loss pair, bit for bit
    pair = -censor._bayes_loss(Radius(2.0), P, C)
    assert expected_utility(Radius(2.0), P, C) == pair[0]
    assert 0.0 < abs(pair[0] - pair[1]) < 1e3 * ABS_TOL  # a live, passing estimate


def test_utility_curve_structure() -> None:
    curve = utility_curve(P, np.linspace(0.5, 3.0, 6), C)
    assert curve.radii[0] == 0.0
    assert is_unbounded(curve.radii[-1])
    assert len(curve.radii) == len(curve.utilities) == 8
    assert curve.utilities[0] == -P.prior_var
    assert all(u < 0.0 for u in curve.utilities)


def test_utility_curve_accepts_explicit_grid() -> None:
    curve = utility_curve(P, [1.0, 2.0, 4.0], C)
    assert curve.radii == (0.0, 1.0, 2.0, 4.0, UNBOUNDED)
    with pytest.raises(ValueError):
        utility_curve(P, [2.0, 1.0], C)
    with pytest.raises(ValueError):
        utility_curve(P, [-1.0, 1.0], C)


def test_utility_curve_nondecreasing_single_type() -> None:
    p1 = replace(P, high_share=1.0)
    curve = utility_curve(p1, np.linspace(0.25, 6.0, 24), C)
    diffs = np.diff(curve.utilities)
    assert np.all(diffs > -INVARIANT_TOL)


def test_optimizer_default_returns_unbounded() -> None:
    opt = optimize_radius(P, C)
    assert not opt.is_finite
    assert is_unbounded(opt.r_star)
    assert opt.utility_at_opt == opt.utility_uncensored
    assert opt.utility_at_opt >= opt.utility_uncensored - INVARIANT_TOL


def test_optimizer_single_type_returns_unbounded() -> None:
    opt = optimize_radius(replace(P, high_share=1.0), C)
    assert not opt.is_finite


def test_optimizer_finite_at_high_low_dispersion(oracle: dict) -> None:
    p300 = replace(P, low_var=300.0)
    opt = optimize_radius(p300, C)
    assert opt.is_finite
    assert abs(opt.r_star - oracle["eu_lowvar300"]["vertex_r"]) < 5e-3
    assert math.isclose(
        opt.utility_at_opt, oracle["eu_lowvar300"]["at_vertex"], abs_tol=1e-7
    )
    surplus = opt.utility_at_opt - opt.utility_uncensored
    base = optimize_radius(P, C)
    assert surplus > (base.utility_at_opt - base.utility_uncensored) + 0.1
    assert opt.bracket[0] < opt.r_star < opt.bracket[1]


def test_optimizer_finite_at_tiny_low_share() -> None:
    # a thin noisy minority still rewards a wide finite window: the curve
    # rises a few parts in 1e6 above the unrestricted benchmark near r=5.6
    opt = optimize_radius(replace(P, high_share=0.999), C)
    assert opt.is_finite
    assert 5.0 < opt.r_star < 6.2
    assert opt.utility_at_opt > opt.utility_uncensored + INVARIANT_TOL


def test_limit_configs_unbounded_and_linear_as_stated(oracle: dict) -> None:
    """Near-equal variances or a near-pure high share give an Unbounded
    optimum and an action map linear in the signal in the limit, so the
    test walks each limit and checks the approach. Along the variance ratio
    1.1 -> 1.0001 every optimum is Unbounded and the linearity deviation
    shrinks at least 50x per step (measured about 100x: 1.3e-3 down to
    1.4e-9). Along the high share 0.99 -> 0.99999 the deviation shrinks at
    least 5x per step (measured 8x to 10x), the surplus of the optimum over
    the unrestricted benchmark never grows (1.3e-4, 4.6e-6, then 0), and
    the optimum is Unbounded from 0.9999 on. At a fixed 0.999 a finite
    optimum survives; see test_optimizer_finite_at_tiny_low_share."""
    from echochamber.inference import optimal_action

    def limit_point(p):
        opt = optimize_radius(p, C)
        grid = np.linspace(-4.0, 4.0, 33)
        actions = np.array([optimal_action(float(s), R_UNB, p, C).action for s in grid])
        coeffs = np.polyfit(grid, actions, 1)
        dev = float(np.max(np.abs(actions - np.polyval(coeffs, grid))))
        return opt.is_finite, opt.utility_at_opt - opt.utility_uncensored, dev

    ratios = (1.1, 1.01, 1.001, 1.0001)
    ratio_runs = [limit_point(replace(P, low_var=P.high_var * k)) for k in ratios]
    shares = (0.99, 0.999, 0.9999, 0.99999)
    share_runs = [limit_point(replace(P, high_share=h)) for h in shares]
    report = (
        f"ratio {ratios}: (finite, surplus, dev) {ratio_runs}; "
        f"high share {shares}: {share_runs}"
    )

    assert not any(finite for finite, _, _ in ratio_runs), report
    ratio_devs = [dev for _, _, dev in ratio_runs]
    assert all(b * 50.0 <= a for a, b in zip(ratio_devs, ratio_devs[1:])), report
    share_devs = [dev for _, _, dev in share_runs]
    assert all(b * 5.0 <= a for a, b in zip(share_devs, share_devs[1:])), report
    surpluses = [surplus for _, surplus, _ in share_runs]
    assert all(b <= a for a, b in zip(surpluses, surpluses[1:])), report
    assert not share_runs[2][0] and not share_runs[3][0], report


def test_scan_bound_error_when_grid_stops_short() -> None:
    p300 = replace(P, low_var=300.0)

    def fn(r) -> float:
        return expected_utility(Radius(r), p300, C)

    # plain floats, and the advice names the setting a user can change
    with pytest.raises(ScanBoundError, match=r"scan bound 2\.0 \(value -0\.\d+ above") as exc:
        censor._scan_then_refine(fn, np.linspace(0.5, 2.0, 8), 1.0, 1.0, "censoring-radius")
    assert "raise quad_nodes" in str(exc.value)


@pytest.mark.parametrize(
    "fn",
    [lambda x: 5e-7 - 2.5e-6 * (x / 20.0) ** 8, lambda x: 5e-7 * math.exp(-x)],
    ids=["falling-tail", "flat-tail"],
)
def test_scan_keeps_the_benchmark_unless_a_candidate_beats_it_by_tol(fn) -> None:
    # the best candidate, near the first scan point, beats the benchmark 0
    # by 5e-7, less than the tie tolerance INVARIANT_TOL * unit = 1e-6, so
    # no restriction is worth it, whether the tail falls or stays flat
    res = censor._scan_then_refine(
        lambda x: 0.0 if x is UNBOUNDED else fn(x), np.geomspace(0.25, 20.0, 32), 1.0, 1.0, "test"
    )
    assert res.r_star is UNBOUNDED and not res.is_finite, res


@pytest.mark.parametrize("surplus, peak", [(0.5e-6, 0.25), (2e-6, 5.0)])
def test_scan_prefers_the_smaller_argument_within_tol(surplus, peak) -> None:
    # a peak at the first scan point (the boundary bracket, refined last)
    # and an interior peak at 5 that is higher by surplus: within the tie
    # tolerance INVARIANT_TOL * unit = 1e-6 the smaller argument wins
    def fn(x) -> float:
        if x is UNBOUNDED:
            return 0.0
        return math.exp(-(((x - 0.25) / 0.1) ** 2)) + (1.0 + surplus) * math.exp(
            -(((x - 5.0) / 0.5) ** 2)
        )

    res = censor._scan_then_refine(fn, np.geomspace(0.25, 20.0, 32), 1.0, 1.0, "test")
    assert res.is_finite and abs(res.r_star - peak) < 1e-3, res


def test_utility_converges_at_scan_bound_as_stated() -> None:
    """The optimizer scans out to at least ten standard deviations of the
    low-type signal, sqrt(prior_var + low_var), and the utility there agrees
    with the unrestricted benchmark within 10 * ABS_TOL. The bound is read
    from the Unbounded result's bracket, where the scan stopped."""
    opt = optimize_radius(P, C)
    assert not opt.is_finite
    bound = opt.bracket[0]
    assert bound >= 10.0 * math.sqrt(P.prior_var + P.low_var)
    gap = abs(expected_utility(Radius(bound), P, C) - expected_utility(R_UNB, P, C))
    assert gap < 10.0 * ABS_TOL, (
        f"|U({bound:.4f}) - U(unbounded)| = {gap:.3e} exceeds {10.0 * ABS_TOL:g}"
    )


def test_signal_moments_pinned(oracle: dict) -> None:
    for key, want in oracle["moments"]["signal_var"].items():
        policy = R_UNB if key == "unbounded" else Radius(float(key[1:]))
        var, corr = signal_moments_vs_r(P, policy, C)
        assert math.isclose(var, want, abs_tol=2e-6), key
        assert math.isclose(
            corr, oracle["moments"]["state_corr"][key], abs_tol=2e-6
        ), key
        assert -1.0 <= corr <= 1.0


def test_signal_variance_increases_with_radius() -> None:
    grid = [0.3, 0.8, 1.5, 2.5, 4.0, 7.0]
    vars_ = [signal_moments_vs_r(P, Radius(r), C)[0] for r in grid]
    assert all(b > a for a, b in zip(vars_, vars_[1:]))
    assert vars_[0] < 0.05


def test_state_correlation_has_interior_peak_at_paper_example() -> None:
    """The paper's reference example (PAPER_EXAMPLE in conftest): the
    signal-state correlation attains an interior maximum near the reference
    radius 2.35 (0.5568, 0.5582, 0.5285 at r = 2, 2.35, 3). At the package
    defaults it instead rises monotonically to its unbounded value 0.603;
    the oracle pins in test_signal_moments_pinned cover that case."""
    grid = [0.5, 1.0, 1.5, 2.0, 2.35, 3.0, 4.0, 6.0, 8.0]
    corrs = [signal_moments_vs_r(PAPER_EXAMPLE, Radius(r), C)[1] for r in grid]
    k = int(np.argmax(corrs))
    assert 0 < k < len(grid) - 1, (
        f"correlation is monotone over r grid {grid}: {np.round(corrs, 6).tolist()}"
    )


def test_expected_action_pinned(oracle: dict) -> None:
    for pol_key, policy in (("r2.35", Radius(2.35)), ("unbounded", R_UNB)):
        pins = oracle["expected_action"][pol_key]
        got = expected_action([float(w_key[1:]) for w_key in pins], policy, P, C)
        for g, (w_key, want) in zip(got, pins.items()):
            assert math.isclose(g, want, abs_tol=2e-6), (pol_key, w_key)


def test_expected_action_center_and_symmetry() -> None:
    for policy in (Radius(1.0), Radius(2.35), R_UNB):
        center, up, dn = expected_action([P.prior_mean, 1.2, -1.2], policy, P, C)
        assert abs(center) < 1e-10
        assert abs(up + dn) < 1e-9


def test_fig5_columns_match_pointwise_expected_action() -> None:
    from echochamber.figures import REFERENCE_RADIUS, build_figure

    rows = build_figure("fig5", P, C).rows
    for omega, ea_c, ea_u in rows[::20]:
        assert abs(ea_c - expected_action([omega], Radius(REFERENCE_RADIUS), P, C)[0]) < 1e-12
        assert abs(ea_u - expected_action([omega], R_UNB, P, C)[0]) < 1e-12


def test_optimize_radius_evaluation_budget(monkeypatch) -> None:
    calls = {"expected_utility": 0, "_bayes_loss": 0}
    for name in calls:
        original = getattr(censor, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(censor, name, counted)
    assert optimize_radius(replace(P, low_var=300.0), C).is_finite
    assert calls["expected_utility"] <= 50
    # every kernel evaluation is an expected utility: none runs just for the check
    assert calls["_bayes_loss"] == calls["expected_utility"], calls
