"""The benchmark's workloads: inputs drawn from the seed, the operations
timed on them, and the gates that check each operation's output afterwards.

Every operation goes through a public entry point of the package, looked up
on its module at call time so that the traced run's wrappers see it. A gate
returns None for a correct output and a short reason otherwise.

Tolerances: pinned values use the tolerances of the repository's tests; the
independent reference (reference.py) agrees with the quadrature path to
about 1e-14 at these parameters, so comparisons against it use the same
test tolerances, or the package's own abs_tol for posterior summaries.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

NAMES = ("curves", "optimize", "montecarlo")

EU_TOL = 1e-7  # tests/test_censor.py EU_TOL
MOMENT_TOL = 2e-6  # signal moments and expected actions, tests/test_censor.py
PINNED_ACTION_TOL = 1e-10  # tests/test_inference.py
SUMMARY_TOL = 1e-8  # NumericsConfig.abs_tol
GRID_ORACLE_TOL = 1e-6  # tests/test_mc.py
GRID_POINTS = 200_001
R_STAR_TOL = 5e-3  # tests/test_censor.py, against the oracle vertex
INVARIANT_TOL = 1e-6  # NumericsConfig.invariant_tol
REFERENCE_RADIUS = 2.35
MC_CHECKS = ("prop1", "exante_total_var", "mc_eu_unbounded", "mc_eu_radius")

# Optimizer regimes, located with reference.py at the default parameters:
# the best finite radius trails the unrestricted benchmark up to
# sigmaL2 = 6 and beats it from sigmaL2 = 8 on (by 0.33 at 3e5). Below
# about 5 the radius optimizer makes 35 evaluations; from 5 to 6 a spurious
# interior bracket adds 43 more, so the Unbounded draw stays below 4.5 to
# keep the work of a pass the same for every seed.
UNBOUNDED_REGIME = (3.0, 4.5)
FINITE_REGIME = (100.0, 400.0)
EXTREME_LOW_VAR = 3e5


class Program:
    """The package under test, imported from the tree on sys.path."""

    def __init__(self) -> None:
        self.ec = importlib.import_module("echochamber")
        self.cli = importlib.import_module("echochamber.cli")
        self.figures = importlib.import_module("echochamber.figures")
        self.inference = importlib.import_module("echochamber.inference")
        self.params = self.ec.DEFAULT_PARAMS
        self.cfg = self.ec.DEFAULT_NUMERICS
        self.model = ref.Model(
            prior_mean=self.params.prior_mean,
            prior_var=self.params.prior_var,
            high_var=self.params.high_var,
            low_var=self.params.low_var,
            high_share=self.params.high_share,
        )

    def run_cli(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return int(code), out.getvalue(), err.getvalue()


class Refused(Exception):
    """The program declined to answer (CLI exit 3): counted as failed, not
    as a wrong answer."""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    gate: Callable[[object, dict], str | None]


def load_oracle(root: Path) -> dict:
    return json.loads((root / "tests" / "data" / "oracle.json").read_text())


def _jittered(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    base = np.linspace(lo, hi, n)
    step = base[1] - base[0]
    return np.clip(base + rng.uniform(-0.45, 0.45, n) * step, lo, hi)


def _close(got: float, want: float, tol: float, what: str) -> str | None:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        return f"{what}: got {got!r}, want {want!r} +/- {tol:g}"
    return None


def _first(*reasons) -> str | None:
    return next((r for r in reasons if r), None)


def _pinned_radii(table: dict) -> dict[float, float]:
    return {float(k[1:]): v for k, v in table.items() if k.startswith("r")}


# ---------------------------------------------------------------------------
# curves: the figure-shaped kernel workload at the default parameters


def curve_gate(prog: Program, oracle: dict, eu_radii: list[float]):
    """Gate of a utility curve over eu_radii: every entry against the
    reference, pinned radii against the oracle too."""
    P, m = prog.params, prog.model
    pinned_eu = _pinned_radii(oracle["eu"])

    def gate(curve, _outputs) -> str | None:
        utils = list(curve.utilities)
        if len(utils) != len(eu_radii) + 2 or utils[0] != -P.prior_var:
            return f"utility curve has {len(utils)} entries or a wrong r=0 value {utils[0]!r}"
        for r, u in zip(eu_radii, utils[1:-1]):
            reason = _first(
                _close(u, ref.expected_utility(r, m), EU_TOL, f"EU(r={r!r}) vs reference"),
                r in pinned_eu and _close(u, pinned_eu[r], EU_TOL, f"EU(r={r!r}) vs oracle pin"),
            )
            if reason:
                return reason
        return _first(
            _close(utils[-1], ref.expected_utility_unbounded(m), EU_TOL, "unbounded EU vs reference"),
            _close(utils[-1], oracle["eu"]["unbounded"], EU_TOL, "unbounded EU vs oracle pin"),
        )

    return gate


def curves_ops(prog: Program, seed: int, oracle: dict) -> list[Op]:
    rng = np.random.default_rng(seed)
    P, C, m = prog.params, prog.cfg, prog.model
    pinned_eu = _pinned_radii(oracle["eu"])
    eu_radii = sorted(set(_jittered(rng, 0.1, 6.0, 60).tolist()) | set(pinned_eu))
    pinned_var = _pinned_radii(oracle["moments"]["signal_var"])
    pinned_corr = _pinned_radii(oracle["moments"]["state_corr"])
    mom_radii = sorted(set(_jittered(rng, 0.1, 6.0, 60 - len(pinned_var)).tolist()) | set(pinned_var))
    pinned_actions = {s: f"action_s{s:g}_unbounded" for s in (1.0, 2.0, 4.0)}
    s_unb = np.unique(np.concatenate([_jittered(rng, -6.0, 6.0, 121), list(pinned_actions)]))
    s_win = _jittered(rng, -REFERENCE_RADIUS, REFERENCE_RADIUS, 123)[1:-1]
    spot_unb = rng.choice(len(s_unb), 3, replace=False)
    spot_win = rng.choice(len(s_win), 3, replace=False)
    unb = prog.ec.Radius(prog.ec.UNBOUNDED)
    win = prog.ec.Radius(REFERENCE_RADIUS)

    def moments_gate(r):
        def gate(out, _outputs) -> str | None:
            var_s, corr = out
            if r is None:
                mix_var = P.high_share * P.high_var + (1.0 - P.high_share) * P.low_var
                want_var = P.prior_var + mix_var
                want_corr = math.sqrt(P.prior_var / want_var)
                pin_var = oracle["moments"]["signal_var"]["unbounded"]
                pin_corr = oracle["moments"]["state_corr"]["unbounded"]
            else:
                want_var, want_corr = ref.signal_moments(r, m)
                pin_var, pin_corr = pinned_var.get(r), pinned_corr.get(r)
            at = f"at r={r!r}"
            return _first(
                _close(var_s, want_var, MOMENT_TOL, f"signal var {at} vs reference"),
                _close(corr, want_corr, MOMENT_TOL, f"state corr {at} vs reference"),
                pin_var is not None and _close(var_s, pin_var, MOMENT_TOL, f"signal var {at} vs pin"),
                pin_corr is not None and _close(corr, pin_corr, MOMENT_TOL, f"state corr {at} vs pin"),
            )

        return gate

    def summaries_gate(s, r, policy, spots, pins):
        def gate(out, _outputs) -> str | None:
            got = [np.asarray(a, dtype=float) for a in out]
            action, post_var, prob_high, a_h, a_l = got
            labels = ("action", "posterior_var", "prob_high", "a_H", "a_L")
            for label, value, want in zip(labels, got, ref.posterior(s, r, m)):
                dev = float(np.max(np.abs(value - want)))
                if not dev <= SUMMARY_TOL:
                    return f"{label} off the reference by {dev:.3g} (r={r!r})"
            mixed = prob_high * a_h + (1.0 - prob_high) * a_l
            decomposition = float(np.max(np.abs(action - mixed)))
            if not decomposition < INVARIANT_TOL:
                return f"decomposition residual {decomposition:.3g} (r={r!r})"
            for j in spots:
                mean, var = prog.ec.grid_posterior_oracle(float(s[j]), policy, P, GRID_POINTS)
                at = f"at s={s[j]!r} vs grid oracle"
                reason = _first(
                    _close(float(action[j]), mean, GRID_ORACLE_TOL, f"action {at}"),
                    _close(float(post_var[j]), var, GRID_ORACLE_TOL, f"posterior var {at}"),
                )
                if reason:
                    return reason
            for sv, key in pins.items():
                j = int(np.flatnonzero(s == sv)[0])
                reason = _close(float(action[j]), oracle["posterior"][key], PINNED_ACTION_TOL, key)
                if reason:
                    return reason
            return None

        return gate

    def gate_fig5(fig, _outputs) -> str | None:
        rows = np.array(fig.rows, dtype=float)
        omegas = rows[:, 0]
        if rows.shape != (81, 3) or np.max(np.abs(omegas - np.linspace(-4.0, 4.0, 81))) > 1e-12:
            return f"fig5 grid has shape {rows.shape}"
        for col, r, key in ((1, REFERENCE_RADIUS, "r2.35"), (2, None, "unbounded")):
            dev = float(np.max(np.abs(rows[:, col] - ref.expected_action(omegas, r, m))))
            if not dev <= MOMENT_TOL:
                return f"expected action ({key}) off the reference by {dev:.3g}"
            for w_key, want in oracle["expected_action"][key].items():
                j = int(np.argmin(np.abs(omegas - float(w_key[1:]))))
                what = f"expected action {key} {w_key} vs oracle pin"
                reason = _close(float(rows[j, col]), want, MOMENT_TOL, what)
                if reason:
                    return reason
        return None

    ops = [
        Op(
            "utility_curve",
            lambda: prog.ec.utility_curve(P, eu_radii, C),
            curve_gate(prog, oracle, eu_radii),
        )
    ]
    for r in mom_radii + [None]:
        policy = unb if r is None else prog.ec.Radius(r)
        ops.append(
            Op(
                f"signal_moments r={r!r}",
                lambda policy=policy: prog.ec.signal_moments_vs_r(P, policy, C),
                moments_gate(r),
            )
        )
    ops.append(
        Op(
            "posterior_summaries unbounded",
            lambda: prog.inference.posterior_summaries(s_unb, unb, P, C),
            summaries_gate(s_unb, None, unb, spot_unb, pinned_actions),
        )
    )
    ops.append(
        Op(
            f"posterior_summaries r={REFERENCE_RADIUS}",
            lambda: prog.inference.posterior_summaries(s_win, win, P, C),
            summaries_gate(s_win, REFERENCE_RADIUS, win, spot_win, {}),
        )
    )
    ops.append(
        Op("expected_action_curve", lambda: prog.figures.build_figure("fig5", P, C), gate_fig5)
    )
    return ops


# ---------------------------------------------------------------------------
# optimize: CLI optimizer runs, each at a fresh parameter set


def _optimum_fields(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def _cli_call(prog: Program, argv: list[str]):
    def call():
        code, out, err = prog.run_cli(argv)
        if code == 3 and "numeric failure" in err:
            raise Refused(err.strip())
        return code, out, err

    return call


def _radius_gate(m: ref.Model, expect_finite: bool):
    def gate(result, _outputs) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        f = _optimum_fields(out)
        if f.get("family") != "radius":
            return f"unexpected output {out!r}"
        unb = ref.expected_utility_unbounded(m)
        u_opt, u_unc = float(f["utility_at_opt"]), float(f["utility_uncensored"])
        reason = _close(u_unc, unb, EU_TOL, "utility_uncensored vs reference")
        if reason:
            return reason
        finite = f["is_finite"] == "True"
        if finite != expect_finite or (f["r_star"] == "Unbounded") == finite:
            verdict = f"r_star={f['r_star']} is_finite={f['is_finite']}"
            return f"verdict {verdict}, want finite={expect_finite}"
        if not finite:
            return _close(u_opt, unb, EU_TOL, "utility_at_opt vs reference")
        r_star = float(f["r_star"])
        lo, hi = (float(x) for x in f["bracket"].split(","))
        if not lo < r_star < hi:
            return f"r_star {r_star!r} outside its bracket ({lo!r}, {hi!r})"
        best = ref.best_radius(m, r_star)
        return _first(
            _close(u_opt, ref.expected_utility(r_star, m), EU_TOL, "utility_at_opt vs reference"),
            _close(r_star, best, R_STAR_TOL, "r_star vs reference optimum"),
            not u_opt > u_unc + INVARIANT_TOL and f"finite optimum {u_opt!r} does not beat {u_unc!r}",
        )

    return gate


def _sampling_gate(m: ref.Model):
    def gate(result, _outputs) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        f = _optimum_fields(out)
        verdict = (f.get("family"), f.get("r_star"), f.get("is_finite"))
        if verdict != ("normal-sampling", "Unbounded", "False"):
            return f"verdict {verdict}, want Unbounded"
        unb = ref.expected_utility_unbounded(m)
        return _first(
            _close(float(f["utility_at_opt"]), unb, EU_TOL, "utility_at_opt vs reference"),
            _close(float(f["utility_uncensored"]), unb, EU_TOL, "utility_uncensored vs reference"),
        )

    return gate


def optimize_ops(prog: Program, seed: int, oracle: dict) -> list[Op]:
    rng = np.random.default_rng(seed)
    cases = [
        ("unbounded regime", float(rng.uniform(*UNBOUNDED_REGIME)), False),
        ("finite regime", float(rng.uniform(*FINITE_REGIME)), True),
        ("extreme", EXTREME_LOW_VAR, True),
    ]
    ops = []
    for label, low_var, finite in cases:
        model = replace(prog.model, low_var=low_var)
        argv = ["optimize", "radius", "--params", f"sigmaL2={low_var!r}"]
        name = f"optimize radius {label} sigmaL2={low_var!r}"
        ops.append(Op(name, _cli_call(prog, argv), _radius_gate(model, finite)))
    argv = ["optimize", "normal-sampling"]
    ops.append(Op("optimize normal-sampling", _cli_call(prog, argv), _sampling_gate(prog.model)))
    return ops


# ---------------------------------------------------------------------------
# montecarlo: the simulator-bound checks plus the grid posterior oracle


def montecarlo_ops(prog: Program, seed: int, oracle: dict) -> list[Op]:
    rng = np.random.default_rng(seed)
    P = prog.params
    # The three 3-SE checks would fail by chance for about 1 simulation seed
    # in 120, so the draws use the package's default seed, whose PASS the
    # tests pin; the simulation's cost does not depend on the seed.
    argv = ["verify", "--check", ",".join(MC_CHECKS), "--seed", str(prog.cfg.mc_seed)]

    def gate_verify(result, _outputs) -> str | None:
        code, out, err = result
        lines = out.splitlines()
        passed = [ln.split()[1] for ln in lines if ln.startswith("PASS ")]
        summary = f"{len(MC_CHECKS)}/{len(MC_CHECKS)} checks passed"
        if code != 0 or passed != list(MC_CHECKS) or summary not in lines:
            failing = [ln for ln in lines if ln.startswith("FAIL ")]
            return f"verify exit {code}: {failing or err.strip()}"
        return None

    ops = [Op("verify " + ",".join(MC_CHECKS), _cli_call(prog, argv), gate_verify)]
    policies = [
        ("unbounded", prog.ec.Radius(prog.ec.UNBOUNDED), 4.0),
        (f"r={REFERENCE_RADIUS}", prog.ec.Radius(REFERENCE_RADIUS), REFERENCE_RADIUS),
        ("normal weight var=2", prog.ec.NormalWeight(mean=P.prior_mean, var=2.0), 4.0),
    ]
    for label, policy, half in policies:
        s = P.prior_mean + rng.uniform(-0.95 * half, 0.95 * half, 3)
        name = f"posterior_summaries {label} at {len(s)} signals"
        # its output is checked by the grid-oracle operations that follow
        ops.append(Op(name, _summaries_call(prog, s, policy), lambda out, _o: None))
        for j, sv in enumerate(s.tolist()):
            ops.append(_grid_oracle_op(prog, f"{label} s={sv!r}", policy, sv, name, j))
    return ops


def _summaries_call(prog: Program, s: np.ndarray, policy):
    return lambda: prog.inference.posterior_summaries(s, policy, prog.params, prog.cfg)


def _grid_oracle_op(prog: Program, label: str, policy, sv: float, summaries: str, j: int) -> Op:
    """grid_posterior_oracle at signal sv, gated against entry j of the
    output of the posterior_summaries operation named summaries."""

    def gate(oracle_out, outputs) -> str | None:
        mean, var = oracle_out
        action, post_var = outputs[summaries][0][j], outputs[summaries][1][j]
        return _first(
            _close(float(action), mean, GRID_ORACLE_TOL, f"action at {label} vs grid oracle"),
            _close(float(post_var), var, GRID_ORACLE_TOL, f"posterior var at {label} vs grid oracle"),
        )

    return Op(
        f"grid_posterior_oracle {label}",
        lambda: prog.ec.grid_posterior_oracle(sv, policy, prog.params, GRID_POINTS),
        gate,
    )


BUILDERS = {"curves": curves_ops, "optimize": optimize_ops, "montecarlo": montecarlo_ops}


# ---------------------------------------------------------------------------
# canonical form of outputs, for comparing passes and traced runs


def canonical(value):
    """JSON-ready form of an output that keeps every float bit."""
    if isinstance(value, np.ndarray):
        return [canonical(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if hasattr(value, "__dataclass_fields__"):
        fields = [k for k in value.__dataclass_fields__ if k != "params"]
        return {k: canonical(getattr(value, k)) for k in fields}
    return repr(value)
