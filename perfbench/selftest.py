"""Self-test of the benchmark's gates and tracer (about 10 s).

    python3 perfbench/selftest.py

Checks that a perturbed value, a flipped verdict, a FAIL line or a refusal
each count as a failure; that correct outputs pass; and that a traced pass
gives byte-identical outputs to an untraced one while the tracer sees calls
made through names imported across modules. Exits 1 on any miss.
"""
from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import reference as ref
import workloads as wl
from child import run_pass
from tracer import Tracer

SEED = 0
results: list[tuple[str, bool]] = []


def expect(label: str, ok: bool) -> None:
    results.append((label, ok))
    print(f"{'ok  ' if ok else 'MISS'} {label}")


def by_name(ops: list[wl.Op], prefix: str) -> wl.Op:
    return next(op for op in ops if op.name.startswith(prefix))


def check_curves(prog: wl.Program, oracle: dict) -> None:
    ops = wl.curves_ops(prog, SEED, oracle)
    curve_op = by_name(ops, "utility_curve")
    # a curve of reference values at the pinned radii passes; one pinned
    # value moved by twice the tolerance does not
    eu_radii = sorted(wl._pinned_radii(oracle["eu"]))
    gate = wl.curve_gate(prog, oracle, eu_radii)
    utilities = [-prog.params.prior_var] + [ref.expected_utility(r, prog.model) for r in eu_radii]
    utilities.append(ref.expected_utility_unbounded(prog.model))
    radii = tuple([0.0] + eu_radii) + (prog.ec.UNBOUNDED,)
    expect("reference-valued utility curve passes", gate(prog.ec.UtilityCurve(radii, tuple(utilities), prog.params), {}) is None)
    utilities[eu_radii.index(2.35) + 1] += 2 * wl.EU_TOL
    bad = prog.ec.UtilityCurve(radii, tuple(utilities), prog.params)
    expect("utility moved by 2x tolerance fails", gate(bad, {}) is not None)
    expect("curve of the wrong length fails", curve_op.gate(bad, {}) is not None)

    mom = by_name(ops, "signal_moments r=2.35")
    out = mom.call()
    expect("real signal moments at a pinned radius pass", mom.gate(out, {}) is None)
    expect("signal variance moved by 1e-5 fails", mom.gate((out[0] + 1e-5, out[1]), {}) is not None)

    summ = by_name(ops, "posterior_summaries unbounded")
    out = summ.call()
    expect("real unbounded posterior summaries pass", summ.gate(out, {}) is None)
    moved = [np.array(a, copy=True) for a in out]
    moved[0][5] += 1e-7
    expect("one posterior mean moved by 1e-7 fails", summ.gate(tuple(moved), {}) is not None)


def _optimum_text(family: str, r_star: str, u_opt: float, u_unc: float, finite: bool, bracket: str) -> str:
    return "\n".join(
        [
            f"family={family}",
            f"r_star={r_star}",
            f"utility_at_opt={u_opt:.12g}",
            f"utility_uncensored={u_unc:.12g}",
            f"is_finite={finite}",
            f"bracket={bracket}",
        ]
    )


def check_optimize(prog: wl.Program, oracle: dict) -> None:
    ops = wl.optimize_ops(prog, SEED, oracle)
    unb_op, fin_op = ops[0], ops[1]
    code, out, err = unb_op.call()
    expect("real unbounded-regime optimize passes", unb_op.gate((code, out, err), {}) is None)
    expect("exit code 1 fails", unb_op.gate((1, out, err), {}) is not None)
    flipped = out.replace("r_star=Unbounded", "r_star=2.5").replace("is_finite=False", "is_finite=True")
    expect("verdict flipped to finite fails", unb_op.gate((0, flipped, err), {}) is not None)
    fields = wl._optimum_fields(out)
    moved = out.replace(f"utility_at_opt={fields['utility_at_opt']}", f"utility_at_opt={float(fields['utility_at_opt']) + 1e-6:.12g}")
    expect("utility_at_opt moved by 1e-6 fails", unb_op.gate((0, moved, err), {}) is not None)

    low_var = float(fin_op.name.rsplit("=", 1)[1])
    m = replace(prog.model, low_var=low_var)
    best = ref.best_radius(m, 2.5, 1.0)
    u_best, u_unb = ref.expected_utility(best, m), ref.expected_utility_unbounded(m)
    good = _optimum_text("radius", f"{best:.12g}", u_best, u_unb, True, f"{best - 0.3:.12g},{best + 0.3:.12g}")
    expect("reference optimum in the finite regime passes", fin_op.gate((0, good, ""), {}) is None)
    off = _optimum_text("radius", f"{best + 0.02:.12g}", ref.expected_utility(best + 0.02, m), u_unb, True, f"{best - 0.3:.12g},{best + 0.3:.12g}")
    expect("optimum 0.02 off the reference fails", fin_op.gate((0, off, ""), {}) is not None)
    unb = _optimum_text("radius", "Unbounded", u_unb, u_unb, False, "9,inf")
    expect("Unbounded verdict in the finite regime fails", fin_op.gate((0, unb, ""), {}) is not None)


def check_montecarlo(prog: wl.Program, oracle: dict) -> None:
    ops = wl.montecarlo_ops(prog, SEED, oracle)
    verify = ops[0]
    lines = [f"PASS {name:<18} measured; tol t\n     detail" for name in wl.MC_CHECKS]
    good = "\n".join(lines) + f"\n{len(lines)}/{len(lines)} checks passed\n"
    expect("all-PASS verify report passes", verify.gate((0, good, ""), {}) is None)
    bad = good.replace("PASS exante_total_var", "FAIL exante_total_var").replace("4/4", "3/4")
    expect("a FAIL line fails", verify.gate((1, bad, ""), {}) is not None)
    expect("exit 1 with an all-PASS report fails", verify.gate((1, good, ""), {}) is not None)

    summ, oracle_op = ops[1], ops[2]
    outputs = {summ.name: summ.call()}
    mean_var = oracle_op.call()
    expect("grid oracle agrees with posterior summaries", oracle_op.gate(mean_var, outputs) is None)
    expect("grid oracle mean moved by 1e-5 fails", oracle_op.gate((mean_var[0] + 1e-5, mean_var[1]), outputs) is not None)


def check_accounting() -> None:
    def refuse():
        raise wl.Refused("numeric failure: test")

    def boom():
        raise RuntimeError("test")

    ops = [
        wl.Op("fine", lambda: 1.0, lambda out, _o: None),
        wl.Op("refused", refuse, lambda out, _o: None),
        wl.Op("error", boom, lambda out, _o: None),
        wl.Op("wrong", lambda: 2.0, lambda out, _o: "off"),
    ]
    res = run_pass(ops, None)
    expect(
        "refused, raised and wrong outputs are failed; only the last two are wrong",
        (res["attempted"], res["failed"], res["refused"], res["wrong"]) == (4, 3, 1, 2),
    )


def check_trace(prog: wl.Program, oracle: dict) -> None:
    ops = [op for op in wl.curves_ops(prog, SEED, oracle) if op.name.startswith(("signal_moments r=2.35", "posterior_summaries"))]
    ops += wl.montecarlo_ops(prog, SEED, oracle)[1:3]
    plain = run_pass(ops, None)
    tracer = Tracer()
    traced = run_pass(ops, tracer)
    expect("traced and untraced passes give identical outputs", plain["digest"] == traced["digest"] and traced["failed"] == 0)
    layers = traced["layers"]
    expect("tensor builds reached through censor's by-name import are traced", layers["inference.tensor_builds"] == 4)
    expect("grid oracle calls are traced", layers["mc.oracle_s"] > 0.0)
    expect("tracer restores the original functions", not hasattr(prog.ec.censor._policy_pieces, "__wrapped__"))


def main() -> int:
    prog = wl.Program()
    oracle = wl.load_oracle(ROOT)
    check_curves(prog, oracle)
    check_optimize(prog, oracle)
    check_montecarlo(prog, oracle)
    check_accounting()
    check_trace(prog, oracle)
    misses = [label for label, ok in results if not ok]
    print(f"{len(results) - len(misses)}/{len(results)} self-checks hold")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
