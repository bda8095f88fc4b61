"""Spans and counters for the traced run, recorded from the benchmark's side.

The tracer wraps functions of the package's modules: every module attribute
and ALL_CHECKS entry that holds the original function is pointed at one
wrapper, so calls through a name imported elsewhere (censor imports
_policy_pieces by name, verify imports simulate_draws) are seen too. A target
missing from the tree under test is skipped and its metrics read 0.

Spans (name, start, end, parent) stay in memory until the pass ends. A span's
self time is its duration minus that of its child spans; a layer's self time
is the sum over the spans of its module.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("quadrature", "inference", "censor", "normal_sampling", "mc", "verify", "cli", "figures")

TARGETS = {
    "quadrature": ("state_rule", "signal_rule_window", "signal_rule_unbounded", "signal_rule_soft"),
    "inference": ("_policy_pieces", "posterior_summaries", "action_map"),
    "censor": (
        "_bayes_loss",
        "_naive_loss",
        "expected_utility",
        "utility_curve",
        "optimize_radius",
        "signal_moments_vs_r",
    ),
    "normal_sampling": ("closed_form_objective", "optimize_sampling_variance"),
    "mc": (
        "simulate_draws",
        "grid_posterior_oracle",
        "mc_expected_utility",
        "mc_high_prob_within_radius",
    ),
    "verify": ("run_checks",),
    "cli": ("main",),
    "figures": ("build_figure",),
}
VERIFY_CHECKS = ("prop1", "exante_total_var", "mc_eu_unbounded", "mc_eu_radius")
_STATE_RULE = "quadrature.state_rule"
_SIGNAL_RULES = (
    "quadrature.signal_rule_window",
    "quadrature.signal_rule_unbounded",
    "quadrature.signal_rule_soft",
)


def _nbytes(obj, names) -> int:
    return sum(int(getattr(getattr(obj, n, None), "nbytes", 0)) for n in names)


def _record_result(counts: Counter, name: str, result) -> None:
    """Work counts read off a call's result."""
    if name == _STATE_RULE:
        counts["quadrature.state_nodes"] += len(result[0])
    elif name in _SIGNAL_RULES:
        counts["quadrature.signal_nodes"] += len(result[0])
    elif name == "inference._policy_pieces":
        tensors = result[2:5]  # per-type and mixed log integrands
        counts["inference.tensor_cells"] += tensors[0].size
        counts["inference.tensor_bytes_computed"] += sum(t.nbytes for t in tensors)
    elif name == "mc.simulate_draws":
        counts["mc.attempts"] += int(getattr(result, "n_attempts", 0))
        counts["mc.accepted"] += len(getattr(result, "accepted_signals", ()))
        counts["mc.attempt_log_bytes_computed"] += _nbytes(
            result, ("record_index", "states", "qualities", "signals", "accepted")
        )
    elif name == "cli.main" and result == 3:
        counts["cli.exit3"] += 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter_ns()
            _record_result(counts, name, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for k, m in sys.modules.items() if k == "echochamber" or k.startswith("echochamber.")
        ]
        for layer, funcs in TARGETS.items():
            mod = importlib.import_module(f"echochamber.{layer}")
            for func in funcs:
                original = getattr(mod, func, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{func}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, value))
                            setattr(m, attr, wrapper)
        checks = getattr(importlib.import_module("echochamber.verify"), "ALL_CHECKS", {})
        for check in VERIFY_CHECKS:
            if check in checks:
                original = checks[check]
                self._patches.append((checks, check, original))
                checks[check] = self._wrap(f"verify.check.{check}", original)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._patches.clear()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass whose timed region took
        wall_s; call after uninstall, so cache ratios read the originals."""
        dur = [(end - start) * 1e-9 for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        total: Counter = Counter()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, _, _, _) in enumerate(self.spans):
            total[name] += dur[i]
            calls[name] += 1
            self_s[name.split(".", 1)[0]] += dur[i] - child[i]

        def under(i: int, ancestor: str) -> bool:
            parent = self.spans[i][3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    return True
                parent = self.spans[parent][3]
            return False

        rules = (_STATE_RULE,) + _SIGNAL_RULES
        optimizer_evals = sum(
            1
            for i, s in enumerate(self.spans)
            if s[0] == "censor.expected_utility" and under(i, "censor.optimize_radius")
        )
        optimizes = calls["censor.optimize_radius"]
        attempts = self.counts["mc.attempts"]
        out = {
            "quadrature.rule_calls": sum(calls[n] for n in rules),
            "quadrature.rule_s": sum(total[n] for n in rules),
            "quadrature.state_nodes": self.counts["quadrature.state_nodes"],
            "quadrature.signal_nodes": self.counts["quadrature.signal_nodes"],
            "quadrature.state_rule_hit_ratio": _hit_ratio("quadrature", "state_rule"),
            "inference.tensor_builds": calls["inference._policy_pieces"],
            "inference.tensor_cells": self.counts["inference.tensor_cells"],
            "inference.tensor_bytes_computed": self.counts["inference.tensor_bytes_computed"],
            "inference.tensor_build_s": total["inference._policy_pieces"],
            "inference.posterior_summaries_s": total["inference.posterior_summaries"],
            "inference.radius_base_hit_ratio": _hit_ratio("inference", "_radius_base"),
            "censor.loss_evals": calls["censor._bayes_loss"],
            "censor.loss_s": total["censor._bayes_loss"],
            "censor.moments_s": total["censor.signal_moments_vs_r"],
            "censor.evals_per_optimize": optimizer_evals / optimizes if optimizes else 0.0,
            "censor.optimize_s": total["censor.optimize_radius"],
            "normal_sampling.objective_evals": calls["normal_sampling.closed_form_objective"],
            "normal_sampling.naive_loss_s": total["censor._naive_loss"],
            "mc.attempts": attempts,
            "mc.accepted": self.counts["mc.accepted"],
            "mc.acceptance_ratio": self.counts["mc.accepted"] / attempts if attempts else 0.0,
            "mc.simulate_s": total["mc.simulate_draws"],
            "mc.attempt_log_bytes_computed": self.counts["mc.attempt_log_bytes_computed"],
            "mc.oracle_s": total["mc.grid_posterior_oracle"],
        }
        for check in VERIFY_CHECKS:
            out[f"verify.check_s.{check}"] = total[f"verify.check.{check}"]
        out["cli.main_s"] = total["cli.main"]
        out["cli.exit3"] = self.counts["cli.exit3"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        out["trace.unattributed_s"] = wall_s - sum(self_s.values())
        out["trace.spans"] = len(self.spans)
        return {k: float(v) for k, v in out.items()}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start_ns", "end_ns", "parent"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}))


def _hit_ratio(layer: str, func: str) -> float:
    """Hit share of a module's lru_cache over the process so far; 0 without
    calls or without the cache."""
    cached = getattr(sys.modules.get(f"echochamber.{layer}"), func, None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return 0.0
    ci = info()
    return ci.hits / (ci.hits + ci.misses) if ci.hits + ci.misses else 0.0
