"""One pass of one workload, in a fresh process.

Run by run.py, never directly: set-up is timed from the parent's spawn time
(--spawned-at, on the shared monotonic clock) until the package is imported
and the workload's inputs and parameters are resolved. The operations are
then timed from the first to the last, caches cold as in any command-line
run; the gates run afterwards, outside the timed region. The last stdout
line is a JSON object with the pass's measurements.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def run_pass(ops: list[workloads.Op], tracer: Tracer | None) -> dict:
    if len({op.name for op in ops}) != len(ops):
        raise ValueError("operation names must be unique")
    outputs: dict[str, object] = {}
    status: dict[str, str] = {}
    if tracer is not None:
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for op in ops:
        try:
            outputs[op.name] = op.call()
        except workloads.Refused as exc:
            outputs[op.name], status[op.name] = f"refused: {exc}", "refused"
        except Exception as exc:  # an operation that raises is a failed operation
            outputs[op.name], status[op.name] = f"raised {type(exc).__name__}: {exc}", "error"
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics(wall_s)

    problems = [f"{name}: {outputs[name]}" for name in status]
    for op in ops:
        if op.name in status:
            continue
        try:
            reason = op.gate(outputs[op.name], outputs)
        except Exception as exc:  # a malformed output fails its gate
            reason = f"gate raised {type(exc).__name__}: {exc}"
        if reason:
            status[op.name] = "wrong"
            problems.append(f"{op.name}: wrong: {reason}")
    canon = json.dumps([[op.name, workloads.canonical(outputs[op.name])] for op in ops])
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "refused": sum(1 for s in status.values() if s == "refused"),
        "wrong": sum(1 for s in status.values() if s in ("wrong", "error")),
        "failed": len(status),
        "problems": problems,
        "digest": hashlib.sha256(canon.encode()).hexdigest(),
        "layers": layers,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", required=True, type=float)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="where a traced pass writes its spans")
    args = parser.parse_args()

    prog = workloads.Program()
    ops = workloads.BUILDERS[args.workload](prog, args.seed, workloads.load_oracle(ROOT))
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    tracer = Tracer() if args.trace else None
    result = run_pass(ops, tracer)
    if tracer is not None and args.spans:
        tracer.write_spans(args.spans)
    print(json.dumps({"setup_s": setup_s, "traced": bool(args.trace), **result}))


if __name__ == "__main__":
    main()
