"""Benchmark of the echochamber package: one workload per invocation.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source tree; the package is imported from its src/.
Each pass of the workload runs in a fresh child process (child.py) with one
BLAS thread, one client, closed loop. Passes repeat until --seconds have
elapsed, except that no pass starts which, at the length of the one before,
would end after 1.8 x --seconds; this bounds the length of a run. Extra
set-up-only children top the set-up samples up to five.
With --trace 0 the run reports the end-to-end metrics as medians over its
passes; with --trace 1 it alternates untraced and traced passes and reports
the per-layer metrics. Every line before the last is for people; the last
is one JSON object with correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("curves", "optimize", "montecarlo")
RUN_LIMIT_S = 170.0  # every run must end within 180 s
RUN_CAP = 1.8  # no pass starts that would likely end after RUN_CAP * --seconds
MIN_SETUP_SAMPLES = 5
BLAS_THREADS = "1"
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
}
OUT_DIR = ROOT / ".perfbench_out"


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **CHILD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    """Run one child to completion and return its JSON line; a child that
    fails or outlives the deadline yields an error record."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--spawned-at", repr(spawned), *extra]
    try:
        proc = subprocess.run(
            cmd,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {time.monotonic() - spawned:.1f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Repeat passes of one workload for about the given time, then top up
    the set-up samples; returns the raw records."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes: list[dict] = []
    errors: list[str] = []
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    last = 0.0
    while len(passes) < (2 if trace else 1) or (
        time.monotonic() - start < seconds and time.monotonic() - start + last <= RUN_CAP * seconds
    ):
        traced = trace and len(passes) % 2 == 1
        extra = ["--trace", "1", "--spans", str(spans)] if traced else []
        began = time.monotonic()
        rec = _spawn(workload, seed, deadline, *extra)
        if "error" in rec:
            errors.append(rec["error"])
            break
        passes.append(rec)
        last = time.monotonic() - began
    setups = [p["setup_s"] for p in passes]
    while not errors and len(setups) < MIN_SETUP_SAMPLES and time.monotonic() < deadline - 10.0:
        rec = _spawn(workload, seed, deadline, "--setup-only")
        if "error" in rec:
            errors.append(rec["error"])
            break
        setups.append(rec["setup_s"])
    return {"workload": workload, "seed": seed, "passes": passes, "setups": setups, "errors": errors}


def summarize(run: dict, trace: bool) -> dict:
    passes = run["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = sorted({msg for p in passes for msg in p["problems"]})
    digests = {p["digest"] for p in passes}
    correct = bool(passes) and not run["errors"] and len(digests) == 1
    correct = correct and all(p["wrong"] == 0 for p in passes)
    if len(digests) > 1:
        problems.append(f"outputs differ between passes: {sorted(digests)}")
    out = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if passes else 1,
        "problems": problems + run["errors"],
    }
    if not plain or (trace and not traced):
        out["metrics"] = {}
        return out
    walls = [p["wall_s"] for p in plain]
    if trace:
        layer_names = list(traced[0]["layers"])
        metrics = {
            name: (statistics.median(p["layers"][name] for p in traced), _unit(name))
            for name in layer_names
        }
        metrics["process.cpu_s"] = (statistics.median(p["cpu_s"] for p in plain), "s")
        metrics["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced) / statistics.median(walls),
            "ratio",
        )
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(run["setups"]), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
        }
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out["samples"] = {
        "wall_s": walls,
        "setup_s": run["setups"],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    return out


def _unit(name: str) -> str:
    if name.endswith("_s") or ".check_s." in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "B"
    return "count"


def provenance(seed: int, trace: bool) -> dict:
    import numpy
    import scipy

    src = ROOT / "src" / "echochamber"
    files = sorted(src.glob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "blas_env": CHILD_ENV,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in files),
        "seed": seed,
        "trace": int(trace),
    }


def report(workload: str, summary: dict) -> None:
    samples = summary.get("samples", {})
    for name, m in summary["metrics"].items():
        line = f"{workload} {name} = {m['value']:.6g} {m['unit']}"
        if name in samples:
            lo, hi = _quartiles(samples[name])
            line += f"  (median of {len(samples[name])}; quartiles {lo:.6g}..{hi:.6g})"
        print(line)
    rate = summary["failed"] / summary["attempted"]
    counts = f"{summary['failed']} failed of {summary['attempted']} attempted"
    print(f"{workload} fail_rate = {rate:.6g} ratio  ({counts})")
    for msg in summary["problems"]:
        print(f"{workload} problem: {msg}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    needed = [ROOT / "src" / "echochamber" / "__init__.py", ROOT / "tests" / "data" / "oracle.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a source tree, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    prov = provenance(args.seed, trace)
    print("provenance " + json.dumps(prov, sort_keys=True))
    results = {}
    for name in names:
        summary = summarize(measure(name, args.seed, args.seconds, trace), trace)
        report(name, summary)
        results[name] = summary
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"provenance": prov, "results": results}
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
