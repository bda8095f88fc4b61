"""The benchmark's own self-test, run against this tree.

perfbench/tracer.py wraps inference._policy_pieces by name and reads the
arrays at positions 2-4 of its result, so a kernel change that breaks
`perfbench/run.py --trace 1` fails here instead of silently.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes() -> None:
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "24/24 self-checks hold" in proc.stdout, proc.stdout
