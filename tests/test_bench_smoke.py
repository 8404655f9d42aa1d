"""The benchmark's own smoke test, run as part of the suite.

``perfbench/`` traces burnkit's public functions by name and pins the
outputs of its workloads, so a rename or a change of output breaks it.
Running its toy-sized smoke check here catches that in the test suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
