"""The benchmark's own self-test, run as a Tier-1 check.

perfbench/selftest.py checks, among other things, that the tracer still
sees the package's least-squares solve on a cold operator cache; a change
to the division that drops it fails here, not only in the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
