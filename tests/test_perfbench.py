"""The benchmark's own self-test, run as a Tier-1 check.

perfbench/selftest.py checks, among other things, that the tracer still
sees the package's least-squares solve on a cold operator cache; a change
to the division that drops it fails here, not only in the benchmark.

The tracer's per-layer metrics name package functions; one whose target is
renamed or removed reads null, and a null ends a traced benchmark run
without a result.  test_every_tracer_target_resolves catches that here.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_tracer_target_resolves():
    import quadpole  # noqa: F401
    import quadpole.cli  # noqa: F401
    tracer = _load_tracer()
    tr = tracer.Tracer()
    tr.install()
    try:
        missing = tr.missing
    finally:
        tr.uninstall()
    assert missing == []
    assert tracer.still_bound() == []
