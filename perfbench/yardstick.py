"""A fixed unit of work that tracks how fast the machine runs right now.

On a shared host the speed of the machine itself drifts by tens of percent
over seconds, for every process alike; CPU-time clocks drift with it.  The
benchmark therefore times this yardstick between ops and scales each op's
wall time by NOMINAL_MS / (the yardstick's local time): a run reports what
its ops would take on a machine that runs the yardstick in NOMINAL_MS.

The yardstick is the benchmark's own code and never calls the package, so a
change to the package cannot move it.  It mixes interpreted Python with
small numpy calls (least squares, polynomial roots, products), as the ops
do, and takes a few milliseconds.
"""

import statistics
import time

import numpy as np

# Fixed once; any constant would do, this one is near the yardstick's time
# on a 2-vCPU Xeon container, so scaled and raw figures read alike.
NOMINAL_MS = 4.0
# Samples around an op whose median sets its local speed: the one before
# it, the one after it, and one more on each side.
REACH = 2
# Samples taken on each side of a set-up: just before its process is
# spawned, and by that process right after its warm-up.
SETUP_SAMPLES = 5

_lstsq = np.linalg.lstsq
_roots = np.roots
_A = np.cos(np.arange(60.0).reshape(12, 5))
_b = np.sin(np.arange(12.0))
_c = np.cos(np.arange(9.0) + 0.5)


def sample_ms() -> float:
    """Wall time of one fixed piece of work, in ms."""
    t = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    for _ in range(12):
        x = _lstsq(_A, _b, rcond=None)[0]
        r = _roots(_c)
        s += int(abs(x @ x + r.real.sum()) > 0)
    return (time.perf_counter() - t) * 1e3


def levels_ms(samples) -> list:
    """Local yardstick time of each op, from samples[i] taken just before
    op i and samples[i + 1] just after it."""
    n = len(samples) - 1
    return [statistics.median(samples[max(0, i + 1 - REACH): i + 1 + REACH])
            for i in range(n)]


def scale(level: float) -> float:
    """Factor that turns a wall time at `level` into one at NOMINAL_MS."""
    return NOMINAL_MS / level
