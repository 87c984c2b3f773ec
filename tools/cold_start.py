"""Cold and warm real_unique full_decompose on fresh ellipsoids, and peak RSS.

    python3 tools/cold_start.py --root <checkout> --degrees 24,32 [--forms 10] [--seed 0]

For each degree, one fresh interpreter imports the package from
<checkout>/src through <checkout>/perfbench/worker.py, which pins the BLAS
threads to one, and meets --forms fresh rotated ellipsoids in turn.  On each
form it draws a random real input of that degree with unit norm and times
full_decompose(P, Q, strategy="real_unique") twice with time.perf_counter:
cold, the first call on the form, which builds its operators, and warm, the
same call again.  After each form it reads the process's peak RSS
(ru_maxrss).  A call that raises is timed up to its error and counted as
failed.  Forms and inputs depend only on --seed and the degree.  Nothing is
written into the checkout.

One line per form, then one summary line per degree: the median cold and
warm times, the first form's cold time, the peak RSS after the last form
and the failures.  The last line of standard output is one JSON object,
{"degrees": {d: summary}}.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

MB = 2 ** 20  # bytes per MB, as perfbench's peak_rss_mb counts them


def peak_rss_mb() -> float:
    """The peak resident set of this process; Linux reports ru_maxrss in KB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def fresh_case(qp, degree: int, seed: int, k: int):
    """Form k of the series: a rotated ellipsoid with axes in [0.5, 2], and a
    real input of the degree with unit norm."""
    import numpy as np
    rng = np.random.default_rng([seed, degree, k])
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    A = (q * np.sign(np.diag(r))) * np.sqrt(rng.uniform(0.5, 2.0, size=3))
    c = rng.standard_normal((degree + 1) * (degree + 2) // 2)
    return qp.QuadForm(A @ A.T), qp.HomogPoly(degree, c / np.linalg.norm(c))


def _timed(qp, P, Q):
    """(seconds, ok) of one real_unique full_decompose."""
    t = time.perf_counter()
    try:
        qp.full_decompose(P, Q, strategy="real_unique")
        ok = True
    except qp.QuadpoleError:
        ok = False
    return time.perf_counter() - t, ok


def measure(qp, degree: int, forms: int, seed: int):
    """One row per fresh form: {"form", "cold_s", "warm_s", "rss_mb", "ok"}."""
    rows = []
    for k in range(forms):
        Q, P = fresh_case(qp, degree, seed, k)
        cold_s, ok = _timed(qp, P, Q)
        warm_s, _ = _timed(qp, P, Q)
        rows.append({"form": k + 1, "cold_s": cold_s, "warm_s": warm_s,
                     "rss_mb": peak_rss_mb(), "ok": ok})
    return rows


def summarize(degree: int, rows) -> dict:
    """The summary of one degree's rows."""
    return {"degree": degree, "forms": len(rows),
            "cold_s": statistics.median(r["cold_s"] for r in rows),
            "warm_s": statistics.median(r["warm_s"] for r in rows),
            "first_cold_s": rows[0]["cold_s"],
            "peak_rss_mb": rows[-1]["rss_mb"],
            "failed": sum(not r["ok"] for r in rows)}


def form_line(degree: int, row: dict) -> str:
    return "d=%d form %d: cold %.3f s, warm %.3f s, peak RSS %.1f MB%s" % (
        degree, row["form"], row["cold_s"], row["warm_s"], row["rss_mb"],
        "" if row["ok"] else ", failed")


def summary_line(s: dict) -> str:
    return ("d=%d: cold median %.3f s (first %.3f s), warm median %.3f s, "
            "peak RSS %.1f MB after %d forms, %d failed" % (
                s["degree"], s["cold_s"], s["first_cold_s"], s["warm_s"],
                s["peak_rss_mb"], s["forms"], s["failed"]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", required=True, help="source checkout to run")
    ap.add_argument("--degrees", default="24,32", help="e.g. 24,32")
    ap.add_argument("--forms", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)  # a child's degree
    args = ap.parse_args()
    root = Path(args.root).resolve()
    if args.one is not None:
        sys.path.insert(0, str(root / "perfbench"))
        import worker  # pins the BLAS threads before numpy loads
        rows = measure(worker.load_package("enumerate"), args.one, args.forms, args.seed)
        print(json.dumps(rows))
        return 0
    summaries = {}
    for degree in (int(d) for d in args.degrees.split(",")):
        proc = subprocess.run([sys.executable, __file__, "--root", str(root),
                               "--one", str(degree), "--forms", str(args.forms),
                               "--seed", str(args.seed)],
                              capture_output=True, text=True, check=True)
        rows = json.loads(proc.stdout.strip().splitlines()[-1])
        for row in rows:
            print(form_line(degree, row))
        summaries[degree] = summarize(degree, rows)
        print(summary_line(summaries[degree]), flush=True)
    print(json.dumps({"degrees": summaries}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
