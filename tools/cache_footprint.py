"""Entries and memory of the per-form operator cache over a benchmark plan.

    python3 tools/cache_footprint.py --root <checkout> --workload W --seed N [--seconds 25]

The plan is built with <checkout>/perfbench/workloads.py, exactly as
perfbench/run.py builds it, and its warm-up ops and then its timed ops run
in this process through <checkout>/perfbench/worker.Runner, with the package
imported from <checkout>/src, as tools/op_digest.py runs them.  Nothing is
written into the checkout.

After the warm-up and again at the end, the cache of algebra.form_operator
(algebra._OPERATORS, keyed by (builder name, Q.key, *args)) is summarized:
one line per builder with its entry count and the megabytes its entries
hold, then a total line with the entries, the megabytes and the number of
distinct forms.  An entry's bytes are the nbytes of every numpy array it
reaches through tuples, lists, dicts and object attributes; an array that
several entries reach counts once.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

MB = 2 ** 20  # bytes per MB, as perfbench's peak_rss_mb counts them


def _nbytes(x, seen: set) -> int:
    """The nbytes of the numpy arrays that x reaches and that are not in
    seen, the ids of the objects already visited; x's are added to it."""
    import numpy as np
    if id(x) in seen or x is None or isinstance(x, (str, bytes, int, float, complex)):
        return 0
    seen.add(id(x))
    if isinstance(x, np.ndarray):
        return x.nbytes
    if isinstance(x, (list, tuple)):
        items = list(x)
    elif isinstance(x, dict):
        items = list(x.values())
    else:
        items = list(getattr(x, "__dict__", {}).values())
        for cls in type(x).__mro__:
            items += [getattr(x, n) for n in getattr(cls, "__slots__", ()) if hasattr(x, n)]
    return sum(_nbytes(v, seen) for v in items)


def summarize(cache: dict) -> dict:
    """{"builders": {name: {"entries", "mb"}}, "entries", "mb", "forms"} of a
    form_operator cache; builders in order of first entry."""
    builders, seen = {}, set()
    for key, op in cache.items():
        row = builders.setdefault(key[0], {"entries": 0, "mb": 0.0})
        row["entries"] += 1
        row["mb"] += _nbytes(op, seen) / MB
    return {"builders": builders,
            "entries": len(cache),
            "mb": sum(r["mb"] for r in builders.values()),
            "forms": len({key[1] for key in cache})}


def report(stage: str, summary: dict) -> None:
    """Print the lines of one summary."""
    for name, row in summary["builders"].items():
        print("%s: %-20s %6d entries %9.2f MB" % (stage, name, row["entries"], row["mb"]))
    print("%s: %-20s %6d entries %9.2f MB, %d forms" % (
        stage, "total", summary["entries"], summary["mb"], summary["forms"]), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", required=True, help="source checkout to run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25,
                    help="plan length, as perfbench/run.py --seconds")
    args = ap.parse_args()
    bench = Path(args.root).resolve() / "perfbench"
    sys.path.insert(0, str(bench))
    import worker  # pins the BLAS threads before numpy loads
    import workloads
    qp = worker.load_package(args.workload)
    cache = sys.modules["quadpole.algebra"]._OPERATORS
    plan = json.loads(workloads.encode(workloads.build(args.workload, args.seed,
                                                       args.seconds)))
    with tempfile.TemporaryDirectory() as tmp:
        workloads.write_inputs(plan, Path(tmp))
        runner = worker.Runner(qp, plan, Path(tmp))
        for stage, ops in (("warm-up", plan["warmup"]),
                           ("end", [op for p in plan["passes"] for op in p])):
            for op in ops:
                try:
                    runner.prepare(op)()
                except Exception:  # a failed op still leaves its cache entries
                    pass
            report(stage, summarize(cache))
    return 0


if __name__ == "__main__":
    sys.exit(main())
