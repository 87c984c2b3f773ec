"""Time spent at the CLI/JSON boundary of a decompose plan, stage by stage.

    python3 tools/boundary_split.py --root <checkout> --seed N [--seconds 25]

The decompose plan is built with <checkout>/perfbench/workloads.py, exactly
as perfbench/run.py builds it, and its warm-up ops and then its timed ops
run in this process through <checkout>/perfbench/worker.Runner, with the
package imported from <checkout>/src, as tools/op_digest.py runs them.
Nothing is written into the checkout.

During the timed ops, timers wrapped around functions of quadpole.cli and
quadpole.io split each op's wall time into five stages:

    load       cli._load_json and cli._parse_fragment: reading and json.load
    parse      io's *_from_json, quadform_preset and _parse_cnum, and
               cli._parse_vectors: JSON data to the package's objects
    compute    the rest of the op
    serialize  io's *_to_json and _cnum, and cli's *_arrays: the package's
               objects to the answer the printer takes
    print      cli._emit: the JSON text and its write

Where the CLI hands the printer the package's arrays (a grade as its
HomogPoly, lines as an (n, 3) complex array), serialize only builds the
dicts around them, and the text of each grade and line stack, written from
the arrays, counts to print; where it hands the printer io's JSON data,
building that data is serialize.  Compare serialize plus print across such
checkouts.  A timed call inside another timed call counts to the outer one.
One line per op kind (the command and its flags, as in the op's argv)
gives the op count, the total ms, each stage's ms and share of the total,
and the parse time per input term; a total line closes the table.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

STAGES = ("load", "parse", "compute", "serialize", "print")


def summarize(records) -> dict:
    """{"kinds": {kind: row}, "total": row} of per-op records, each
    {"kind", "ms", "terms", "stages": {stage: ms}} with every stage but
    compute; compute is the rest of the op's ms.  A row holds "ops", "ms",
    "terms" (input terms), "stages": {stage: {"ms", "share"}} in STAGES
    order, and "parse_us_per_term" (None for no terms); kinds in order of
    first op."""
    def row():
        return {"ops": 0, "ms": 0.0, "terms": 0, "stages": dict.fromkeys(STAGES, 0.0)}

    sums = {None: row()}  # None is the total
    for rec in records:
        for key in (rec["kind"], None):
            r = sums.setdefault(key, row())
            r["ops"] += 1
            r["ms"] += rec["ms"]
            r["terms"] += rec["terms"]
            for stage, ms in rec["stages"].items():
                r["stages"][stage] += ms
            r["stages"]["compute"] += rec["ms"] - sum(rec["stages"].values())
    out = {}
    for key, row in sums.items():
        row["stages"] = {stage: {"ms": ms, "share": ms / row["ms"] if row["ms"] else 0.0}
                         for stage, ms in row["stages"].items()}
        row["parse_us_per_term"] = (row["stages"]["parse"]["ms"] * 1e3 / row["terms"]
                                    if row["terms"] else None)
        out[key] = row
    total = out.pop(None)
    return {"kinds": out, "total": total}


def report(summary: dict) -> None:
    """Print the table of one summary."""
    print("%-40s %4s %9s" % ("kind", "ops", "total ms")
          + "".join(" %17s" % s for s in STAGES) + " %13s" % "parse us/term")
    rows = list(summary["kinds"].items()) + [("total", summary["total"])]
    for kind, row in rows:
        per_term = row["parse_us_per_term"]
        print("%-40s %4d %9.1f" % (kind, row["ops"], row["ms"])
              + "".join(" %9.1f (%4.1f%%)" % (row["stages"][s]["ms"],
                                               100 * row["stages"][s]["share"])
                        for s in STAGES)
              + " %13s" % ("-" if per_term is None else "%.2f" % per_term))


class Timers:
    """Stage timers wrapped around module functions; the outermost timed
    call of a nest counts."""

    def __init__(self) -> None:
        self.ms = {}
        self.busy = False

    def wrap(self, module, name: str, stage: str) -> None:
        fn = getattr(module, name)

        def timed(*args, **kwargs):
            if self.busy:
                return fn(*args, **kwargs)
            self.busy = True
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ms[stage] = self.ms.get(stage, 0.0) + (time.perf_counter() - t) * 1e3
                self.busy = False

        setattr(module, name, timed)

    def install(self, cli, io) -> None:
        for name in ("_load_json", "_parse_fragment"):
            self.wrap(cli, name, "load")
        self.wrap(cli, "_parse_vectors", "parse")
        self.wrap(cli, "_emit", "print")
        for name in sorted(vars(cli)):
            if name.endswith("_arrays") and callable(getattr(cli, name)):
                self.wrap(cli, name, "serialize")
        for name in sorted(vars(io)):
            if callable(getattr(io, name)) and getattr(io, name).__module__ == io.__name__:
                if name.endswith("_from_json") or name in ("quadform_preset", "_parse_cnum"):
                    self.wrap(io, name, "parse")
                elif name.endswith("_to_json") or name == "_cnum":
                    self.wrap(io, name, "serialize")


def op_kind(op: dict) -> str:
    """The op's command and flags, its argv without the input file."""
    return " ".join(a for a in op["argv"] if a != "@in")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", required=True, help="source checkout to run")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25,
                    help="plan length, as perfbench/run.py --seconds")
    args = ap.parse_args()
    bench = Path(args.root).resolve() / "perfbench"
    sys.path.insert(0, str(bench))
    import worker  # pins the BLAS threads before numpy loads
    import workloads
    qp = worker.load_package("decompose")
    plan = json.loads(workloads.encode(workloads.build("decompose", args.seed,
                                                       args.seconds)))
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        workloads.write_inputs(plan, Path(tmp))
        runner = worker.Runner(qp, plan, Path(tmp))
        for op in plan["warmup"]:
            runner.prepare(op)()
        timers = Timers()
        timers.install(sys.modules["quadpole.cli"], sys.modules["quadpole.io"])
        for op in [op for p in plan["passes"] for op in p]:
            call = runner.prepare(op)
            timers.ms = {}
            t = time.perf_counter()
            try:
                call()
            except Exception:  # a failed op's time still counts
                pass
            records.append({"kind": op_kind(op), "ms": (time.perf_counter() - t) * 1e3,
                            "terms": len(op["input"]["terms"]), "stages": timers.ms})
    report(summarize(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
