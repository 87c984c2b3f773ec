"""Alternating parent/change benchmark pairs and their summary.

    python3 tools/bench_pairs.py --parent <checkout> --change <checkout> \
        --workload W --seeds 4-13

For each seed, <checkout>/perfbench/run.py --trace 0 runs once in each
checkout for <change>/BENCHMARK.json's run_seconds, one run at a time: the
parent first on even seeds, the change first on odd seeds.  Each side runs
with its own PYTHONPYCACHEPREFIX, a directory made in a temporary directory
when the series starts and removed when it ends, so that neither side reads
byte-compiled files left in its checkout and both compile alike.  Each run's
result line (the last line of its standard output) is kept with "side",
"seed" and "workload" added.  A run that exits non-zero or prints no
result line stops the series; the lines kept so far are printed with the
error.

The last line of standard output is one JSON object: "runs", every result
line in run order, and "summary", {W: block}, where the block gives per
side the failed/attempted counts and correct flags in seed order, and for
each end-to-end metric of <change>/BENCHMARK.json its "better" direction,
each side's median and linear-interpolated quartiles, change_relative_gain
(the medians' relative difference, positive when the change reads better)
and change_wins (the pairs in which the change reads strictly better).
Beside it, "verdicts" gives per workload and metric whether a claimed gain
would hold: "wins_enough", the change won at least 9 of every 10 pairs, and
"beyond_parent_iqr", its median reads better than the parent's by more than
the parent's interquartile range.  Progress goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
from op_digest import parse_seeds  # noqa: E402

SIDES = ("parent", "change")


def run_order(seed: int):
    """The sides in the order they run at this seed."""
    return SIDES if seed % 2 == 0 else SIDES[::-1]


def run_once(root: Path, workload: str, seed: int, seconds: int, pycache: Path) -> dict:
    """One perfbench/run.py --trace 0 run in the checkout, with its byte-compiled
    files under pycache, as its result line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache)))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d: %s" % (root, seed, proc.returncode,
                                                         proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def run_series(roots: dict, workload: str, seeds, seconds: int):
    """The result lines of the alternating runs, tagged with side, seed and
    workload, and the error that stopped the series (None when none did)."""
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        pycache = {side: Path(tmp, side) for side in SIDES}
        try:
            for seed in seeds:
                for side in run_order(seed):
                    print("%s seed %d: %s" % (workload, seed, side), file=sys.stderr,
                          flush=True)
                    line = run_once(roots[side], workload, seed, seconds, pycache[side])
                    runs.append(dict(line, side=side, seed=seed, workload=workload))
        except RuntimeError as exc:
            return runs, str(exc)
    return runs, None


def _gain(parent: float, change: float, better: str) -> float:
    """Relative difference of change against parent, positive when change is better."""
    diff = change - parent if better == "higher" else parent - change
    return diff / parent


def summarize(runs, metrics) -> dict:
    """The summary block per workload of result lines tagged with side, seed
    and workload; metrics are BENCHMARK.json's end_to_end entries.  Every
    seed must have one run of each side."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        seeds = sorted({r["seed"] for r in mine})
        by = {(r["side"], r["seed"]): r for r in mine}
        missing = [(side, s) for s in seeds for side in SIDES if (side, s) not in by]
        if missing:
            raise ValueError("%s: no run for %s" % (workload, missing))
        side_runs = {side: [by[side, s] for s in seeds] for side in SIDES}
        block = {"pairs": len(seeds), "seeds": seeds,
                 "failed": {side: ["%d/%d" % (r["failed"], r["attempted"]) for r in rs]
                            for side, rs in side_runs.items()},
                 "correct": {side: [r["correct"] for r in rs]
                             for side, rs in side_runs.items()}}
        for m in metrics:
            name, better = m["name"], m["better"]
            vals = {side: np.array([r["metrics"][name]["value"] for r in rs], dtype=float)
                    for side, rs in side_runs.items()}
            entry = {"better": better}
            for side in SIDES:
                q1, med, q3 = np.percentile(vals[side], [25, 50, 75])
                entry[side + "_median"] = float(med)
                entry[side + "_q1_q3"] = [float(q1), float(q3)]
            entry["change_relative_gain"] = _gain(entry["parent_median"],
                                                  entry["change_median"], better)
            entry["change_wins"] = int(sum(_gain(p, c, better) > 0
                                           for p, c in zip(vals["parent"], vals["change"])))
            block[name] = entry
        out[workload] = block
    return out


def verdicts(summary) -> dict:
    """{W: {metric: {"wins", "pairs", "wins_enough", "beyond_parent_iqr"}}}
    of a summary, for each metric entry of each workload block."""
    out = {}
    for workload, block in summary.items():
        out[workload] = {}
        for name, entry in block.items():
            if not isinstance(entry, dict) or "better" not in entry:
                continue
            q1, q3 = entry["parent_q1_q3"]
            diff = entry["change_median"] - entry["parent_median"]
            if entry["better"] == "lower":
                diff = -diff
            wins, pairs = entry["change_wins"], block["pairs"]
            out[workload][name] = {"wins": wins, "pairs": pairs,
                                   "wins_enough": 10 * wins >= 9 * pairs,
                                   "beyond_parent_iqr": diff > q3 - q1}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="4-13", help="e.g. 4-13 or 4,6,8")
    args = ap.parse_args()
    roots = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    runs, err = run_series(roots, args.workload, parse_seeds(args.seeds), bench["run_seconds"])
    if err is not None:
        print("error: %s" % err, file=sys.stderr)
    result = {"runs": runs}
    if err is None:
        result["summary"] = summarize(runs, bench["end_to_end"])
        result["verdicts"] = verdicts(result["summary"])
    print(json.dumps(result))
    return 0 if err is None else 1


if __name__ == "__main__":
    sys.exit(main())
