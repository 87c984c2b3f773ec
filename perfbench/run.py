"""Benchmark for quadpole: one closed-loop caller per run, every output certified.

    python3 perfbench/run.py --workload enumerate|decompose|approx \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
The inputs come from the seed alone (workloads.py).  With --trace 0 the run
reports the end-to-end metrics:

  setup_s        median over fresh interpreters of import + warm-up pass
  ops_per_s      certified ops / summed op wall time, over whole passes
  results_per_s  certified results / summed op wall time
  peak_rss_mb    peak resident set of the measuring process

The times are scaled to a nominal machine speed by a yardstick timed around
every op and every set-up (yardstick.py); the raw figures are printed too.

With --trace 1 it runs the first half of the passes twice, untraced and then
traced (tracer.py), and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is the JSON result.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import yardstick  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Fresh interpreters per run that time set-up: the measuring process plus
# these, three before it and three after it.
SETUP_ONLY = 6
DEADLINE_S = 170.0
PERCENTILES = (50, 90, 95, 99, 99.9)


class BenchError(Exception):
    pass


def spawn(workload: str, plan: Path, mode: str, tag: str, deadline: float,
          half: bool = False) -> dict:
    out = plan.parent / ("result_%s.json" % tag)
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--plan", str(plan), "--out", str(out), "--mode", mode,
           "--t0", repr(time.time())]
    if half:
        cmd.append("--half")
    before = [yardstick.sample_ms() for _ in range(yardstick.SETUP_SAMPLES)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the %s process" % tag)
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("the %s process ran past the deadline" % tag) from None
    if proc.returncode != 0 or not out.exists():
        raise BenchError("the %s process failed with exit code %d"
                         % (tag, proc.returncode))
    result = json.loads(out.read_text())
    # The set-up's local yardstick time: samples taken just before the
    # spawn here and just after the warm-up in the child.
    result["setup_yard_ms"] = statistics.median(before + result["yard_ms"])
    result["setup_scaled_s"] = result["setup_s"] * yardstick.scale(
        result["setup_yard_ms"])
    return result


def summarize(records: list) -> dict:
    """Counts, throughputs and latencies of one run's op records.

    The throughputs divide by op times scaled to the yardstick's nominal
    speed where the records carry them (untraced runs), and by raw wall
    time otherwise; raw throughputs are kept alongside."""
    raw = sum(r["s"] for r in records)
    busy = sum(r.get("scaled_s", r["s"]) for r in records)
    ok = [r for r in records if r["status"] == "ok"]
    lat = sorted(r["s"] * 1e3 for r in records)
    n = len(lat)
    pct = max((p for p in PERCENTILES if n * (1 - p / 100.0) >= 10), default=50)
    return {
        "attempted": n,
        "certified": len(ok),
        "failed": n - len(ok),
        "raised": sum(r["status"] == "raised" for r in records),
        "missed": sum(r["status"] == "miss" for r in records),
        "crashed": sum(r["status"] == "crashed" for r in records),
        "results": sum(r["results"] for r in ok),
        "busy_s": busy,
        "ops_per_s": len(ok) / busy,
        "results_per_s": sum(r["results"] for r in ok) / busy,
        "raw_ops_per_s": len(ok) / raw,
        "raw_results_per_s": sum(r["results"] for r in ok) / raw,
        "yard_ms": (statistics.median(r["yard_ms"] for r in records)
                    if "yard_ms" in records[0] else None),
        "latency_median_ms": statistics.median(lat),
        "latency_pct": pct,
        "latency_pct_ms": statistics.quantiles(lat, n=1000, method="inclusive")[
            int(round(pct * 10)) - 1] if n > 1 else lat[0],
    }


def by_kind(records: list) -> dict:
    groups: dict = {}
    for r in records:
        groups.setdefault(r["label"], []).append(r)
    return {k: {"n": len(v), "failed": sum(r["status"] != "ok" for r in v),
                "median_ms": statistics.median(r["s"] * 1e3 for r in v),
                "errors": sorted({r["error"].split(":")[0] for r in v
                                  if r["error"]})}
            for k, v in sorted(groups.items())}


def commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "commit": commit(), "seed": seed}


def fmt(v) -> str:
    return "null" if v is None else "%.6g" % v


def report_records(s: dict, kinds: dict, ref) -> None:
    print("ops: attempted %d, certified %d, failed %d (%.1f%%: raised %d,"
          " missed certification %d, crashed %d)"
          % (s["attempted"], s["certified"], s["failed"],
             100.0 * s["failed"] / s["attempted"], s["raised"], s["missed"],
             s["crashed"]))
    print("op latency: median %.2f ms, p%g %.2f ms, %d samples (mixed op sizes;"
          " not gated)" % (s["latency_median_ms"], s["latency_pct"],
                           s["latency_pct_ms"], s["attempted"]))
    print("reference loop: %.1f ms at start, %.1f ms at end (machine-speed"
          " diagnostic)" % tuple(ref))
    if s["yard_ms"] is not None:
        print("yardstick: median %.3f ms against %.3f ms nominal; raw wall-time"
              " throughput %.6g ops/s, %.6g results/s"
              % (s["yard_ms"], yardstick.NOMINAL_MS, s["raw_ops_per_s"],
                 s["raw_results_per_s"]))
    for k, v in kinds.items():
        print("  %-52s n=%-4d median %8.2f ms  failed %d %s"
              % (k, v["n"], v["median_ms"], v["failed"], " ".join(v["errors"])))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "quadpole" / "__init__.py").is_file():
        print("error: no quadpole sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = workloads.build(args.workload, args.seed, args.seconds)
    plan_path = work / "plan.json"
    plan_path.write_bytes(workloads.encode(plan))
    workloads.write_inputs(plan, work)

    env = environment(args.seed)
    print("quadpole benchmark: workload %s, seed %d, %d s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("environment: " + json.dumps(env, sort_keys=True))
    n_ops = sum(len(p) for p in plan["passes"])
    print("plan: %d timed passes, %d ops, %d warm-up ops, %d forms (%d pooled)"
          % (len(plan["passes"]), n_ops, len(plan["warmup"]), len(plan["forms"]),
             sum(f["pooled"] for f in plan["forms"])))

    try:
        if args.trace == 0:
            setups = [spawn(args.workload, plan_path, "setup", "setup%d" % i,
                            deadline) for i in range(SETUP_ONLY // 2)]
            run = spawn(args.workload, plan_path, "measure", "measure", deadline)
            setups += [spawn(args.workload, plan_path, "setup", "setup%d" % i,
                             deadline) for i in range(SETUP_ONLY // 2, SETUP_ONLY)]
            setups.append(run)
            s = summarize(run["records"])
            report_records(s, by_kind(run["records"]), run["reference_ms"])
            setup_s = statistics.median(x["setup_scaled_s"] for x in setups)
            print("setup: %s s scaled to the nominal yardstick; raw %s s"
                  " (import %s s + warm-up %s s) at yardstick %s ms"
                  % (" ".join("%.3f" % x["setup_scaled_s"] for x in setups),
                     " ".join("%.3f" % x["setup_s"] for x in setups),
                     " ".join("%.3f" % x["import_s"] for x in setups),
                     " ".join("%.3f" % x["warmup_s"] for x in setups),
                     " ".join("%.3f" % x["setup_yard_ms"] for x in setups)))
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "ops_per_s": {"value": s["ops_per_s"], "unit": "1/s"},
                "results_per_s": {"value": s["results_per_s"], "unit": "1/s"},
                "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            }
            correct = s["missed"] == 0 and s["crashed"] == 0
        else:
            from tracer import LAYER_METRICS, LAYER_UNITS
            plain = spawn(args.workload, plan_path, "measure", "untraced",
                          deadline, half=True)
            run = spawn(args.workload, plan_path, "trace", "traced", deadline,
                        half=True)
            if run["still_bound"]:
                raise BenchError("wrappers left bound: %s" % run["still_bound"])
            p, s = summarize(plain["records"]), summarize(run["records"])
            report_records(s, by_kind(run["records"]), run["reference_ms"])
            # raw wall time on both sides: only the untraced run is scaled
            print("tracing overhead: traced %.4g ops/s against untraced %.4g"
                  " ops/s, raw wall time (x%.3f op time)"
                  % (s["raw_ops_per_s"], p["raw_ops_per_s"],
                     p["raw_ops_per_s"] / s["raw_ops_per_s"]))
            acc = run["account"]
            print("self-time accounting: %d spans; self times sum to each op's"
                  " wall time within %.2e ms; package spans cover a median"
                  " %.1f%% of op wall time"
                  % (acc["spans"], acc["self_sum_vs_wall_max_abs_ms"],
                     100.0 * acc["package_share_of_op_wall_median"]))
            metrics = {name: {"value": value,
                              "unit": LAYER_UNITS[LAYER_METRICS[name][0]]}
                       for name, value in run["layers"].items()}
            correct = all(x["missed"] == 0 and x["crashed"] == 0 for x in (p, s))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print("%s: %s %s" % (name, fmt(m["value"]), m["unit"]))
    print(json.dumps({"correct": correct, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
