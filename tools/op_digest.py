"""Digest of every benchmark op's output, to show that a change keeps them.

    python3 tools/op_digest.py --root <checkout> --workload W --seeds 1-11 [--seconds 25]
                               [--per-op]
    python3 tools/op_digest.py --root <checkout> --readme

For each seed the plan is built with <checkout>/perfbench/workloads.py,
exactly as perfbench/run.py builds it, and every warm-up and timed op runs
in this process through <checkout>/perfbench/worker.Runner, with the
package imported from <checkout>/src.  Each output is reduced to bytes:
arrays and numbers by their bits (signed zeros included), strings and
integers by value, containers element by element, and other objects by
their type name and public attributes.  A failed op counts by its error's
type and message instead.  Nothing is written into the checkout; the CLI
ops read their inputs from a temporary directory.

One line per seed and a total line give the op count, the failure count
(ops that raised, and CLI ops with a non-zero exit code) and the SHA-256 of
the outputs in op order.  Two checkouts with equal lines gave every op the
same bits.  With --per-op each seed's line comes after one line per op,

    seed 4 op 17 [allfact d=4, sphere] ok sha256 <hex>

with the op's id, its label as perfbench/worker.label gives it, its status
(ok, "raised <error type>", or "exit <code>" for a CLI op that exits
non-zero) and the SHA-256 of the op's own bytes; diffing the output of two
checkouts then names the first op whose bits differ.

--readme runs instead each README demo listed in
<checkout>/tests/data/readme_demos.json as `python -m quadpole.cli ...` in a
fresh interpreter, from the checkout root with <checkout>/src on PYTHONPATH
and the BLAS threads pinned to one, and prints per demo the SHA-256 of its
exit code and its exact stdout bytes.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True


def parse_seeds(text: str):
    """'1-11' or '1,4,7' or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _fields(x) -> dict:
    out = dict(getattr(x, "__dict__", {}))
    for cls in type(x).__mro__:
        for n in getattr(cls, "__slots__", ()):
            if hasattr(x, n):
                out[n] = getattr(x, n)
    return {n: v for n, v in sorted(out.items()) if not n.startswith("_")}


def feed(h, x, np) -> None:
    """Add x's bytes to the hash h."""
    if x is None or isinstance(x, (bool, int, str, bytes)):
        h.update(repr(x).encode())
    elif isinstance(x, (float, complex, np.generic, np.ndarray)):
        a = np.asarray(x)
        if a.dtype == object:
            h.update(b"O%r" % (a.shape,))
            feed(h, a.ravel().tolist(), np)
        else:
            h.update(("%s%r" % (a.dtype.str, a.shape)).encode())
            h.update(np.ascontiguousarray(a).tobytes())
    elif isinstance(x, (list, tuple)):
        h.update(b"[%d" % len(x))
        for v in x:
            feed(h, v, np)
    elif isinstance(x, dict):
        h.update(b"{%d" % len(x))
        for k, v in x.items():
            feed(h, k, np)
            feed(h, v, np)
    else:
        h.update(type(x).__name__.encode())
        for k, v in _fields(x).items():
            h.update(k.encode())
            feed(h, v, np)


class _Tee:
    """Feeds the same bytes to several hashes."""

    def __init__(self, *hashes) -> None:
        self.hashes = hashes

    def update(self, data: bytes) -> None:
        for h in self.hashes:
            h.update(data)


def digest_op(h, op: dict, call, np):
    """Run call(), op's prepared call, and add its bytes to the hash h.

    Gives the op's status, "ok", "raised <error type>" or "exit <code>" (a
    CLI op's non-zero exit code), and the SHA-256 of the op's own bytes.
    """
    own = hashlib.sha256()
    both = _Tee(h, own)
    try:
        out = call()
    except Exception as exc:  # a failure is part of the digest
        both.update(("!%s: %s" % (type(exc).__name__, exc)).encode())
        return "raised %s" % type(exc).__name__, own.hexdigest()
    feed(both, out, np)
    status = "exit %d" % out[0] if op["kind"] == "cli" and out[0] != 0 else "ok"
    return status, own.hexdigest()


def op_line(seed: int, op_id, label: str, status: str, digest: str) -> str:
    """The --per-op line of one op."""
    return "seed %d op %s [%s] %s sha256 %s" % (seed, op_id, label, status, digest)


def run_seed(worker, workloads, qp, workload: str, seed: int, seconds: int,
             per_op: bool = False):
    """(op count, failure count, SHA-256 hex) of one seed's plan; with
    per_op, each op's line is printed as it finishes."""
    import numpy as np
    plan = json.loads(workloads.encode(workloads.build(workload, seed, seconds)))
    h = hashlib.sha256()
    failed = 0
    ops = plan["warmup"] + [op for p in plan["passes"] for op in p]
    with tempfile.TemporaryDirectory() as tmp:
        workloads.write_inputs(plan, Path(tmp))
        runner = worker.Runner(qp, plan, Path(tmp))
        for op in ops:
            status, digest = digest_op(h, op, lambda: runner.prepare(op)(), np)
            failed += status != "ok"
            if per_op:
                print(op_line(seed, op["id"], worker.label(op, plan), status, digest),
                      flush=True)
    return len(ops), failed, h.hexdigest()


def readme_digests(root: Path) -> int:
    """Print one SHA-256 of exit code and stdout per README demo."""
    demos = json.loads((root / "tests" / "data" / "readme_demos.json").read_text())
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for demo in demos:
        proc = subprocess.run([sys.executable, "-m", "quadpole.cli", *demo["argv"]],
                              cwd=root, env=env, capture_output=True, timeout=600)
        h = hashlib.sha256(b"%d\n" % proc.returncode)
        h.update(proc.stdout)
        print("%s: exit %d, sha256 %s"
              % (" ".join(demo["argv"]), proc.returncode, h.hexdigest()), flush=True)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", required=True, help="source checkout to run")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--readme", action="store_true",
                      help="digest the README demos instead of a workload")
    ap.add_argument("--seeds", default="1-11", help="e.g. 1-11 or 1,3,5")
    ap.add_argument("--seconds", type=int, default=25,
                    help="plan length, as perfbench/run.py --seconds")
    ap.add_argument("--per-op", action="store_true",
                    help="also print one line per op, before its seed's line")
    args = ap.parse_args()
    if args.readme:
        return readme_digests(Path(args.root).resolve())
    bench = Path(args.root).resolve() / "perfbench"
    sys.path.insert(0, str(bench))
    import worker  # pins the BLAS threads before numpy loads
    import workloads
    qp = worker.load_package(args.workload)
    total = hashlib.sha256()
    n_ops = n_failed = 0
    for seed in parse_seeds(args.seeds):
        n, failed, digest = run_seed(worker, workloads, qp, args.workload, seed,
                                     args.seconds, per_op=args.per_op)
        print("seed %d: %d ops, %d failed, sha256 %s" % (seed, n, failed, digest),
              flush=True)
        total.update(digest.encode())
        n_ops += n
        n_failed += failed
    print("%s seeds %s: %d ops, %d failed, sha256 %s"
          % (args.workload, args.seeds, n_ops, n_failed, total.hexdigest()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
