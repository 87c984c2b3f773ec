"""One benchmark process: import, warm up, and (unless --mode setup) run the
timed ops of a plan one after another, certifying each output.

    python3 perfbench/worker.py --workload W --plan P --out O \
        --mode setup|measure|trace --t0 <wall-clock time of the spawn> [--half]

Thread pools are pinned to one thread before numpy loads.  The result is
written as JSON to --out.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import yardstick  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_LOOP = 2_000_000


def reference_loop_ms() -> float:
    """A fixed pure-Python loop: a yardstick for the machine's speed."""
    t = time.perf_counter()
    s = 0
    for i in range(REFERENCE_LOOP):
        s += i
    return (time.perf_counter() - t) * 1e3


def load_package(workload: str):
    sys.path.insert(0, str(SRC))
    import quadpole
    if workload == "decompose":
        import quadpole.cli  # noqa: F401
    if not Path(quadpole.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("quadpole imported from %s, not from %s"
                         % (quadpole.__file__, SRC))
    return quadpole


class Runner:
    """Turns plan ops into calls on the package and outputs into plain data."""

    def __init__(self, qp, plan: dict, work: Path):
        import numpy as np
        from workloads import form_B, unpack
        self.np = np
        self.qp = qp
        self.plan = plan
        self.work = work
        self.unpack = unpack
        self.form_B = form_B
        self.quads = {}

    def quad(self, k: int):
        """Pooled forms are one shared QuadForm each; fresh ones are new."""
        q = self.quads.get(k)
        if q is None:
            q = self.qp.QuadForm(self.form_B(self.plan["forms"][k]))
            if self.plan["forms"][k]["pooled"]:
                self.quads[k] = q
        return q

    def homog(self, d: int, packed):
        return self.qp.HomogPoly(d, self.unpack(packed))

    def poly(self, grades: dict):
        qp = self.qp
        top = max(int(k) for k in grades)
        parts = [qp.HomogPoly.zero(k) for k in range(top + 1)]
        for k, c in grades.items():
            parts[int(k)] = self.homog(int(k), c)
        return qp.Poly(parts)

    def prepare(self, op: dict):
        """Inputs built outside the timed region; returns the timed call.

        Enumerations are drained with list() inside the call, so a package
        that returns a generator is still timed for all of its work."""
        qp, kind = self.qp, op["kind"]
        Q = self.quad(op["form"])
        if kind == "allfact":
            P = self.homog(op["d"], op["P"])
            return lambda: list(qp.all_factorizations(P, Q))
        if kind == "realfact":
            P = self.homog(op["d"], op["P"])
            return lambda: list(qp.real_factorizations(P, Q))
        if kind == "decomp_enum":
            P = self.poly(op["grades"])
            return lambda: list(qp.full_decompose(P, Q, strategy="enumerate"))
        if kind == "decomp_canonical":
            P = self.poly(op["grades"])
            return lambda: qp.full_decompose(P, Q)
        if kind == "fiber":
            E = qp.PencilDivisor([(qp.ProjPoint1(self.unpack(u)), m)
                                  for u, m in op["divisor"]])
            center = qp.PencilCenter.from_coords(self.unpack(op["center"]), Q)
            return lambda: list(qp.fiber_enumerate(E, center, Q))
        if kind == "cli":
            return self._cli_call(op)
        if kind == "approx":
            from certify import sample_function
            f = sample_function(op["func"])
            d_max = op["d_max"]

            def call():
                rule = qp.QuadratureRule(2 * d_max)
                dec = qp.l2_project(f, Q, d_max, rule)
                series = qp.multipole_series(dec, Q)
                return dec, series, qp.parseval_gap(f, dec)

            return call
        raise ValueError("unknown op kind %r" % kind)

    def _cli_call(self, op: dict):
        form = self.plan["forms"][op["form"]]
        argv = [str(self.work / ("in_%s.json" % op["id"])) if a == "@in" else a
                for a in op["argv"]]
        if form["name"] == "hyperboloid":
            argv += ["--quadric", "hyperboloid"]
        elif form["name"] != "sphere":
            argv += ["--quadric", str(self.work / ("form%d.json" % op["form"]))]
        cli = sys.modules["quadpole.cli"]

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        return call

    # -- outputs as plain data -------------------------------------------

    def _fact(self, f) -> dict:
        np = self.np
        return {"lam": complex(f.lam),
                "lines": np.array([L.coeffs for L in f.lines]).reshape(-1, 3),
                "remainder": np.asarray(f.remainder.coeffs),
                "pieces": [list(p) for p in f.parcelling.pieces]}

    def _seq(self, s) -> dict:
        np = self.np
        return {"lam": complex(s.lam),
                "terms": {k: (complex(m.scale),
                              np.array(m.lines, dtype=complex).reshape(-1, 3))
                          for k, m in s.terms.items()}}

    def certify(self, op: dict, out):
        """Certified result count; raises certify.Miss on a wrong output."""
        import certify
        kind, forms = op["kind"], self.plan["forms"]
        if kind == "allfact":
            return certify.check_factorizations(op, forms,
                                                [self._fact(f) for f in out])
        if kind == "realfact":
            return certify.check_factorizations(
                op, forms, [self._fact(f) for f in out], real=True)
        if kind == "decomp_enum":
            return certify.check_sequences(op, forms, [self._seq(s) for s in out])
        if kind == "decomp_canonical":
            return len(out.terms)
        if kind == "fiber":
            return certify.check_fibers(
                op, forms, [[(q.coords, m) for q, m in D.points] for D in out])
        if kind == "cli":
            code, text = out
            if code != 0:
                raise CliFailure("exit code %d" % code)
            return certify.check_cli(op, forms, json.loads(text))
        if kind == "approx":
            dec, series, gap = out
            return certify.check_approx(op, forms, {
                "bands": [b.coeffs for b in dec.bands],
                "band_norms": list(dec.band_norms),
                "residual_norm": dec.residual_norm, "f_norm": dec.f_norm,
                "gap": gap,
                "lines": {k: m.lines for k, m in series.terms.items()},
                "scales": dict(series.scales)})
        raise ValueError("unknown op kind %r" % kind)


class CliFailure(Exception):
    """The CLI exited with a non-zero status."""


def run_ops(runner: Runner, ops, tracer=None):
    import certify
    qp = runner.qp
    records = []
    # The yardstick runs between ops, outside their timing, on untraced
    # runs only: its numpy calls must not enter the layer counts.
    yard = None if tracer else yardstick.sample_ms
    samples = []
    for op in ops:
        call = runner.prepare(op)
        if yard:
            samples.append(yard())
        span = tracer.begin_op(op["id"]) if tracer else None
        t0 = time.perf_counter()
        try:
            out = call()
            exc = None
        except Exception as e:  # a failed op is data, not the end of the run
            out, exc = None, e
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end_op(span)
        rec = {"id": op["id"], "kind": op["kind"], "label": label(op, runner.plan),
               "s": dt, "results": 0, "status": "ok", "error": None}
        if exc is not None:
            # the package's typed refusals versus anything else
            rec["status"] = ("raised" if isinstance(exc, qp.QuadpoleError)
                             else "crashed")
            rec["error"] = "%s: %s" % (type(exc).__name__, exc)
        else:
            try:
                rec["results"] = runner.certify(op, out)
            except Exception as e:
                rec["status"] = ("raised" if isinstance(e, CliFailure) else
                                 "miss" if isinstance(e, certify.Miss) else
                                 "crashed")
                rec["error"] = "%s: %s" % (type(e).__name__, e)
            if op["kind"] == "approx":
                rec["bands"] = sum(1 for m in out[1].terms.values() if m.degree)
        records.append(rec)
    if yard:
        samples.append(yard())
        for rec, level in zip(records, yardstick.levels_ms(samples)):
            rec["yard_ms"] = level
            rec["scaled_s"] = rec["s"] * yardstick.scale(level)
    return records


def label(op: dict, plan: dict) -> str:
    """Op kind with the parameters that set its cost."""
    form = plan["forms"][op["form"]]
    where = form["name"] if form["pooled"] else "fresh " + form["name"]
    if op["kind"] == "cli":
        flags = [a for a in op["argv"][1:] if a.startswith("--") or a in
                 ("real_unique",)]
        what = "%s%s d=%d" % (op["argv"][0], "".join(" " + f for f in flags),
                              op["d"])
    elif op["kind"] == "approx":
        what = "approx %s d_max=%d" % (op["func"]["type"], op["d_max"])
    else:
        what = " ".join(x for x in (op["kind"], op.get("label"),
                                    "d=%s" % op["d"] if "d" in op else None) if x)
    return "%s, %s" % (what, where)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--half", action="store_true",
                    help="run only the first half of the timed passes")
    args = ap.parse_args()
    qp = load_package(args.workload)
    import_s = time.time() - args.t0

    plan = json.loads(Path(args.plan).read_text())
    runner = Runner(qp, plan, Path(args.plan).parent)
    warm = [(op, runner.prepare(op)) for op in plan["warmup"]]
    t = time.perf_counter()
    outs = [call() for _, call in warm]
    warmup_s = time.perf_counter() - t
    for (op, _), out in zip(warm, outs):
        runner.certify(op, out)
    result = {"setup_s": import_s + warmup_s, "import_s": import_s,
              "warmup_s": warmup_s,
              "yard_ms": [yardstick.sample_ms()
                          for _ in range(yardstick.SETUP_SAMPLES)]}
    if args.mode != "setup":
        passes = plan["passes"]
        if args.half:
            passes = passes[: (len(passes) + 1) // 2]
        ops = [op for p in passes for op in p]
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer, still_bound
            tracer = Tracer()
            tracer.install()
        ref_start = reference_loop_ms()
        try:
            records = run_ops(runner, ops, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        ref_end = reference_loop_ms()
        result.update(records=records, reference_ms=[ref_start, ref_end],
                      peak_rss_mb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer:
            bands = sum(r.get("bands", 0) for r in records)
            layers, account = tracer.metrics(len(records), bands)
            result.update(layers=layers, account=account,
                          missing=tracer.missing, still_bound=still_bound())
            tracer.save(Path(args.out).with_suffix(".spans.npz"))
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
