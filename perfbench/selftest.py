"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the op lists and input files depend on the seed and on nothing
else (in particular not on any clock), that the tracer leaves no wrapper
bound, that a wrap target missing from the package gives a null metric and
a warning rather than a crash, and that certification rejects a tampered
output.  Exits non-zero on the first failure.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import certify  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".bench_work" / "selftest"


def input_files(plan: dict, name: str) -> dict:
    d = SCRATCH / name
    d.mkdir(parents=True)
    workloads.write_inputs(plan, d)
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_seed_determinism() -> None:
    for w in workloads.WORKLOADS:
        a = workloads.build(w, 5, 10)
        b = workloads.build(w, 5, 10)
        c = workloads.build(w, 6, 10)
        assert workloads.encode(a) == workloads.encode(b), w
        assert workloads.encode(a) != workloads.encode(c), w
        fa, fb, fc = (input_files(p, "%s_%s" % (w, k))
                      for p, k in ((a, "a"), (b, "b"), (c, "c")))
        assert fa == fb, w
        if w == "decompose":
            assert fa != fc, w


def test_no_clock_dependence() -> None:
    """Clocks that jump about while the plan is built change nothing."""
    ref = {w: workloads.encode(workloads.build(w, 3, 7)) for w in workloads.WORKLOADS}
    jumps = itertools.cycle([0.0, 1e6, 3.5, 1e-3, 42.0])
    saved = time.time, time.perf_counter, time.monotonic, time.process_time
    fake = lambda: next(jumps)  # noqa: E731
    time.time = time.perf_counter = time.monotonic = time.process_time = fake
    try:
        got = {w: workloads.encode(workloads.build(w, 3, 7))
               for w in workloads.WORKLOADS}
    finally:
        time.time, time.perf_counter, time.monotonic, time.process_time = saved
    assert got == ref
    for w in workloads.WORKLOADS:
        n = [sum(len(p) for p in workloads.build(w, 3, s)["passes"])
             for s in (5, 10, 20)]
        assert n[0] <= n[1] <= n[2] and n[0] < n[2], (w, n)


def _snapshot() -> dict:
    import numpy as np
    snap = {("numpy.linalg", "lstsq"): np.linalg.lstsq}
    for name, mod in tracer_mod.package_modules().items():
        for attr, obj in vars(mod).items():
            if callable(obj):
                snap[(name, attr)] = obj
    return snap


def _traced_ops(qp, tr) -> None:
    """A few calls through the library and the CLI under the tracer."""
    import numpy as np
    import quadpole.cli
    rng = np.random.default_rng(0)
    for k, Q in enumerate((qp.QuadForm.sphere(), qp.QuadForm.hyperboloid())):
        span = tr.begin_op(k)
        P = qp.HomogPoly(3, rng.normal(size=10))
        qp.all_factorizations(P, Q)
        qp.full_decompose(qp.Poly.from_homog(P), Q)
        tr.end_op(span)
    span = tr.begin_op(2)
    with contextlib.redirect_stdout(io.StringIO()):
        code = quadpole.cli.main(["counts", "--d", "3"])
    tr.end_op(span)
    assert code == 0


def test_no_wrapper_left() -> None:
    import quadpole as qp
    before = _snapshot()
    tr = tracer_mod.Tracer()
    tr.install()
    assert tracer_mod.still_bound(), "install bound nothing"
    try:
        _traced_ops(qp, tr)
    finally:
        tr.uninstall()
    assert tracer_mod.still_bound() == []
    after = _snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert not changed, changed
    layers, account = tr.metrics(3, 0)
    assert layers["conic.line_through.calls"] > 0
    assert layers["algebra.lstsq.calls"] > 0
    assert account["self_sum_vs_wall_max_abs_ms"] < 1e-6


def test_missing_target_is_null() -> None:
    """A target renamed away (here: deleted for the test) gives null + warning."""
    import quadpole as qp
    import quadpole.harmonic as harmonic
    saved = harmonic.delta_matrix
    del harmonic.delta_matrix
    tr = tracer_mod.Tracer()
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            tr.install()
        try:
            _traced_ops(qp, tr)
        finally:
            tr.uninstall()
    finally:
        harmonic.delta_matrix = saved
    layers, _ = tr.metrics(3, 0)
    assert layers["harmonic.delta_matrix.ms"] is None
    assert "harmonic.delta_matrix" in err.getvalue()
    assert layers["conic.line_through.calls"] > 0


def test_yardstick_is_outside_the_package() -> None:
    """Each op's level is the median of the samples around it, and the
    yardstick reaches neither the package nor the traced lstsq."""
    import yardstick
    assert yardstick.levels_ms([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 2.5, 3.5, 4.0]
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        span = tr.begin_op(0)
        assert yardstick.sample_ms() > 0
        tr.end_op(span)
    finally:
        tr.uninstall()
    layers, account = tr.metrics(1, 0)
    assert account["spans"] == 1, account
    assert layers["algebra.lstsq.calls"] == 0


def test_certification_rejects_tampering() -> None:
    import numpy as np
    import quadpole as qp
    plan = workloads.build("enumerate", 9, 1)
    op = next(o for o in plan["passes"][0]
              if o["kind"] == "allfact" and "label" not in o)
    B = workloads.form_B(plan["forms"][op["form"]])
    P = qp.HomogPoly(op["d"], workloads.unpack(op["P"]))
    facts = [{"lam": complex(f.lam),
              "lines": np.array([L.coeffs for L in f.lines]),
              "remainder": f.remainder.coeffs,
              "pieces": f.parcelling.pieces}
             for f in qp.all_factorizations(P, qp.QuadForm(B))]
    assert certify.check_factorizations(op, plan["forms"], facts) == len(facts)
    facts[3]["lam"] *= 1 + 1e-6
    try:
        certify.check_factorizations(op, plan["forms"], facts)
    except certify.Miss:
        return
    raise AssertionError("a perturbed lambda passed certification")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    failed = 0
    try:
        for name, fn in list(globals().items()):
            if name.startswith("test_"):
                try:
                    fn()
                    print("PASS", name)
                except Exception as exc:  # report every check, then fail
                    failed += 1
                    print("FAIL %s: %s: %s" % (name, type(exc).__name__, exc))
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
