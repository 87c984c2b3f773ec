"""The summary of tools/cold_start.py, at a tiny degree in this process; no
benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

import quadpole

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("cold_start",
                                                  ROOT / "tools" / "cold_start.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


cold_start = _load_tool()


def test_summary_at_a_tiny_degree():
    rows = cold_start.measure(quadpole, 4, 3, seed=0)
    assert [r["form"] for r in rows] == [1, 2, 3]
    assert all(r["ok"] and r["cold_s"] > 0 and r["warm_s"] > 0 for r in rows)
    assert [r["rss_mb"] for r in rows] == sorted(r["rss_mb"] for r in rows)
    s = cold_start.summarize(4, rows)
    assert s == {"degree": 4, "forms": 3,
                 "cold_s": sorted(r["cold_s"] for r in rows)[1],
                 "warm_s": sorted(r["warm_s"] for r in rows)[1],
                 "first_cold_s": rows[0]["cold_s"],
                 "peak_rss_mb": rows[2]["rss_mb"], "failed": 0}
    json.dumps(s)
    assert cold_start.summary_line(s).startswith("d=4: cold median ")
    assert cold_start.form_line(4, dict(rows[0], ok=False)).endswith(", failed")


def test_forms_are_fresh_and_seeded():
    cases = [cold_start.fresh_case(quadpole, 4, 0, k) for k in range(3)]
    assert len({Q.key for Q, _ in cases}) == 3
    for Q, P in cases:
        assert Q.is_definite and P.degree == 4 and not P.coeffs.imag.any()
    again, _ = cold_start.fresh_case(quadpole, 4, 0, 1)
    assert again.key == cases[1][0].key
    assert cold_start.fresh_case(quadpole, 4, 1, 1)[0].key != again.key


@pytest.mark.xfail(raises=quadpole.ConjugationPairingFailure, strict=True,
                   reason="ROADMAP item 10: real_unique pairs no conjugate partner for"
                          " cluster 2 of form 3 of the seed-0 series at d = 32")
def test_real_unique_on_a_fresh_ellipsoid_at_d32():
    Q, P = cold_start.fresh_case(quadpole, 32, 0, 2)
    seq = quadpole.full_decompose(P, Q, strategy="real_unique")
    assert seq.is_real()
