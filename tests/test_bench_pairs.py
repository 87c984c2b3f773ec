"""The summary of tools/bench_pairs.py, on fixed result lines; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


bench_pairs = _load_tool()
METRICS = [{"name": "setup_s", "better": "lower"},
           {"name": "ops_per_s", "better": "higher"}]


def _line(side, seed, setup, ops, failed=0):
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {"setup_s": {"value": setup, "unit": "s"},
                        "ops_per_s": {"value": ops, "unit": "1/s"}},
            "side": side, "seed": seed, "workload": "w"}


def test_summary_of_fixed_lines():
    runs = []
    for k, seed in enumerate(range(4, 8)):
        runs.append(_line("parent", seed, 1.0 + 0.1 * k, 10.0 + k, failed=seed == 5))
        runs.append(_line("change", seed, 0.9 + 0.1 * k, 12.0 + k))
    # seed 7: the change is slower on setup, and ties on ops_per_s
    runs[-1] = _line("change", 7, 2.0, 13.0)
    block = bench_pairs.summarize(runs, METRICS)["w"]
    assert block["pairs"] == 4 and block["seeds"] == [4, 5, 6, 7]
    assert block["failed"] == {"parent": ["0/100", "1/100", "0/100", "0/100"],
                               "change": ["0/100"] * 4}
    assert block["correct"]["parent"] == [True, False, True, True]
    setup = block["setup_s"]
    assert setup["better"] == "lower"
    assert setup["parent_median"] == pytest.approx(1.15)
    assert setup["parent_q1_q3"] == pytest.approx([1.075, 1.225])
    assert setup["change_median"] == pytest.approx(1.05)
    assert setup["change_relative_gain"] == pytest.approx((1.15 - 1.05) / 1.15)
    assert setup["change_wins"] == 3
    ops = block["ops_per_s"]
    assert ops["better"] == "higher"
    assert ops["parent_median"] == pytest.approx(11.5)
    assert ops["change_median"] == pytest.approx(13.0)
    assert ops["change_relative_gain"] == pytest.approx(13.0 / 11.5 - 1)
    assert ops["change_wins"] == 3


def test_summary_reproduces_a_recorded_block():
    # BENCH_17.json's summary was assembled by hand from its runs
    recorded = json.loads((ROOT / "BENCH_17.json").read_text())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert bench_pairs.summarize(recorded["runs"], metrics) == recorded["summary"]


def test_missing_side_refused():
    with pytest.raises(ValueError, match="no run"):
        bench_pairs.summarize([_line("parent", 4, 1.0, 10.0)], METRICS)


def test_parent_first_on_even_seeds():
    assert bench_pairs.run_order(4) == ("parent", "change")
    assert bench_pairs.run_order(5) == ("change", "parent")


def test_verdicts_of_fixed_lines():
    runs = []
    for k, seed in enumerate(range(4, 14)):
        runs.append(_line("parent", seed, 1.0 + 0.01 * k, 10.0 + 0.1 * k))
        # setup_s: better in every pair, but by less than the parent's IQR;
        # ops_per_s: far better in all pairs but one
        runs.append(_line("change", seed, 0.995 + 0.01 * k, 10.0 if k == 3 else 12.0 + 0.1 * k))
    summary = bench_pairs.summarize(runs, METRICS)
    got = bench_pairs.verdicts(summary)["w"]
    assert got == {
        "setup_s": {"wins": 10, "pairs": 10, "wins_enough": True, "beyond_parent_iqr": False},
        "ops_per_s": {"wins": 9, "pairs": 10, "wins_enough": True, "beyond_parent_iqr": True}}
    # one more lost pair is too few wins; a change that reads worse is never beyond
    runs[-1] = _line("change", 13, 1.2, 10.0)
    got = bench_pairs.verdicts(bench_pairs.summarize(runs, METRICS))["w"]
    assert got["ops_per_s"]["wins"] == 8 and not got["ops_per_s"]["wins_enough"]
    worse = [dict(r, metrics={"setup_s": {"value": 5.0, "unit": "s"},
                              "ops_per_s": {"value": 1.0, "unit": "1/s"}})
             if r["side"] == "change" else r for r in runs]
    got = bench_pairs.verdicts(bench_pairs.summarize(worse, METRICS))["w"]
    assert got["setup_s"] == {"wins": 0, "pairs": 10, "wins_enough": False,
                              "beyond_parent_iqr": False}
    assert not got["ops_per_s"]["beyond_parent_iqr"]


def test_verdicts_of_a_recorded_summary():
    # BENCH_28.json's claimed decompose gain: 10 of 10 pairs, beyond the parent's IQR
    recorded = json.loads((ROOT / "BENCH_28.json").read_text())
    got = bench_pairs.verdicts(recorded["summary"])["decompose"]["ops_per_s"]
    assert got["wins_enough"] and got["beyond_parent_iqr"] and got["wins"] == 10
