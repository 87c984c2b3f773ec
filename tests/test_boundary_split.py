"""The summary of tools/boundary_split.py, on hand-made timings; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("boundary_split",
                                                  ROOT / "tools" / "boundary_split.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


boundary_split = _load_tool()


def test_summary_of_hand_made_timings():
    records = [
        {"kind": "harmonic", "ms": 10.0, "terms": 325,
         "stages": {"load": 1.0, "parse": 0.5, "serialize": 2.0, "print": 4.0}},
        {"kind": "decompose --cone", "ms": 4.0, "terms": 45,
         "stages": {"load": 0.5, "parse": 1.0}},
        {"kind": "harmonic", "ms": 6.0, "terms": 0, "stages": {"print": 2.0}},
    ]
    got = boundary_split.summarize(records)
    assert list(got["kinds"]) == ["harmonic", "decompose --cone"]
    harmonic = got["kinds"]["harmonic"]
    assert (harmonic["ops"], harmonic["ms"], harmonic["terms"]) == (2, 16.0, 325)
    assert list(harmonic["stages"]) == list(boundary_split.STAGES)
    assert {s: v["ms"] for s, v in harmonic["stages"].items()} == {
        "load": 1.0, "parse": 0.5, "compute": 6.5, "serialize": 2.0, "print": 6.0}
    assert harmonic["stages"]["print"]["share"] == pytest.approx(6.0 / 16.0)
    assert harmonic["parse_us_per_term"] == pytest.approx(500.0 / 325)
    cone = got["kinds"]["decompose --cone"]
    assert cone["stages"]["compute"]["ms"] == 2.5
    assert cone["stages"]["serialize"] == {"ms": 0.0, "share": 0.0}
    total = got["total"]
    assert (total["ops"], total["ms"], total["terms"]) == (3, 20.0, 370)
    assert {s: v["ms"] for s, v in total["stages"].items()} == {
        "load": 1.5, "parse": 1.5, "compute": 9.0, "serialize": 2.0, "print": 6.0}
    assert sum(v["share"] for v in total["stages"].values()) == pytest.approx(1.0)
    assert total["parse_us_per_term"] == pytest.approx(1500.0 / 370)


def test_no_records():
    got = boundary_split.summarize([])
    assert got["kinds"] == {}
    assert (got["total"]["ops"], got["total"]["ms"]) == (0, 0.0)
    assert got["total"]["parse_us_per_term"] is None
    assert all(v == {"ms": 0.0, "share": 0.0} for v in got["total"]["stages"].values())


def test_op_kind_is_the_command_and_its_flags():
    assert boundary_split.op_kind({"argv": ["decompose", "@in", "--strategy", "real_unique"]}) \
        == "decompose --strategy real_unique"
    assert boundary_split.op_kind({"argv": ["maxwell", "--invert", "@in"]}) == "maxwell --invert"


def test_install_times_the_array_step_as_serialize():
    import types
    cli, io = types.ModuleType("fake_cli"), types.ModuleType("fake_io")
    for name in ("_load_json", "_parse_fragment", "_parse_vectors", "_emit",
                 "_grade_arrays", "_other"):
        setattr(cli, name, lambda *args: None)

    def poly_to_json(p):
        return p

    poly_to_json.__module__ = io.__name__
    io.poly_to_json = poly_to_json
    timers = boundary_split.Timers()
    timers.install(cli, io)
    cli._grade_arrays()
    io.poly_to_json(1)
    cli._emit()
    cli._other()
    assert set(timers.ms) == {"serialize", "print"}
