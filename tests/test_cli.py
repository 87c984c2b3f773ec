"""Command-line behavior: output schemas, determinism, exit codes, and
round trips of emitted JSON back through the parsers."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quadpole import (
    HomogPoly,
    PencilCenter,
    Poly,
    fiber_enumerate,
    poly_mul,
)
from quadpole import io as qio
from quadpole.algebra import grade_dim, monomial_index
from quadpole import cli
from quadpole.cli import _json_text, main

from conftest import subprocess_env

ROOT = Path(__file__).resolve().parent.parent
# each README demo's argv, exit code and parsed output
DEMOS = json.loads((ROOT / "tests" / "data" / "readme_demos.json").read_text())


def hp(degree, entries):
    idx = monomial_index(degree)
    c = np.zeros(grade_dim(degree), dtype=complex)
    for mono, v in entries.items():
        c[idx[mono]] = v
    return HomogPoly(degree, c)


X = hp(1, {(1, 0, 0): 1})
Y = hp(1, {(0, 1, 0): 1})
Z = hp(1, {(0, 0, 1): 1})


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    bad = tmp_path / "bad.json"
    bad.write_text("{not valid json")

    return {
        "xy": write("xy.json", qio.poly_to_json(poly_mul(X, Y))),
        "xsq": write("xsq.json", qio.poly_to_json(poly_mul(X, X))),
        "const1": write("const1.json",
                        {"degree": 0, "terms": [{"exp": [0, 0, 0],
                                                 "re": 1.0}]}),
        "qq": write("qq.json", {"degree": 2, "terms": [
            {"exp": [2, 0, 0], "re": 1.0}, {"exp": [0, 2, 0], "re": 1.0},
            {"exp": [0, 0, 2], "re": 1.0}]}),
        "zon2": write("zon2.json", qio.poly_to_json(
            poly_mul(Z, Z) * 2.0 - poly_mul(X, X) - poly_mul(Y, Y))),
        "mixed": write("mixed.json", {"degree": 2, "terms": [
            {"exp": [2, 0, 0], "re": 1.0}, {"exp": [1, 0, 0], "re": 1.0}]}),
        "div2": write("div2.json", [{"u": [[1, 0], [0, 0]], "mult": 1},
                                    {"u": [[0, 0], [1, 0]], "mult": 1}]),
        "bad": bad,
        "null": write("null.json", None),
        "tmp": tmp_path,
    }


@pytest.fixture
def run(capsys):
    def invoke(argv):
        code = main(argv)
        out = capsys.readouterr().out
        if out:
            # the CLI's printer against the standard library's bytes
            assert out == json.dumps(json.loads(out), indent=2,
                                     sort_keys=True) + "\n"
        return code, out

    return invoke


def parsed(run, argv):
    code, out = run(argv)
    assert code == 0, out
    return json.loads(out)


class TestDecompose:
    def test_cone_all(self, run, files):
        obj = parsed(run, ["decompose", files["xy"], "--cone", "--all"])
        assert obj["count"] == 3
        assert len(obj["factorizations"]) == 3
        for f in obj["factorizations"]:
            fact = qio.factorization_from_json(f)
            assert fact.degree == 2

    def test_cone_canonical(self, run, files):
        obj = parsed(run, ["decompose", files["xsq"], "--cone"])
        fact = qio.factorization_from_json(obj)
        assert len(fact.lines) == 2

    def test_cone_real_unique(self, run, files):
        obj = parsed(run, ["decompose", files["xy"], "--cone",
                           "--strategy", "real_unique"])
        fact = qio.factorization_from_json(obj)
        assert fact.is_real()
        assert fact.remainder.norm() < 1e-9

    def test_surface_constant(self, run, files):
        obj = parsed(run, ["decompose", files["const1"], "--surface"])
        assert obj == {"lambda": [1.0, 0.0], "terms": {}}

    def test_surface_quadric_itself(self, run, files):
        obj = parsed(run, ["decompose", files["qq"], "--surface"])
        assert obj == {"lambda": [1.0, 0.0], "terms": {}}

    def test_surface_mixed(self, run, files):
        obj = parsed(run, ["decompose", files["mixed"]])
        seq = qio.sequence_from_json(obj)
        assert sorted(seq.terms) == [1, 2]

    def test_surface_enumerate(self, run, files):
        obj = parsed(run, ["decompose", files["mixed"], "--all"])
        assert obj["count"] == len(obj["sequences"]) == 2
        for s in obj["sequences"]:
            qio.sequence_from_json(s)

    def test_hyperboloid_quadric(self, run, files):
        obj = parsed(run, ["decompose", files["xy"], "--cone",
                           "--quadric", "hyperboloid"])
        qio.factorization_from_json(obj)

    def test_quadric_file(self, run, files, tmp_path):
        qpath = tmp_path / "quad.json"
        qpath.write_text(json.dumps(
            {"B": [[2, 0, 0], [0, 1, 0], [0, 0, 1]], "real": True}))
        obj = parsed(run, ["decompose", files["xy"], "--cone",
                           "--quadric", str(qpath)])
        qio.factorization_from_json(obj)


class TestOtherCommands:
    def test_counts(self, run):
        assert parsed(run, ["counts", "--d", "3"]) \
            == {"bound": 45, "kappa": 15}

    def test_discriminant(self, run, files):
        assert parsed(run, ["discriminant", files["xsq"]]) \
            == {"in_discriminant": True}
        assert parsed(run, ["discriminant", files["xy"]]) \
            == {"in_discriminant": False}

    def test_harmonic(self, run, files):
        obj = parsed(run, ["harmonic", files["xsq"]])
        comps = [qio.poly_from_json(c) for c in obj["components"]]
        assert len(comps) == 2
        # x^2 = (x^2 - Q/3) + Q * (1/3)
        assert comps[1].part(0).coeffs[0] == pytest.approx(1.0 / 3.0)

    def test_maxwell_vectors(self, run, files):
        obj = parsed(run, ["maxwell", "--vectors", "[0,0,1],[0,0,1]"])
        got = qio.poly_from_json(obj).part(2)
        want = poly_mul(Z, Z) * 2.0 - poly_mul(X, X) - poly_mul(Y, Y)
        assert np.allclose(got.coeffs, want.coeffs)

    def test_maxwell_invert(self, run, files):
        obj = parsed(run, ["maxwell", "--invert", files["zon2"]])
        assert obj["scale"] == [pytest.approx(1.0), pytest.approx(0.0)]
        for v in obj["vectors"]:
            vec = [complex(re, im) for re, im in v]
            assert np.allclose(vec, [0, 0, 1])

    def test_fibers(self, run, files):
        obj = parsed(run, ["fibers", files["xy"]])
        assert obj["count"] == 3
        assert sum(qio.cluster_from_json(c).multiplicity
                   for c in obj["clusters"]) == 4
        for f in obj["factorizations"]:
            qio.factorization_from_json(f)

    def test_fibers_restricts_and_roots_once(self, run, files, monkeypatch):
        from quadpole import sylvester
        calls = []
        for name in ("restrict_to_conic", "roots_projective"):
            original = getattr(sylvester, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(sylvester, name, counted)
        obj = parsed(run, ["fibers", files["xy"]])
        assert obj["count"] == 3
        assert sorted(calls) == ["restrict_to_conic", "roots_projective"]

    def test_planar_fiber(self, run, files, sphere):
        obj = parsed(run, ["planar-fiber", files["div2"],
                           "--center", "[0,0,2]"])
        divisor = qio.pencil_divisor_from_json(
            json.loads((files["tmp"] / "div2.json").read_text()))
        center = PencilCenter.from_coords([0, 0, 2], sphere)
        want = fiber_enumerate(divisor, center, sphere)
        assert obj["count"] == len(want) == 4
        for d in obj["fibers"]:
            assert qio.conic_divisor_from_json(d).degree == 2

    def test_approx_exp(self, run):
        obj = parsed(run, ["approx", "--function", "exp_x", "--d-max", "4"])
        assert obj["d_max"] == 4
        assert len(obj["band_norms"]) == 5
        assert obj["parseval_gap"] >= -1e-10
        assert set(obj["bands"]) == {"1", "2", "3", "4"}
        for band in obj["bands"].values():
            qio.multipole_from_json(band["multipole"])
            assert band["norm"] >= 0.0

    def test_approx_poly_file(self, run, files):
        obj = parsed(run, ["approx", "--function", files["xsq"],
                           "--d-max", "2"])
        assert obj["lambda"] == [pytest.approx(1.0 / 3.0),
                                 pytest.approx(0.0)]
        assert obj["residual_norm"] < 1e-10

    def test_output_file(self, run, files, tmp_path):
        out = tmp_path / "result.json"
        code, stdout = run(["counts", "--d", "2", "--output", str(out)])
        assert code == 0
        assert stdout == ""
        assert json.loads(out.read_text()) == {"bound": 3, "kappa": 3}


class TestDeterminism:
    def test_byte_identical_reruns(self, run, files):
        argvs = [
            ["decompose", files["xy"], "--cone", "--all"],
            ["decompose", files["mixed"]],
            ["approx", "--function", "exp_x", "--d-max", "3"],
            ["fibers", files["xsq"]],
        ]
        for argv in argvs:
            code1, out1 = run(argv)
            code2, out2 = run(argv)
            assert code1 == code2 == 0
            assert out1 == out2


class TestExitCodes:
    def test_parse_errors(self, run, files, tmp_path):
        cases = [
            ["decompose", str(tmp_path / "missing.json"), "--cone"],
            ["decompose", str(files["bad"]), "--cone"],  # unparseable JSON
            ["decompose", files["null"], "--cone"],      # wrong JSON shape
            ["decompose", files["mixed"], "--cone"],  # not homogeneous
            ["decompose", files["xy"], "--quadric",
             str(tmp_path / "nosuch.json")],
            ["maxwell"],
            ["maxwell", "--vectors", "[0,0]"],
            ["planar-fiber", files["div2"], "--center", "[0,0]"],
            ["counts", "--d", "-1"],
        ]
        for argv in cases:
            code, _ = run(argv)
            assert code == 2, argv

    def test_unread_tolerance_flags_rejected(self, files, capsys):
        # a subcommand takes only the tolerance flags its handler reads
        for argv in (["harmonic", files["xsq"], "--tol-div", "1e-9"],
                     ["counts", "--d", "3", "--eps-cluster", "1e-6"],
                     ["planar-fiber", files["div2"], "--center", "[0,0,2]",
                      "--tol-fact", "1e-6"],
                     ["decompose", files["xy"], "--tol-fact", "1e-6"],
                     ["fibers", files["xy"], "--tol-fact", "1e-6"],
                     ["approx", "--function", "exp_x", "--d-max", "2",
                      "--tol-fact", "1e-6"],
                     ["maxwell", "--invert", files["xsq"], "--tol-fact",
                      "1e-6"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_all_with_real_unique_rejected(self, files, capsys):
        # --all asks for every factorization, real_unique for the one real
        # factorization: the combination is refused, on both paths
        for mode in (["--cone"], []):
            code = main(["decompose", files["xy"], *mode, "--all",
                         "--strategy", "real_unique"])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert "--all" in captured.err and "real_unique" in captured.err

    def test_non_finite_tol_div(self, run, files):
        # a NaN bound passed every divisibility test, so decompose printed
        # an empty answer and exited 0; approx raised a zero or negative
        # bound to each band's noise floor and exited 0
        for argv in (["decompose", files["xy"], "--tol-div", "nan"],
                     ["fibers", files["xy"], "--tol-div", "nan"],
                     ["approx", "--function", "exp_x", "--d-max", "2",
                      "--tol-div", "nan"],
                     ["approx", "--function", "exp_x", "--d-max", "3",
                      "--tol-div", "-1"],
                     ["approx", "--function", "exp_x", "--d-max", "3",
                      "--tol-div", "0"]):
            code, out = run(argv)
            assert code == 2 and out == "", argv

    def test_divisible_by_q(self, run, files):
        for argv in [["decompose", files["qq"], "--cone"],
                     ["discriminant", files["qq"]],
                     ["fibers", files["qq"]]]:
            code, _ = run(argv)
            assert code == 3, argv

    def test_numerical_failures(self, run, files):
        complex_poly = files["tmp"] / "cplx.json"
        complex_poly.write_text(json.dumps(
            {"degree": 1, "terms": [{"exp": [1, 0, 0], "re": 1.0,
                                     "im": 1.0}]}))
        cases = [
            # center on the conic
            ["planar-fiber", files["div2"], "--center", "[[1,0],[0,1],[0,0]]"],
            # not harmonic
            ["maxwell", "--invert", files["xsq"]],
            # real-only strategy on complex input
            ["decompose", str(complex_poly), "--cone",
             "--strategy", "real_unique"],
        ]
        for argv in cases:
            code, _ = run(argv)
            assert code == 4, argv

    def test_quadrature_too_low_is_an_input_error(self, capsys):
        code = main(["approx", "--function", "exp_x", "--d-max", "4",
                     "--exact-degree", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "rule exact to 3 cannot project up to degree 4" in captured.err


class TestPrinter:
    """The CLI's printer gives json.dumps(obj, indent=2, sort_keys=True)."""

    CASES = [
        -0.0, 0.0, 5e-324, -5e-324, 1e300, 0.1, float("nan"), float("inf"),
        -float("inf"), 10 ** 40, -(10 ** 40), 0, True, False, None, "",
        "plain", "caf\u00e9 \u2603 \U0001f600", "\x00\x1f\x7f\"\\/\n\t",
        [], {}, [[]], [{}], {"a": {}}, {"a": []}, [True, False, None, 1],
        (1, (2.5, [])), {"b": (), "a": [[], [[]]]},
        [np.float64(0.1), np.float64(-0.0), np.float64("nan")],
        {2: "two", 10: "ten", -1: "minus"}, {np.float64(0.5): 1, 1.5: 2},
        {True: 1}, {None: [1]}, {"\u00e9": 1, "e": {"z": 0, "y": [1, {}]}},
    ]

    @pytest.mark.parametrize("obj", CASES, ids=[repr(c) for c in CASES])
    def test_same_bytes_as_json(self, obj):
        assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    @pytest.mark.parametrize("obj", [np.int64(3), [1, np.int64(3)],
                                     {"a": np.int64(3)}, {np.int64(3): 1},
                                     {1j: 0}, object(), [np.bool_(True)]])
    def test_other_types_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _json_text(obj)

    def test_one_parser_per_process(self, run, monkeypatch):
        calls = []
        original = cli.build_parser

        def counted():
            calls.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for argv in (["counts", "--d", "2"], ["counts", "--d", "3"]):
                assert run(argv)[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(calls) == 1


class TestSubprocess:
    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "quadpole.cli", "counts", "--d", "2"],
            capture_output=True, text=True, timeout=120, env=subprocess_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"bound": 3, "kappa": 3}


def readme_demos():
    """The argv of each quadpole command in the README's command-line block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("quadpole ")]


def _magnitudes(x):
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        return [m for y in x for m in _magnitudes(y)]
    return [abs(x)] if isinstance(x, (int, float)) and not isinstance(x, bool) else []


def _assert_matches(got, want, tol, path):
    """Same structure, strings, booleans and integers; floats within tol."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for k in want:
            _assert_matches(got[k], want[k], tol, "%s.%s" % (path, k))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, tol, "%s[%d]" % (path, i))
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= tol, (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


class TestReadmeDemos:
    """The README's command-line demos, run in-process from the repository
    root against their recorded outputs: exit codes, JSON structure and
    integers exactly, floats within 1e-10 of the output's largest magnitude."""

    def test_readme_lists_the_recorded_demos(self):
        assert readme_demos() == [demo["argv"] for demo in DEMOS]
        assert len(DEMOS) == 12

    @pytest.mark.parametrize("demo", DEMOS, ids=[" ".join(d["argv"]) for d in DEMOS])
    def test_demo(self, demo, run, monkeypatch):
        monkeypatch.chdir(ROOT)
        code, out = run(demo["argv"])
        assert code == demo["exit"]
        want = demo["output"]
        _assert_matches(json.loads(out), want, 1e-10 * max(_magnitudes(want), default=0.0),
                        "$")
