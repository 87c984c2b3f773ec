"""Command-line behavior: output schemas, determinism, exit codes, and
emitted JSON read back through the tests' decoders of the answers."""

import json
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quadpole import (
    ConicDivisor,
    HomogPoly,
    PencilCenter,
    Poly,
    ProjPoint2,
    divisors_close,
    fiber_enumerate,
    poly_mul,
)
from quadpole import io as qio
from quadpole.algebra import grade_dim
from quadpole import cli
from quadpole.cli import _json_text, main

from conftest import (
    decode_factorization,
    decode_multipole,
    decode_sequence,
    monomial_index,
    subprocess_env,
)

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
            fact = decode_factorization(f)
            assert fact.degree == 2

    def test_cone_canonical(self, run, files):
        obj = parsed(run, ["decompose", files["xsq"], "--cone"])
        fact = decode_factorization(obj)
        assert len(fact.lines) == 2

    def test_cone_real_unique(self, run, files):
        obj = parsed(run, ["decompose", files["xy"], "--cone",
                           "--strategy", "real_unique"])
        fact = decode_factorization(obj)
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
        seq = decode_sequence(obj)
        assert sorted(seq.terms) == [1, 2]

    def test_surface_enumerate(self, run, files):
        obj = parsed(run, ["decompose", files["mixed"], "--all"])
        assert obj["count"] == len(obj["sequences"]) == 2
        for s in obj["sequences"]:
            decode_sequence(s)

    def test_hyperboloid_quadric(self, run, files):
        obj = parsed(run, ["decompose", files["xy"], "--cone",
                           "--quadric", "hyperboloid"])
        decode_factorization(obj)

    def test_quadric_file(self, run, files, tmp_path):
        qpath = tmp_path / "quad.json"
        qpath.write_text(json.dumps(
            {"B": [[2, 0, 0], [0, 1, 0], [0, 0, 1]], "real": True}))
        obj = parsed(run, ["decompose", files["xy"], "--cone",
                           "--quadric", str(qpath)])
        decode_factorization(obj)


class TestOtherCommands:
    def test_counts(self, run):
        assert parsed(run, ["counts", "--d", "3"]) \
            == {"bound": 45, "kappa": 15}

    def test_counts_degree_cap(self, run, capsys):
        # the bound at d = 74 has 4,235 digits and prints under the default
        # int-to-str limit of 4,300; d = 75 (4,365 digits) is refused before
        # anything is computed, and so is a d that would take minutes
        assert cli.COUNTS_MAX_D == 74
        assert len(str(parsed(run, ["counts", "--d", "74"])["bound"])) == 4235
        for d in ("75", "3000"):
            start = time.perf_counter()
            assert main(["counts", "--d", d]) == 2
            assert time.perf_counter() - start < 5.0
            out, err = capsys.readouterr()
            assert out == "" and "--d must be at most 74" in err

    def test_discriminant(self, run, files):
        assert parsed(run, ["discriminant", files["xsq"]]) \
            == {"in_discriminant": True}
        assert parsed(run, ["discriminant", files["xy"]]) \
            == {"in_discriminant": False}

    def test_discriminant_of_a_constant(self, run, files):
        # the resultant, built for every input, raised ZeroForm here (exit 4)
        assert parsed(run, ["discriminant", files["const1"]]) \
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
            decode_factorization(f)

    def test_fibers_restricts_and_roots_once(self, run, files, monkeypatch):
        from quadpole import sylvester
        calls = []
        for name in ("restrict_to_conic", "_raw_roots"):
            original = getattr(sylvester, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(sylvester, name, counted)
        obj = parsed(run, ["fibers", files["xy"]])
        assert obj["count"] == 3
        assert sorted(calls) == ["_raw_roots", "restrict_to_conic"]

    def test_planar_fiber(self, run, files, sphere):
        obj = parsed(run, ["planar-fiber", files["div2"],
                           "--center", "[0,0,2]"])
        divisor = qio.pencil_divisor_from_json(
            json.loads((files["tmp"] / "div2.json").read_text()))
        center = PencilCenter.from_coords([0, 0, 2], sphere)
        want = fiber_enumerate(divisor, center, sphere)
        assert obj["count"] == len(want) == 4
        for d, w in zip(obj["fibers"], want):
            got = ConicDivisor([(ProjPoint2([complex(*v) for v in e["point"]]), e["mult"])
                                for e in d])
            assert got.degree == 2 and divisors_close(got, w, tol=1e-12)

    def test_planar_fiber_above_the_cap(self, run, files, capsys):
        # two pencil points of multiplicity 100000 ask for 100001**2 fibers:
        # the command ran without bound, printing nothing; now the count is
        # refused before any option is listed
        path = files["tmp"] / "div_huge.json"
        path.write_text(json.dumps([{"u": [[1, 0], [0, 0]], "mult": 100000},
                                    {"u": [[0, 0], [1, 0]], "mult": 100000}]))
        start = time.perf_counter()
        assert main(["planar-fiber", str(path), "--center", "[0,0,2]"]) == 4
        assert time.perf_counter() - start < 5.0
        out, err = capsys.readouterr()
        assert out == "" and "more than 1000000 fibers" in err

    def test_cone_enumeration_above_the_cap(self, files, capsys):
        # a generic degree-9 grade has 17!! = 34,459,425 parcellings: each
        # command listed them and exited 1 (MemoryError) or 120 after about a
        # minute; now the count is refused before any row is factored
        rng = np.random.default_rng(9)
        path = files["tmp"] / "deg9.json"
        path.write_text(json.dumps(qio.poly_to_json(
            HomogPoly(9, rng.standard_normal(grade_dim(9))))))
        for argv in (["decompose", "--cone", "--all"], ["fibers"], ["decompose", "--all"]):
            start = time.perf_counter()
            assert main(argv + [str(path)]) == 4, argv
            assert time.perf_counter() - start < 10.0, argv
            out, err = capsys.readouterr()
            assert out == "" and "more than 1000000 parcellings" in err, argv

    def test_approx_exp(self, run):
        obj = parsed(run, ["approx", "--function", "exp_x", "--d-max", "4"])
        assert obj["d_max"] == 4
        assert len(obj["band_norms"]) == 5
        assert obj["parseval_gap"] >= -1e-10
        assert set(obj["bands"]) == {"1", "2", "3", "4"}
        for band in obj["bands"].values():
            decode_multipole(band["multipole"])
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
        # --eps-cluster is the one tolerance flag, on the subcommands that
        # cluster roots; the division, harmonic and factoring bounds are
        # constants, and no subcommand takes a flag for them
        commands = (["decompose", files["xy"]],
                    ["decompose", files["xy"], "--cone"],
                    ["harmonic", files["xsq"]],
                    ["maxwell", "--invert", files["xsq"]],
                    ["fibers", files["xy"]],
                    ["discriminant", files["xsq"]],
                    ["planar-fiber", files["div2"], "--center", "[0,0,2]"],
                    ["approx", "--function", "exp_x", "--d-max", "2"],
                    ["counts", "--d", "3"])
        cases = [[*argv, flag, "1e-6"] for argv in commands
                 for flag in ("--tol-div", "--tol-harm", "--tol-fact")]
        cases += [["harmonic", files["xsq"], "--eps-cluster", "1e-6"],
                  ["counts", "--d", "3", "--eps-cluster", "1e-6"]]
        for argv in cases:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert "unrecognized arguments" in captured.err, argv

    def test_all_with_real_unique_rejected(self, files, capsys):
        # --all asks for every factorization, real_unique for the one real
        # factorization: the combination is refused, on both paths
        for mode in (["--cone"], []):
            code = main(["decompose", files["xy"], *mode, "--all",
                         "--strategy", "real_unique"])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert "--all" in captured.err and "real_unique" in captured.err

    def test_non_finite_input_refused(self, run, files):
        # a NaN coefficient printed NaN answers with exit 0 (decompose,
        # harmonic, maxwell --vectors) or was taken for a multiple of the
        # quadratic form (exit 3)
        for value in ("NaN", "Infinity", "-Infinity"):
            path = files["tmp"] / "nonfinite.json"
            path.write_text('{"degree": 2, "terms": [{"exp": [2, 0, 0], "re": 1.0,'
                            ' "im": %s}]}' % value)
            for argv in (["decompose", str(path)],
                         ["harmonic", str(path)],
                         ["decompose", "--cone", str(path)],
                         ["fibers", str(path)],
                         ["discriminant", str(path)],
                         ["approx", "--function", str(path), "--d-max", "2"],
                         ["maxwell", "--vectors", "[%s,0,1]" % value]):
                code, out = run(argv)
                assert code == 2 and out == "", argv

    def test_non_boolean_real_refused(self, files, capsys):
        # "real" took any JSON value: "no" with a complex B exited 2 calling
        # the form marked real, and [0] was taken for false (exit 0)
        B = [[[1, 1], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]
        quadric = files["tmp"] / "quadric.json"
        for real in ("no", [0]):
            quadric.write_text(json.dumps({"B": B, "real": real}))
            code = main(["decompose", files["xy"], "--quadric", str(quadric)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", real
            assert "quadric: real must be true or false" in captured.err, real

    def test_stated_degree_kept(self, files, capsys):
        # {"degree": 3, "terms": [x]} parsed as the degree-1 x: harmonic
        # printed one degree-1 component and decompose --cone factored a
        # line, both exiting 0
        path = files["tmp"] / "cubic.json"
        path.write_text(json.dumps({"degree": 3, "terms": [{"exp": [1, 0, 0], "re": 1.0}]}))
        for argv in (["harmonic", str(path)], ["decompose", "--cone", str(path)],
                     ["fibers", str(path)], ["discriminant", str(path)],
                     ["maxwell", "--invert", str(path)]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", argv
            assert "expected homogeneous of degree 3 but grade 1 is present" \
                in captured.err, argv
        # with no nonzero term it is the zero cubic: two zero components,
        # each printed at its own degree
        path.write_text(json.dumps({"degree": 3, "terms": []}))
        assert main(["harmonic", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"components": [
            {"degree": 3, "terms": []}, {"degree": 1, "terms": []}]}

    def test_huge_integer_refused(self, run, files):
        # an integer literal beyond the double range passed the finite
        # checks, and float() or complex() raised OverflowError (exit 1)
        for value in ("1" + "0" * 400, "-" + str(2 ** 1024 - 2 ** 970)):
            path = files["tmp"] / "huge.json"
            path.write_text('{"degree": 1, "terms": [{"exp": [1, 0, 0], "re": %s}]}'
                            % value)
            for argv in (["decompose", str(path)],
                         ["maxwell", "--vectors", "[%s,0,1]" % value]):
                code, out = run(argv)
                assert code == 2 and out == "", argv

    def test_too_large_to_hold_refused(self, run, files):
        # a 60-byte input asked for 2.37 PiB of grades (MemoryError) or for
        # more than an intp can count (OverflowError), and exited 1
        for e in (100000, 10 ** 7):
            path = files["tmp"] / "huge_degree.json"
            path.write_text('{"degree": %d, "terms": [{"exp": [%d, 0, 0], "re": 1.0}]}'
                            % (e, e))
            for argv in (["decompose", str(path)], ["harmonic", str(path)]):
                code, out = run(argv)
                assert code == 2 and out == "", argv

    def test_eps_cluster_refused(self, run, files):
        # a NaN scale merged no roots: discriminant printed false for x^2,
        # which meets the conic in two double points, and decompose and
        # fibers found no evaluation point (exit 4)
        lin = files["tmp"] / "lin.json"
        lin.write_text(json.dumps(qio.poly_to_json(X)))
        for value in ("nan", "inf", "-1e-6"):
            for argv in (["discriminant", files["xsq"]],
                         ["decompose", files["xy"]],
                         ["decompose", str(lin)],
                         ["fibers", files["xy"]],
                         ["approx", "--function", "exp_x", "--d-max", "2"]):
                code, out = run([*argv, "--eps-cluster=" + value])
                assert code == 2 and out == "", (argv, value)
        code, out = run(["discriminant", files["xsq"], "--eps-cluster", "0"])
        assert code == 0 and json.loads(out) == {"in_discriminant": True}

    @pytest.mark.parametrize("diag", [[1.0, 1.0, 0.0], [1.0, 1.0, 1e-14]])
    def test_singular_quadric_refused(self, run, files, diag):
        # only the factoring commands refused a singular form: harmonic
        # raised numpy's LinAlgError (exit 2), and maxwell and counts, or
        # every command at a determinant of 1e-14, printed an answer
        quadric = files["tmp"] / "singular.json"
        quadric.write_text(json.dumps({"B": np.diag(diag).tolist(), "real": True}))
        for argv in (["decompose", files["xy"]],
                     ["decompose", files["xy"], "--cone"],
                     ["harmonic", files["xsq"]],
                     ["maxwell", "--vectors", "[0,0,1],[0,0,1]"],
                     ["maxwell", "--invert", files["zon2"]],
                     ["fibers", files["xy"]],
                     ["discriminant", files["xy"]],
                     ["planar-fiber", files["div2"], "--center", "[0,0,2]"],
                     ["approx", "--function", "exp_x", "--d-max", "2"],
                     ["counts", "--d", "3"]):
            code, out = run([*argv, "--quadric", str(quadric)])
            assert code == 4 and out == "", argv

    def test_real_unique_at_zero_eps_cluster(self, run, files):
        # conjugate cluster points differ by round-off, so pairing them
        # within 10 * eps_cluster = 0 failed for a generic real input (exit 4)
        rng = np.random.default_rng(3)
        path = files["tmp"] / "generic.json"
        path.write_text(json.dumps(qio.poly_to_json(Poly.from_grades(
            {k: HomogPoly(k, rng.standard_normal(grade_dim(k))) for k in range(5)}))))
        outs = [run(["decompose", str(path), "--strategy", "real_unique",
                     "--eps-cluster", eps]) for eps in ("0", "1e-6")]
        assert outs[0][0] == 0 and outs[0] == outs[1]

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

    def test_noise_floor_band_is_a_numerical_failure(self, capsys, tmp_path):
        # band 12 of exp(x) on this ellipsoid has relative norm 1.4e-11 and
        # division tolerance 1.5e-2, which takes it for a multiple of Q; a
        # harmonic band is none, so this is no input error (exit 3)
        U = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
        quadric = tmp_path / "ellipsoid.json"
        quadric.write_text(json.dumps(
            {"B": (U @ np.diag([1.0, 2.0, 0.5]) @ U.T).tolist(), "real": True}))
        code = main(["approx", "--function", "exp_x", "--d-max", "12",
                     "--quadric", str(quadric)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert "band 12 " in captured.err

    def test_unwritable_output_is_an_input_error(self, files, capsys):
        # a missing directory raised FileNotFoundError out of main (exit 1)
        code = main(["counts", "--d", "3", "--output",
                     str(files["tmp"] / "missing" / "out.json")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: cannot write ")
        assert "Traceback" not in captured.err

    def test_deeply_nested_json_is_an_input_error(self, files, capsys):
        # 100,000 nested lists raised RecursionError out of json (exit 1)
        deep = "[" * 100000
        path = files["tmp"] / "deep.json"
        path.write_text(deep)
        for argv in (["decompose", str(path)],
                     ["maxwell", "--vectors", deep],
                     ["planar-fiber", files["div2"], "--center", deep]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", argv[0]
            assert "nested too deeply" in captured.err, argv[0]
            assert "Traceback" not in captured.err

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
        # values the printer leaves to json.dumps, two or three levels down
        {"a": [{"b": {2: "two", -1: [0.5]}}], "c": {"d": {None: 1}, "e": [{1.5: 2, 0.5: 1}]}},
        [{"a": [np.float64(0.1), np.float64(-0.0)]}, [np.float64("inf")]],
        {"a": {"b": [float("nan"), 1.0]}, "c": [[-float("inf")]]},
        [[None, {"a": None}], {"b": [None]}],
        {"a": [True, {"b": False}], "c": [[1, True]]},
        [{"a": ["line\nbreak", {"b": "\r\n\u2028"}]}],
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


_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, float("nan"),
     float("inf"), -float("inf")]))
# any code point, lone surrogates included, and often one that json escapes;
# st.text() would first map the codec's characters, which takes seconds
_TEXT = st.lists(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028'),
                           st.integers(0, 0x10FFFF).map(chr)), max_size=6).map("".join)
_SCALARS = st.one_of(_TEXT, st.integers(), _FLOATS, _FLOATS.map(np.float64),
                     st.booleans(), st.none())
# each dict draws its keys from one of these
_KEYS = st.sampled_from([_TEXT, st.integers(), _FLOATS,
                         _FLOATS.map(np.float64), st.booleans(), st.none()])
_JSON = st.recursive(_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    _KEYS.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4))),
    max_leaves=12)


# polynomial terms as the commands emit them, and dicts that come close:
# exps of bools, floats, np.int64, two or four entries, a tuple or a scalar;
# coefficients non-finite, np.float64, int or bool; keys extra or missing
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_GOOD_TERMS = st.fixed_dictionaries({
    "exp": st.lists(st.integers(0, 40), min_size=3, max_size=3),
    "im": _FINITE, "re": _FINITE})
_EXP_ENTRIES = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.booleans(), _FLOATS,
                         st.integers(-3, 3).map(np.int64))
_NEAR_COEFFS = st.one_of(st.sampled_from([float("nan"), float("inf"), -float("inf")]),
                         _FLOATS.map(np.float64), st.integers(), st.booleans())
# a good term with a coefficient replaced, its exp replaced, one key
# dropped or one added; or not a dict
_NEAR_TERMS = {
    "coefficient": st.builds(lambda t, k, v: dict(t, **{k: v}), _GOOD_TERMS,
                             st.sampled_from(["im", "re"]), _NEAR_COEFFS),
    "exp": st.builds(lambda t, e: dict(t, exp=e), _GOOD_TERMS, st.one_of(
        st.lists(_EXP_ENTRIES, min_size=2, max_size=4),
        st.lists(st.integers(0, 9), min_size=3, max_size=3).map(tuple), _SCALARS)),
    "keys": st.one_of(
        st.builds(lambda t, k: {key: v for key, v in t.items() if key != k},
                  _GOOD_TERMS, st.sampled_from(["exp", "im", "re"])),
        _GOOD_TERMS.map(lambda t: dict(t, extra=None))),
    "scalar": _SCALARS,
}


def _term_containers(near):
    """Lists of good terms with one near term anywhere among them, as a
    list or a tuple, at the top or two and four levels down."""
    lists = st.tuples(st.lists(_GOOD_TERMS, max_size=3), near,
                      st.lists(_GOOD_TERMS, max_size=3)).map(lambda t: [*t[0], t[1], *t[2]])
    return lists.flatmap(lambda terms: st.sampled_from([
        terms, tuple(terms), {"degree": 2, "terms": terms},
        {"degree": 2, "terms": tuple(terms)}, {"components": [{"degree": 2, "terms": terms}]}]))


class TestPrinterProperties:
    @given(_JSON)
    def test_same_bytes_as_json(self, obj):
        try:
            want = json.dumps(obj, indent=2, sort_keys=True)
        except TypeError:
            with pytest.raises(TypeError):
                _json_text(obj)
            return
        assert _json_text(obj) == want

    @pytest.mark.parametrize("near", sorted(_NEAR_TERMS))
    @given(data=st.data())
    def test_term_lists_same_bytes_as_json(self, near, data):
        obj = data.draw(_term_containers(_NEAR_TERMS[near]))
        try:
            want = json.dumps(obj, indent=2, sort_keys=True)
        except TypeError:
            with pytest.raises(TypeError):
                _json_text(obj)
            return
        assert _json_text(obj) == want

    GOOD = {"exp": [1, 0, 2], "im": -0.0, "re": 2.5}
    SECOND = [dict(GOOD, im=float("nan")), dict(GOOD, re=float("inf")),
              dict(GOOD, re=-float("inf")), dict(GOOD, re=np.float64(0.5)),
              dict(GOOD, re=3), dict(GOOD, im=True), dict(GOOD, exp=[1, np.int64(0), 2]),
              dict(GOOD, exp=[True, 0, 2]), dict(GOOD, exp=[1.0, 0, 2]),
              dict(GOOD, exp=[1, 0]), dict(GOOD, exp=[1, 0, 2, 0]),
              dict(GOOD, exp=(1, 0, 2)), dict(GOOD, exp=None), dict(GOOD, exp=7),
              dict(GOOD, exp="abc"), dict(GOOD, extra=None),
              {"exp": [1, 0, 2], "re": 2.5}, {"exp": [1, 0, 2], "im": 1.0, "rx": 2.5},
              {"im": 1.0, "re": 2.5, 0: 1}, 1.5, None, [GOOD]]

    @pytest.mark.parametrize("second", SECOND, ids=[repr(c) for c in SECOND])
    def test_good_term_then_another(self, second):
        for obj in ([self.GOOD, second], ({"terms": (self.GOOD, second, self.GOOD)},)):
            try:
                want = json.dumps(obj, indent=2, sort_keys=True)
            except TypeError:
                with pytest.raises(TypeError):
                    _json_text(obj)
                continue
            assert _json_text(obj) == want


# grades and line stacks as the commands hand them to the printer, with the
# io writer whose json.dumps text the printer must give for each
_EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]
_NON_FINITE = [float("nan"), float("inf"), -float("inf")]


def _coeffs(draw, size, edges):
    """size complex numbers: a random share of nonzero parts of random
    magnitude, then up to eight parts set to one of edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    share = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    parts = rng.standard_normal((size, 2)) * 10.0 ** rng.integers(-300, 300, (size, 2))
    parts[rng.random((size, 2)) >= share] = 0.0
    for i, part, v in draw(st.lists(st.tuples(st.integers(0, max(size - 1, 0)),
                                              st.integers(0, 1), st.sampled_from(edges)),
                                    max_size=8 if size else 0)):
        parts[i, part] = v
    return parts.view(complex).ravel()


@st.composite
def _grade(draw, edges=_EDGES):
    d = draw(st.integers(0, 24))
    return HomogPoly(d, _coeffs(draw, grade_dim(d), edges)), qio.poly_to_json


@st.composite
def _line_stack(draw, edges=_EDGES):
    n = draw(st.integers(0, 30))
    return _coeffs(draw, 3 * n, edges).reshape(n, 3), qio._lines_to_json


@st.composite
def _nested(draw, values):
    """(obj, want): a drawn value at the top level or 2 to 4 containers
    down, and the same containers around its writer's object."""
    value, writer = draw(values)
    obj, want = value, writer(value)
    for kind in draw(st.one_of(st.just([]), st.lists(
            st.sampled_from(["list", "tuple", "dict"]), min_size=2, max_size=4))):
        if kind == "dict":
            obj, want = {"a": 1.5, "k": obj, "z": []}, {"a": 1.5, "k": want, "z": []}
        else:
            obj, want = [0, obj, "s"], [0, want, "s"]
            if kind == "tuple":
                obj = tuple(obj)
    return obj, want


class TestArrayPrinter:
    """Grades (HomogPoly) and line stacks ((n, 3) complex arrays) print as
    json.dumps(indent=2, sort_keys=True) prints io's writers' objects."""

    @given(_nested(st.one_of(_grade(), _line_stack())))
    def test_same_bytes_as_the_writers(self, case):
        obj, want = case
        assert _json_text(obj) == json.dumps(want, indent=2, sort_keys=True)

    @given(_nested(st.one_of(_grade(_EDGES + _NON_FINITE),
                             _line_stack(_EDGES + _NON_FINITE))))
    def test_non_finite_same_bytes_as_the_writers(self, case):
        obj, want = case
        assert _json_text(obj) == json.dumps(want, indent=2, sort_keys=True)

    def test_non_finite_prints_nan_and_infinity(self):
        grade = HomogPoly(1, [1.0, complex(float("nan"), 0.0), 0.0])
        lines = np.array([[1.0, -float("inf"), 0.0]], dtype=complex)
        text = _json_text({"g": grade, "l": lines})
        assert text == json.dumps({"g": qio.poly_to_json(grade), "l": qio._lines_to_json(lines)},
                                  indent=2, sort_keys=True)
        assert "NaN" in text and "-Infinity" in text

    @pytest.mark.parametrize("degree", range(7))
    def test_zero_grade_at_its_degree(self, degree):
        zero = HomogPoly.zero(degree)
        for obj, want in ((zero, qio.poly_to_json(zero)),
                          ({"c": [zero]}, {"c": [qio.poly_to_json(zero)]})):
            assert _json_text(obj) == json.dumps(want, indent=2, sort_keys=True)
        assert json.loads(_json_text(zero)) == {"degree": degree, "terms": []}

    def test_commands_call_no_writer(self, run, files, monkeypatch):
        # every grade and line stack reaches the printer as arrays: no
        # command builds io's dict of a polynomial or of its lines
        def refuse(*args):
            raise AssertionError("io writer called")

        for name in ("poly_to_json", "_lines_to_json"):
            monkeypatch.setattr(qio, name, refuse)
        for argv in (["decompose", files["mixed"]], ["decompose", "--cone", files["xy"]],
                     ["decompose", "--cone", "--all", files["xy"]],
                     ["decompose", "--strategy", "enumerate", files["mixed"]],
                     ["harmonic", files["xsq"]], ["maxwell", "--vectors", "[0,0,1],[1,0,0]"],
                     ["maxwell", "--invert", files["zon2"]], ["fibers", files["xy"]],
                     ["approx", "--function", "exp_x", "--d-max", "3"]):
            assert run(argv)[0] == 0, argv


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
