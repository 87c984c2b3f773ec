"""JSON round trips for every serialized object family, schema validation,
and byte-level determinism of the emitted structures."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quadpole import (
    BinaryForm,
    ConicDivisor,
    HomogPoly,
    InvalidInput,
    Multipole,
    PencilDivisor,
    Poly,
    ProjPoint1,
    ProjPoint2,
    QuadForm,
    RootCluster,
    all_factorizations,
    divisors_close,
    full_decompose,
    poly_mul,
)
from quadpole import io as qio
from quadpole.algebra import grade_dim, monomials

from conftest import monomial_index, random_poly


def hp(degree, entries):
    idx = monomial_index(degree)
    c = np.zeros(grade_dim(degree), dtype=complex)
    for mono, v in entries.items():
        c[idx[mono]] = v
    return HomogPoly(degree, c)


X = hp(1, {(1, 0, 0): 1})
Y = hp(1, {(0, 1, 0): 1})


def dumps(obj):
    return json.dumps(obj, sort_keys=True)


def poly_to_json_loop(p):
    """poly_to_json as one complex() per coefficient, the reference; a
    HomogPoly at its own degree."""
    parts = p.parts if isinstance(p, Poly) else (p,)
    terms = []
    for part in parts:
        for mono, c in zip(monomials(part.degree), part.coeffs):
            c = complex(c)
            if c == 0:
                continue
            terms.append({"exp": list(mono), "re": float(c.real),
                          "im": float(c.imag)})
    return {"degree": parts[-1].degree, "terms": terms}


def poly_from_json_loop(obj):
    """poly_from_json as one += of complex(re, im) per term, the reference."""
    qio._check_keys(obj, ("degree", "terms"), "polynomial")
    if "degree" not in obj or "terms" not in obj:
        raise InvalidInput("polynomial: needs 'degree' and 'terms'")
    d = obj["degree"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise InvalidInput("polynomial: degree must be a non-negative integer")
    if not isinstance(obj["terms"], list):
        raise InvalidInput("polynomial: terms must be a list")
    coeffs = {k: np.zeros(grade_dim(k), dtype=complex) for k in range(d + 1)}
    for t in obj["terms"]:
        qio._check_keys(t, ("exp", "re", "im"), "polynomial term")
        e = t.get("exp")
        if (not isinstance(e, list) or len(e) != 3
                or any(not isinstance(x, int) or isinstance(x, bool) or x < 0
                       for x in e)):
            raise InvalidInput("polynomial term: exp must be three"
                               " non-negative integers")
        k = sum(e)
        if k > d:
            raise InvalidInput("polynomial term: exponent %s exceeds the"
                               " stated degree %d" % (e, d))
        re = t.get("re", 0.0)
        im = t.get("im", 0.0)
        for name, v in (("re", re), ("im", im)):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise InvalidInput("polynomial term: %s must be a number"
                                   % name)
        for name, v in (("re", re), ("im", im)):
            # 2**1024 - 2**970 is the least int that rounds past the
            # largest double
            if v != v or v in (math.inf, -math.inf) or abs(v) >= 2 ** 1024 - 2 ** 970:
                raise InvalidInput("polynomial term: %s must be finite" % name)
        coeffs[k][monomial_index(k)[tuple(e)]] += complex(re, im)
    return Poly([HomogPoly(k, coeffs[k]) for k in range(d + 1)])


def _parse_outcome(parse, obj):
    """The bits of each parsed grade, or the error's type and message."""
    try:
        p = parse(obj)
    except InvalidInput as exc:
        return "raised", str(exc)
    return "ok", [part.coeffs.tobytes() for part in p.parts]


# coefficients: floats of every kind, -0.0 among them, tenths, whose sums
# round differently in another order, integers beyond 2**53, and integers
# on either side of the double range's end
_COEFFS = st.one_of(st.floats(), st.just(-0.0),
                    st.integers(-99, 99).map(lambda n: n / 10),
                    st.integers(-2 ** 70, 2 ** 70),
                    st.sampled_from([2 ** 1024 - 2 ** 970 - 1, 2 ** 1024 - 2 ** 970,
                                     -(2 ** 1024 - 2 ** 970), 10 ** 400]))
# exponents mostly from a pool of four, so that terms often repeat one
_EXPS = st.one_of(
    st.sampled_from([[0, 0, 0], [1, 0, 0], [0, 1, 1], [2, 0, 1]]),
    st.lists(st.integers(0, 3), min_size=3, max_size=3))
_TERMS = st.fixed_dictionaries({"exp": _EXPS}, optional={"re": _COEFFS, "im": _COEFFS})
_POLYS = st.fixed_dictionaries({"degree": st.integers(0, 9),
                                "terms": st.lists(_TERMS, max_size=12)})
_REFUSED_TERMS = st.one_of(
    st.fixed_dictionaries({"exp": st.sampled_from(
        [[1, 0], [0, -1, 1], [True, 0, 0], [1.0, 0, 0], "x", None])}),
    st.fixed_dictionaries({"exp": st.just([1, 0, 0]), "re": st.sampled_from(
        [True, "1", None, [1.0, 0.0]])}),
    st.fixed_dictionaries({"exp": st.just([0, 0, 0]), "im": st.sampled_from(
        [False, "1", None])}),
    st.fixed_dictionaries({"exp": st.just([0, 0, 0]), "bad": st.just(0)}))
# refusals that the bulk check must leave to the loop: exponents beyond
# intp, three that overflow an intp sum, negative or bool ones, huge-int and
# non-finite coefficients, a missing exp, and terms that are not dicts
_BULK_REFUSED_TERMS = st.one_of(
    _REFUSED_TERMS,
    st.fixed_dictionaries({"exp": st.sampled_from(
        [[2 ** 70, 0, 0], [0, 0, -2 ** 70], [2 ** 62] * 3, [2 ** 63 - 1, 0, 1],
         [0, False, 1], [1, 0]])}, optional={"re": _COEFFS}),
    st.fixed_dictionaries({"exp": _EXPS, "re": st.sampled_from(
        [10 ** 400, 2 ** 1024 - 2 ** 970, float("nan"), -float("inf")])}),
    st.fixed_dictionaries({"exp": _EXPS, "im": st.sampled_from(
        [-(2 ** 1024 - 2 ** 970), float("inf")])}),
    st.fixed_dictionaries({"re": _COEFFS}),
    st.sampled_from([[], 0, None, "term", [[1, 0, 0], 1.0]]))


class TestPoly:
    def test_round_trip(self):
        rng = np.random.default_rng(90)
        for d in (0, 1, 3, 5):
            p = random_poly(d, rng)
            q = qio.poly_from_json(qio.poly_to_json(p))
            assert len(q.parts) == len(p.parts)
            for a, b in zip(p.parts, q.parts):
                assert np.array_equal(a.coeffs, b.coeffs)

    def test_homog_round_trip(self):
        rng = np.random.default_rng(91)
        h = random_poly(4, rng).part(4)
        back = qio.homog_from_json(qio.poly_to_json(h))
        assert back.degree == 4
        assert np.array_equal(back.coeffs, h.coeffs)

    def test_homog_rejects_mixed(self):
        p = Poly.from_grades({0: HomogPoly(0, [1.0]), 2: poly_mul(X, X)})
        with pytest.raises(InvalidInput):
            qio.homog_from_json(qio.poly_to_json(p))

    def test_homog_keeps_the_stated_degree(self):
        # a stated degree above every nonzero grade was dropped: degree 3
        # with the one term x parsed as the degree-1 x
        x = {"exp": [1, 0, 0], "re": 1.0}
        with pytest.raises(InvalidInput, match="expected homogeneous of degree 3"
                                               " but grade 1 is present"):
            qio.homog_from_json({"degree": 3, "terms": [x]})
        # with no nonzero term it is the zero grade of the stated degree
        for obj in ({"degree": 0, "terms": []}, {"degree": 3, "terms": []},
                    {"degree": 3, "terms": [{"exp": [1, 0, 0], "re": 0.0}]}):
            zero = qio.homog_from_json(obj)
            assert zero.degree == obj["degree"] and zero.is_zero()
        cube = qio.homog_from_json({"degree": 3, "terms": [
            {"exp": [0, 0, 0], "re": 0.0}, {"exp": [0, 0, 3], "re": 2.0}]})
        assert cube.degree == 3 and cube.coeffs[-1] == 2.0

    def test_zero_grade_round_trips_at_its_degree(self):
        # the zero grade of degree d was written at degree 0 and read back
        # as the zero constant
        for d in range(7):
            obj = qio.poly_to_json(HomogPoly.zero(d))
            assert obj == {"degree": d, "terms": []}
            back = qio.homog_from_json(obj)
            assert back.degree == d and back.is_zero()

    def test_serializer_matches_term_loop(self):
        # repr tells -0.0 from 0.0, nan from a number and np.float64 from
        # float; -0.0+0j equals 0 and is omitted, nan and inf are kept
        nan, inf = float("nan"), float("inf")
        odd = HomogPoly(3, [complex(-0.0, 0.0), complex(0.0, -0.0),
                            complex(-0.0, -0.0), complex(1.0, -0.0),
                            complex(-0.0, 2.0), complex(nan, 0.0),
                            complex(0.0, inf), complex(-inf, nan),
                            complex(-1e-300, 0.0), complex(0.0, 5e-324)])
        rng = np.random.default_rng(92)
        cases = [
            odd,
            HomogPoly.zero(2),
            Poly.from_grades({0: HomogPoly(0, [-0.0]), 3: odd}),
            Poly.from_grades({1: HomogPoly.zero(1), 2: HomogPoly.zero(2)}),
            Poly.from_grades({0: HomogPoly(0, [complex(-0.0, 1.0)]),
                              2: poly_mul(X, Y) * -1.0}),
            random_poly(5, rng),
        ]
        for p in cases:
            assert repr(qio.poly_to_json(p)) == repr(poly_to_json_loop(p))

    def test_duplicate_terms_accumulate(self):
        obj = {"degree": 1, "terms": [{"exp": [1, 0, 0], "re": 1.0},
                                      {"exp": [1, 0, 0], "re": 2.0}]}
        p = qio.poly_from_json(obj)
        assert p.part(1).coeffs[0] == 3.0

    def test_duplicates_add_in_term_order(self):
        # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last bit
        obj = {"degree": 1, "terms": [{"exp": [0, 1, 0], "re": v, "im": -v}
                                      for v in (0.1, 0.2, 0.3)]}
        c = qio.poly_from_json(obj).part(1).coeffs[1]
        assert c == complex((0.1 + 0.2) + 0.3, (-0.1 - 0.2) - 0.3)
        assert c != complex((0.3 + 0.2) + 0.1, (-0.3 - 0.2) - 0.1)

    def test_missing_im_defaults_zero(self):
        p = qio.poly_from_json({"degree": 0,
                                "terms": [{"exp": [0, 0, 0], "re": 2.0}]})
        assert p.part(0).coeffs[0] == 2.0 + 0j

    def test_schema_rejections(self):
        # each case with the message it has always had
        bad = [
            ({"degree": 1}, "polynomial: needs 'degree' and 'terms'"),
            ({"terms": []}, "polynomial: needs 'degree' and 'terms'"),
            ({"degree": -1, "terms": []},
             "polynomial: degree must be a non-negative integer"),
            ({"degree": True, "terms": []},
             "polynomial: degree must be a non-negative integer"),
            ({"degree": 1, "terms": [{"exp": [1, 0], "re": 1}]},
             "polynomial term: exp must be three non-negative integers"),
            ({"degree": 1, "terms": [{"exp": [1, 0, -1], "re": 1}]},
             "polynomial term: exp must be three non-negative integers"),
            ({"degree": 1, "terms": [{"exp": [1, 1, 0], "re": 1}]},
             "polynomial term: exponent [1, 1, 0] exceeds the stated degree 1"),
            ({"degree": 1, "terms": [{"exp": [1, 0, 0], "re": "x"}]},
             "polynomial term: re must be a number"),
            ({"degree": 1, "terms": [{"exp": [1, 0, 0], "bad": 1}]},
             "polynomial term: unknown keys ['bad']"),
            ({"degree": 1, "terms": [], "extra": 0},
             "polynomial: unknown keys ['extra']"),
        ]
        for obj, message in bad:
            with pytest.raises(InvalidInput) as info:
                qio.poly_from_json(obj)
            assert str(info.value) == message, obj

    def test_memory_follows_the_terms(self):
        # grades above the highest term are not allocated: a stated degree
        # of 200 took 1,373,701 coefficients (tens of MB) before Poly
        # trimmed them away
        import tracemalloc
        objs = [{"degree": 200, "terms": []},
                {"degree": 200, "terms": [{"exp": [0, 1, 1], "re": 2.0}]}]
        tracemalloc.start()
        try:
            parsed = [qio.poly_from_json(obj) for obj in objs]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert [p.degree for p in parsed] == [0, 2]
        for obj in objs:
            assert _parse_outcome(qio.poly_from_json, obj) \
                == _parse_outcome(poly_from_json_loop, obj)

    @given(_POLYS)
    def test_parser_matches_term_loop(self, obj):
        # the same bits, or the same error, as one += per term
        assert _parse_outcome(qio.poly_from_json, obj) \
            == _parse_outcome(poly_from_json_loop, obj)

    @given(_POLYS, _REFUSED_TERMS, st.integers(0, 12))
    def test_refusals_match_term_loop(self, obj, refused, at):
        # a refused term among others: the first failing check's message
        terms = list(obj["terms"])
        terms.insert(at, refused)
        obj = dict(obj, terms=terms)
        assert _parse_outcome(qio.poly_from_json, obj) \
            == _parse_outcome(poly_from_json_loop, obj)

    @given(_POLYS, st.lists(st.tuples(_BULK_REFUSED_TERMS, st.integers(0, 14)),
                            min_size=1, max_size=3))
    def test_bulk_refusals_match_term_loop(self, obj, refusals):
        # refused terms anywhere among good ones: the bulk check passes
        # none of them, and the loop names the first
        terms = list(obj["terms"])
        for refused, at in refusals:
            terms.insert(at, refused)
        obj = dict(obj, terms=terms)
        assert qio._bulk_terms(terms, obj["degree"]) is None
        assert _parse_outcome(qio.poly_from_json, obj) \
            == _parse_outcome(poly_from_json_loop, obj)

    @given(st.lists(st.fixed_dictionaries(
        {"exp": st.lists(st.integers(0, 12), min_size=3, max_size=3)},
        optional={"re": _COEFFS, "im": _COEFFS}), min_size=1, max_size=30))
    def test_bulk_check_passes_what_parses(self, terms):
        # the bulk check passes exactly the inputs that the loop accepts
        obj = {"degree": max(sum(t["exp"]) for t in terms), "terms": terms}
        outcome = _parse_outcome(qio.poly_from_json, obj)
        assert outcome == _parse_outcome(poly_from_json_loop, obj)
        assert (qio._bulk_terms(terms, obj["degree"]) is not None) == (outcome[0] == "ok")

    @pytest.mark.parametrize("obj", [
        # 2.37 PiB of grades: numpy's MemoryError
        {"degree": 100000, "terms": [{"exp": [100000, 0, 0], "re": 1.0}]},
        # more coefficients than an intp can count
        {"degree": 10 ** 7, "terms": [{"exp": [10 ** 7, 0, 0], "re": 1.0}]},
        # a grade beyond intp, and exponents that are
        {"degree": 2 ** 64, "terms": [{"exp": [2 ** 62] * 3, "re": 1.0}]},
        {"degree": 2 ** 71, "terms": [{"exp": [2 ** 70, 0, 0]}]},
    ])
    def test_too_large_to_hold(self, obj):
        # each fails at once, with no allocation made: before, the first
        # two raised MemoryError and OverflowError out of the parser
        with pytest.raises(InvalidInput, match="too large to hold"):
            qio.poly_from_json(obj)


class TestQuadForm:
    def test_round_trip_complex(self):
        rng = np.random.default_rng(92)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Q = QuadForm(m + m.T)
        back = qio.quadform_from_json(qio.quadform_to_json(Q))
        assert np.array_equal(back.B, Q.B)
        assert back.is_real == Q.is_real

    def test_round_trip_real(self, hyperboloid):
        back = qio.quadform_from_json(qio.quadform_to_json(hyperboloid))
        assert back.is_real
        assert np.array_equal(back.B, hyperboloid.B)

    def test_presets(self, sphere, hyperboloid):
        assert np.array_equal(qio.quadform_preset("sphere").B, sphere.B)
        assert np.array_equal(qio.quadform_preset("hyperboloid").B,
                              hyperboloid.B)
        with pytest.raises(InvalidInput):
            qio.quadform_preset("paraboloid")

    def test_real_flag_with_imaginary_rejected(self):
        obj = {"B": [[[1, 1], [0, 0], [0, 0]],
                     [[0, 0], [1, 0], [0, 0]],
                     [[0, 0], [0, 0], [1, 0]]], "real": True}
        with pytest.raises(InvalidInput):
            qio.quadform_from_json(obj)

    def test_real_must_be_boolean(self):
        # "real" took any JSON value: "no" with a complex B was refused as
        # marked real, and [0] was taken for false
        complex_b = [[[1, 1], [0, 0], [0, 0]],
                     [[0, 0], [1, 0], [0, 0]],
                     [[0, 0], [0, 0], [1, 0]]]
        for B in (complex_b, np.eye(3).tolist()):
            for real in ("no", [0], 0, 1, None, {}):
                with pytest.raises(InvalidInput, match="quadric: real must be true or false"):
                    qio.quadform_from_json({"B": B, "real": real})
        assert not qio.quadform_from_json({"B": complex_b, "real": False}).is_real
        assert qio.quadform_from_json({"B": np.eye(3).tolist(), "real": True}).is_real

    def test_shape_rejections(self):
        for obj in [{"B": [[1, 0, 0], [0, 1, 0]]}, {"B": 3},
                    {"B": np.eye(2).tolist()}, {"real": True},
                    {"B": np.eye(3).tolist(), "junk": 1}]:
            with pytest.raises(InvalidInput):
                qio.quadform_from_json(obj)

    def test_bare_numbers_accepted(self):
        Q = qio.quadform_from_json({"B": [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
                                    "real": True})
        assert Q.is_real and Q.signature == 1


class TestBinaryForm:
    def test_round_trip(self):
        rng = np.random.default_rng(93)
        f = BinaryForm(4, rng.standard_normal(5) + 1j * rng.standard_normal(5))
        back = qio.binary_from_json(qio.binary_to_json(f))
        assert back.degree == 4
        assert np.array_equal(back.coeffs, f.coeffs)

    def test_bare_reals(self):
        f = qio.binary_from_json({"degree": 1, "coeffs": [1, 2.5]})
        assert f.coeffs[1] == 2.5 + 0j

    def test_rejections(self):
        for obj in [{"degree": 2, "coeffs": [1, 2]},
                    {"degree": -1, "coeffs": []},
                    {"degree": 1, "coeffs": [1, 2], "x": 0},
                    {"coeffs": [1]}]:
            with pytest.raises(InvalidInput):
                qio.binary_from_json(obj)


class TestCluster:
    def test_round_trip(self):
        c = RootCluster(ProjPoint1([0.5 + 0.25j, 1.0]), 3)
        back = qio.cluster_from_json(qio.cluster_to_json(c))
        assert back.multiplicity == 3
        assert np.allclose(back.point.coords, c.point.coords)

    def test_rejections(self):
        for obj in [{"u": [[1, 0]], "mult": 1},
                    {"u": [[1, 0], [0, 0]], "mult": 0},
                    {"u": [[1, 0], [0, 0]], "mult": 1, "y": 2},
                    {"mult": 1}]:
            with pytest.raises(InvalidInput):
                qio.cluster_from_json(obj)


class TestFactorization:
    def test_round_trip(self, sphere):
        for f in all_factorizations(poly_mul(X, Y), sphere):
            back = qio.factorization_from_json(qio.factorization_to_json(f))
            assert back.lam == pytest.approx(f.lam)
            assert back.parcelling.pieces == f.parcelling.pieces
            for a, b in zip(back.lines, f.lines):
                assert np.allclose(a.coeffs, b.coeffs)
            assert np.allclose(back.remainder.coeffs, f.remainder.coeffs)

    def test_rejections(self):
        ok = {"lambda": [1, 0], "lines": [[[1, 0], [0, 0], [0, 0]]],
              "remainder": {"degree": 0, "terms": []},
              "parcelling": [[0, 1]]}
        for key in ("lambda", "lines", "remainder", "parcelling"):
            bad = dict(ok)
            del bad[key]
            with pytest.raises(InvalidInput):
                qio.factorization_from_json(bad)
        bad = dict(ok, parcelling=[[0]])
        with pytest.raises(InvalidInput):
            qio.factorization_from_json(bad)
        bad = dict(ok, lines=[[[1, 0], [0, 0]]])
        with pytest.raises(InvalidInput):
            qio.factorization_from_json(bad)


class TestMultipole:
    def test_round_trip(self):
        m = Multipole.from_parts(2.0 - 1.0j, [X + Y * 2.0, Y])
        back = qio.multipole_from_json(qio.multipole_to_json(m))
        assert back.isclose(m, tol=1e-12)

    def test_rejections(self):
        for obj in [{"scale": [1, 0]}, {"lines": []},
                    {"scale": [1, 0], "lines": [[[1, 0], [0, 0]]]},
                    {"scale": [1, 0], "lines": [], "w": 1}]:
            with pytest.raises(InvalidInput):
                qio.multipole_from_json(obj)


class TestSequence:
    def test_round_trip(self, sphere):
        rng = np.random.default_rng(94)
        seq = full_decompose(random_poly(3, rng), sphere)
        back = qio.sequence_from_json(qio.sequence_to_json(seq))
        assert back.lam == pytest.approx(seq.lam)
        assert sorted(back.terms) == sorted(seq.terms)
        for k in seq.terms:
            assert back.terms[k].isclose(seq.terms[k], tol=1e-12)

    def test_rejections(self):
        for obj in [{"terms": {}},
                    {"lambda": [0, 0], "terms": {"0": {"scale": [1, 0],
                                                       "lines": []}}},
                    {"lambda": [0, 0], "terms": {"two": {"scale": [1, 0],
                                                         "lines": []}}},
                    {"lambda": [0, 0], "terms": [], },
                    {"lambda": [0, 0], "terms": {}, "zz": 1}]:
            with pytest.raises(InvalidInput):
                qio.sequence_from_json(obj)


class TestDivisors:
    def test_pencil_round_trip(self):
        d = PencilDivisor([(ProjPoint1([1.0, 2.0 + 1j]), 2),
                           (ProjPoint1([0.0, 1.0]), 1)])
        back = qio.pencil_divisor_from_json(qio.pencil_divisor_to_json(d))
        assert divisors_close(back, d, tol=1e-12)

    def test_conic_round_trip(self, sphere):
        from quadpole import conic_param
        param = conic_param(sphere)
        d = ConicDivisor([(param.point(ProjPoint1([1.0, 0.5j])), 1),
                          (param.point(ProjPoint1([2.0, 1.0])), 3)])
        back = qio.conic_divisor_from_json(qio.conic_divisor_to_json(d))
        assert divisors_close(back, d, tol=1e-12)

    def test_rejections(self):
        with pytest.raises(InvalidInput):
            qio.pencil_divisor_from_json([])
        with pytest.raises(InvalidInput):
            qio.pencil_divisor_from_json({"u": [[1, 0], [0, 0]], "mult": 1})
        with pytest.raises(InvalidInput):
            qio.conic_divisor_from_json([{"point": [[1, 0], [0, 0]],
                                          "mult": 1}])
        with pytest.raises(InvalidInput):
            qio.conic_divisor_from_json([{"point": [[1, 0], [0, 0], [0, 0]],
                                          "mult": 0}])


class TestDeterminism:
    def test_equal_objects_equal_bytes(self, sphere):
        rng1 = np.random.default_rng(95)
        rng2 = np.random.default_rng(95)
        a = full_decompose(random_poly(3, rng1), sphere)
        b = full_decompose(random_poly(3, rng2), sphere)
        assert dumps(qio.sequence_to_json(a)) == dumps(qio.sequence_to_json(b))
        p1, p2 = random_poly(4, rng1), random_poly(4, rng2)
        assert dumps(qio.poly_to_json(p1)) == dumps(qio.poly_to_json(p2))

    def test_parse_serialize_parse_fixed_point(self, sphere):
        f = all_factorizations(poly_mul(X, Y), sphere)[0]
        j1 = qio.factorization_to_json(f)
        j2 = qio.factorization_to_json(qio.factorization_from_json(j1))
        assert dumps(j1) == dumps(j2)
