"""JSON round trips for every serialized object family, schema validation,
and byte-level determinism of the emitted structures."""

import json

import numpy as np
import pytest

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
from quadpole.algebra import grade_dim, monomial_index, monomials

from conftest import random_poly


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
    """poly_to_json as one complex() per coefficient, the reference."""
    parts = p.parts if isinstance(p, Poly) else Poly.from_homog(p).parts
    terms = []
    for part in parts:
        for mono, c in zip(monomials(part.degree), part.coeffs):
            c = complex(c)
            if c == 0:
                continue
            terms.append({"exp": list(mono), "re": float(c.real),
                          "im": float(c.imag)})
    return {"degree": len(parts) - 1, "terms": terms}


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

    def test_missing_im_defaults_zero(self):
        p = qio.poly_from_json({"degree": 0,
                                "terms": [{"exp": [0, 0, 0], "re": 2.0}]})
        assert p.part(0).coeffs[0] == 2.0 + 0j

    def test_schema_rejections(self):
        bad = [
            {"degree": 1},                                      # no terms
            {"terms": []},                                      # no degree
            {"degree": -1, "terms": []},
            {"degree": True, "terms": []},
            {"degree": 1, "terms": [{"exp": [1, 0], "re": 1}]},
            {"degree": 1, "terms": [{"exp": [1, 0, -1], "re": 1}]},
            {"degree": 1, "terms": [{"exp": [1, 1, 0], "re": 1}]},  # deg 2
            {"degree": 1, "terms": [{"exp": [1, 0, 0], "re": "x"}]},
            {"degree": 1, "terms": [{"exp": [1, 0, 0], "bad": 1}]},
            {"degree": 1, "terms": [], "extra": 0},
        ]
        for obj in bad:
            with pytest.raises(InvalidInput):
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
