"""End-to-end decomposition of polynomial functions on {Q = 1} into
constant-plus-multipole sequences, and the dimension-count inequalities."""

import itertools
import time

import numpy as np
import pytest

from quadpole import (
    DivisibleByQ,
    EnumerationLimit,
    HomogPoly,
    InvalidPartition,
    Multipole,
    Poly,
    ProjPoint1,
    QuadForm,
    StrategyMismatch,
    all_factorizations,
    canonical_parcelling,
    conic_param,
    divide_by_quadric,
    factor,
    factor_on_quadric,
    full_decompose,
    grade_split,
    homogenize_on_quadric,
    intersection_clusters,
    lemma9_gap,
    line_through,
    poly_mul,
    reconstruct,
    representation_bound,
    surface_samples,
)
from quadpole.algebra import grade_dim

from conftest import monomial_index, random_homog, random_poly


def hp(degree, entries):
    idx = monomial_index(degree)
    c = np.zeros(grade_dim(degree), dtype=complex)
    for mono, v in entries.items():
        c[idx[mono]] = v
    return HomogPoly(degree, c)


X = hp(1, {(1, 0, 0): 1})


def surface_match(P, seq, Q, rng, tol=1e-8, n=200):
    evaluate, rep = reconstruct(seq, Q)
    pts = surface_samples(Q, n, rng)
    want = P.eval_many(pts)
    got = evaluate(pts)
    scale = max(float(np.max(np.abs(want))), 1.0)
    assert np.max(np.abs(got - want)) <= tol * scale
    assert np.max(np.abs(rep.eval_many(pts) - want)) <= tol * scale


class TestCanonical:
    def test_round_trips(self, sphere, hyperboloid):
        rng = np.random.default_rng(60)
        for Q in (sphere, hyperboloid):
            for d in (1, 2, 3, 5):
                P = random_poly(d, rng)
                seq = full_decompose(P, Q, strategy="canonical")
                surface_match(P, seq, Q, rng)

    def test_real_round_trips(self, sphere):
        rng = np.random.default_rng(61)
        for d in (2, 4):
            P = random_poly(d, rng, real=True)
            seq = full_decompose(P, sphere, strategy="canonical")
            surface_match(P, seq, sphere, rng)

    def test_mixed_parity_shape(self, sphere):
        # x^2 + x splits into a degree-2 term {x, x} and a degree-1 term {x}
        P = Poly.from_grades({1: X, 2: poly_mul(X, X)})
        seq = full_decompose(P, sphere, strategy="canonical")
        assert abs(seq.lam) < 1e-12
        assert sorted(seq.terms) == [1, 2]
        assert seq.terms[1].isclose(Multipole.from_parts(1.0, [X]))
        assert seq.terms[2].isclose(Multipole.from_parts(1.0, [X, X]))

    def test_constant_input(self, sphere):
        seq = full_decompose(Poly.constant(1.0), sphere)
        assert seq.lam == pytest.approx(1.0)
        assert seq.terms == {}

    def test_quadric_is_surface_constant(self, sphere):
        # Q itself restricts to the constant 1 on {Q = 1}
        seq = full_decompose(sphere.poly(), sphere)
        assert seq.lam == pytest.approx(1.0)
        assert seq.terms == {}

    def test_homog_input_accepted(self, sphere):
        rng = np.random.default_rng(62)
        h = Poly.from_grades({3: random_poly(3, rng).part(3)}).part(3)
        seq = full_decompose(h, sphere)
        surface_match(Poly.from_homog(h), seq, sphere, rng)

    def test_term_degrees_match_keys(self, sphere):
        rng = np.random.default_rng(63)
        seq = full_decompose(random_poly(4, rng), sphere)
        for k, mp in seq.terms.items():
            assert mp.degree == k

    def test_deterministic(self, sphere):
        rng1 = np.random.default_rng(64)
        rng2 = np.random.default_rng(64)
        a = full_decompose(random_poly(3, rng1), sphere)
        b = full_decompose(random_poly(3, rng2), sphere)
        assert a.lam == b.lam
        assert sorted(a.terms) == sorted(b.terms)
        for k in a.terms:
            assert a.terms[k].isclose(b.terms[k], tol=1e-12)

    def test_unknown_strategy(self, sphere):
        with pytest.raises(ValueError):
            full_decompose(Poly.constant(1.0), sphere, strategy="fancy")

    @pytest.mark.parametrize("real", [False, True])
    def test_stable_under_last_bit_change(self, sphere, real):
        # a 1-ulp change of one coefficient must not pick a different
        # canonical parcelling at any level of a degree-9 input, nor reorder
        # the conjugate lines of a real one
        rng = np.random.default_rng(0)
        for _ in range(3):
            P = random_homog(9, rng, real=real)
            c = P.coeffs.copy()
            c[0] = complex(np.nextafter(c[0].real, np.inf), c[0].imag)
            a = full_decompose(P, sphere)
            b = full_decompose(HomogPoly(9, c), sphere)
            assert sorted(a.terms) == sorted(b.terms)
            for k in a.terms:
                assert a.terms[k].isclose(b.terms[k], tol=1e-10)


class TestSolveCount:
    def test_one_solve_per_form_and_degree(self, monkeypatch):
        # every division by Q on a grade applies one operator, cached per
        # (Q, degree): the first input builds one per level, and a second
        # input on the same form builds none.  No other test uses this form.
        Q = QuadForm(np.diag([1.0, 2.0, 3.5]))
        calls = []
        for name in ("lstsq", "pinv"):
            original = getattr(np.linalg, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        rng = np.random.default_rng(70)
        seq = full_decompose(random_homog(6, rng), Q)
        assert sorted(seq.terms) == [2, 4, 6]
        assert calls == ["lstsq"] * 3
        calls.clear()
        seq = full_decompose(random_homog(6, rng), Q)
        assert sorted(seq.terms) == [2, 4, 6]
        assert calls == []

    def test_multiple_of_q_is_stripped(self, sphere):
        # a level that is a multiple of Q is divided, not factored
        rng = np.random.default_rng(71)
        P = random_homog(3, rng)
        q2 = poly_mul(sphere.poly(), sphere.poly())
        seq = full_decompose(poly_mul(q2, P), sphere)
        want = full_decompose(P, sphere)
        assert sorted(seq.terms) == sorted(want.terms) == [1, 3]
        for k in want.terms:
            assert seq.terms[k].isclose(want.terms[k], tol=1e-9)
        surface_match(poly_mul(q2, P), seq, sphere, rng)


class TestEnumerate:
    def test_generic_degree_three_count(self, sphere):
        rng = np.random.default_rng(65)
        P = random_poly(3, rng)
        seqs = full_decompose(P, sphere, strategy="enumerate")
        assert len(seqs) == representation_bound(3).bound == 45
        for seq in seqs[:5] + seqs[-5:]:
            surface_match(P, seq, sphere, rng, n=50)

    def test_all_sequences_reconstruct(self, hyperboloid):
        rng = np.random.default_rng(66)
        P = random_poly(2, rng)
        seqs = full_decompose(P, hyperboloid, strategy="enumerate")
        assert len(seqs) == 3
        for seq in seqs:
            surface_match(P, seq, hyperboloid, rng, n=50)

    def test_sequences_pairwise_distinct(self, sphere):
        rng = np.random.default_rng(67)
        seqs = full_decompose(random_poly(3, rng), sphere,
                              strategy="enumerate")
        for i in range(len(seqs)):
            for j in range(i + 1, len(seqs)):
                a, b = seqs[i], seqs[j]
                same = abs(a.lam - b.lam) < 1e-10 and all(
                    a.terms[k].isclose(b.terms[k], tol=1e-8)
                    for k in a.terms)
                assert not same

    def test_count_within_bound(self, sphere):
        rng = np.random.default_rng(68)
        for d in (1, 2, 3, 4):
            seqs = full_decompose(random_poly(d, rng), sphere,
                                  strategy="enumerate")
            assert len(seqs) <= representation_bound(d).bound

    def test_enumeration_cap(self, sphere, monkeypatch):
        import quadpole.deconstruct as dec
        assert dec.ENUMERATION_CAP == 10 ** 6
        monkeypatch.setattr(dec, "ENUMERATION_CAP", 10)
        rng = np.random.default_rng(69)
        with pytest.raises(EnumerationLimit):
            full_decompose(random_poly(3, rng), sphere,
                           strategy="enumerate")

    def test_enumeration_cap_counts_finished_sequences(self, sphere, monkeypatch):
        # every level's sequences counted against one budget, so a cubic
        # with 15 sequences was refused at every cap from 15 to 29
        import quadpole.deconstruct as dec
        P = random_homog(3, np.random.default_rng(70))
        monkeypatch.setattr(dec, "ENUMERATION_CAP", 15)
        assert len(full_decompose(P, sphere, strategy="enumerate")) == 15
        monkeypatch.setattr(dec, "ENUMERATION_CAP", 14)
        with pytest.raises(EnumerationLimit, match="more than 14 sequences"):
            full_decompose(P, sphere, strategy="enumerate")

    def test_enumeration_cap_refuses_early(self, sphere):
        # a generic degree 6 has 10395 * 315 even sequences and 945 * 15 odd
        # ones: the even chain was listed to the cap first, for 84 s near
        # 990 MB; the odd one first leaves the even chain 70
        start = time.perf_counter()
        with pytest.raises(EnumerationLimit, match="more than 1000000 sequences"):
            full_decompose(random_poly(6, np.random.default_rng(1)), sphere,
                           strategy="enumerate")
        assert time.perf_counter() - start < 10.0


class TestLinearLevel:
    """A nonzero linear level is its own one-line multipole: scale * line
    is the level's input, and it agrees with the level's cone factorization."""

    @staticmethod
    def _check(term, h, Q):
        assert term.degree == 1
        got = term.scale * np.asarray(term.lines[0])
        assert np.max(np.abs(got - h.coeffs)) <= 1e-15 * np.max(np.abs(h.coeffs))
        mults = [c.multiplicity for c in intersection_clusters(h, Q)]
        f = factor_on_quadric(h, Q, canonical_parcelling(mults))
        want = Multipole.from_parts(f.lam, f.lines)
        assert abs(term.scale - want.scale) <= 1e-12 * abs(want.scale)
        assert np.max(np.abs(np.subtract(term.lines, want.lines))) <= 1e-12

    def test_linear_input(self, sphere, hyperboloid):
        rng = np.random.default_rng(72)
        for Q in (sphere, hyperboloid):
            for real in (False, True):
                h = random_homog(1, rng, real=real)
                P = Poly.from_grades({0: random_homog(0, rng, real=real),
                                      1: h, 2: random_homog(2, rng, real=real)})
                self._check(full_decompose(P, Q).terms[1], h, Q)
                for seq in full_decompose(P, Q, strategy="enumerate"):
                    self._check(seq.terms[1], h, Q)
                if real and Q is sphere:
                    seq = full_decompose(P, Q, strategy="real_unique")
                    assert seq.is_real()
                    self._check(seq.terms[1], h, Q)

    def test_linear_remainder(self, sphere, dense_complex):
        rng = np.random.default_rng(73)
        for Q in (sphere, dense_complex):
            P = random_homog(3, rng)
            self._check(full_decompose(P, Q).terms[1], factor(P, Q).remainder, Q)
            seqs = full_decompose(P, Q, strategy="enumerate")
            facts = all_factorizations(P, Q)
            assert len(seqs) == len(facts) == 15
            for seq, f in zip(seqs, facts):
                self._check(seq.terms[1], f.remainder, Q)

    def test_no_context_for_linear_levels(self, sphere, monkeypatch):
        # Q * line strips to the line, which builds no context either
        from quadpole import sylvester
        degrees = []
        original = sylvester._FactorContext.__init__

        def counted(self, P, *args, **kwargs):
            degrees.append(P.degree)
            original(self, P, *args, **kwargs)

        monkeypatch.setattr(sylvester._FactorContext, "__init__", counted)
        rng = np.random.default_rng(75)
        h = random_homog(1, rng)
        P = Poly.from_grades({2: random_homog(2, rng), 3: poly_mul(sphere.poly(), h)})
        # the linear level's input: the quotient that stripping Q leaves
        h = divide_by_quadric(poly_mul(sphere.poly(), h), sphere)
        for strategy in ("canonical", "enumerate"):
            degrees.clear()
            out = full_decompose(P, sphere, strategy=strategy)
            assert degrees == [2, 3]
            for seq in (out if strategy == "enumerate" else [out]):
                assert sorted(seq.terms) == [1, 2]
                self._check(seq.terms[1], h, sphere)

    def test_zero_linear_remainder_adds_no_term(self, sphere):
        # a product of three secants: the parcelling that pairs each line's
        # own two points leaves R = 0, and its sequence has no linear term
        rng = np.random.default_rng(74)
        param = conic_param(sphere)
        pts = [param.point(ProjPoint1([complex(*rng.standard_normal(2)), 1.0]))
               for _ in range(6)]
        P = HomogPoly(0, [1.0])
        for i in range(3):
            P = poly_mul(P, line_through(pts[2 * i], pts[2 * i + 1], sphere))
        seqs = full_decompose(P, sphere, strategy="enumerate")
        assert len(seqs) == 15
        assert sum(sorted(seq.terms) == [3] for seq in seqs) == 1
        assert all(sorted(seq.terms) in ([3], [1, 3]) for seq in seqs)


class TestRealUnique:
    def test_real_output(self, sphere):
        rng = np.random.default_rng(70)
        for d in (2, 3, 4):
            P = random_poly(d, rng, real=True)
            seq = full_decompose(P, sphere, strategy="real_unique")
            assert seq.is_real()
            surface_match(P, seq, sphere, rng)

    def test_complex_input_rejected(self, sphere):
        rng = np.random.default_rng(71)
        with pytest.raises(StrategyMismatch):
            full_decompose(random_poly(2, rng), sphere,
                           strategy="real_unique")

    def test_small_odd_part_with_imaginary_noise(self, sphere):
        # the noise passes the entry's test against ||P||; the odd level's
        # second test against its own norm, 1e-6 of ||P||, raised NotReal
        rng = np.random.default_rng(73)
        even = Poly.from_grades({k: random_homog(k, rng, real=True) for k in (0, 2, 4)})
        odd = Poly.from_grades({k: random_homog(k, rng, real=True) for k in (1, 3)})
        noise = Poly.from_grades({k: HomogPoly(k, 1e-14j * rng.standard_normal(grade_dim(k)))
                                  for k in range(5)})
        P = even + odd * (1e-6 * even.norm() / odd.norm()) + noise
        seq = full_decompose(P, sphere, strategy="real_unique")
        assert seq.is_real() and sorted(seq.terms) == [1, 2, 3, 4]
        surface_match(P, seq, sphere, rng)

    def test_negative_definite_form(self):
        # -I is definite, as factor and the automatic strategy take it
        rng = np.random.default_rng(74)
        negative = QuadForm(-np.eye(3))
        for d in (2, 3, 4):
            P = random_poly(d, rng, real=True)
            seq = full_decompose(P, negative, strategy="real_unique")
            assert seq.is_real()
            surface_match(P, seq, negative, rng)

    def test_indefinite_form_rejected(self, hyperboloid):
        rng = np.random.default_rng(72)
        with pytest.raises(StrategyMismatch):
            full_decompose(random_poly(2, rng, real=True), hyperboloid,
                           strategy="real_unique")


def _one_answer_reference(P, Q, strategy):
    """full_decompose for canonical and real_unique as a loop per parity,
    through the public factor: a test-local copy of the recursion."""
    lam, terms = 0j, {}
    for part in grade_split(P):
        if part.is_zero():
            continue
        h = homogenize_on_quadric(part, Q)
        while True:
            fact = None
            while h.degree > 1 and not h.is_zero():
                try:
                    fact = factor(h, Q, strategy)
                    break
                except DivisibleByQ:
                    h = divide_by_quadric(h, Q)
            if fact is None:
                if h.degree == 1 and not h.is_zero():
                    terms[1] = Multipole.from_parts(1.0, [h])
                lam += complex(h.coeffs[0]) if h.degree == 0 else 0j
                break
            terms[h.degree] = Multipole.from_parts(fact.lam, fact.lines)
            h = fact.remainder
    return lam, terms


def _bits(lam, terms):
    """The constant and terms in order, as exact text (-0.0 differs from 0.0)."""
    return repr((complex(lam), list(terms.items())))


class TestOneRecursion:
    """canonical, real_unique and enumerate run one recursion and differ
    only in the rows each level keeps."""

    def _inputs(self, Q, rng, real):
        q2 = poly_mul(Q.poly(), Q.poly())
        for d in range(10):
            yield random_poly(d, rng, real=real)
        # a multiple of Q^2, whose odd part ends in a linear remainder
        yield Poly.from_grades({2: random_homog(2, rng, real=real),
                                7: poly_mul(q2, random_homog(3, rng, real=real))})

    def test_matches_reference(self, sphere, hyperboloid, dense_complex):
        rng = np.random.default_rng(76)
        cases = [(sphere, False, "canonical"), (sphere, True, "canonical"),
                 (sphere, True, "real_unique"), (hyperboloid, False, "canonical"),
                 (hyperboloid, True, "canonical"), (dense_complex, False, "canonical")]
        linear = 0
        for Q, real, strategy in cases:
            for P in self._inputs(Q, rng, real):
                seq = full_decompose(P, Q, strategy=strategy)
                assert _bits(seq.lam, seq.terms) == _bits(
                    *_one_answer_reference(P, Q, strategy))
                linear += 1 in seq.terms
        assert linear >= 5 * len(cases)

    @staticmethod
    def _matches(seqs, seq, tol):
        return [s for s in seqs if sorted(s.terms) == sorted(seq.terms)
                and abs(s.lam - seq.lam) <= tol * max(1.0, abs(seq.lam))
                and all(s.terms[k].isclose(seq.terms[k], tol=tol) for k in s.terms)]

    def test_strategies_agree(self, sphere, hyperboloid, dense_complex):
        # canonical is one of the enumerated sequences: its top level bit
        # for bit, since both factor it in one context from the same lines;
        # a lower level only to round-off, as a remainder divided by Q in a
        # stack of rows and alone can differ in its last bits
        rng = np.random.default_rng(77)
        for Q, real in ((sphere, True), (hyperboloid, False), (dense_complex, False)):
            for d in (1, 2, 3, 4):
                P = random_poly(d, rng, real=real)
                seqs = full_decompose(P, Q, strategy="enumerate")
                seq = full_decompose(P, Q, strategy="canonical")
                match = self._matches(seqs, seq, 1e-10)
                assert len(match) == 1
                assert match[0].terms[d] == seq.terms[d]
                if Q is sphere:
                    real_seq = full_decompose(P, Q, strategy="real_unique")
                    assert len(self._matches(seqs, real_seq, 1e-9)) == 1
                    # its rows are made real, not only real to round-off
                    assert real_seq.is_real(tol=0.0)


class TestReconstruct:
    def test_callable_matches_poly(self, sphere):
        rng = np.random.default_rng(73)
        seq = full_decompose(random_poly(3, rng), sphere)
        evaluate, rep = reconstruct(seq, sphere)
        pts = rng.standard_normal((40, 3))  # agreement holds off-surface too
        assert np.max(np.abs(evaluate(pts) - rep.eval_many(pts))) < 1e-9


class TestDimensionGap:
    def test_pinned_values(self):
        assert lemma9_gap(3, (3, 3)) == 1
        assert lemma9_gap(2, (2, 2, 2)) == 0
        assert lemma9_gap(4, (4, 4, 4)) == 6

    def test_low_degree_surfaces_close_gap(self):
        for l in (1, 2):
            for s in range(2, 5):
                for ds in itertools.combinations_with_replacement(
                        range(1, 7), s):
                    assert lemma9_gap(l, ds) == 0

    def test_positive_for_higher_surfaces(self):
        for l in range(3, 7):
            for s in range(2, 5):
                for ds in itertools.combinations_with_replacement(
                        range(1, 9), s):
                    assert lemma9_gap(l, ds) > 0

    def test_invalid_partitions(self):
        for l, ds in [(0, (2, 2)), (3, ()), (3, (2, 0)), (3, (2, -1))]:
            with pytest.raises(InvalidPartition):
                lemma9_gap(l, ds)


class TestRepresentationBound:
    def test_values(self):
        assert representation_bound(0).bound == 1
        assert representation_bound(1).bound == 1
        assert representation_bound(2).bound == 3
        assert representation_bound(3).bound == 45
        assert representation_bound(5).bound == 1 * 3 * 15 * 105 * 945

    def test_product_structure(self):
        from quadpole import count_parcellings
        for d in range(1, 8):
            prod = 1
            for k in range(1, d + 1):
                prod *= count_parcellings(k)
            assert representation_bound(d).bound == prod
