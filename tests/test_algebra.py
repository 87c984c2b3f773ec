"""Polynomial arithmetic, quadric reduction, quadrature, and inner products."""

import math

import numpy as np
import pytest
import sympy

from quadpole import (
    Degenerate,
    HomogPoly,
    InsufficientQuadrature,
    MixedParity,
    NotDivisible,
    Poly,
    QuadForm,
    QuadratureRule,
    divide_by_quadric,
    grade_split,
    homogenize_on_quadric,
    inner_product,
    monomial_sphere_integral,
    poly_mul,
    quad_reduce,
    surface_samples,
)
from quadpole import algebra
from quadpole.algebra import (_lex_index, _monomial_values, _mul_table, _quotient_matrix,
                              divide_rows_by_quadric, grade_dim, monomials, mul_q_matrix,
                              poly_mul_rows)

from conftest import monomial_index, random_homog, random_poly


def hp(degree, entries):
    """HomogPoly from {(a,b,c): coeff}."""
    idx = monomial_index(degree)
    c = np.zeros(grade_dim(degree), dtype=complex)
    for mono, v in entries.items():
        c[idx[mono]] = v
    return HomogPoly(degree, c)


X = hp(1, {(1, 0, 0): 1})
Y = hp(1, {(0, 1, 0): 1})
Z = hp(1, {(0, 0, 1): 1})


def to_sympy(p, syms):
    x, y, z = syms
    expr = sympy.Integer(0)
    parts = p.parts if isinstance(p, Poly) else [p]
    for h in parts:
        for (a, b, c), coeff in zip(monomials(h.degree), h.coeffs):
            cc = complex(coeff)
            expr += (sympy.Float(cc.real, 17)
                     + sympy.I * sympy.Float(cc.imag, 17)) \
                * x**a * y**b * z**c
    return sympy.expand(expr)


class TestPolyEval:
    def test_sphere_at_unit_x(self, sphere):
        assert sphere.poly()((1, 0, 0)) == pytest.approx(1)

    def test_xy_at_230(self):
        assert poly_mul(X, Y)((2, 3, 0)) == pytest.approx(6)

    def test_complex_point(self):
        p = poly_mul(X, X) - poly_mul(Z, Z)
        assert p((1, 0, 1j)) == pytest.approx(2)

    def test_eval_many_matches_scalar(self):
        rng = np.random.default_rng(1)
        p = random_poly(4, rng)
        pts = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
        vals = p.eval_many(pts)
        for v, pt in zip(vals, pts):
            assert v == pytest.approx(p(pt))


def _monomial_values_reference(degree, pts):
    """One column per monomial, each a product chain of power columns: a
    test-local copy of the loop _monomial_values replaced."""
    n = pts.shape[0]
    pows = []
    for k in range(3):
        col = [np.ones(n, dtype=complex)]
        for _ in range(degree):
            col.append(col[-1] * pts[:, k])
        pows.append(col)
    vals = np.empty((n, grade_dim(degree)), dtype=complex)
    for i, (a, b, c) in enumerate(monomials(degree)):
        vals[:, i] = pows[0][a] * pows[1][b] * pows[2][c]
    return vals


class TestMonomialValues:
    """_monomial_values from its exponent table against the per-monomial
    loop: the same bits, C-contiguous, and so the same bits of mono @ v."""

    def test_bits_against_loop(self):
        rng = np.random.default_rng(90)
        for n in (1, 600):
            for d in range(25):
                pts = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
                # signed zeros and real coordinates
                pts[0, 0] = -0.0
                pts[-1, 2] = complex(0.5, -0.0)
                v = rng.standard_normal(grade_dim(d)) + 1j * rng.standard_normal(grade_dim(d))
                got, want = _monomial_values(d, pts), _monomial_values_reference(d, pts)
                assert got.flags.c_contiguous and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (n, d)
                assert (got @ v).tobytes() == (want @ v).tobytes(), (n, d)

    def test_real_points(self):
        pts = np.random.default_rng(91).standard_normal((7, 3))
        assert _monomial_values(5, pts).tobytes() \
            == _monomial_values_reference(5, pts).tobytes()


class TestPolyMul:
    def test_xy(self):
        assert np.allclose(poly_mul(X, Y).coeffs, poly_mul(Y, X).coeffs)
        assert poly_mul(X, Y)((2, 5, 1)) == pytest.approx(10)

    def test_conjugate_pair_gives_sum_of_squares(self):
        p = poly_mul(X + 1j * Y, X - 1j * Y)
        assert np.allclose(p.coeffs, hp(2, {(2, 0, 0): 1, (0, 2, 0): 1}).coeffs)

    def test_zero_factor(self):
        z = poly_mul(HomogPoly.zero(2), X)
        assert z.degree == 3 and z.is_zero()

    def test_against_sympy(self):
        rng = np.random.default_rng(2)
        a, b = random_homog(3, rng), random_homog(2, rng)
        syms = sympy.symbols("x y z")
        got = sympy.expand(to_sympy(poly_mul(a, b), syms)
                           - to_sympy(a, syms) * to_sympy(b, syms))
        bound = max(abs(complex(v)) for v in
                    sympy.Poly(got, *syms).coeffs()) if got != 0 else 0.0
        assert bound < 1e-12

    def test_rows_match_poly_mul_bits(self):
        # each row is poly_mul of its pair, bit for bit; a one-row stack
        # pairs with every row of the other
        rng = np.random.default_rng(6)
        for da, db in ((0, 1), (1, 1), (3, 1), (2, 4), (5, 3)):
            for na, nb in ((1, 1), (7, 7), (1, 7), (7, 1)):
                a = [random_homog(da, rng) for _ in range(na)]
                b = [random_homog(db, rng) for _ in range(nb)]
                got = poly_mul_rows(np.array([p.coeffs for p in a]), da,
                                    np.array([p.coeffs for p in b]), db)
                assert got.shape == (max(na, nb), grade_dim(da + db))
                for i, row in enumerate(got):
                    want = poly_mul(a[i % na], b[i % nb]).coeffs
                    assert np.array_equal(row, want)


def _mul_table_reference(d1, d2):
    """Each product's index by the dict lookup, one monomial pair at a time."""
    idx_out = monomial_index(d1 + d2)
    return np.array([idx_out[(a + e, b + f, c + g)]
                     for a, b, c in monomials(d1) for e, f, g in monomials(d2)],
                    dtype=np.intp)


class TestMonomialIndex:
    def test_lex_index_matches_dict(self):
        for d in range(41):
            a, _, c = np.array(monomials(d)).T
            assert np.array_equal(_lex_index(a, c, d), np.arange(grade_dim(d)))
            for (a, b, c), i in monomial_index(d).items():
                assert _lex_index(a, c, d) == i

    def test_mul_table_matches_dict_loop(self):
        for d1 in range(7):
            for d2 in range(13):
                got, want = _mul_table(d1, d2), _mul_table_reference(d1, d2)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestGradeSplit:
    def test_splits_by_parity(self):
        rng = np.random.default_rng(3)
        p = random_poly(5, rng)
        even, odd = grade_split(p)
        for h in even.parts:
            assert h.degree % 2 == 0 or h.is_zero()
        for h in odd.parts:
            assert h.degree % 2 == 1 or h.is_zero()
        total = even + odd
        for ha, hb in zip(total.parts, p.parts):
            assert np.allclose(ha.coeffs, hb.coeffs)

    def test_constant(self):
        even, odd = grade_split(Poly.constant(5.0))
        assert even((1, 2, 3)) == pytest.approx(5)
        assert all(h.is_zero() for h in odd.parts)


class TestHomogenize:
    def test_x_squared_plus_one(self, sphere):
        p = Poly([HomogPoly(0, [1.0]), HomogPoly.zero(1), poly_mul(X, X)])
        h = homogenize_on_quadric(p, sphere)
        assert h.degree == 2
        expect = poly_mul(X, X) + sphere.poly()
        assert np.allclose(h.coeffs, expect.coeffs)

    def test_agrees_on_surface(self, sphere, hyperboloid):
        rng = np.random.default_rng(4)
        for Q in (sphere, hyperboloid):
            p = random_poly(6, rng)
            even, odd = grade_split(p)
            pts = surface_samples(Q, 50, rng)
            for part in (even, odd):
                h = homogenize_on_quadric(part, Q)
                assert np.allclose(h.eval_many(pts), part.eval_many(pts),
                                   atol=1e-8)

    def test_mixed_parity_rejected(self, sphere):
        p = Poly([HomogPoly(0, [1.0]), X])
        with pytest.raises(MixedParity):
            homogenize_on_quadric(p, sphere)


class TestDivideByQuadric:
    def test_exact_multiple(self, sphere):
        r = divide_by_quadric(poly_mul(sphere.poly(), X), sphere)
        assert np.allclose(r.coeffs, X.coeffs)

    def test_y_times_sphere(self, sphere):
        p = hp(3, {(2, 1, 0): 1, (0, 3, 0): 1, (0, 1, 2): 1})
        r = divide_by_quadric(p, sphere)
        assert np.allclose(r.coeffs, Y.coeffs)

    def test_not_divisible(self, sphere):
        with pytest.raises(NotDivisible):
            divide_by_quadric(poly_mul(poly_mul(X, X), X), sphere)

    def test_ref_norm(self, sphere):
        # Q*X + 1e-6 x^3 misses Q's multiples by about 1e-6 * ||x^3||: above
        # tol * ||p|| (about 2e-9), below tol * ref_norm (1e-5)
        p = poly_mul(sphere.poly(), X) + 1e-6 * poly_mul(poly_mul(X, X), X)
        with pytest.raises(NotDivisible):
            divide_by_quadric(p, sphere, tol_div=1e-9)
        r = divide_by_quadric(p, sphere, tol_div=1e-9, ref_norm=1e4)
        assert np.linalg.norm(r.coeffs - X.coeffs) < 1e-5

    def test_round_trip_random(self, sphere, hyperboloid, dense_complex):
        rng = np.random.default_rng(5)
        for Q in (sphere, hyperboloid, dense_complex):
            for d in range(0, 9):
                r = random_homog(d, rng)
                qr = poly_mul(Q.poly(), r)
                assert np.linalg.norm(mul_q_matrix(Q, d) @ r.coeffs
                                      - qr.coeffs) < 1e-13 * qr.norm()
                back = divide_by_quadric(qr, Q)
                assert np.linalg.norm(back.coeffs - r.coeffs) \
                    < 1e-10 * r.norm()

    def test_one_row_applies_the_cached_operator(self, sphere, dense_complex):
        rng = np.random.default_rng(7)
        for Q in (sphere, dense_complex):
            for d in (2, 5, 8):
                p = poly_mul(Q.poly(), random_homog(d - 2, rng))
                assert np.array_equal(divide_by_quadric(p, Q).coeffs,
                                      _quotient_matrix(Q, d - 2) @ p.coeffs)

    def test_stack_matches_each_row(self, sphere, dense_complex):
        rng = np.random.default_rng(8)
        for Q in (sphere, dense_complex):
            rows = [poly_mul(Q.poly(), random_homog(3, rng)) for _ in range(6)]
            got = divide_rows_by_quadric(np.array([p.coeffs for p in rows]), 5, Q)
            for g, p in zip(got, rows):
                want = divide_by_quadric(p, Q).coeffs
                assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))

    def test_stack_refuses_first_failing_row(self, sphere):
        # rows 3 and 5 are not multiples of Q
        rng = np.random.default_rng(9)
        rows = [poly_mul(sphere.poly(), random_homog(2, rng)) for _ in range(6)]
        rows[3] = rows[3] + 1e-6 * random_homog(4, rng)
        rows[5] = random_homog(4, rng)
        stack = np.array([p.coeffs for p in rows])
        with pytest.raises(NotDivisible):
            divide_rows_by_quadric(stack, 4, sphere)
        divide_rows_by_quadric(stack[:3], 4, sphere)
        # one reference norm for all rows: 1e4 lets row 3 pass, not row 5
        with pytest.raises(NotDivisible):
            divide_rows_by_quadric(stack, 4, sphere, ref_norm=1e4)
        divide_rows_by_quadric(stack[:5], 4, sphere, ref_norm=1e4)


def _rotated_ellipsoid(rng):
    """A real definite form with three distinct axes in a random frame."""
    R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    return QuadForm(R @ np.diag(rng.uniform(0.6, 1.8, size=3)) @ R.T)


def _complex_quotient(Q, degree_r):
    """M^+ by the complex least-squares solve, for any form."""
    M = algebra._mul_matrix(Q.poly(), degree_r)
    return np.linalg.lstsq(M, np.eye(M.shape[0]), rcond=None)[0]


@pytest.fixture
def lstsq_calls(monkeypatch):
    """The list that every np.linalg.lstsq call appends to."""
    calls = []
    original = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append("lstsq")
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


class TestQuotientOperator:
    def test_real_form_is_solved_real(self, sphere, hyperboloid):
        rng = np.random.default_rng(11)
        for Q in (sphere, hyperboloid, _rotated_ellipsoid(rng)):
            assert Q.is_real
            for d in range(13):
                op = _quotient_matrix(Q, d)
                assert op.dtype == complex and not op.imag.any()
                want = _complex_quotient(Q, d)
                assert np.linalg.norm(op - want) <= 1e-14 * np.linalg.norm(want)
                r = random_homog(d, rng)
                back = op @ poly_mul(Q.poly(), r).coeffs
                assert np.linalg.norm(back - r.coeffs) <= 1e-13 * r.norm()

    def test_complex_form_keeps_its_bits(self, dense_complex):
        for d in range(9):
            assert _quotient_matrix(dense_complex, d).tobytes() \
                == _complex_quotient(dense_complex, d).tobytes()


class TestFormCache:
    """form_operator keeps the operators of FORM_CACHE_FORMS forms.  The
    forms here are diagonal with a last entry no other test uses."""

    @staticmethod
    def fresh(k):
        return QuadForm(np.diag([1.0, 2.0, 7.0 + k / 64]))

    @staticmethod
    def held_forms():
        return {key[1] for key in algebra._OPERATORS}

    def test_at_most_cap_forms_held(self):
        cap = algebra.FORM_CACHE_FORMS
        for k in range(cap + 3):
            divide_by_quadric(poly_mul(self.fresh(k).poly(), X), self.fresh(k))
        assert len(algebra._FORM_KEYS) == cap
        assert len(self.held_forms()) <= cap
        assert {self.fresh(k).key for k in range(3, cap + 3)} <= self.held_forms()
        assert not {self.fresh(k).key for k in range(3)} & self.held_forms()

    def test_most_recently_used_not_rebuilt(self, lstsq_calls):
        cap = algebra.FORM_CACHE_FORMS
        kept = self.fresh(100)
        first = _quotient_matrix(kept, 3)
        for k in range(101, 101 + cap + 3):
            _quotient_matrix(self.fresh(k), 3)
            assert _quotient_matrix(kept, 3) is first
        assert len(lstsq_calls) == 1 + cap + 3

    def test_equal_b_shares_entries(self, lstsq_calls):
        B = np.diag([1.0, 2.0, 7.0 + 200 / 64])
        a, b = QuadForm(B), QuadForm(B.copy())
        assert a is not b and a.key == b.key
        assert _quotient_matrix(a, 4) is _quotient_matrix(b, 4)
        assert mul_q_matrix(a, 4) is mul_q_matrix(b, 4)
        assert len(lstsq_calls) == 1

    def test_evicted_form_rebuilds_same_bits(self, lstsq_calls):
        Q = self.fresh(300)
        before = {d: _quotient_matrix(Q, d).tobytes() for d in (2, 5)}
        for k in range(301, 301 + algebra.FORM_CACHE_FORMS):
            mul_q_matrix(self.fresh(k), 1)
        assert Q.key not in self.held_forms()
        assert {d: _quotient_matrix(Q, d).tobytes() for d in (2, 5)} == before
        assert len(lstsq_calls) == 4


class TestQuadReduce:
    def test_sphere_identity(self, sphere):
        assert np.allclose(quad_reduce(sphere), np.eye(3))

    def test_factorization_property(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = b + b.T
            if abs(np.linalg.det(b)) < 0.1:
                continue
            Q = QuadForm(b)
            a = quad_reduce(Q)
            assert np.linalg.norm(a @ a.T - b) < 1e-12 * np.linalg.norm(b)
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert Q(v) == pytest.approx(np.sum((v @ a) ** 2))

    def test_hyperboloid(self, hyperboloid):
        a = quad_reduce(hyperboloid)
        assert np.linalg.norm(a @ a.T - hyperboloid.B) < 1e-12

    def test_degenerate(self):
        with pytest.raises(Degenerate):
            quad_reduce(QuadForm(np.diag([1.0, 1.0, 0.0])))

    # 2xy + z^2, 2(xy + yz + zx), x^2 + 2yz and a complex form: each leaves
    # a vanishing diagonal that only the 2x2 pivot step can eliminate
    ZERO_DIAGONAL = [
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 2 + 1j, 0], [2 + 1j, 0, 0], [0, 0, 3 - 1j]],
    ]

    @pytest.mark.parametrize("B", ZERO_DIAGONAL)
    def test_two_by_two_pivot(self, B, monkeypatch):
        calls = []
        original = algebra._sqrt_factor_2x2

        def counted(T):
            calls.append(1)
            return original(T)

        monkeypatch.setattr(algebra, "_sqrt_factor_2x2", counted)
        Q = QuadForm(np.array(B, dtype=complex))
        a = quad_reduce(Q)
        assert calls
        assert np.max(np.abs(a @ a.T - Q.B)) <= 2e-15 * np.max(np.abs(Q.B))

    @pytest.mark.parametrize("B", ZERO_DIAGONAL)
    def test_two_by_two_pivot_forms_rebuild(self, B):
        from quadpole import all_factorizations, full_decompose, harmonic_decompose, reconstruct
        Q = QuadForm(np.array(B, dtype=complex))
        rng = np.random.default_rng(7)
        for d in (2, 3, 4):
            P = random_homog(d, rng)
            for f in all_factorizations(P, Q):
                assert np.max(np.abs(f.reconstruct(Q).coeffs - P.coeffs)) <= 1e-14 * P.norm()
            rebuilt = harmonic_decompose(P, Q).reconstruct(Q)
            assert np.max(np.abs(rebuilt.coeffs - P.coeffs)) <= 1e-14 * P.norm()
            P = random_poly(d, rng)
            evaluate, rep = reconstruct(full_decompose(P, Q), Q)
            pts = surface_samples(Q, 20, rng)
            want = P.eval_many(pts)
            scale = max(float(np.max(np.abs(want))), 1.0)
            assert np.max(np.abs(evaluate(pts) - want)) <= 1e-14 * scale
            assert np.max(np.abs(rep.eval_many(pts) - want)) <= 1e-14 * scale


class TestMonomialIntegral:
    def test_surface_area(self):
        assert monomial_sphere_integral(0, 0, 0) == pytest.approx(4 * math.pi)

    def test_odd_vanishes(self):
        assert monomial_sphere_integral(1, 0, 0) == 0
        assert monomial_sphere_integral(2, 3, 0) == 0

    def test_x_squared(self):
        assert monomial_sphere_integral(2, 0, 0) == pytest.approx(
            4 * math.pi / 3)

    def test_symmetry_sum(self):
        total = sum(monomial_sphere_integral(*e)
                    for e in ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
        assert total == pytest.approx(4 * math.pi)

    def test_against_numeric_integration(self):
        from scipy.integrate import dblquad
        for (a, b, c) in ((2, 2, 0), (4, 0, 0), (2, 2, 2), (0, 0, 6)):
            val, _ = dblquad(
                lambda phi, th: (math.cos(th) * math.sin(phi)) ** a
                * (math.sin(th) * math.sin(phi)) ** b
                * math.cos(phi) ** c * math.sin(phi),
                0, 2 * math.pi, 0, math.pi)
            assert monomial_sphere_integral(a, b, c) == pytest.approx(
                val, rel=1e-9)


class TestQuadrature:
    def test_exactness_all_monomials(self):
        rule = QuadratureRule(8)
        pts = rule.sphere_points()
        for d in range(0, 9):
            for (a, b, c) in monomials(d):
                vals = pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c
                got = rule.integrate(vals)
                want = monomial_sphere_integral(a, b, c)
                if want == 0:
                    assert abs(got) < 1e-12
                else:
                    assert abs(got - want) < 1e-12 * abs(want)

    def test_points_on_sphere(self):
        pts = QuadratureRule(4).sphere_points()
        assert np.allclose(np.sum(pts ** 2, axis=1), 1.0)

    def test_gauss_legendre_cached(self):
        # one read-only pair per node count, with leggauss's bits, so the
        # rule's nodes and weights do not change
        nodes, weights = algebra._gauss_legendre(9)
        assert algebra._gauss_legendre(9)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        want_t, want_w = np.polynomial.legendre.leggauss(9)
        assert nodes.tobytes() == want_t.tobytes() and weights.tobytes() == want_w.tobytes()
        a, b = QuadratureRule(16), QuadratureRule(16)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.nodes.tobytes() == b.nodes.tobytes()


class TestInnerProduct:
    def test_constant(self, sphere):
        one = HomogPoly(0, [1.0])
        assert inner_product(one, one, sphere, QuadratureRule(2)) \
            == pytest.approx(4 * math.pi)

    def test_orthogonal_coordinates(self, sphere):
        rule = QuadratureRule(4)
        assert abs(inner_product(X, Y, sphere, rule)) < 1e-12
        assert inner_product(X, X, sphere, rule) == pytest.approx(
            4 * math.pi / 3)

    def test_hermitian(self, hyperboloid):
        rng = np.random.default_rng(7)
        f, g = random_homog(3, rng), random_homog(2, rng)
        rule = QuadratureRule(6)
        assert inner_product(f, g, hyperboloid, rule) == pytest.approx(
            np.conj(inner_product(g, f, hyperboloid, rule)))

    def test_pullback_preserves_area(self, hyperboloid):
        one = HomogPoly(0, [1.0])
        assert inner_product(one, one, hyperboloid, QuadratureRule(2)) \
            == pytest.approx(4 * math.pi)

    def test_insufficient_quadrature(self, sphere):
        with pytest.raises(InsufficientQuadrature):
            inner_product(X, poly_mul(X, X), sphere, QuadratureRule(2))


class TestSurfaceSamples:
    def test_on_surface(self, sphere, hyperboloid):
        rng = np.random.default_rng(8)
        for Q in (sphere, hyperboloid):
            pts = surface_samples(Q, 40, rng)
            assert np.allclose([Q(p) for p in pts], 1.0)

    def test_real_samples(self, hyperboloid):
        rng = np.random.default_rng(9)
        pts = surface_samples(hyperboloid, 40, rng, real=True)
        assert np.allclose(pts.imag, 0)
        assert np.allclose([Q.real for Q in
                            (hyperboloid(p) for p in pts)], 1.0)


class TestQuadFormDefinite:
    def test_is_definite(self, sphere, hyperboloid, dense_complex):
        # real with signature +-3: the forms whose conic has no real point
        assert sphere.is_definite and QuadForm(-2.0 * np.eye(3)).is_definite
        assert not hyperboloid.is_definite
        assert not QuadForm(np.diag([1.0, -1.0, -1.0])).is_definite
        assert not dense_complex.is_definite
        assert not QuadForm(np.diag([1.0, 1.0, 1.0 + 1e-3j])).is_definite


class TestQuadFormNonFinite:
    """A B with a NaN or infinite entry is refused: it used to pass and give
    a NaN determinant."""

    @pytest.mark.parametrize("entries", [{(0, 0): math.nan},
                                         {(0, 1): math.inf, (1, 0): math.inf},
                                         {(0, 2): -math.inf, (2, 0): -math.inf},
                                         {(1, 1): complex(1.0, math.nan)}])
    def test_refused(self, entries):
        B = np.eye(3, dtype=complex)
        for at, v in entries.items():
            B[at] = v
        with pytest.raises(ValueError, match="finite"):
            QuadForm(B)
