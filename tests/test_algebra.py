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
from quadpole.algebra import grade_dim, monomial_index, monomials, mul_q_matrix

from conftest import random_homog, random_poly


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
