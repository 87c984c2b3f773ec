"""Q-harmonic projection, full decomposition, and the Dirichlet solver."""

import numpy as np
import pytest
import sympy

from quadpole import (
    HomogPoly,
    Poly,
    QuadForm,
    QuadratureRule,
    SolveFailure,
    apply_delta_q,
    delta_matrix,
    dirichlet_solve,
    harmonic_decompose,
    harmonic_project,
    inner_product,
    is_harmonic,
    poly_mul,
    surface_samples,
)
from quadpole import algebra
from quadpole.algebra import grade_dim, monomials, mul_q_matrix

from conftest import compose_linear, monomial_index, q_orthogonal, random_homog, random_poly


def hp(degree, entries):
    idx = monomial_index(degree)
    c = np.zeros(grade_dim(degree), dtype=complex)
    for mono, v in entries.items():
        c[idx[mono]] = v
    return HomogPoly(degree, c)


def sympy_delta_q(p, Q):
    """Independent weighted-Laplacian oracle."""
    x, y, z = syms = sympy.symbols("x y z")
    expr = sympy.Integer(0)
    for (a, b, c), coeff in zip(monomials(p.degree), p.coeffs):
        cc = complex(coeff)
        expr += (sympy.Float(cc.real, 17)
                 + sympy.I * sympy.Float(cc.imag, 17)) * x**a * y**b * z**c
    binv = np.linalg.inv(Q.B)
    out = sympy.Integer(0)
    for j in range(3):
        for k in range(3):
            bjk = complex(binv[j, k])
            out += (sympy.Float(bjk.real, 17)
                    + sympy.I * sympy.Float(bjk.imag, 17)) \
                * sympy.diff(expr, syms[j], syms[k])
    return sympy.expand(out)


class TestApplyDeltaQ:
    def test_laplacian_of_q_is_six(self, sphere):
        out = apply_delta_q(sphere.poly(), sphere)
        assert out.degree == 0
        assert out.coeffs[0] == pytest.approx(6)

    def test_harmonic_monomial(self, sphere):
        xy = hp(2, {(1, 1, 0): 1})
        assert apply_delta_q(xy, sphere).is_zero()

    def test_indefinite_form_cancellation(self, hyperboloid):
        p = hp(2, {(2, 0, 0): 1, (0, 0, 2): 1})
        out = apply_delta_q(p, hyperboloid)
        assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_low_degree_is_zero(self, sphere):
        assert apply_delta_q(hp(1, {(1, 0, 0): 1}), sphere).is_zero()
        assert apply_delta_q(HomogPoly(0, [3.0]), sphere).is_zero()

    def test_against_sympy(self, sphere, hyperboloid, dense_complex):
        # the dense form checks the off-diagonal entries of B^-1
        rng = np.random.default_rng(10)
        x, y, z = sympy.symbols("x y z")
        for Q in (sphere, hyperboloid, dense_complex):
            p = random_homog(4, rng)
            got = apply_delta_q(p, Q)
            want = sympy_delta_q(p, Q)
            for (a, b, c), coeff in zip(monomials(2), got.coeffs):
                w = complex(want.coeff(x, a).coeff(y, b).coeff(z, c))
                assert abs(complex(coeff) - w) < 1e-10

    def test_delta_matrix_consistency(self, hyperboloid):
        rng = np.random.default_rng(11)
        p = random_homog(5, rng)
        direct = apply_delta_q(p, hyperboloid).coeffs
        via_matrix = delta_matrix(hyperboloid, 5) @ p.coeffs
        assert np.allclose(direct, via_matrix)

    def test_operators_shared_by_equal_forms(self, dense_complex):
        # operators are cached by the value of B, so a form built afresh
        # (as every CLI call does) reuses them instead of rebuilding
        a, b = QuadForm(dense_complex.B), QuadForm(dense_complex.B.copy())
        assert a is not b
        assert delta_matrix(a, 6) is delta_matrix(b, 6)
        assert mul_q_matrix(a, 4) is mul_q_matrix(b, 4)
        assert delta_matrix(a, 6) is not delta_matrix(QuadForm(2 * a.B), 6)


def sympy_delta_q_terms(p, Q):
    """sympy_delta_q term by term, fast for a sparse p of high degree: sympy
    differentiates each monomial, and the entries of B^-1 combine the
    results in complex floats.  Returns {exponent: coefficient}."""
    syms = sympy.symbols("x y z")
    binv = np.linalg.inv(Q.B)
    out = {}
    for mono, coeff in zip(monomials(p.degree), p.coeffs):
        if coeff == 0:
            continue
        term = sympy.Poly.from_dict({mono: 1}, syms)
        for j in range(3):
            for k in range(3):
                for m, f in term.diff(syms[j]).diff(syms[k]).as_dict().items():
                    out[m] = out.get(m, 0) + binv[j, k] * int(f) * coeff
    return out


def _sparse_homog(d, rng, terms=8):
    """A grade-d polynomial with at most `terms` nonzero coefficients, at
    random monomials."""
    c = np.zeros(grade_dim(d), dtype=complex)
    at = rng.choice(grade_dim(d), size=min(terms, grade_dim(d)), replace=False)
    c[at] = rng.normal(size=at.size) + 1j * rng.normal(size=at.size)
    return HomogPoly(d, c)


class TestDeltaGather:
    """apply_delta_q's six-term gather and the dense matrix against each
    other and against sympy."""

    @pytest.mark.parametrize("form", ["sphere", "hyperboloid", "dense_indef",
                                      "dense_complex"])
    def test_matches_matrix_and_sympy(self, form, request):
        rng = np.random.default_rng(71)
        if form == "dense_indef":
            Q = _rotated([1.0, -2.0, 0.7], rng)
        else:
            Q = request.getfixturevalue(form)
        for d in range(2, 41):
            p = random_homog(d, rng)
            got = apply_delta_q(p, Q).coeffs
            # the uncached builder: matrices of every degree would stay cached
            want = delta_matrix.__wrapped__(Q, d) @ p.coeffs
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
            sparse = _sparse_homog(d, rng)
            got = apply_delta_q(sparse, Q).coeffs
            terms = sympy_delta_q_terms(sparse, Q)
            want = np.array([terms.get(m, 0) for m in monomials(d - 2)])
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
            # the matrix is assembled from the gather's own tables, so it
            # also meets sympy, which shares no stencil with either
            got = delta_matrix.__wrapped__(Q, d) @ sparse.coeffs
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_split_builds_no_matrix(self):
        # the split of a degree-32 input on a fresh form applies delta_Q
        # through the gather only: no dense matrix enters the operator cache
        rng = np.random.default_rng(72)
        Q = _rotated(rng.uniform(0.8, 1.25, size=3), rng)
        dec = harmonic_decompose(_unit_homog(32, rng), Q)
        assert all(is_harmonic(h, Q) for h in dec.components)
        assert not [key for key in algebra._OPERATORS
                    if key[0] == "delta_matrix" and key[1] == Q.key]


class TestHarmonicProject:
    def test_x_squared(self, sphere):
        H, R = harmonic_project(hp(2, {(2, 0, 0): 1}), sphere)
        assert R.degree == 0 and R.coeffs[0] == pytest.approx(1 / 3)
        expect = hp(2, {(2, 0, 0): 2 / 3, (0, 2, 0): -1 / 3,
                        (0, 0, 2): -1 / 3})
        assert np.allclose(H.coeffs, expect.coeffs)

    def test_already_harmonic(self, sphere):
        xy = hp(2, {(1, 1, 0): 1})
        H, R = harmonic_project(xy, sphere)
        assert np.allclose(H.coeffs, xy.coeffs)
        assert R.is_zero()

    def test_pure_multiple_of_q(self, sphere):
        z = hp(1, {(0, 0, 1): 1})
        H, R = harmonic_project(poly_mul(sphere.poly(), z), sphere)
        assert np.max(np.abs(H.coeffs)) < 1e-12
        assert np.allclose(R.coeffs, z.coeffs)

    def test_idempotent(self, sphere, hyperboloid):
        rng = np.random.default_rng(12)
        for Q in (sphere, hyperboloid):
            for d in range(2, 9):
                H, _ = harmonic_project(random_homog(d, rng), Q)
                H2, R2 = harmonic_project(H, Q)
                assert np.linalg.norm(H2.coeffs - H.coeffs) \
                    < 1e-10 * max(H.norm(), 1e-30)
                assert R2.norm() < 1e-10 * max(H.norm(), 1e-30)

    def test_split_is_exact(self, sphere, hyperboloid):
        rng = np.random.default_rng(13)
        for Q in (sphere, hyperboloid):
            p = random_homog(6, rng)
            H, R = harmonic_project(p, Q)
            back = H + poly_mul(Q.poly(), R)
            assert np.linalg.norm(back.coeffs - p.coeffs) < 1e-10 * p.norm()
            assert is_harmonic(H, Q)

    def test_equivariance(self, sphere, hyperboloid):
        rng = np.random.default_rng(14)
        for Q in (sphere, hyperboloid):
            for _ in range(3):
                p = random_homog(4, rng)
                U = q_orthogonal(Q, rng)
                H, R = harmonic_project(p, Q)
                HU, RU = harmonic_project(compose_linear(p, U), Q)
                assert np.linalg.norm(
                    HU.coeffs - compose_linear(H, U).coeffs) \
                    < 1e-8 * max(p.norm(), 1)
                assert np.linalg.norm(
                    RU.coeffs - compose_linear(R, U).coeffs) \
                    < 1e-8 * max(p.norm(), 1)


class TestHarmonicDecompose:
    def test_q_squared(self, sphere):
        q2 = poly_mul(sphere.poly(), sphere.poly())
        dec = harmonic_decompose(q2, sphere)
        assert len(dec.components) == 3
        assert dec.components[0].norm() < 1e-12
        assert dec.components[1].norm() < 1e-12
        assert dec.components[2].coeffs[0] == pytest.approx(1)

    def test_x_squared(self, sphere):
        dec = harmonic_decompose(hp(2, {(2, 0, 0): 1}), sphere)
        assert len(dec.components) == 2
        assert dec.components[1].coeffs[0] == pytest.approx(1 / 3)

    def test_x_fourth_leading_component(self, sphere):
        dec = harmonic_decompose(hp(4, {(4, 0, 0): 1}), sphere)
        assert len(dec.components) == 3
        q = sphere.poly()
        x2 = hp(2, {(2, 0, 0): 1})
        expect = hp(4, {(4, 0, 0): 1}) \
            + poly_mul(q, x2) * (-6 / 7) \
            + poly_mul(q, q) * (3 / 35)
        assert np.allclose(dec.components[0].coeffs, expect.coeffs,
                           atol=1e-12)
        assert apply_delta_q(dec.components[0], sphere).norm() < 1e-12
        assert apply_delta_q(
            apply_delta_q(hp(4, {(4, 0, 0): 1}), sphere), sphere).norm() > 1

    def test_reconstruction_random(self, sphere, hyperboloid):
        rng = np.random.default_rng(15)
        for Q in (sphere, hyperboloid):
            for d in range(0, 9):
                p = random_homog(d, rng)
                dec = harmonic_decompose(p, Q)
                assert len(dec.components) == d // 2 + 1
                back = dec.reconstruct(Q)
                assert np.linalg.norm(back.coeffs - p.coeffs) \
                    < 1e-9 * p.norm()
                for comp in dec.components:
                    assert is_harmonic(comp, Q)

    def test_band_orthogonality(self, sphere, hyperboloid):
        rng = np.random.default_rng(16)
        for Q in (sphere, hyperboloid):
            d = 8
            p = random_homog(d, rng)
            dec = harmonic_decompose(p, Q)
            rule = QuadratureRule(2 * d)
            terms = []
            qpoly = Q.poly()
            for k, comp in enumerate(dec.components):
                t = comp
                for _ in range(k):
                    t = poly_mul(qpoly, t)
                terms.append(t)
            for i in range(len(terms)):
                for j in range(i + 1, len(terms)):
                    ni = np.sqrt(abs(inner_product(terms[i], terms[i], Q,
                                                   rule)))
                    nj = np.sqrt(abs(inner_product(terms[j], terms[j], Q,
                                                   rule)))
                    if ni < 1e-12 or nj < 1e-12:
                        continue
                    val = abs(inner_product(terms[i], terms[j], Q, rule))
                    assert val < 1e-8 * ni * nj


def _dense_solve_project(p, Q):
    """Reference: solve delta_Q(Q*R) = delta_Q(p) for R with a dense square
    system, the projection used before the closed form."""
    rhs = delta_matrix(Q, p.degree) @ p.coeffs
    tmat = delta_matrix(Q, p.degree) @ mul_q_matrix(Q, p.degree - 2)
    R = HomogPoly(p.degree - 2, np.linalg.solve(tmat, rhs))
    return p - poly_mul(Q.poly(), R), R


def _rotated(diagonal, rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    A = (q * np.sign(np.diag(r))) * np.sqrt(np.abs(diagonal))
    return QuadForm(A @ np.diag(np.sign(diagonal)) @ A.T)


def _unit_homog(d, rng):
    n = grade_dim(d)
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    return HomogPoly(d, c / np.linalg.norm(c))


class TestProjectAgainstDenseSolve:
    """The closed-form split gives the components of the dense solve."""

    @pytest.mark.parametrize("form", ["sphere", "hyperboloid", "dense_complex",
                                      "dense_indef", "ellipsoid"])
    def test_components_agree(self, form, request):
        rng = np.random.default_rng(70)
        if form == "dense_indef":
            Q = _rotated([1.0, -2.0, 0.7], rng)
        elif form == "ellipsoid":
            Q = _rotated(rng.uniform(0.4, 2.5, size=3), rng)
        else:
            Q = request.getfixturevalue(form)
        for d in range(2, 25):
            p = random_homog(d, rng)
            got = harmonic_decompose(p, Q).components
            want, cur = [], p
            while cur.degree >= 2:
                H, cur = _dense_solve_project(cur, Q)
                want.append(H)
            want.append(cur)
            scale = max(h.norm() for h in want)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.linalg.norm(g.coeffs - w.coeffs) < 1e-12 * scale

    def test_refinement_pass_needed(self):
        # a single pass of the formula leaves delta_Q(H) above the gate here
        rng = np.random.default_rng(14)
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        A = (q * np.sign(np.diag(r))) * rng.uniform(0.6, 1.6, size=3)
        Q = QuadForm(A @ A.T)
        dec = harmonic_decompose(_unit_homog(32, rng), Q)
        assert all(is_harmonic(h, Q) for h in dec.components)

    def test_ill_conditioned_split_refused(self):
        # on this complex form the split of a d = 24 input has components
        # about 4e7 times the input; the dense solve refused it too
        rng = np.random.default_rng(3)
        G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        Q = QuadForm(G + G.T)
        p = _unit_homog(24, rng)
        with pytest.raises(SolveFailure):
            harmonic_decompose(p, Q)


class TestDirichletSolve:
    def test_zero_laplacian_linear_boundary(self, sphere):
        x = Poly([HomogPoly.zero(0), hp(1, {(1, 0, 0): 1})])
        sol = dirichlet_solve(Poly.constant(0.0), x, sphere)
        diff = sol + x * (-1.0)
        assert all(h.norm() < 1e-12 for h in diff.parts)

    def test_constant_laplacian(self, sphere):
        sol = dirichlet_solve(Poly.constant(6.0), Poly.constant(0.0), sphere)
        # Q - 1 has laplacian 6 and vanishes on the surface
        expect = Poly([HomogPoly(0, [-1.0]), HomogPoly.zero(1),
                       sphere.poly()])
        diff = sol + expect * (-1.0)
        assert all(h.norm() < 1e-10 for h in diff.parts)

    def test_x_squared_boundary(self, sphere):
        x2 = Poly([HomogPoly.zero(0), HomogPoly.zero(1),
                   hp(2, {(2, 0, 0): 1})])
        sol = dirichlet_solve(Poly.constant(0.0), x2, sphere)
        expect = Poly([HomogPoly(0, [1 / 3]), HomogPoly.zero(1),
                       hp(2, {(2, 0, 0): 2 / 3, (0, 2, 0): -1 / 3,
                              (0, 0, 2): -1 / 3})])
        diff = sol + expect * (-1.0)
        assert all(h.norm() < 1e-10 for h in diff.parts)

    def test_random_problem(self, sphere, hyperboloid):
        rng = np.random.default_rng(17)
        for Q in (sphere, hyperboloid):
            m = random_poly(2, rng)
            n = random_poly(4, rng)
            sol = dirichlet_solve(m, n, Q)
            # laplacian matches m exactly
            lap = _poly_delta(sol, Q)
            _assert_poly_close(lap, m, 1e-9)
            # boundary values match n
            pts = surface_samples(Q, 200, rng)
            assert np.max(np.abs(sol.eval_many(pts) - n.eval_many(pts))) \
                < 1e-8 * max(1.0, float(np.max(np.abs(n.eval_many(pts)))))

    def test_uniqueness_across_seeds(self, sphere):
        rng = np.random.default_rng(18)
        m = random_poly(3, rng)
        n = random_poly(3, rng)
        a = dirichlet_solve(m, n, sphere, perturb_seed=1)
        b = dirichlet_solve(m, n, sphere, perturb_seed=2)
        _assert_poly_close(a, b, 1e-9)


def _poly_delta(p, Q):
    grades = {}
    for h in p.parts:
        if h.degree >= 2 and not h.is_zero():
            out = apply_delta_q(h, Q)
            if out.degree in grades:
                grades[out.degree] = grades[out.degree] + out
            else:
                grades[out.degree] = out
    if not grades:
        return Poly.constant(0.0)
    return Poly.from_grades(grades)


def _assert_poly_close(a, b, tol):
    top = max(a.degree, b.degree)
    scale = max(max((h.norm() for h in a.parts), default=0.0),
                max((h.norm() for h in b.parts), default=0.0), 1e-30)
    for k in range(top + 1):
        ha = a.part(k) if k <= a.degree else None
        hb = b.part(k) if k <= b.degree else None
        ca = ha.coeffs if ha is not None else 0.0
        cb = hb.coeffs if hb is not None else 0.0
        assert np.max(np.abs(np.atleast_1d(ca - cb))) < tol * scale
