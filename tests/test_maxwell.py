"""Harmonic polynomials from iterated directional derivatives of the
inverse-square-root potential, and the inverse direction-recovery map."""

import numpy as np
import pytest

from quadpole import (
    HomogPoly,
    NotHarmonic,
    PotentialTerm,
    SolveFailure,
    ZeroVector,
    apply_delta_q,
    directional_derivative_potential,
    harmonic_project,
    intersection_clusters,
    is_harmonic,
    maxwell_decompose,
    maxwell_poly,
    poly_mul,
)
from quadpole.algebra import double_factorial, grade_dim

from conftest import monomial_index, random_homog


def hp(degree, entries):
    idx = monomial_index(degree)
    c = np.zeros(grade_dim(degree), dtype=complex)
    for mono, v in entries.items():
        c[idx[mono]] = v
    return HomogPoly(degree, c)


X = hp(1, {(1, 0, 0): 1})
Y = hp(1, {(0, 1, 0): 1})
Z = hp(1, {(0, 0, 1): 1})


def rand_vec(rng, real=False):
    v = rng.standard_normal(3)
    if not real:
        v = v + 1j * rng.standard_normal(3)
    return v


class TestHandCases:
    def test_single_z(self, sphere):
        got = maxwell_poly(sphere, [(0, 0, 1)])
        want = Z * (-1.0)
        assert np.linalg.norm(got.coeffs - want.coeffs) < 1e-12

    def test_double_z(self, sphere):
        got = maxwell_poly(sphere, [(0, 0, 1), (0, 0, 1)])
        want = poly_mul(Z, Z) * 2.0 - poly_mul(X, X) - poly_mul(Y, Y)
        assert np.linalg.norm(got.coeffs - want.coeffs) < 1e-12

    def test_cross_term(self, sphere):
        got = maxwell_poly(sphere, [(1, 0, 0), (0, 1, 0)])
        want = poly_mul(X, Y) * 3.0
        assert np.linalg.norm(got.coeffs - want.coeffs) < 1e-12

    def test_single_general_direction(self, hyperboloid):
        # one derivative leaves -<B u, x>
        u = np.array([1.0, 2.0, 3.0])
        got = maxwell_poly(hyperboloid, [u])
        want = HomogPoly(1, -(hyperboloid.B @ u))
        assert np.linalg.norm(got.coeffs - want.coeffs) < 1e-12


class TestRecurrence:
    def test_matches_finite_difference(self, sphere, hyperboloid):
        # each derivative step agrees with a central difference of the
        # previous potential at points off the cone
        rng = np.random.default_rng(30)
        h = 1e-6
        for Q in (sphere, hyperboloid):
            term = PotentialTerm(HomogPoly(0, [1.0]), 1)
            pts = rng.standard_normal((5, 3)) + np.array([2.0, 0.0, 0.0])
            for _ in range(3):
                u = rand_vec(rng, real=True)
                nxt = directional_derivative_potential(term, u, Q)
                fd = (term.value(pts + h * u, Q)
                      - term.value(pts - h * u, Q)) / (2 * h)
                got = nxt.value(pts, Q)
                assert np.max(np.abs(got - fd)) < 1e-5 * np.max(np.abs(got))
                term = nxt

    def test_half_exponent_advances(self, sphere):
        term = PotentialTerm(HomogPoly(0, [1.0]), 1)
        term = directional_derivative_potential(term, (1, 0, 0), sphere)
        assert term.half_exponent == 3
        assert term.numerator.degree == 1

    def test_zero_vector_rejected(self, sphere):
        with pytest.raises(ZeroVector):
            maxwell_poly(sphere, [(0, 0, 0)])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result_refused(self, sphere, dense_complex):
        # two derivatives along 1e200 * x overflow to a NaN grade, which was
        # returned; 1e150 stays finite
        for Q in (sphere, dense_complex):
            with pytest.raises(SolveFailure, match="non-finite"):
                maxwell_poly(Q, [[1e200, 0, 0]] * 2)
            assert np.isfinite(maxwell_poly(Q, [[1e150, 0, 0]] * 2).coeffs).all()

    def test_step_at_any_half_exponent(self, sphere, hyperboloid, dense_complex):
        # a term's step uses its own half exponent, not the 2k + 1 that
        # maxwell_poly reaches after k steps
        rng = np.random.default_rng(38)
        for Q in (sphere, hyperboloid, dense_complex):
            for k, m in ((0, 7), (1, 1), (3, 9), (5, 3), (8, 21)):
                N = random_homog(k, rng)
                u = rand_vec(rng)
                got = directional_derivative_potential(PotentialTerm(N, m), u, Q)
                want = _step_reference(N, m, u, Q)
                assert got.half_exponent == m + 2
                assert got.numerator.degree == k + 1
                assert np.linalg.norm(got.numerator.coeffs - want.coeffs) \
                    <= 1e-14 * np.linalg.norm(want.coeffs)


def deriv(p, axis):
    """d/dx_axis of a HomogPoly, one monomial at a time through the tests'
    dict index."""
    if p.degree == 0:
        return HomogPoly.zero(0)
    low = monomial_index(p.degree - 1)
    c = np.zeros(len(low), dtype=complex)
    for mono, i in monomial_index(p.degree).items():
        if mono[axis]:
            e = list(mono)
            e[axis] -= 1
            c[low[tuple(e)]] = mono[axis] * p.coeffs[i]
    return HomogPoly(p.degree - 1, c)


def _step_reference(N, m, u, Q):
    """One derivative step, Q*grad_u(N) - (m/2)*N*grad_u(Q), built from
    HomogPoly derivatives and products."""
    second = poly_mul(N, HomogPoly(1, 2.0 * (Q.B @ u))) * (-0.5 * m)
    if N.degree == 0:
        return second
    grad = HomogPoly.zero(N.degree - 1)
    for axis in range(3):
        grad = grad + deriv(N, axis) * u[axis]
    return poly_mul(Q.poly(), grad) + second


class TestHobson:
    """Hobson's theorem: the numerator is (-1)^d (2d-1)!! times the harmonic
    part of prod <B u_i, x> (E. W. Hobson, The Theory of Spherical and
    Ellipsoidal Harmonics, 1931; M. R. Dennis, J. Phys. A 37, 2004)."""

    def test_harmonic_part_of_the_line_product(self, sphere, hyperboloid,
                                                dense_complex):
        rng = np.random.default_rng(39)
        for Q in (sphere, hyperboloid, dense_complex):
            for d in range(1, 13):
                vecs = [rand_vec(rng) for _ in range(d)]
                prod = HomogPoly(0, [1.0])
                for u in vecs:
                    prod = poly_mul(prod, HomogPoly(1, Q.B @ u))
                want = harmonic_project(prod, Q)[0] \
                    * ((-1) ** d * double_factorial(2 * d - 1))
                got = maxwell_poly(Q, vecs)
                assert np.linalg.norm(got.coeffs - want.coeffs) \
                    <= 1e-12 * np.linalg.norm(want.coeffs), (Q, d)


class TestHarmonicity:
    def test_random_directions(self, sphere, hyperboloid):
        rng = np.random.default_rng(31)
        for Q in (sphere, hyperboloid):
            for d in range(1, 7):
                vecs = [rand_vec(rng) for _ in range(d)]
                n = maxwell_poly(Q, vecs)
                assert apply_delta_q(n, Q).norm() < 1e-9 * n.norm()
                assert is_harmonic(n, Q)

    def test_multilinearity(self, sphere):
        rng = np.random.default_rng(32)
        tail = [rand_vec(rng) for _ in range(2)]
        u, w = rand_vec(rng), rand_vec(rng)
        a, b = 1.7 - 0.3j, -0.6 + 1.1j
        lhs = maxwell_poly(sphere, [a * u + b * w] + tail)
        rhs = maxwell_poly(sphere, [u] + tail) * a \
            + maxwell_poly(sphere, [w] + tail) * b
        assert np.linalg.norm(lhs.coeffs - rhs.coeffs) \
            < 1e-10 * np.linalg.norm(rhs.coeffs)

    def test_permutation_invariance(self, hyperboloid):
        rng = np.random.default_rng(33)
        vecs = [rand_vec(rng) for _ in range(4)]
        base = maxwell_poly(hyperboloid, vecs)
        perm = maxwell_poly(hyperboloid, [vecs[2], vecs[0], vecs[3], vecs[1]])
        assert np.linalg.norm(base.coeffs - perm.coeffs) \
            < 1e-12 * np.linalg.norm(base.coeffs)


class TestDecompose:
    @pytest.mark.parametrize("kwargs", [{"eps_cluster": float("inf")},
                                        {"eps_cluster": float("-inf")},
                                        {"eps_cluster": float("nan")},
                                        {"eps_cluster": -1e-6}])
    def test_bounds_refused_at_degree_zero(self, sphere, kwargs):
        # a constant returns before any factor context, which checked these
        with pytest.raises(ValueError, match="must be finite"):
            maxwell_decompose(HomogPoly(0, [2.0]), sphere, **kwargs)
        assert maxwell_decompose(HomogPoly(0, [2.0]), sphere) == ([], 2 + 0j)

    def test_single_z(self, sphere):
        vecs, scale = maxwell_decompose(Z * (-1.0), sphere)
        assert len(vecs) == 1
        assert np.linalg.norm(vecs[0] - np.array([0, 0, 1])) < 1e-9
        assert scale == pytest.approx(1.0)

    def test_xy(self, sphere):
        vecs, scale = maxwell_decompose(poly_mul(X, Y), sphere)
        assert scale == pytest.approx(1.0 / 3.0)
        got = sorted(tuple(np.round(np.abs(v), 6)) for v in vecs)
        assert got == [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]

    def test_zonal(self, sphere):
        p = poly_mul(Z, Z) * 2.0 - poly_mul(X, X) - poly_mul(Y, Y)
        vecs, scale = maxwell_decompose(p, sphere)
        assert scale == pytest.approx(1.0)
        for v in vecs:
            assert np.linalg.norm(v - np.array([0, 0, 1])) < 1e-9

    def test_constant(self, sphere):
        vecs, scale = maxwell_decompose(HomogPoly(0, [2.5]), sphere)
        assert vecs == []
        assert scale == pytest.approx(2.5)

    def test_round_trip_sphere(self, sphere):
        rng = np.random.default_rng(34)
        for d in range(1, 7):
            h, _ = harmonic_project(random_homog(d, rng), sphere)
            vecs, scale = maxwell_decompose(h, sphere)
            assert len(vecs) == d
            recon = maxwell_poly(sphere, vecs) * scale
            assert np.linalg.norm(recon.coeffs - h.coeffs) < 1e-7 * h.norm()

    def test_round_trip_real(self, sphere):
        rng = np.random.default_rng(35)
        for d in range(1, 7):
            h, _ = harmonic_project(random_homog(d, rng, real=True), sphere)
            vecs, scale = maxwell_decompose(h, sphere)
            for v in vecs:
                assert np.max(np.abs(v.imag)) < 1e-9
            assert abs(scale.imag) < 1e-9 * abs(scale)
            recon = maxwell_poly(sphere, vecs) * scale
            assert np.linalg.norm(recon.coeffs - h.coeffs) < 1e-7 * h.norm()

    def test_round_trip_hyperboloid(self, hyperboloid):
        rng = np.random.default_rng(36)
        for d in range(1, 7):
            h, _ = harmonic_project(random_homog(d, rng), hyperboloid)
            vecs, scale = maxwell_decompose(h, hyperboloid)
            recon = maxwell_poly(hyperboloid, vecs) * scale
            assert np.linalg.norm(recon.coeffs - h.coeffs) < 1e-7 * h.norm()
        # a repeated direction doubles cone points: the parcelling must
        # handle clusters of multiplicity two
        u, v = np.array([1.0, 0.3, 0.2]), np.array([0.1, 1.0, -0.4])
        h = maxwell_poly(hyperboloid, [u, u, v])
        mults = [c.multiplicity for c in intersection_clusters(h, hyperboloid)]
        assert sorted(mults) == [1, 1, 2, 2]
        vecs, scale = maxwell_decompose(h, hyperboloid)
        recon = maxwell_poly(hyperboloid, vecs) * scale
        assert np.linalg.norm(recon.coeffs - h.coeffs) < 1e-7 * h.norm()

    def test_non_harmonic_rejected(self, sphere):
        with pytest.raises(NotHarmonic):
            maxwell_decompose(poly_mul(X, X), sphere)

    def test_directions_define_lines(self, sphere):
        # recovered directions u satisfy <B u, x> | P on the cone: redoing
        # the construction from scratch with u alone reproduces the input
        rng = np.random.default_rng(37)
        h, _ = harmonic_project(random_homog(3, rng), sphere)
        vecs, scale = maxwell_decompose(h, sphere)
        redo = maxwell_poly(sphere, [np.asarray(v) for v in vecs]) * scale
        assert np.linalg.norm(redo.coeffs - h.coeffs) < 1e-7 * h.norm()
