"""Conic parameterization, binary forms, and projective root clustering."""

import re

import numpy as np
import pytest

from quadpole import (
    BinaryForm,
    HomogPoly,
    NotOnConic,
    ProjPoint1,
    ProjPoint2,
    QuadForm,
    ZeroForm,
    chordal,
    conic_param,
    line_through,
    restrict_to_conic,
    roots_projective,
)
from quadpole.algebra import grade_dim, monomials
from quadpole.conic import (
    _cross,
    _merge_groups,
    _normalize,
    _normalize_rows,
    _restriction_matrix,
    _restriction_norm,
    binary_discriminant,
)

from conftest import random_homog


def form_from_roots(root_pairs, degree=None):
    """Binary form with prescribed projective roots (u0:u1)."""
    out = BinaryForm(0, [1.0])
    for (a0, a1), m in root_pairs:
        lin = BinaryForm(1, [-a0, a1])
        for _ in range(m):
            out = out.mul(lin)
    return out


class TestProjPoints:
    def test_normalization(self):
        p = ProjPoint1([2j, 4])
        assert np.max(np.abs(p.coords)) == pytest.approx(1)
        idx = int(np.argmax(np.abs(p.coords)))
        assert p.coords[idx] == pytest.approx(1)

    def test_pivot_is_exactly_one(self):
        # the canonical cluster order compares normalized coordinates, so a
        # pivot that misses 1 + 0j in the last bit could reorder clusters
        rng = np.random.default_rng(5)
        for _ in range(2000):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            p = ProjPoint1(v * 10.0 ** rng.uniform(-3, 3))
            j = int(np.argmax(np.abs(p.coords)))
            assert p.coords[j] == 1 + 0j
            assert p.coords[j].imag == 0.0
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            q = ProjPoint2(w)
            assert q.coords[int(np.argmax(np.abs(q.coords)))] == 1 + 0j

    def test_normalization_idempotent(self):
        p = ProjPoint2([3, -2j, 1 + 1j])
        q = ProjPoint2(p.coords)
        assert np.allclose(p.coords, q.coords)

    def test_conj_involution(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = ProjPoint2(rng.standard_normal(3)
                           + 1j * rng.standard_normal(3))
            assert np.allclose(p.conj().conj().coords, p.coords)

    def test_conj_point_examples(self):
        p = ProjPoint2([1j, 0, 1]).conj()
        assert np.allclose(p.coords, ProjPoint2([-1j, 0, 1]).coords)
        real = ProjPoint2([1, 2, 3])
        assert np.allclose(real.conj().coords, real.coords)

    def test_chordal_metric(self):
        a = ProjPoint1([1, 0])
        b = ProjPoint1([0, 1])
        assert chordal(a, b) == pytest.approx(1.0)
        assert chordal(a, a) == pytest.approx(0.0)
        # scale invariance
        c = ProjPoint1([5j, 5j])
        d = ProjPoint1([1, 1])
        assert chordal(c, d) < 1e-12


class TestConicParam:
    def test_sphere_alphas(self, sphere):
        param = conic_param(sphere)
        pt = param.point(ProjPoint1([1, 1]))
        # alpha([1:1]) = (0, 2i, 2) up to normalization
        expect = ProjPoint2([0, 2j, 2])
        assert np.allclose(pt.coords, expect.coords, atol=1e-12)

    def test_points_on_conic(self, sphere, hyperboloid):
        rng = np.random.default_rng(1)
        for Q in (sphere, hyperboloid):
            param = conic_param(Q)
            for _ in range(20):
                u = ProjPoint1(rng.standard_normal(2)
                               + 1j * rng.standard_normal(2))
                pt = param.point(u)
                assert abs(Q(pt.coords)) < 1e-10

    def test_random_complex_form(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = b + b.T
        Q = QuadForm(b)
        param = conic_param(Q)
        for _ in range(10):
            u = ProjPoint1(rng.standard_normal(2)
                           + 1j * rng.standard_normal(2))
            pt = param.point(u)
            assert abs(Q(pt.coords)) < 1e-9 * np.linalg.norm(b)


    def test_one_param_per_form(self):
        # equal forms built apart share one parameterization, which no
        # caller can change in place
        a = conic_param(QuadForm(np.diag([1.0, 2.0, 3.0])))
        b = conic_param(QuadForm(np.diag([1.0, 2.0, 3.0])))
        assert a is b
        assert conic_param(QuadForm(np.diag([1.0, 2.0, 4.0]))) is not a
        with pytest.raises(ValueError):
            a.alphas[0].coeffs[0] = 0.0


class TestRestrictToConic:
    def test_x_restricts_to_difference_of_squares(self, sphere):
        param = conic_param(sphere)
        x = HomogPoly(1, [1, 0, 0])
        b = restrict_to_conic(x, param)
        # i(u0^2 - u1^2): coeffs[k] multiplies u0^k u1^(2-k)
        expect = np.array([-1j, 0, 1j])
        scale = b.coeffs[0] / expect[0]
        assert np.allclose(b.coeffs, expect * scale)
        assert abs(scale - 1) < 1e-12

    def test_xy_roots(self, sphere):
        param = conic_param(sphere)
        from quadpole import poly_mul
        xy = poly_mul(HomogPoly(1, [1, 0, 0]), HomogPoly(1, [0, 1, 0]))
        b = restrict_to_conic(xy, param)
        roots = roots_projective(b)
        keys = sorted(tuple(np.round(c.point.coords, 6)) for c in roots)
        want = sorted(tuple(np.round(ProjPoint1(v).coords, 6))
                      for v in ([0, 1], [1, 0], [1, 1], [1, -1]))
        assert keys == want

    def test_value_agreement(self, sphere, hyperboloid):
        rng = np.random.default_rng(3)
        for Q in (sphere, hyperboloid):
            param = conic_param(Q)
            p = random_homog(4, rng)
            b = restrict_to_conic(p, param)
            assert b.degree == 8
            for _ in range(10):
                u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                lhs = b.eval_uv(u[0], u[1])
                pt = np.array([param.alphas[i].eval_uv(u[0], u[1])
                               for i in range(3)])
                assert lhs == pytest.approx(p(pt), rel=1e-9)

    def test_q_restricts_to_zero(self, hyperboloid):
        b = restrict_to_conic(hyperboloid.poly(), conic_param(hyperboloid))
        assert np.max(np.abs(b.coeffs)) < 1e-12


class TestRootsProjective:
    def test_u0_u1(self):
        roots = roots_projective(BinaryForm(2, [0, 1, 0]))
        assert len(roots) == 2
        assert sorted(c.multiplicity for c in roots) == [1, 1]
        pts = {tuple(map(complex, np.round(c.point.coords, 8)))
               for c in roots}
        assert pts == {(0j, (1 + 0j)), ((1 + 0j), 0j)}

    def test_double_root(self):
        # (u0 - u1)^2 = u0^2 - 2 u0 u1 + u1^2
        roots = roots_projective(BinaryForm(2, [1, -2, 1]))
        assert len(roots) == 1
        assert roots[0].multiplicity == 2
        assert np.allclose(roots[0].point.coords, [1, 1])

    def test_root_at_infinity_multiplicity(self):
        # u1^2 * (u0 - 2 u1): zero coefficients for u0^3, u0^2
        f = form_from_roots([((1, 0), 2), ((2, 1), 1)])
        roots = roots_projective(f)
        inf = [c for c in roots if abs(c.point.coords[1]) < 1e-9]
        assert len(inf) == 1 and inf[0].multiplicity == 2

    def test_sum_of_multiplicities(self):
        rng = np.random.default_rng(4)
        for d in (3, 5, 8):
            f = BinaryForm(d, rng.standard_normal(d + 1)
                           + 1j * rng.standard_normal(d + 1))
            roots = roots_projective(f)
            assert sum(c.multiplicity for c in roots) == d

    def test_round_trip_well_separated(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            pairs = [((v, 1), 1) for v in vals]
            roots = roots_projective(form_from_roots(pairs))
            assert len(roots) == 4
            ckey = lambda z: (z.real, z.imag)
            got = sorted((complex(c.point.coords[0] / c.point.coords[1])
                          for c in roots if abs(c.point.coords[1]) > 0.1),
                         key=ckey)
            want = sorted((complex(v) for v in vals), key=ckey)
            for g, w in zip(got, want):
                assert abs(g - w) < 1e-8 * (1 + abs(w))

    def test_cluster_merging(self):
        # two roots within eps_cluster merge into one cluster of mult 2
        f = form_from_roots([((1.0, 1), 1), ((1.0 + 1e-9, 1), 1),
                             ((3.0, 1), 1)])
        roots = roots_projective(f, eps_cluster=1e-6)
        assert sorted(c.multiplicity for c in roots) == [1, 2]

    def test_polish_recovers_double_root(self):
        # companion eigenvalues of an m-fold root split O(eps^(1/m)); the
        # polish on the (m-1)th derivative must restore near-machine accuracy
        f = form_from_roots([((0.5, 1), 2), ((-2.0, 1), 1), ((1j, 1), 1)])
        roots = roots_projective(f)
        dbl = [c for c in roots if c.multiplicity == 2]
        assert len(dbl) == 1
        val = dbl[0].point.coords[0] / dbl[0].point.coords[1]
        assert abs(val - 0.5) < 1e-12

    def test_polish_recovers_triple_root(self):
        # the triple-root eigenvalue bunch has radius ~1e-6, so cluster at a
        # coarser resolution and check the polished location
        f = form_from_roots([((0.5, 1), 3), ((-2.0, 1), 1)])
        roots = roots_projective(f, eps_cluster=1e-5)
        tri = [c for c in roots if c.multiplicity == 3]
        assert len(tri) == 1
        val = tri[0].point.coords[0] / tri[0].point.coords[1]
        assert abs(val - 0.5) < 1e-10

    def test_zero_form_rejected(self):
        with pytest.raises(ZeroForm):
            roots_projective(BinaryForm(3, [0, 0, 0, 0]))


def _scalar_newton_polish(coeffs_desc, root, multiplicity):
    """Reference: one root at a time, with scalar np.polyval calls."""
    poly = coeffs_desc
    for _ in range(multiplicity - 1):
        poly = np.polyder(poly)
    deriv = np.polyder(poly)
    best = cur = complex(root)
    best_val = abs(np.polyval(poly, cur))
    for _ in range(12):
        dv = np.polyval(deriv, cur)
        if dv == 0:
            break
        step = np.polyval(poly, cur) / dv
        cur = cur - step
        val = abs(np.polyval(poly, cur))
        if val < best_val:
            best, best_val = cur, val
        if abs(step) < 1e-14 * (1 + abs(cur)):
            break
    return best


def _reference_roots(p, eps_cluster=1e-6):
    """(multiplicity, coords) of roots_projective's clusters, computed pair by
    pair and root by root with the scalar polish."""
    c = p.coeffs
    scale = float(np.max(np.abs(c)))
    n = p.degree
    m_inf = 0
    while m_inf < n and abs(c[n - m_inf]) <= 1e-10 * scale:
        m_inf += 1
    out = [(m_inf, ProjPoint1([1.0, 0.0]))] if m_inf else []
    desc = c[: n - m_inf + 1][::-1]
    if desc.size > 1:
        roots = np.roots(desc)
        group = list(range(roots.size))
        for i in range(roots.size):
            for j in range(i + 1, roots.size):
                tol = eps_cluster * (1.0 + max(abs(roots[i]), abs(roots[j])))
                if abs(roots[i] - roots[j]) <= tol:
                    gi, gj = group[i], group[j]
                    group = [gi if g == gj else g for g in group]
        for g in sorted(set(group), key=group.index):
            members = [roots[i] for i in range(roots.size) if group[i] == g]
            rep = _scalar_newton_polish(desc, complex(np.mean(members)), len(members))
            out.append((len(members), ProjPoint1([rep, 1.0])))
    out.sort(key=lambda mp: mp[1].key())
    return [(m, pt.coords) for m, pt in out]


def _assert_same_as_reference(f, eps_cluster=1e-6):
    got = roots_projective(f, eps_cluster=eps_cluster)
    want = _reference_roots(f, eps_cluster)
    assert [c.multiplicity for c in got] == [m for m, _ in want]
    for c, (_, coords) in zip(got, want):
        assert np.array_equal(c.point.coords, coords)


class TestPolishAgainstScalarReference:
    """The batched polish and closeness test give exactly the clusters of
    the one-root-at-a-time reference."""

    @pytest.mark.parametrize("degree", range(2, 29))
    def test_random_complex_forms(self, degree):
        rng = np.random.default_rng(60 + degree)
        for _ in range(4):
            _assert_same_as_reference(BinaryForm(
                degree, rng.standard_normal(degree + 1)
                + 1j * rng.standard_normal(degree + 1)))

    def test_double_and_triple_roots(self):
        rng = np.random.default_rng(61)
        grid = [complex(a, b) / 2 for a in range(-3, 4) for b in range(-3, 4)]
        seen = set()
        for _ in range(40):
            vals = rng.choice(grid, size=4, replace=False)
            mults = rng.integers(1, 4, size=4)
            f = form_from_roots([((v, 1), int(m)) for v, m in zip(vals, mults)])
            eps = 1e-5 if max(mults) == 3 else 1e-6
            seen.update(c.multiplicity for c in roots_projective(f, eps_cluster=eps))
            _assert_same_as_reference(f, eps)
        assert {2, 3} <= seen

    def test_root_at_infinity(self):
        rng = np.random.default_rng(62)
        for m_inf in (1, 2):
            vals = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            f = form_from_roots([((1, 0), m_inf), ((vals[0], 1), 2)]
                                + [((v, 1), 1) for v in vals[1:]])
            assert any(c.multiplicity == m_inf and c.point.coords[1] == 0
                       for c in roots_projective(f))
            _assert_same_as_reference(f)


class TestBinaryForm:
    def test_mul_matches_numpy(self):
        rng = np.random.default_rng(6)
        a = BinaryForm(3, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        b = BinaryForm(2, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        prod = a.mul(b)
        # ascending powers of u0 multiply by convolution
        got = np.convolve(a.coeffs, b.coeffs)
        assert np.allclose(prod.coeffs, got)

    def test_eval_consistency(self):
        f = BinaryForm(2, [1, 2, 3])
        u = ProjPoint1([2, 1])
        assert f.eval_point(u) == pytest.approx(
            f.eval_uv(*u.coords), rel=1e-12)


class TestLineThrough:
    def test_secant_example(self, sphere):
        pa = ProjPoint2([-1j, 0, 1])
        pb = ProjPoint2([1j, 0, 1])
        L = line_through(pa, pb, sphere)
        c = np.asarray(L.coeffs)
        c = c / c[np.argmax(np.abs(c))]
        assert np.allclose(c, [0, 1, 0])  # the line y = 0

    def test_second_secant_example(self, sphere):
        L = line_through(ProjPoint2([0, 1j, 1]), ProjPoint2([0, -1j, 1]),
                         sphere)
        c = np.asarray(L.coeffs)
        c = c / c[np.argmax(np.abs(c))]
        assert np.allclose(c, [1, 0, 0])  # the line x = 0

    def test_tangent_example(self, sphere):
        p = ProjPoint2([1j, 0, 1])
        L = line_through(p, p, sphere)
        c = np.asarray(L.coeffs)
        # tangent at p has coefficients B @ p = (i, 0, 1)
        expect = np.array([1j, 0, 1])
        scale = c[2] / expect[2]
        assert np.allclose(c, expect * scale)
        # double intersection on the conic
        b = restrict_to_conic(L, conic_param(sphere))
        roots = roots_projective(b)
        assert len(roots) == 1 and roots[0].multiplicity == 2

    def test_vanishes_at_both_points(self, hyperboloid):
        rng = np.random.default_rng(7)
        param = conic_param(hyperboloid)
        for _ in range(10):
            ua = ProjPoint1(rng.standard_normal(2)
                            + 1j * rng.standard_normal(2))
            ub = ProjPoint1(rng.standard_normal(2)
                            + 1j * rng.standard_normal(2))
            pa, pb = param.point(ua), param.point(ub)
            L = line_through(pa, pb, hyperboloid)
            assert abs(L(pa.coords)) < 1e-9
            assert abs(L(pb.coords)) < 1e-9

    def test_secant_roots_match_parameters(self, sphere):
        rng = np.random.default_rng(8)
        param = conic_param(sphere)
        ua = ProjPoint1([1.5 + 0.5j, 1])
        ub = ProjPoint1([-0.25j, 1])
        L = line_through(param.point(ua), param.point(ub), sphere)
        roots = roots_projective(restrict_to_conic(L, param))
        got = sorted(c.point.key() for c in roots)
        want = sorted([ua.key(), ub.key()])
        for g, w in zip(got, want):
            assert np.allclose(g, w, atol=1e-7)


def _line_through_reference(pa, pb, Q):
    """One pair's line in Python complex arithmetic, as a test-local copy:
    the tangent B @ pa for points closer than 1e-9, else the secant."""
    if chordal(pa, pb) < 1e-9:
        return Q.B @ pa.coords
    return np.array(_cross(pa.coords.tolist(), pb.coords.tolist()))


class TestStackedLineThrough:
    """Row k of a stacked call equals the call on the k-th pair alone, and
    both equal the one-pair reference, bit for bit."""

    def _pairs(self, Q, rng):
        param = conic_param(Q)

        def pt(u):
            return param.point(ProjPoint1(u))

        def rand_u():
            return rng.standard_normal(2) + 1j * rng.standard_normal(2)

        pairs = [(pt(rand_u()), pt(rand_u())) for _ in range(12)]
        same = pt(rand_u())
        pairs.append((same, same))
        # distinct points, closer than 1e-9: the tangent, not a secant
        u = rand_u()
        near = (pt(u), pt(u + 1e-11))
        assert not np.array_equal(near[0].coords, near[1].coords)
        assert chordal(*near) < 1e-9
        pairs.append(near)
        inf = pt([1.0, 0.0])
        pairs += [(inf, pt(rand_u())), (inf, inf)]
        return pairs

    @pytest.mark.parametrize("form", ["sphere", "hyperboloid", "dense_complex"])
    def test_rows_equal_single_calls(self, form, request):
        Q = request.getfixturevalue(form)
        pairs = self._pairs(Q, np.random.default_rng(60))
        lines = line_through(ProjPoint2.stack([a for a, _ in pairs]),
                             ProjPoint2.stack([b for _, b in pairs]), Q)
        assert lines.shape == (len(pairs), 3)
        for row, (pa, pb) in zip(lines, pairs):
            single = line_through(pa, pb, Q)
            assert isinstance(single, HomogPoly) and single.degree == 1
            assert row.tobytes() == single.coeffs.tobytes()
            assert row.tobytes() == _line_through_reference(pa, pb, Q).astype(complex).tobytes()

    def test_stack_indexing(self, sphere):
        pairs = self._pairs(sphere, np.random.default_rng(61))
        pts = ProjPoint2.stack([a for a, _ in pairs])
        assert pts.coords.shape == (len(pairs), 3)
        assert repr(pts[3]) == repr(pairs[3][0])
        assert pts[np.array([2, 0])].coords.tobytes() == \
            np.array([pairs[2][0].coords, pairs[0][0].coords]).tobytes()

    def test_off_conic_point_named(self, sphere):
        pairs = self._pairs(sphere, np.random.default_rng(62))
        pa = [a for a, _ in pairs]
        pb = [b for _, b in pairs]
        off = ProjPoint2([1.0, 0.5j, 0.25])
        pa[5] = off
        with pytest.raises(NotOnConic, match=re.escape(repr(off))):
            line_through(ProjPoint2.stack(pa), ProjPoint2.stack(pb), sphere)
        # the first off the conic in the order pa[0], pb[0], pa[1], ...
        first = ProjPoint2([0.5, 1.0, 0.0])
        pb[2] = first
        with pytest.raises(NotOnConic, match=re.escape(repr(first))):
            line_through(ProjPoint2.stack(pa), ProjPoint2.stack(pb), sphere)


class TestBinaryDiscriminant:
    def test_simple_roots_nonzero(self):
        assert abs(binary_discriminant(BinaryForm(2, [0, 1, 0]))) > 1e-6

    def test_double_root_zero(self):
        assert abs(binary_discriminant(BinaryForm(2, [1, 0, 0]))) < 1e-12

    def test_restricted_square_zero(self, sphere):
        from quadpole import poly_mul
        x2 = poly_mul(HomogPoly(1, [1, 0, 0]), HomogPoly(1, [1, 0, 0]))
        b = restrict_to_conic(x2, conic_param(sphere))
        b = BinaryForm(b.degree, b.coeffs / np.max(np.abs(b.coeffs)))
        assert abs(binary_discriminant(b)) < 1e-10

    def test_matches_root_clustering(self):
        rng = np.random.default_rng(9)
        # constructed forms with known structure
        cases = [
            (form_from_roots([((1, 1), 1), ((2, 1), 1), ((3, 1), 1)]), False),
            (form_from_roots([((1, 1), 2), ((3, 1), 1)]), True),
            (form_from_roots([((1j, 1), 2), ((1, 0), 2)]), True),
            (form_from_roots([((0.3 - 2j, 1), 1), ((1, 0), 1),
                              ((5, 1), 1)]), False),
        ]
        for f, multiple in cases:
            fn = BinaryForm(f.degree, f.coeffs / np.max(np.abs(f.coeffs)))
            disc = abs(binary_discriminant(fn))
            roots = roots_projective(fn)
            has_mult = any(c.multiplicity >= 2 for c in roots)
            assert has_mult == multiple
            assert (disc < 1e-9) == multiple


def _restrict_reference(p, param):
    """Test-local copy of the per-monomial convolution loop that
    restrict_to_conic ran before its operator was cached."""
    d = p.degree
    pows = []
    for a in param.alphas:
        chain = [np.array([1.0 + 0j])]
        for _ in range(d):
            chain.append(np.convolve(chain[-1], a.coeffs))
        pows.append(chain)
    out = np.zeros(2 * d + 1, dtype=complex)
    for (a, b, c), coeff in zip(monomials(d), p.coeffs):
        if coeff == 0:
            continue
        term = np.convolve(np.convolve(pows[0][a], pows[1][b]), pows[2][c])
        out += coeff * term
    return out


def _point_reference(param, u):
    """Test-local copy of the per-point path: each alpha by eval_point, then
    the ProjPoint2 normalization."""
    return ProjPoint2([a.eval_point(u) for a in param.alphas]).coords


def _bit_forms():
    rng = np.random.default_rng(70)
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return {"sphere": QuadForm.sphere(), "hyperboloid": QuadForm.hyperboloid(),
            "dense_ellipsoid": QuadForm(rot @ np.diag([1.0, 2.5, 0.4]) @ rot.T),
            "dense_complex": QuadForm(b + b.T)}


BIT_FORMS = _bit_forms()


def _special_coeffs(d, rng):
    """Gaussian integers with zeros, -0.0 parts and fully negative zeros."""
    n = grade_dim(d)
    c = (rng.integers(-3, 4, n) + 1j * rng.integers(-3, 4, n)).astype(complex)
    c[rng.random(n) < 0.3] = 0.0
    c[rng.random(n) < 0.2] = complex(-0.0, -0.0)
    c.imag[rng.random(n) < 0.2] = -0.0
    return c


class TestRestrictionBits:
    """restrict_to_conic through the cached operator gives the bits of the
    per-monomial convolution loop, compared as bytes so signed zeros count."""

    @pytest.mark.parametrize("name", sorted(BIT_FORMS))
    def test_equals_convolution_loop(self, name):
        Q = BIT_FORMS[name]
        param = conic_param(Q)
        rng = np.random.default_rng(71)
        for d in range(17):
            polys = [random_homog(d, rng), random_homog(d, rng, real=True),
                     HomogPoly(d, _special_coeffs(d, rng)), HomogPoly.zero(d)]
            for p in polys:
                got = restrict_to_conic(p, param)
                assert got.degree == 2 * d
                assert got.coeffs.tobytes() == _restrict_reference(p, param).tobytes()

    def test_degree_zero_and_zero_form(self, sphere):
        param = conic_param(sphere)
        for p in (HomogPoly(0, [2.5 - 1j]), HomogPoly(0, [complex(-0.0, -0.0)]),
                  HomogPoly.zero(0), HomogPoly.zero(5)):
            got = restrict_to_conic(p, param).coeffs
            assert got.tobytes() == _restrict_reference(p, param).tobytes()
        assert restrict_to_conic(HomogPoly(0, [2.5 - 1j]), param).coeffs.tolist() == [2.5 - 1j]


class TestRestrictionMatrixCache:
    def test_read_only_and_shared(self):
        Q = QuadForm(np.diag([1.0, 3.0, -2.0]))
        M = _restriction_matrix(Q, 4)
        assert M.shape == (grade_dim(4), 9)
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
        assert _restriction_matrix(Q, 4) is M
        assert _restriction_matrix(QuadForm(np.diag([1.0, 3.0, -2.0])), 4) is M
        assert _restriction_matrix(Q, 5) is not M

    def test_rows_are_monomial_restrictions(self, dense_complex):
        param = conic_param(dense_complex)
        M = _restriction_matrix(dense_complex, 3)
        for m in range(grade_dim(3)):
            e = np.zeros(grade_dim(3), dtype=complex)
            e[m] = 1.0
            ref = _restrict_reference(HomogPoly(3, e), param)
            assert M[m].tobytes() == ref.tobytes()

    def test_norm_bounds_every_restriction(self, sphere, dense_complex):
        # the cached spectral norm: no row is stretched more, and the top
        # right singular vector is stretched that much
        rng = np.random.default_rng(76)
        for Q in (sphere, dense_complex):
            for d in (1, 2, 5, 9):
                norm = _restriction_norm(Q, d)
                assert _restriction_norm(Q, d) == norm
                M = _restriction_matrix(Q, d)
                for _ in range(5):
                    p = random_homog(d, rng)
                    b = restrict_to_conic(p, conic_param(Q))
                    assert b.norm() <= norm * p.norm() * (1 + 1e-12)
                top = np.linalg.svd(M.T)[2][0].conj()
                assert np.linalg.norm(M.T @ top) == pytest.approx(norm, rel=1e-12)

    def test_param_carries_its_form(self, hyperboloid):
        param = conic_param(hyperboloid)
        assert param.form.key == hyperboloid.key
        assert "form" not in repr(param)


def _special_params(rng):
    fixed = [[1, 0], [0, 1], [1, 1], [-1, 1], [1j, 1], [-1j, 1]]
    rand = rng.standard_normal((24, 2)) + 1j * rng.standard_normal((24, 2))
    rand[::3] *= 10.0 ** rng.uniform(-4, 4, (8, 1))
    return np.concatenate([np.array(fixed, dtype=complex), rand])


class TestPointsBits:
    """ConicParam.points gives per row the bits of the per-point path, for
    one point and for stacks; _normalize_rows those of _normalize."""

    @pytest.mark.parametrize("name", sorted(BIT_FORMS))
    def test_points_equal_per_point_path(self, name):
        param = conic_param(BIT_FORMS[name])
        rng = np.random.default_rng(72)
        params = _special_params(rng)
        refs = [_point_reference(param, ProjPoint1(u)) for u in params]
        normalized = np.array([ProjPoint1(u).coords for u in params])
        for k, u in enumerate(normalized):
            assert param.point(ProjPoint1._of(u)).coords.tobytes() == refs[k].tobytes()
            assert param.points(u[None, :]).tobytes() == refs[k].tobytes()
        for n in (1, 2, 7, 30):
            idx = rng.choice(len(params), n, replace=False)
            got = param.points(normalized[idx])
            assert got.shape == (n, 3)
            assert got.tobytes() == np.array([refs[k] for k in idx]).tobytes()

    def test_empty_stack(self, sphere):
        assert conic_param(sphere).points(np.empty((0, 2), dtype=complex)).shape == (0, 3)

    def test_normalize_rows_equals_normalize(self):
        rng = np.random.default_rng(73)
        v = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
        v[::4] *= 10.0 ** rng.uniform(-6, 6, (10, 1))
        v[1] = [1.0, 1.0, 1.0]
        v[2] = [complex(-0.0, 0.0), 2j, -2.0]
        v[3] = [0.0, 0.0, complex(0.0, -3.0)]
        got = _normalize_rows(v)
        for row, w in zip(got, v):
            assert row.tobytes() == _normalize(w, 3).tobytes()
        with pytest.raises(ValueError, match="zero vector"):
            _normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))


def _merge_groups_reference(roots, eps_cluster):
    """Union-find over every close pair, a test-local copy."""
    k = roots.size
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(roots[i] - roots[j]) <= eps_cluster * (1.0 + max(abs(roots[i]),
                                                                    abs(roots[j]))):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(g) for g in groups.values())


class TestMergeGroups:
    def test_against_union_find(self):
        # far apart roots give singletons without the union-find; chains
        # and pairs merge as before
        rng = np.random.default_rng(77)
        for k in (0, 1, 2, 5, 12):
            roots = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            assert _merge_groups(roots, 1e-6) == tuple((i,) for i in range(k))
            for eps in (1e-6, 0.05, 0.3, 2.0):
                near = roots.copy()
                if k > 2:
                    near[2] = near[0] + 1e-7
                assert _merge_groups(near, eps) == _merge_groups_reference(near, eps)
