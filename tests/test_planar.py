"""Pencil projection of conic divisors: the line involution, tangency
points, fibers of the projection, and the root/coefficient correspondence."""

import re

import numpy as np
import pytest

from quadpole import (
    BinaryForm,
    ConicDivisor,
    Degenerate,
    DegenerateTangency,
    EnumerationLimit,
    NotOnConic,
    PencilCenter,
    PencilDivisor,
    PencilFrame,
    ProjPoint1,
    ProjPoint2,
    chordal,
    conic_param,
    divisors_close,
    fiber_enumerate,
    project_divisor,
    star_involution,
    tangent_lines_from,
    viete_inverse,
    viete_map,
)

from conftest import eval_point


def partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for p in range(min(n, largest), 0, -1):
        for rest in partitions(n - p, p):
            yield (p,) + rest


def rand_param(rng):
    return ProjPoint1(rng.standard_normal(2) + 1j * rng.standard_normal(2))


def conic_points(Q, rng, n):
    param = conic_param(Q)
    return [param.point(rand_param(rng)) for _ in range(n)]


def center(coords, Q):
    return PencilCenter.from_coords(coords, Q)


class TestStarInvolution:
    def test_north_pole_flips_z(self, sphere):
        q = ProjPoint2([1j, 0, 1])
        p = center([0, 0, 1], sphere)
        got = star_involution(q, p, sphere)
        assert chordal(got, ProjPoint2([1j, 0, -1])) < 1e-12

    def test_involution(self, sphere, hyperboloid):
        rng = np.random.default_rng(40)
        for Q in (sphere, hyperboloid):
            p = center(rng.standard_normal(3) + 1j * rng.standard_normal(3),
                       Q)
            for q in conic_points(Q, rng, 10):
                qq = star_involution(star_involution(q, p, Q), p, Q)
                assert chordal(qq, q) < 1e-9

    def test_fixed_points_are_tangency_points(self, sphere):
        p = center([0.3, -0.4, 1.2], sphere)
        for t in tangent_lines_from(p, sphere):
            assert chordal(star_involution(t, p, sphere), t) < 1e-7

    def test_result_stays_on_conic(self, hyperboloid):
        rng = np.random.default_rng(41)
        p = center([2, 0.5, 0.25], hyperboloid)
        for q in conic_points(hyperboloid, rng, 5):
            s = star_involution(q, p, hyperboloid)
            v = s.coords
            assert abs(v @ hyperboloid.B @ v) < 1e-9

    def test_off_conic_rejected(self, sphere):
        p = center([0, 0, 1], sphere)
        with pytest.raises(NotOnConic):
            star_involution(ProjPoint2([1, 0, 1]), p, sphere)

    def test_off_conic_error_names_point(self, sphere):
        p = center([0, 0, 1], sphere)
        q = ProjPoint2([1, 0.5, 1])
        with pytest.raises(NotOnConic, match=re.escape("point %r is off" % q)):
            star_involution(q, p, sphere)


class TestTangency:
    def test_z_axis_center(self, sphere, hyperboloid):
        for Q in (sphere, hyperboloid):
            t1, t2 = tangent_lines_from(center([0, 0, 1], Q), Q)
            got = sorted([tuple(np.round(t1.coords, 9)),
                          tuple(np.round(t2.coords, 9))])
            want = sorted([tuple(ProjPoint2([1, 1j, 0]).coords),
                           tuple(ProjPoint2([1, -1j, 0]).coords)])
            assert np.allclose(got, want)

    def test_center_on_conic_degenerate(self, sphere):
        with pytest.raises(Degenerate):
            PencilCenter.from_coords([1j, 0, 1], sphere)
        # bypassing the constructor check hits the tangency degeneracy
        bad = PencilCenter(ProjPoint2([1j, 0, 1]))
        with pytest.raises(DegenerateTangency):
            tangent_lines_from(bad, sphere)

    def test_tangency_points_on_conic(self, hyperboloid):
        p = center([1.5, -0.7, 0.2], hyperboloid)
        for t in tangent_lines_from(p, hyperboloid):
            v = t.coords
            assert abs(v @ hyperboloid.B @ v) < 1e-9


class TestProjection:
    def test_star_pairs_collapse(self, sphere):
        rng = np.random.default_rng(42)
        p = center([0.2, 1.1, -0.7], sphere)
        (q,) = conic_points(sphere, rng, 1)
        qs = star_involution(q, p, sphere)
        e1 = project_divisor(ConicDivisor([(q, 1)]), p, sphere)
        e2 = project_divisor(ConicDivisor([(qs, 1)]), p, sphere)
        assert divisors_close(e1, e2)

    def test_collision_merges_multiplicity(self, sphere):
        rng = np.random.default_rng(43)
        p = center([0.2, 1.1, -0.7], sphere)
        (q,) = conic_points(sphere, rng, 1)
        qs = star_involution(q, p, sphere)
        e = project_divisor(ConicDivisor([(q, 1), (qs, 2)]), p, sphere)
        assert len(e.points) == 1
        assert e.degree == 3

    def test_eps_cluster_checked(self, sphere):
        # a NaN or negative scale merged nothing: these three images, which
        # merge at 1e-6, came out as three points of multiplicity 1
        param = conic_param(sphere)
        d = ConicDivisor([(param.point(ProjPoint1(u)), 1)
                          for u in ([1, 0], [1, 1e-9], [0, 1])])
        p = center([0, 0, 2], sphere)
        for eps in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="eps_cluster"):
                project_divisor(d, p, sphere, eps_cluster=eps)
        e = project_divisor(d, p, sphere, eps_cluster=1e-6)
        assert [m for _, m in e.points] == [3]

    def test_degree_preserved(self, hyperboloid):
        rng = np.random.default_rng(44)
        p = center([0.4, 0.1, 1.9], hyperboloid)
        pts = conic_points(hyperboloid, rng, 4)
        d = ConicDivisor([(pt, k + 1) for k, pt in enumerate(pts)])
        e = project_divisor(d, p, hyperboloid)
        assert e.degree == d.degree


class TestDivisorEquality:
    def test_equal_coordinates(self):
        a = ConicDivisor([(ProjPoint2([1, 1j, 0]), 2), (ProjPoint2([1, -1j, 0]), 1)])
        b = ConicDivisor([(ProjPoint2([1, -1j, 0]), 1), (ProjPoint2([2, 2j, 0]), 2)])
        assert a == b and hash(a) == hash(b)

    def test_unequal(self):
        a = ConicDivisor([(ProjPoint2([1, 1j, 0]), 2)])
        assert a != ConicDivisor([(ProjPoint2([1, 1j, 0]), 3)])
        assert a != PencilDivisor([(ProjPoint2([1, 1j, 0]), 2)])
        assert PencilDivisor([(ProjPoint1([1, 2]), 1)]) \
            == PencilDivisor([(ProjPoint1([1, 2]), 1)])


class TestFibers:
    def test_generic_degree_two(self, sphere):
        rng = np.random.default_rng(45)
        p = center([0.3, -1.2, 0.9], sphere)
        e = PencilDivisor([(rand_param(rng), 1), (rand_param(rng), 1)])
        fiber = fiber_enumerate(e, p, sphere)
        assert len(fiber) == 4

    def test_degree_three_patterns(self, sphere):
        rng = np.random.default_rng(46)
        p = center([0.3, -1.2, 0.9], sphere)
        u = [rand_param(rng) for _ in range(3)]
        cases = [
            (PencilDivisor([(u[0], 1), (u[1], 1), (u[2], 1)]), 8),
            (PencilDivisor([(u[0], 2), (u[1], 1)]), 6),
            (PencilDivisor([(u[0], 3)]), 4),
        ]
        for e, want in cases:
            assert len(fiber_enumerate(e, p, sphere)) == want

    def test_product_rule_exhaustive(self, sphere, hyperboloid):
        rng = np.random.default_rng(47)
        for Q in (sphere, hyperboloid):
            p = center(rng.standard_normal(3), Q)
            for d in range(1, 6):
                for pat in partitions(d):
                    e = PencilDivisor([(rand_param(rng), m) for m in pat])
                    want = int(np.prod([m + 1 for m in pat]))
                    assert len(fiber_enumerate(e, p, Q)) == want

    def test_round_trip_through_projection(self, sphere):
        rng = np.random.default_rng(48)
        p = center([0.3, -1.2, 0.9], sphere)
        e = PencilDivisor([(rand_param(rng), 2), (rand_param(rng), 1)])
        for f in fiber_enumerate(e, p, sphere):
            assert f.degree == e.degree
            back = project_divisor(f, p, sphere)
            assert divisors_close(back, e)

    def test_fiber_elements_distinct(self, sphere):
        rng = np.random.default_rng(49)
        p = center([0.3, -1.2, 0.9], sphere)
        e = PencilDivisor([(rand_param(rng), 1) for _ in range(3)])
        fiber = fiber_enumerate(e, p, sphere)
        assert len(fiber) == 8
        for i in range(len(fiber)):
            for j in range(i + 1, len(fiber)):
                assert not divisors_close(fiber[i], fiber[j])

    def test_tangent_line_single_choice(self, sphere):
        p = center([0, 0, 2], sphere)
        frame = PencilFrame(p, sphere)
        t1, _ = tangent_lines_from(p, sphere)
        e = PencilDivisor([(frame.param_of_point(t1), 2)])
        fiber = fiber_enumerate(e, p, sphere)
        assert len(fiber) == 1
        ((pt, m),) = fiber[0].points
        assert m == 2
        assert chordal(pt, t1) < 1e-6

    def test_count_capped_with_tangents_as_one(self, sphere, monkeypatch):
        # the fibers are counted before any is listed, a tangent point as
        # one option whatever its multiplicity
        from quadpole import planar
        p = center([0, 0, 2], sphere)
        frame = PencilFrame(p, sphere)
        t1, _ = tangent_lines_from(p, sphere)
        tangent = (frame.param_of_point(t1), 10 ** 7)
        assert len(fiber_enumerate(PencilDivisor([tangent]), p, sphere)) == 1
        monkeypatch.setattr(planar, "ENUMERATION_CAP", 9)
        other = frame.param_of_line([1, 0, 0])
        assert len(fiber_enumerate(PencilDivisor([tangent, (other, 8)]), p, sphere)) == 9
        with pytest.raises(EnumerationLimit, match="more than 9 fibers"):
            fiber_enumerate(PencilDivisor([tangent, (other, 9)]), p, sphere)

    def test_deterministic_order(self, hyperboloid):
        rng1 = np.random.default_rng(50)
        rng2 = np.random.default_rng(50)
        p = center([1.4, 0.3, 0.1], hyperboloid)
        e1 = PencilDivisor([(rand_param(rng1), 2), (rand_param(rng1), 2)])
        e2 = PencilDivisor([(rand_param(rng2), 2), (rand_param(rng2), 2)])
        f1 = fiber_enumerate(e1, p, hyperboloid)
        f2 = fiber_enumerate(e2, p, hyperboloid)
        assert len(f1) == len(f2) == 9
        for a, b in zip(f1, f2):
            assert divisors_close(a, b, tol=1e-10)

    def test_pinned_order(self, sphere):
        # the pencil through [0:0:1] meets the line x = 0 at A+- = [0:1:+-i]
        # and y = 0 at B+- = [1:0:+-i]; E = 2 (x = 0) + 1 (y = 0).  The
        # last pencil point varies fastest, and each point's options run
        # from (m, 0) to (0, m) in the multiplicities of (A-, A+), (B-, B+)
        p = center([0, 0, 2], sphere)
        frame = PencilFrame(p, sphere)
        e = PencilDivisor([(frame.param_of_line([1, 0, 0]), 2),
                           (frame.param_of_line([0, 1, 0]), 1)])
        assert [m for _, m in e.points] == [2, 1]
        a_m, a_p = ProjPoint2([0, 1, -1j]), ProjPoint2([0, 1, 1j])
        b_m, b_p = ProjPoint2([1, 0, -1j]), ProjPoint2([1, 0, 1j])
        want = [[(a_m, 2), (b_m, 1)], [(a_m, 2), (b_p, 1)],
                [(a_m, 1), (a_p, 1), (b_m, 1)], [(a_m, 1), (a_p, 1), (b_p, 1)],
                [(a_p, 2), (b_m, 1)], [(a_p, 2), (b_p, 1)]]
        got = fiber_enumerate(e, p, sphere)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert divisors_close(g, ConicDivisor(w), tol=1e-12)


class TestViete:
    def test_crossed_axes(self):
        f = BinaryForm(2, [0, 1, 0])  # u0 * u1
        d = viete_inverse(f)
        assert d.degree == 2
        keys = sorted(tuple(np.round(pt.coords, 9)) for pt, _ in d.points)
        want = sorted([tuple(ProjPoint1([1, 0]).coords),
                       tuple(ProjPoint1([0, 1]).coords)])
        assert np.allclose(keys, want)

    def test_double_root(self):
        lin = BinaryForm(1, [1, -1])  # vanishes at [1:1]
        d = viete_inverse(lin.mul(lin))
        assert len(d.points) == 1
        ((pt, m),) = d.points
        assert m == 2
        assert chordal(pt, ProjPoint1([1, 1])) < 1e-7

    def test_root_at_infinity(self):
        f = BinaryForm(1, [1, 0])  # the form u1, vanishing at [1:0]
        ((pt, m),) = viete_inverse(f).points
        assert m == 1
        assert chordal(pt, ProjPoint1([1, 0])) < 1e-12

    def test_map_vanishes_on_divisor(self):
        rng = np.random.default_rng(51)
        d = PencilDivisor([(rand_param(rng), 1) for _ in range(4)])
        f = viete_map(d)
        for pt, _ in d.points:
            assert abs(eval_point(f, pt)) < 1e-9 * f.norm()

    def test_round_trips(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            deg = int(rng.integers(1, 7))
            d = PencilDivisor([(rand_param(rng), 1) for _ in range(deg)])
            f = viete_map(d)
            assert divisors_close(viete_inverse(f), d, tol=1e-7)
            # and the coefficient-side round trip, up to scale
            g = viete_map(viete_inverse(f))
            fn = f.coeffs / f.coeffs[np.argmax(np.abs(f.coeffs))]
            gn = g.coeffs / g.coeffs[np.argmax(np.abs(g.coeffs))]
            assert np.max(np.abs(fn - gn)) < 1e-7

    def test_multiplicity_round_trip(self):
        rng = np.random.default_rng(53)
        d = PencilDivisor([(rand_param(rng), 3), (rand_param(rng), 1)])
        f = viete_map(d)
        assert divisors_close(viete_inverse(f, eps_cluster=1e-5), d,
                              tol=1e-5)
