"""Acceptance gate: one test per contract criterion, each printing a single
PASS/FAIL line with its measured numbers before asserting.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; without
`-s`, pytest still reports each criterion's outcome and shows the printed
line for any failure.
"""

import itertools
import math
import time

import numpy as np
import pytest

from quadpole import (
    HomogPoly,
    PencilCenter,
    PencilDivisor,
    PencilFrame,
    Poly,
    ProjPoint1,
    QuadratureRule,
    all_factorizations,
    apply_delta_q,
    chordal,
    conic_param,
    count_parcellings,
    dirichlet_solve,
    enumerate_parcellings,
    fiber_enumerate,
    harmonic_decompose,
    harmonic_project,
    in_discriminant,
    inner_product,
    intersection_clusters,
    l2_project,
    lemma9_gap,
    line_through,
    maxwell_decompose,
    maxwell_poly,
    monomial_sphere_integral,
    multipole_series,
    parseval_gap,
    poly_mul,
    real_factor,
    surface_samples,
    tangent_lines_from,
)
from quadpole.algebra import grade_dim

from conftest import compose_linear, monomial_index, q_orthogonal, random_homog, random_poly


def report(num, ok, detail):
    print("CRITERION %02d %s: %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def hp(degree, entries):
    idx = monomial_index(degree)
    c = np.zeros(grade_dim(degree), dtype=complex)
    for mono, v in entries.items():
        c[idx[mono]] = v
    return HomogPoly(degree, c)


X = hp(1, {(1, 0, 0): 1})
Y = hp(1, {(0, 1, 0): 1})
Z = hp(1, {(0, 0, 1): 1})


def test_criterion_01_fiber_cardinality(sphere):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    counts = {}
    worst_resid = 0.0
    min_pair = np.inf
    for d, want in ((2, 3), (3, 15), (4, 105)):
        for _ in range(20):
            P = random_homog(d, rng)
            facts = all_factorizations(P, sphere)
            counts.setdefault(d, set()).add(len(facts))
            pn = P.norm()
            for f in facts:
                worst_resid = max(worst_resid,
                                  (f.reconstruct(sphere) - P).norm() / pn)
            for i in range(len(facts)):
                for j in range(i + 1, len(facts)):
                    dist = (facts[i].remainder - facts[j].remainder).norm()
                    min_pair = min(min_pair, dist / pn)
    dt = time.perf_counter() - t0
    ok = (counts == {2: {3}, 3: {15}, 4: {105}} and min_pair > 1e-6
          and worst_resid < 1e-8 and dt < 30.0)
    report(1, ok,
           "counts %s, min pairwise remainder %.2e (>1e-6), max residual"
           " %.2e (<1e-8), runtime %.1fs (<30s)"
           % (sorted((d, sorted(v)) for d, v in counts.items()),
              min_pair, worst_resid, dt))


def test_criterion_02_real_uniqueness(sphere):
    rng = np.random.default_rng(102)
    param = conic_param(sphere)
    worst_imag = 0.0
    worst_sup = 0.0
    stable_counts = set()
    n_checked = 0
    for i in range(50):
        d = 1 + i % 8
        P = random_homog(d, rng, real=True)
        fact = real_factor(P, sphere)
        drift = [abs(fact.lam.imag) / max(abs(fact.lam), 1.0)]
        drift += [float(np.max(np.abs(L.coeffs.imag))) for L in fact.lines]
        drift += [float(np.max(np.abs(fact.remainder.coeffs.imag),
                               initial=0.0))]
        worst_imag = max(worst_imag, max(drift))
        pts = surface_samples(sphere, 1000, rng)
        sup = float(np.max(np.abs(P.eval_many(pts)
                                  - fact.reconstruct(sphere).eval_many(pts))))
        worst_sup = max(worst_sup, sup / P.norm())
        if d <= 4:
            clusters = intersection_clusters(P, sphere)
            pts3 = [param.point(c.point) for c in clusters]
            sigma = []
            for p in pts3:
                dists = [chordal(p.conj(), q) for q in pts3]
                j = int(np.argmin(dists))
                assert dists[j] < 1e-6
                sigma.append(j)
            stable = sum(
                1 for par in enumerate_parcellings(
                    [c.multiplicity for c in clusters])
                if all(tuple(sorted((sigma[a], sigma[b]))) == (a, b)
                       for a, b in par.pieces))
            stable_counts.add(stable)
            n_checked += 1
    ok = worst_imag <= 1e-9 and worst_sup < 1e-8 and stable_counts == {1}
    report(2, ok,
           "50 real inputs d<=8: worst imaginary part %.2e (<=1e-9), worst"
           " sup-error/|P| over 1000 samples %.2e (<1e-8); tau-invariant"
           " parcelling count %s on %d exhaustive checks d<=4 (want {1})"
           % (worst_imag, worst_sup, sorted(stable_counts), n_checked))


def test_criterion_03_maxwell_round_trip(sphere, hyperboloid):
    rng = np.random.default_rng(103)
    worst_delta = 0.0
    worst_prop = 0.0
    for Q in (sphere, hyperboloid):
        for d in range(1, 7):
            vecs = [rng.standard_normal(3) + 1j * rng.standard_normal(3)
                    for _ in range(d)]
            N = maxwell_poly(Q, vecs)
            worst_delta = max(worst_delta,
                              apply_delta_q(N, Q).norm() / N.norm())
            out_vecs, scale = maxwell_decompose(N, Q)
            model = maxwell_poly(Q, out_vecs) * scale
            worst_prop = max(worst_prop, (model - N).norm() / N.norm())
    hand = [
        (maxwell_poly(sphere, [(0, 0, 1)]), Z * (-1.0)),
        (maxwell_poly(sphere, [(0, 0, 1), (0, 0, 1)]),
         poly_mul(Z, Z) * 2.0 - poly_mul(X, X) - poly_mul(Y, Y)),
        (maxwell_poly(sphere, [(1, 0, 0), (0, 1, 0)]), poly_mul(X, Y) * 3.0),
    ]
    worst_hand = max(float(np.max(np.abs(got.coeffs - want.coeffs)))
                     for got, want in hand)
    ok = worst_delta < 1e-9 and worst_prop < 1e-7 and worst_hand < 1e-12
    report(3, ok,
           "both quadrics d<=6: Laplacian residual %.2e (<1e-9),"
           " decompose/rebuild deviation %.2e (<1e-7), hand cases %.2e"
           " (<1e-12)" % (worst_delta, worst_prop, worst_hand))


def test_criterion_04_pencil_fiber_cardinalities(sphere):
    rng = np.random.default_rng(104)
    p = PencilCenter.from_coords([0.3, -0.4, 1.7], sphere)
    frame = PencilFrame(p, sphere)
    t1, _ = tangent_lines_from(p, sphere)
    t_param = frame.param_of_point(t1)

    def rp():
        return ProjPoint1(rng.standard_normal(2) + 1j * rng.standard_normal(2))

    generic = len(fiber_enumerate(
        PencilDivisor([(rp(), 1), (rp(), 1), (rp(), 1)]), p, sphere))
    double = len(fiber_enumerate(
        PencilDivisor([(rp(), 2), (rp(), 1)]), p, sphere))
    tangent = len(fiber_enumerate(
        PencilDivisor([(t_param, 1), (rp(), 1), (rp(), 1)]), p, sphere))
    product_ok = True
    for d in range(1, 6):
        for pat in _partitions(d):
            e = PencilDivisor([(rp(), m) for m in pat])
            if len(fiber_enumerate(e, p, sphere)) \
                    != int(np.prod([m + 1 for m in pat])):
                product_ok = False
    ok = (generic, double, tangent) == (8, 6, 4) and product_ok
    report(4, ok,
           "d=3 fiber sizes (generic, double, tangent) = (%d, %d, %d)"
           " (want (8, 6, 4)); prod(mult+1) exhaustive for all patterns"
           " d<=5: %s" % (generic, double, tangent, product_ok))


def _partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for p in range(min(n, largest), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


def _kappa(d):
    """(2d - 1)!!, with kappa(0) = (-1)!! = 1."""
    out = 1
    for k in range(1, 2 * d, 2):
        out *= k
    return out


def test_criterion_05_parcelling_combinatorics():
    kappa_ok = all(count_parcellings(d) == _kappa(d) for d in range(9))
    # One double point among 2d - 2 simple points.  Either the double point
    # pairs with itself, leaving (2d - 3)!! parcellings of the simple points,
    # or its two units go to two different simple points, C(2d - 2, 2) ways,
    # leaving (2d - 5)!!.  Merging two labelled points gives the same total:
    # the kappa(d - 1) parcellings that pair them survive, and the other
    # kappa(d) - kappa(d - 1) fold two-to-one under swapping them.
    merge_counts = {}
    want = {}
    cases_ok = True
    for d in (2, 3, 4, 5):
        pattern = [2] + [1] * (2 * d - 2)
        merge_counts[d] = len(enumerate_parcellings(pattern))
        want[d] = (_kappa(d) + _kappa(d - 1)) // 2
        cases = _kappa(d - 1) + math.comb(2 * d - 2, 2) * _kappa(d - 2)
        cases_ok = cases_ok and cases == want[d]
    merge_ok = cases_ok and merge_counts == want
    ok = kappa_ok and merge_ok
    report(5, ok,
           "kappa(d)=(2d-1)!! for d<=8: %s; one-double-point counts %s vs"
           " [kappa(d)+kappa(d-1)]/2 = %s; equals (2d-3)!!"
           " + C(2d-2,2)*(2d-5)!!: %s"
           % (kappa_ok, merge_counts, want, cases_ok))


def test_criterion_06_harmonic_decomposition(sphere, hyperboloid):
    rng = np.random.default_rng(106)
    worst_recon = 0.0
    worst_orth = 0.0
    worst_dirichlet = 0.0
    worst_unique = 0.0
    worst_equiv = 0.0
    for Q in (sphere, hyperboloid):
        for d in range(1, 9):
            P = random_homog(d, rng)
            dec = harmonic_decompose(P, Q)
            total = HomogPoly.zero(d)
            qpow = HomogPoly(0, [1.0])
            for j, comp in enumerate(dec.components):
                if j:
                    qpow = poly_mul(qpow, Q.poly())
                if not comp.is_zero():
                    total = total + poly_mul(qpow, comp)
            worst_recon = max(worst_recon, (total - P).norm() / P.norm())
        # band orthogonality at top degree
        P = random_homog(8, rng)
        dec = harmonic_decompose(P, Q)
        rule = QuadratureRule(16)
        comps = [c for c in dec.components if c.norm() > 1e-12]
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                ip = abs(inner_product(comps[i], comps[j], Q, rule))
                ni = abs(inner_product(comps[i], comps[i], Q, rule))
                nj = abs(inner_product(comps[j], comps[j], Q, rule))
                worst_orth = max(worst_orth, ip / math.sqrt(ni * nj))
        # Dirichlet data: solve Delta u = m with u|surface = n
        m = random_poly(2, rng)
        n = random_poly(4, rng)
        sol = dirichlet_solve(m, n, Q)
        lap = _poly_delta(sol, Q)
        worst_dirichlet = max(worst_dirichlet, _poly_diff(lap, m))
        pts = surface_samples(Q, 200, rng)
        bdry = float(np.max(np.abs(sol.eval_many(pts) - n.eval_many(pts))))
        scale = max(1.0, float(np.max(np.abs(n.eval_many(pts)))))
        worst_dirichlet = max(worst_dirichlet, bdry / scale)
        again = dirichlet_solve(m, n, Q, perturb_seed=1)
        third = dirichlet_solve(m, n, Q, perturb_seed=2)
        worst_unique = max(worst_unique, _poly_diff(again, third))
        # equivariance of the projection under Q-orthogonal maps
        U = q_orthogonal(Q, rng)
        P = random_homog(4, rng)
        hU, _ = harmonic_project(compose_linear(P, U), Q)
        h, _ = harmonic_project(P, Q)
        worst_equiv = max(worst_equiv,
                          (hU - compose_linear(h, U)).norm() / P.norm())
    ok = (worst_recon < 1e-9 and worst_orth < 1e-8
          and worst_dirichlet < 1e-9 and worst_unique < 1e-9
          and worst_equiv < 1e-8)
    report(6, ok,
           "reconstruction %.2e (<1e-9), band orthogonality %.2e (<1e-8),"
           " Dirichlet residual %.2e (<1e-9), re-run difference %.2e"
           " (<1e-9), equivariance %.2e (<1e-8)"
           % (worst_recon, worst_orth, worst_dirichlet, worst_unique,
              worst_equiv))


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


def _poly_diff(a, b):
    scale = max(max((h.norm() for h in a.parts), default=0.0),
                max((h.norm() for h in b.parts), default=0.0), 1.0)
    worst = 0.0
    for k in range(max(a.degree, b.degree) + 1):
        ha = a.part(k) if k <= a.degree else None
        hb = b.part(k) if k <= b.degree else None
        if ha is None or ha.is_zero():
            val = 0.0 if (hb is None or hb.is_zero()) else hb.norm()
        elif hb is None or hb.is_zero():
            val = ha.norm()
        else:
            val = (ha - hb).norm()
        worst = max(worst, val / scale)
    return worst


def test_criterion_07_quadrature():
    worst = 0.0
    for total in range(17):
        for a in range(total + 1):
            for b in range(total - a + 1):
                c = total - a - b
                got = monomial_sphere_integral(a, b, c)
                if a % 2 or b % 2 or c % 2:
                    want = 0.0
                else:
                    want = (4.0 * math.pi * _dfact(a - 1) * _dfact(b - 1)
                            * _dfact(c - 1) / _dfact(a + b + c + 1))
                scale = max(abs(want), 1.0)
                worst = max(worst, abs(got - want) / scale)
    ok = worst < 1e-12
    report(7, ok, "sphere monomial integrals degree <= 16: worst relative"
                  " error %.2e (<1e-12)" % worst)


def _dfact(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def test_criterion_08_approximation(sphere):
    f = lambda pts: np.exp(pts[:, 0])
    t0 = time.perf_counter()
    rule = QuadratureRule(24)
    dec = l2_project(f, sphere, 12, rule)
    series = multipole_series(dec, sphere)
    gap = parseval_gap(f, dec)
    pts = rule.sphere_points() @ sphere.a_inv
    vals = np.zeros(pts.shape[0], dtype=complex)
    for k in range(13):
        vals = vals + series.band_poly(k, sphere).eval_many(pts)
    err = float(np.sqrt(np.real(np.dot(rule.weights,
                                       np.abs(f(pts) - vals) ** 2))))
    dt = time.perf_counter() - t0
    monotone = all(dec.band_norms[k] > dec.band_norms[k + 1]
                   for k in range(2, 12))
    ok = (gap < 1e-6 * dec.f_norm ** 2 and monotone
          and abs(err - dec.residual_norm) < 1e-9 and dt < 10.0)
    report(8, ok,
           "exp(x) d_max=12: Parseval gap %.2e (<1e-6*|f|^2=%.2e), band"
           " norms strictly decreasing beyond k=2: %s, |series L2 error -"
           " residual| %.2e (<1e-9), runtime %.1fs (<10s)"
           % (gap, 1e-6 * dec.f_norm ** 2, monotone,
              abs(err - dec.residual_norm), dt))


def test_criterion_09_dimension_gap():
    pinned = (lemma9_gap(3, (3, 3)) == 1
              and lemma9_gap(4, (4, 4, 4)) == 6)
    l2_ok = True
    for s in range(2, 6):
        for ds in itertools.combinations_with_replacement(range(1, 11), s):
            if lemma9_gap(2, ds) != 0:
                l2_ok = False
    sweep_ok = True
    n_swept = 0
    for l in range(3, 9):
        for s in range(2, 6):
            for ds in itertools.combinations_with_replacement(range(1, 11),
                                                              s):
                n_swept += 1
                if lemma9_gap(l, ds) <= 0:
                    sweep_ok = False
    ok = pinned and l2_ok and sweep_ok
    report(9, ok,
           "pinned gaps (l=3 -> 1, l=4 s=3 -> 6): %s; l=2 all-splits zero:"
           " %s; positivity sweep l<=8, s<=5, d_i<=10 (%d cases): %s"
           % (pinned, l2_ok, n_swept, sweep_ok))


def test_criterion_10_discriminant_detection(sphere):
    rng = np.random.default_rng(110)
    param = conic_param(sphere)

    def conic_pt():
        return param.point(ProjPoint1(rng.standard_normal(2)
                                      + 1j * rng.standard_normal(2)))

    false_pos = 0
    for i in range(100):
        d = 2 + i % 4
        if in_discriminant(random_homog(d, rng), sphere):
            false_pos += 1
    false_neg = 0
    for i in range(100):
        kind = i % 3
        if kind == 0:  # two factors sharing a conic point
            q0, q1, q2 = conic_pt(), conic_pt(), conic_pt()
            P = poly_mul(line_through(q0, q1, sphere),
                         line_through(q0, q2, sphere))
        elif kind == 1:  # squared factor
            L = line_through(conic_pt(), conic_pt(), sphere)
            P = poly_mul(L, L)
        else:  # tangent factor
            q0 = conic_pt()
            tangent = HomogPoly(1, sphere.B @ q0.coords)
            L = line_through(conic_pt(), conic_pt(), sphere)
            P = poly_mul(tangent, L)
        if not in_discriminant(P, sphere):
            false_neg += 1
    ok = false_pos == 0 and false_neg == 0
    report(10, ok,
           "100 generic inputs -> %d flagged (want 0); 100 constructed"
           " degenerate inputs -> %d missed (want 0)"
           % (false_pos, false_neg))
