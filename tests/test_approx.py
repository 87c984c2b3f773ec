"""Least-squares band projection of sampled surface functions and the
conversion of each band into a scaled line product."""

import numpy as np
import pytest

from quadpole import (
    HomogPoly,
    InsufficientQuadrature,
    Poly,
    QuadratureRule,
    corollary20_stat,
    grade_split,
    harmonic_decompose,
    homogenize_on_quadric,
    inner_product,
    is_harmonic,
    l2_project,
    multipole_series,
    parseval_gap,
)
from quadpole.algebra import grade_dim

from conftest import random_poly


def poly_eval(P):
    return lambda pts: P.eval_many(pts)


def f_exp(pts):
    return np.exp(pts[:, 0])


class TestL2Project:
    def test_x_squared_bands(self, sphere):
        dec = l2_project(lambda pts: pts[:, 0] ** 2, sphere, 4,
                         QuadratureRule(10))
        # oracle: the quadric-Laplacian split of x^2
        split = harmonic_decompose(HomogPoly(2, [1, 0, 0, 0, 0, 0]), sphere)
        deg2 = next(c for c in split.components if c.degree == 2)
        assert abs(dec.bands[0].coeffs[0] - 1.0 / 3.0) < 1e-10
        assert np.max(np.abs(dec.bands[2].coeffs - deg2.coeffs)) < 1e-10
        for k in (1, 3, 4):
            assert dec.band_norms[k] < 1e-12
        assert dec.residual_norm < 1e-12

    def test_linear_band(self, sphere):
        dec = l2_project(lambda pts: pts[:, 2], sphere, 3, QuadratureRule(6))
        assert np.max(np.abs(dec.bands[1].coeffs
                             - np.array([0, 0, 1.0]))) < 1e-10
        for k in (0, 2, 3):
            assert dec.band_norms[k] < 1e-12

    def test_constant_has_zero_gap(self, sphere):
        for dm in (0, 2, 5):
            f = lambda pts: np.ones(pts.shape[0])
            dec = l2_project(f, sphere, dm, QuadratureRule(max(2 * dm, 2)))
            assert abs(parseval_gap(f, dec)) < 1e-10

    def test_polynomial_exactness(self, sphere, hyperboloid):
        # polynomial input is reproduced exactly, band by band, matching the
        # homogenize-then-split oracle applied per parity
        rng = np.random.default_rng(80)
        for Q in (sphere, hyperboloid):
            for d in (3, 4):
                P = random_poly(d, rng)
                dec = l2_project(poly_eval(P), Q, d, QuadratureRule(2 * d))
                assert abs(parseval_gap(poly_eval(P), dec)) \
                    < 1e-9 * dec.f_norm ** 2
                expected = {k: HomogPoly.zero(k) for k in range(d + 1)}
                for part in grade_split(P):
                    if all(pp.is_zero() for pp in part.parts):
                        continue
                    hom = homogenize_on_quadric(part, Q)
                    for comp in harmonic_decompose(hom, Q).components:
                        if not comp.is_zero():
                            expected[comp.degree] = (expected[comp.degree]
                                                     + comp)
                for k in range(d + 1):
                    assert (dec.bands[k] - expected[k]).norm() \
                        < 1e-8 * max(dec.f_norm, 1.0)

    def test_smooth_function_gap(self, sphere):
        dec = l2_project(f_exp, sphere, 8, QuadratureRule(16))
        gap = parseval_gap(f_exp, dec)
        assert -1e-10 <= gap < 1e-6 * dec.f_norm ** 2
        assert abs(gap - dec.residual_norm ** 2) \
            < 1e-10 * max(dec.f_norm ** 2, 1.0)
        for k in range(2, 8):
            assert dec.band_norms[k] > dec.band_norms[k + 1]

    def test_gap_decreases_with_band_count(self, sphere):
        g4 = parseval_gap(f_exp, l2_project(f_exp, sphere, 4,
                                            QuadratureRule(8)))
        g8 = parseval_gap(f_exp, l2_project(f_exp, sphere, 8,
                                            QuadratureRule(16)))
        assert -1e-10 <= g8 < g4

    def test_bands_harmonic_and_orthogonal(self, sphere):
        rule = QuadratureRule(16)
        dec = l2_project(f_exp, sphere, 8, rule)
        for k in range(9):
            assert is_harmonic(dec.bands[k], sphere)
        for k in range(9):
            for l in range(k + 1, 9):
                if dec.band_norms[k] < 1e-13 or dec.band_norms[l] < 1e-13:
                    continue
                ip = inner_product(dec.bands[k], dec.bands[l], sphere, rule)
                assert abs(ip) < 1e-8 * dec.band_norms[k] * dec.band_norms[l]

    def test_projection_is_optimal(self, sphere):
        # perturbing the projection along any band direction raises the error
        from quadpole.approx import _band_basis
        rng = np.random.default_rng(81)
        rule = QuadratureRule(16)
        dec = l2_project(f_exp, sphere, 8, rule)
        pts = rule.sphere_points() @ sphere.a_inv
        fv = f_exp(pts)
        w = rule.weights

        def l2_err(vals):
            return float(np.real(np.dot(w, np.abs(fv - vals) ** 2)))

        base_vals = dec.evaluate(pts)
        e0 = l2_err(base_vals)
        for k in (0, 1, 3, 6):
            _, V = _band_basis(sphere, k, rule.exact_degree)
            g = rng.standard_normal(V.shape[1]) \
                + 1j * rng.standard_normal(V.shape[1])
            pert = V @ g
            for eps in (1e-3, -1e-3):
                assert l2_err(base_vals + eps * pert) > e0

    def test_reconstruction_error_equals_residual(self, sphere):
        rule = QuadratureRule(12)
        dec = l2_project(f_exp, sphere, 6, rule)
        pts = rule.sphere_points() @ sphere.a_inv
        rec = dec.evaluate(pts)
        err = np.sqrt(np.real(np.dot(rule.weights,
                                     np.abs(f_exp(pts) - rec) ** 2)))
        assert abs(err - dec.residual_norm) < 1e-9

    def test_insufficient_quadrature(self, sphere):
        with pytest.raises(InsufficientQuadrature):
            l2_project(f_exp, sphere, 6, QuadratureRule(11))


class TestMultipoleSeries:
    def test_xy_band_lines(self, sphere):
        dec = l2_project(lambda pts: pts[:, 0] * pts[:, 1], sphere, 3,
                         QuadratureRule(6))
        s = multipole_series(dec, sphere)
        assert abs(s.lam) < 1e-12
        w2 = s.terms[2]
        assert w2.degree == 2
        lines = sorted(tuple(np.round(np.abs(np.asarray(l)), 6))
                       for l in w2.lines)
        assert lines == [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]
        assert s.terms[1].degree == 0 and s.terms[3].degree == 0
        assert (s.band_poly(2, sphere) - dec.bands[2]).norm() < 1e-9

    def test_constant_series(self, sphere):
        f = lambda pts: np.ones(pts.shape[0])
        dec = l2_project(f, sphere, 4, QuadratureRule(8))
        s = multipole_series(dec, sphere)
        assert abs(s.lam - 1.0) < 1e-12
        for k in range(1, 5):
            assert s.terms[k].degree == 0 and s.norms[k] == 0.0
        assert corollary20_stat(s) == [abs(s.lam) ** 2] * 5

    def test_smooth_function_series(self, sphere):
        dec = l2_project(f_exp, sphere, 6, QuadratureRule(12))
        s = multipole_series(dec, sphere)
        assert [k for k in range(1, 7) if s.terms[k].degree > 0] \
            == [1, 2, 3, 4, 5, 6]
        for k in range(7):
            assert (s.band_poly(k, sphere) - dec.bands[k]).norm() \
                < 1e-7 * max(dec.band_norms[k], 1e-30)
        # real input over the sphere gives real line products
        for k in range(1, 7):
            w = s.terms[k]
            assert abs(w.scale.imag) < 1e-9 * max(1.0, abs(w.scale))
            for line in w.lines:
                assert max(abs(v.imag) for v in line) < 1e-9

    def test_partial_sums_converge(self, sphere):
        rule = QuadratureRule(12)
        dec = l2_project(f_exp, sphere, 6, rule)
        s = multipole_series(dec, sphere)
        pts = rule.sphere_points() @ sphere.a_inv
        fv = f_exp(pts)
        acc = np.zeros_like(fv)
        last = None
        for k in range(7):
            acc = acc + s.band_poly(k, sphere).eval_many(pts)
            r = float(np.real(np.dot(rule.weights, np.abs(fv - acc) ** 2)))
            if last is not None:
                assert r < last
            last = r
        stats = corollary20_stat(s)
        assert len(stats) == 7
        assert all(b >= a for a, b in zip(stats, stats[1:]))

    def test_polynomial_finite_support(self, sphere):
        rng = np.random.default_rng(82)
        P3 = Poly.from_grades({3: HomogPoly(3, rng.standard_normal(10)),
                               1: HomogPoly(1, rng.standard_normal(3))})
        dec = l2_project(poly_eval(P3), sphere, 6, QuadratureRule(12))
        s = multipole_series(dec, sphere)
        stats = corollary20_stat(s)
        assert all(abs(stats[k] - stats[3]) < 1e-20 for k in range(3, 7))

    def test_hyperboloid_complex_route(self, hyperboloid):
        rng = np.random.default_rng(83)
        Pc = Poly.from_grades({
            2: HomogPoly(2, rng.standard_normal(6)
                         + 1j * rng.standard_normal(6)),
            1: HomogPoly(1, rng.standard_normal(3)
                         + 1j * rng.standard_normal(3)),
        })
        dec = l2_project(poly_eval(Pc), hyperboloid, 3, QuadratureRule(6))
        s = multipole_series(dec, hyperboloid)
        for k in range(4):
            bound = max(1e-7 * dec.band_norms[k], 1e-12 * dec.f_norm)
            assert (s.band_poly(k, hyperboloid) - dec.bands[k]).norm() \
                < bound


def _reference_series(decomp, Q, tol_zero=1e-12, eps_cluster=1e-6,
                      tol_div=1e-9):
    """Reference for multipole_series: the public factor afresh at each
    scale of the schedule, and no scale skipped."""
    from quadpole import Multipole, factor
    from quadpole.approx import SeriesMultipoles
    from quadpole.maxwell import maxwell_fit
    from quadpole.errors import (ConjugationPairingFailure,
                                 NoEvaluationPoint, SolveFailure)
    scale_ref = max(decomp.f_norm, 1.0)
    imag_max = max((float(np.max(np.abs(b.coeffs.imag), initial=0.0))
                    for b in decomp.bands), default=0.0)
    strategy = ("real_unique" if imag_max <= 1e-12 * scale_ref and Q.is_real
                and Q.signature in (-3, 3) else "canonical")
    lam = complex(decomp.bands[0].coeffs[0])
    terms, scales, norms = {}, {}, {0: abs(lam)}
    for k in range(1, decomp.d_max + 1):
        fk = decomp.bands[k]
        if decomp.band_norms[k] <= tol_zero * scale_ref:
            terms[k], scales[k], norms[k] = Multipole(0j, ()), 0j, 0.0
            continue
        floor = np.finfo(float).eps * scale_ref / decomp.band_norms[k]
        band_tol_div = max(tol_div, 1e3 * floor)
        w, c, best = None, 0j, np.inf
        last_err = None
        eps = eps_cluster
        while eps <= 0.2:
            try:
                cand = factor(fk, Q, strategy, eps_cluster=eps,
                              tol_div=band_tol_div).multipole()
                _, cc, defect = maxwell_fit(fk, Q, cand.lines)
                if defect < best:
                    w, c, best = cand, cc, defect
                if defect <= 1e-12 * fk.norm():
                    break
            except (SolveFailure, ConjugationPairingFailure,
                    NoEvaluationPoint) as exc:
                last_err = exc
            eps *= 10.0
        if w is None:
            raise last_err
        if best > 1e-7 * fk.norm():
            raise SolveFailure("band %d multipole deviates by %.3e relative"
                               % (k, best / fk.norm()))
        terms[k], scales[k] = w, c
        norms[k] = float(w.product_poly().norm())
    return SeriesMultipoles(lam, terms, scales, norms)


def f_gauss(pts):
    return np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2))


def _rotated_ellipsoid():
    from quadpole import QuadForm
    rng = np.random.default_rng(91)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    A = q * np.array([0.7, 1.1, 1.5])
    return QuadForm(A @ A.T)


class TestScaleSchedule:
    """The retry over clustering scales: one context per band, scales that
    would repeat an earlier attempt skipped, and the same series as a fresh
    factor at every scale."""

    def _cases(self, sphere, hyperboloid):
        rng = np.random.default_rng(90)
        v, w = rng.standard_normal(3), rng.standard_normal(3)
        Pc = Poly.from_grades({
            k: HomogPoly(k, rng.standard_normal(grade_dim(k))
                         + 1j * rng.standard_normal(grade_dim(k)))
            for k in range(4)})
        return [
            (f_exp, sphere, 12),
            (f_gauss, sphere, 6),
            (lambda pts: np.exp(pts @ v) * np.cos(pts @ w),
             _rotated_ellipsoid(), 8),
            (poly_eval(Pc), hyperboloid, 4),
        ]

    def test_same_series_as_fresh_factor_per_scale(self, sphere, hyperboloid):
        for f, Q, d_max in self._cases(sphere, hyperboloid):
            dec = l2_project(f, Q, d_max, QuadratureRule(2 * d_max))
            got = multipole_series(dec, Q)
            want = _reference_series(dec, Q)
            assert got.lam == want.lam
            assert got.terms == want.terms
            assert got.scales == want.scales
            assert got.norms == want.norms

    def test_complex_band_takes_canonical_path(self, hyperboloid, monkeypatch):
        from quadpole.sylvester import _FactorContext

        def no_pairing(*args, **kwargs):
            raise AssertionError("conjugation pairing tried")

        monkeypatch.setattr(_FactorContext, "conjugation", no_pairing)
        f, Q, d_max = self._cases(hyperboloid, hyperboloid)[3]
        dec = l2_project(f, Q, d_max, QuadratureRule(2 * d_max))
        assert multipole_series(dec, Q).terms[3].degree == 3

    def test_same_failure_as_fresh_factor_per_scale(self, sphere):
        dec = l2_project(f_gauss, sphere, 8, QuadratureRule(16))
        with pytest.raises(Exception) as want:
            _reference_series(dec, sphere)
        with pytest.raises(Exception) as got:
            multipole_series(dec, sphere)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_repeated_scales_not_refit(self, sphere, monkeypatch):
        # a fresh factor at every scale fits 30 candidates here
        from quadpole import approx
        calls = []
        original = approx.maxwell_fit

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(approx, "maxwell_fit", counted)
        dec = l2_project(f_exp, sphere, 12, QuadratureRule(24))
        multipole_series(dec, sphere)
        assert len(calls) == 19 < 30


class TestEpsClusterRange:
    @pytest.mark.parametrize("eps", [0.5, float("nan"), -1.0])
    def test_out_of_range_rejected(self, sphere, eps):
        dec = l2_project(f_exp, sphere, 4, QuadratureRule(8))
        with pytest.raises(ValueError):
            multipole_series(dec, sphere, eps_cluster=eps)

    def test_cli_zero_exits_2(self):
        # before the range check this loop never ended
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "quadpole.cli", "approx", "--function",
             "exp_x", "--d-max", "4", "--eps-cluster", "0"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "eps_cluster" in proc.stderr
