"""Parcelling combinatorics, cone factorization, real uniqueness,
and discriminant membership."""

import itertools

import numpy as np
import pytest

from quadpole import (
    DivisibleByQ,
    HomogPoly,
    Multipole,
    NotDefinite,
    NotReal,
    OddTotal,
    ProjPoint1,
    QuadForm,
    all_factorizations,
    canonical_parcelling,
    chordal,
    conic_param,
    count_parcellings,
    enumerate_parcellings,
    factor,
    factor_on_quadric,
    in_discriminant,
    intersection_clusters,
    line_through,
    poly_mul,
    real_factor,
    real_factorizations,
)
from quadpole import algebra, sylvester
from quadpole.algebra import TOL_DIV, grade_dim, monomial_index
from quadpole.errors import (ConjugationPairingFailure, NoEvaluationPoint,
                             SolveFailure)
from quadpole.sylvester import _FactorContext

from conftest import compose_linear, q_orthogonal, random_homog


def hp(degree, entries):
    idx = monomial_index(degree)
    c = np.zeros(grade_dim(degree), dtype=complex)
    for mono, v in entries.items():
        c[idx[mono]] = v
    return HomogPoly(degree, c)


X = hp(1, {(1, 0, 0): 1})
Y = hp(1, {(0, 1, 0): 1})
Z = hp(1, {(0, 0, 1): 1})


def labeled_matchings(units):
    """All perfect matchings of a labeled unit list."""
    if not units:
        return [[]]
    first, rest = units[0], units[1:]
    out = []
    for i in range(len(rest)):
        pair = tuple(sorted((first, rest[i])))
        for m in labeled_matchings(rest[:i] + rest[i + 1:]):
            out.append([pair] + m)
    return out


def parcelling_oracle(mult):
    """Distinct multisets of weight-2 pieces, by brute force."""
    units = [i for i, m in enumerate(mult) for _ in range(m)]
    return {tuple(sorted(m)) for m in labeled_matchings(units)}


def partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for p in range(min(n, largest), 0, -1):
        for rest in partitions(n - p, p):
            yield (p,) + rest


class TestParcellingCombinatorics:
    def test_double_factorial_counts(self):
        expect = {0: 1, 1: 1, 2: 3, 3: 15, 4: 105, 5: 945, 6: 10395,
                  7: 135135, 8: 2027025}
        for d, v in expect.items():
            assert count_parcellings(d) == v

    def test_enumeration_matches_brute_force(self):
        for mult in [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,),
                     (1,) * 6, (2, 2, 1, 1), (3, 3), (2, 2, 2),
                     (1,) * 8, (3, 2, 2, 1)]:
            got = {tuple(sorted(p.pieces))
                   for p in enumerate_parcellings(list(mult))}
            assert got == parcelling_oracle(mult), mult

    def test_worked_pattern_2_1_1(self):
        pars = enumerate_parcellings([2, 1, 1])
        assert len(pars) == 2
        shapes = {tuple(sorted(p.pieces)) for p in pars}
        assert shapes == {((0, 0), (1, 2)), ((0, 1), (0, 2))}

    def test_worked_pattern_2_2(self):
        pars = enumerate_parcellings([2, 2])
        shapes = {tuple(sorted(p.pieces)) for p in pars}
        assert shapes == {((0, 0), (1, 1)), ((0, 1), (0, 1))}

    def test_odd_total_rejected(self):
        with pytest.raises(OddTotal):
            enumerate_parcellings([1, 1, 1])

    def test_merge_never_increases_count(self):
        # merging two clusters can only lower (or keep) the parcelling count;
        # merging two simple clusters of an all-simple pattern lowers it
        # strictly once there are at least four points
        for total in (4, 6, 8):
            for pat in partitions(total):
                if len(pat) < 2:
                    continue
                base = len(parcelling_oracle(pat))
                for i, j in itertools.combinations(range(len(pat)), 2):
                    merged = [p for k, p in enumerate(pat)
                              if k not in (i, j)]
                    merged.append(pat[i] + pat[j])
                    assert base >= len(parcelling_oracle(tuple(merged)))
            simple = (1,) * total
            doubled = (2,) + (1,) * (total - 2)
            assert len(parcelling_oracle(simple)) \
                > len(parcelling_oracle(doubled))

    def test_canonical_is_valid_and_deterministic(self):
        for mult in [(1, 1, 1, 1), (2, 1, 1), (3, 3), (1,) * 6]:
            a = canonical_parcelling(list(mult))
            b = canonical_parcelling(list(mult))
            assert a.pieces == b.pieces
            use = a.multiplicity_use(len(mult))
            assert use == list(mult)
            assert all(len(piece) == 2 for piece in a.pieces)

    def test_multiplicity_use(self):
        p = enumerate_parcellings([2, 1, 1])[0]
        assert sum(p.multiplicity_use(3)) == 4


class TestFactorOnQuadric:
    def test_xy_all_three(self, sphere):
        xy = poly_mul(X, Y)
        facts = all_factorizations(xy, sphere)
        assert len(facts) == 3
        # one factorization has R = 0 (the true splitting), the other two
        # have R = +-1/2
        rvals = sorted(round(complex(f.remainder.coeffs[0]).real, 9)
                       for f in facts)
        assert rvals == [-0.5, 0.0, 0.5]
        assert all(abs(complex(f.remainder.coeffs[0]).imag) < 1e-9
                   for f in facts)
        for f in facts:
            recon = f.reconstruct(sphere)
            assert np.linalg.norm(recon.coeffs - xy.coeffs) < 1e-8

    def test_xy_true_split(self, sphere):
        xy = poly_mul(X, Y)
        facts = all_factorizations(xy, sphere)
        best = min(facts, key=lambda f: f.remainder.norm())
        assert best.remainder.norm() < 1e-10
        got = best.multipole()
        want = Multipole.from_parts(1.0, [X, Y])
        assert got.isclose(want)

    def test_x_squared_two_factorizations(self, sphere):
        x2 = poly_mul(X, X)
        facts = all_factorizations(x2, sphere)
        assert len(facts) == 2
        by_rem = sorted(facts, key=lambda f: f.remainder.norm())
        # R = 0 with the doubled secant line x
        assert by_rem[0].remainder.norm() < 1e-10
        assert by_rem[0].multipole().isclose(Multipole.from_parts(1.0,
                                                                  [X, X]))
        # R = 1 with the two tangent lines at [0:i:1] and [0:-i:1]; the scaled
        # product is -(y^2 + z^2)
        f1 = by_rem[1]
        assert f1.remainder.degree == 0
        assert complex(f1.remainder.coeffs[0]) == pytest.approx(1.0)
        prod = poly_mul(f1.lines[0], f1.lines[1]) * f1.lam
        want = (poly_mul(Y, Y) + poly_mul(Z, Z)) * (-1.0)
        assert np.linalg.norm(prod.coeffs - want.coeffs) < 1e-9

    def test_chosen_parcelling_lambda(self, sphere):
        # pairing [0:1] with [1:1] and [1:0] with [1:-1] gives lambda -1/2
        xy = poly_mul(X, Y)
        clusters = intersection_clusters(xy, sphere)
        par_keys = {}
        for i, c in enumerate(clusters):
            par_keys[tuple(np.round(c.point.coords, 6))] = i
        u01 = par_keys[tuple(np.round(ProjPoint1([0, 1]).coords, 6))]
        u10 = par_keys[tuple(np.round(ProjPoint1([1, 0]).coords, 6))]
        u11 = par_keys[tuple(np.round(ProjPoint1([1, 1]).coords, 6))]
        u1m = par_keys[tuple(np.round(ProjPoint1([1, -1]).coords, 6))]
        target = tuple(sorted([tuple(sorted((u01, u11))),
                               tuple(sorted((u10, u1m)))]))
        pars = enumerate_parcellings([1, 1, 1, 1])
        chosen = next(p for p in pars if tuple(sorted(p.pieces)) == target)
        f = factor_on_quadric(xy, sphere, chosen)
        assert complex(f.lam) == pytest.approx(-0.5)
        assert complex(f.remainder.coeffs[0]) == pytest.approx(0.5)

    def test_residual_random(self, sphere, hyperboloid):
        rng = np.random.default_rng(20)
        for Q in (sphere, hyperboloid):
            for d in (2, 3):
                p = random_homog(d, rng)
                for f in all_factorizations(p, Q):
                    recon = f.reconstruct(Q)
                    assert np.linalg.norm(recon.coeffs - p.coeffs) \
                        < 1e-8 * p.norm()

    def test_fiber_counts_low_degree(self, sphere):
        rng = np.random.default_rng(21)
        for d, want in ((2, 3), (3, 15)):
            p = random_homog(d, rng)
            assert len(all_factorizations(p, sphere)) == want

    def test_divisible_by_q_rejected(self, sphere):
        p = poly_mul(sphere.poly(), X)
        with pytest.raises(DivisibleByQ):
            all_factorizations(p, sphere)
        with pytest.raises(DivisibleByQ):
            intersection_clusters(sphere.poly(), sphere)

    def test_multipole_canonicalization(self):
        a = Multipole.from_parts(2.0, [X, Y])
        # swap order and move scale between the lines
        b = Multipole.from_parts(1.0, [Y * (4.0 + 0j), X * (0.5 + 0j)])
        assert a.isclose(b)
        c = Multipole.from_parts(2.0 + 1e-3, [X, Y])
        assert not a.isclose(c)


class TestRealFactor:
    def test_xy(self, sphere):
        f = real_factor(poly_mul(X, Y), sphere)
        assert f.is_real()
        assert f.remainder.norm() < 1e-10
        assert f.multipole().isclose(Multipole.from_parts(1.0, [X, Y]))

    def test_x_squared(self, sphere):
        f = real_factor(poly_mul(X, X), sphere)
        assert f.is_real()
        assert f.remainder.norm() < 1e-10
        assert f.multipole().isclose(Multipole.from_parts(1.0, [X, X]))

    def test_zonal_cubic(self, sphere):
        # z*(z^2 - x^2 - y^2) = 2*z^3 - z*Q factors with the line z thrice
        p = poly_mul(Z, poly_mul(Z, Z) - poly_mul(X, X) - poly_mul(Y, Y))
        # triple roots: widen the clustering radius past the eigenvalue bunch
        f = real_factor(p, sphere, eps_cluster=1e-5)
        assert f.is_real()
        assert f.multipole().isclose(Multipole.from_parts(2.0, [Z, Z, Z]))
        assert np.linalg.norm((f.remainder + Z).coeffs) < 1e-9

    def test_random_real_inputs(self, sphere):
        rng = np.random.default_rng(22)
        for d in (2, 3, 4, 5):
            p = random_homog(d, rng, real=True)
            f = real_factor(p, sphere)
            assert f.is_real()
            recon = f.reconstruct(sphere)
            assert np.linalg.norm(recon.coeffs - p.coeffs) < 1e-8 * p.norm()

    def test_rotation_equivariance(self, sphere):
        rng = np.random.default_rng(23)
        for _ in range(3):
            p = random_homog(3, rng, real=True)
            U = q_orthogonal(sphere, rng, real=True)
            f = real_factor(p, sphere)
            fU = real_factor(compose_linear(p, U), sphere)
            want = Multipole.from_parts(
                f.lam, [compose_linear(line, U) for line in f.lines])
            assert fU.multipole().isclose(want, tol=1e-7)

    def test_complex_input_rejected(self, sphere):
        with pytest.raises(NotReal):
            real_factor(X * (1 + 1j), sphere)

    def test_indefinite_form_rejected(self, hyperboloid):
        with pytest.raises(NotDefinite):
            real_factor(poly_mul(X, Y), hyperboloid)

    def test_unique_conjugation_stable_parcelling(self, sphere):
        # independent exhaustive check: pair each cluster with its conjugate
        rng = np.random.default_rng(24)
        param = conic_param(sphere)
        for d in (2, 3, 4):
            p = random_homog(d, rng, real=True)
            clusters = intersection_clusters(p, sphere)
            pts = [param.point(c.point) for c in clusters]
            sigma = _conjugation_permutation(pts)
            stable = [par for par in
                      enumerate_parcellings([c.multiplicity
                                             for c in clusters])
                      if _piecewise_stable(par, sigma)]
            assert len(stable) == 1


class TestFactorEntryPoint:
    def _inputs(self, rng):
        # generic inputs, and one with a double cone point (a squared line)
        yield random_homog(3, rng)
        yield poly_mul(poly_mul(X + 2 * Y, X + 2 * Y), Z - 0.5 * X)

    def _same(self, f, g):
        assert f.lam == g.lam and f.parcelling == g.parcelling
        assert all(np.array_equal(a.coeffs, b.coeffs)
                   for a, b in zip(f.lines, g.lines))
        assert np.array_equal(f.remainder.coeffs, g.remainder.coeffs)

    def test_canonical_is_default(self, sphere, hyperboloid, dense_complex):
        rng = np.random.default_rng(26)
        for Q in (sphere, hyperboloid, dense_complex):
            for p in self._inputs(rng):
                mults = [c.multiplicity for c in intersection_clusters(p, Q)]
                self._same(factor(p, Q),
                           factor_on_quadric(p, Q, canonical_parcelling(mults)))

    def test_real_unique_is_real_factor(self, sphere):
        rng = np.random.default_rng(27)
        for d in (2, 3, 4):
            p = random_homog(d, rng, real=True)
            self._same(factor(p, sphere, "real_unique"), real_factor(p, sphere))

    def test_unknown_strategy(self, sphere):
        for strategy in ("enumerate", "first", ""):
            with pytest.raises(ValueError):
                factor(poly_mul(X, Y), sphere, strategy)


def _five_doubles(rng, Q):
    """prod of five secants closing a chain through five conic points, plus
    Q * R, with Gaussian-integer coefficients throughout.

    On the sphere and the hyperboloid the conic point at parameter
    (a + bi) / c is Gaussian-integer for small integers a, b, c, so every
    point stays exactly double in the rounded input.
    """
    cands = [(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (1, 2)
             if c == 1 or a % 2 or b % 2]
    pts = []
    for k in rng.choice(len(cands), size=5, replace=False):
        a, b, c = cands[k]
        u0, u1 = complex(c), complex(a, b)
        s = np.array([1j * (u0 * u0 - u1 * u1), 2j * u0 * u1, u0 * u0 + u1 * u1])
        pts.append(s @ Q.a_inv)
    P = HomogPoly(0, [1.0])
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)):
        P = poly_mul(P, HomogPoly(1, np.cross(pts[i], pts[j])))
    R = (rng.integers(-1, 2, size=grade_dim(3))
         + 1j * rng.integers(-1, 2, size=grade_dim(3)))
    P = P + poly_mul(Q.poly(), HomogPoly(3, R))
    assert np.array_equal(P.coeffs, np.round(P.coeffs.real) + 1j * np.round(P.coeffs.imag))
    return P


def _rel(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def _engine_inputs(rng):
    yield random_homog(3, rng)
    yield random_homog(4, rng)
    # a double cone point (a squared line)
    yield poly_mul(poly_mul(X + 2 * Y, X + 2 * Y), Z - 0.5 * X + 0.3j * Y)


class TestEnumerationEngine:
    """all_factorizations shares lines, line products and the division
    operator across parcellings; none of that may change a result."""

    def test_matches_fresh_factorization(self, sphere, hyperboloid, dense_complex):
        rng = np.random.default_rng(40)
        for Q in (sphere, hyperboloid, dense_complex):
            for p in _engine_inputs(rng):
                facts = all_factorizations(p, Q)
                for f in facts:
                    g = factor_on_quadric(p, Q, f.parcelling)
                    assert _rel(f.lam, g.lam) <= 1e-12
                    for a, b in zip(f.lines, g.lines):
                        assert _rel(a.coeffs, b.coeffs) <= 1e-12
                    if g.remainder.norm() > 1e-9 * p.norm():
                        assert _rel(f.remainder.coeffs, g.remainder.coeffs) <= 1e-12
                    else:
                        assert f.remainder.norm() <= 1e-9 * p.norm()

    def test_call_order_does_not_matter(self, sphere, dense_complex):
        rng = np.random.default_rng(41)
        for Q in (sphere, dense_complex):
            p = random_homog(4, rng)
            ctx = _FactorContext(p, Q)
            pars = enumerate_parcellings(ctx.multiplicities)
            want = {par: ctx.factor(par) for par in pars}
            shuffled = _FactorContext(p, Q)
            for k in rng.permutation(len(pars)):
                got = shuffled.factor(pars[k])
                ref = want[pars[k]]
                assert got.lam == ref.lam
                assert np.array_equal(got.remainder.coeffs, ref.remainder.coeffs)
                assert all(np.array_equal(a.coeffs, b.coeffs)
                           for a, b in zip(got.lines, ref.lines))

    def test_one_line_per_pair(self, hyperboloid, monkeypatch):
        calls = []
        original = sylvester.line_through

        def counted(pa, pb, Q):
            calls.append(frozenset((pa.coords.tobytes(), pb.coords.tobytes())))
            return original(pa, pb, Q)

        monkeypatch.setattr(sylvester, "line_through", counted)
        p = random_homog(4, np.random.default_rng(42))
        facts = all_factorizations(p, hyperboloid)
        pieces = {piece for f in facts for piece in f.parcelling.pieces}
        assert len(facts) == 105
        assert len(calls) == len(set(calls)) == len(pieces) == 28

    def test_one_product_by_q_per_parcelling(self, sphere, monkeypatch):
        # a generic quartic's 105 parcellings: their line products, shared
        # over common prefixes, are sylvester's only 245 poly_mul calls, and
        # algebra's are the Q * R of each division (1 + 105)
        counts = {}

        def counted(module):
            original = module.poly_mul
            counts[module.__name__] = 0

            def wrapper(a, b):
                counts[module.__name__] += 1
                return original(a, b)

            monkeypatch.setattr(module, "poly_mul", wrapper)

        counted(sylvester)
        counted(algebra)
        P = random_homog(4, np.random.default_rng(46))
        assert len(all_factorizations(P, sphere)) == 105
        assert counts == {"quadpole.sylvester": 245, "quadpole.algebra": 106}

    def test_counts_unchanged(self, hyperboloid, sphere):
        # real_factorizations: 2d real conic points leave every parcelling
        # conjugation-stable, (2d - 1)!! of them
        rng = np.random.default_rng(43)
        for d in (2, 3):
            t = np.sort(rng.uniform(0, 2 * np.pi, size=2 * d))
            pts = [np.array([np.cos(a), np.sin(a), 1.0]) for a in t]
            p = HomogPoly(0, [1.0])
            for k in range(d):
                p = poly_mul(p, HomogPoly(1, np.cross(pts[2 * k], pts[2 * k + 1])))
            facts = real_factorizations(p, hyperboloid)
            assert len(facts) == len(labeled_matchings(list(range(2 * d))))
            assert all(f.is_real() for f in facts)
        # full_decompose(enumerate) of a generic cubic: 3 sequences for the
        # even part times 15 * 1 for the odd part
        from quadpole import full_decompose
        from conftest import random_poly
        seqs = full_decompose(random_poly(3, rng), sphere, strategy="enumerate")
        assert len(seqs) == 3 * 15


class TestDivisionScale:
    """The remainder division inside factor is measured against ||P||, not
    against the cancelled ||diff||."""

    def test_exact_double_points(self, sphere, hyperboloid):
        want = len(parcelling_oracle([2, 2, 2, 2, 2]))
        rng = np.random.default_rng(44)
        for _ in range(6):
            for Q in (sphere, hyperboloid):
                p = _five_doubles(rng, Q)
                facts = all_factorizations(p, Q)
                assert [f.parcelling for f in facts] \
                    == enumerate_parcellings([2, 2, 2, 2, 2])
                assert len(facts) == want
                for f in facts:
                    assert (f.reconstruct(Q) - p).norm() <= 1e-8 * p.norm()

    def test_every_division_goes_through_divide_by_quadric(self, sphere,
                                                            monkeypatch):
        # one divisibility test, then one division per parcelling of a
        # generic quartic: 1 + 7!! = 106 calls
        original = sylvester.divide_by_quadric
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].degree)
            return original(*args, **kwargs)

        monkeypatch.setattr(sylvester, "divide_by_quadric", counted)
        P = random_homog(4, np.random.default_rng(46))
        facts = all_factorizations(P, sphere)
        assert len(facts) == count_parcellings(4) == 105
        assert calls == [4] * 106

    def test_small_multiple_of_q_divided(self, sphere):
        # P = lam * prod(L) + Q * R with ||Q * R|| = 1e-7 ||P||: under
        # tol_div = 1e-6 that defect is still divided, not taken for R = 0
        # and then refused at TOL_FACT
        rng = np.random.default_rng(47)
        base = all_factorizations(random_homog(4, rng), sphere)[0].product()
        QS = poly_mul(sphere.poly(), random_homog(2, rng))
        P = base + HomogPoly(4, 1e-7 * base.norm() / QS.norm() * QS.coeffs)
        facts = all_factorizations(P, sphere, tol_div=1e-6)
        assert len(facts) == 105
        for f in facts:
            assert (f.reconstruct(sphere) - P).norm() <= 1e-8 * P.norm()

    @pytest.mark.parametrize("size, tol_div", [
        pytest.param(1e-5, TOL_DIV, id="1e-05"),
        pytest.param(1e-7, TOL_DIV, id="1e-07"),
        # a division tolerance above TOL_FACT, as multipole_series passes
        # for small bands, does not loosen the factorization's check
        pytest.param(1e-7, 1e-6, id="1e-07-tol_div-1e-06"),
    ])
    def test_perturbed_line_refused(self, sphere, hyperboloid, dense_complex,
                                    monkeypatch, size, tol_div):
        rng = np.random.default_rng(45)
        original = sylvester.line_through
        first = []

        def perturbed(pa, pb, Q):
            line = original(pa, pb, Q)
            if not first:
                first.append(True)
                e = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                line = HomogPoly(1, line.coeffs + size * np.linalg.norm(line.coeffs)
                                 * e / np.linalg.norm(e))
            return line

        monkeypatch.setattr(sylvester, "line_through", perturbed)
        for Q in (sphere, hyperboloid, dense_complex):
            for p in _engine_inputs(rng):
                pars = enumerate_parcellings(
                    [c.multiplicity for c in intersection_clusters(p, Q)])
                for k in rng.choice(len(pars), size=4, replace=False):
                    first.clear()
                    with pytest.raises(SolveFailure):
                        factor_on_quadric(p, Q, pars[k], tol_div=tol_div)


class TestRealFactorizations:
    def test_contains_real_line_splitting(self, hyperboloid):
        # z^2 - x^2 = (z - x)(z + x), both lines real
        p = poly_mul(Z - X, Z + X)
        facts = real_factorizations(p, hyperboloid)
        assert len(facts) >= 1
        assert any(f.remainder.norm() < 1e-9 and f.is_real() for f in facts)
        best = min(facts, key=lambda f: f.remainder.norm())
        want = Multipole.from_parts(1.0, [Z - X, Z + X])
        assert best.multipole().isclose(want)

    def test_no_real_intersections_single(self, hyperboloid):
        # z misses the real conic of x^2 + y^2 - z^2 (z=0 forces x=y=0)
        rng = np.random.default_rng(25)
        p = poly_mul(Z, Z) + poly_mul(X, Y) * 1e-3
        facts = real_factorizations(p, hyperboloid)
        assert len(facts) == 1
        assert facts[0].is_real()

    def test_count_matches_stable_parcellings(self, hyperboloid):
        param = conic_param(hyperboloid)
        p = poly_mul(X, X + Z)
        clusters = intersection_clusters(p, hyperboloid)
        pts = [param.point(c.point) for c in clusters]
        sigma = _conjugation_permutation(pts)
        stable = [par for par in
                  enumerate_parcellings([c.multiplicity for c in clusters])
                  if _piecewise_stable(par, sigma)]
        facts = real_factorizations(p, hyperboloid)
        assert len(facts) == len(stable)
        for f in facts:
            assert f.is_real()
            recon = f.reconstruct(hyperboloid)
            assert np.linalg.norm(recon.coeffs - p.coeffs) \
                < 1e-8 * p.norm()


def _conjugation_permutation(pts):
    sigma = []
    for p in pts:
        cj = p.conj()
        dists = [chordal(cj, q) for q in pts]
        j = int(np.argmin(dists))
        assert dists[j] < 1e-6
        sigma.append(j)
    return sigma


def _piecewise_stable(par, sigma):
    for (i, j) in par.pieces:
        if tuple(sorted((sigma[i], sigma[j]))) != (i, j):
            return False
    return True


def _near_double(rng, Q, gap):
    """Product of four secants through eight conic points, two of them at
    parameters gap * (1 + |u|^2) apart, plus Q * R."""
    param = conic_param(Q)
    r = rng.uniform(0.4, 2.5, size=8)
    u = list(r * np.exp(1j * rng.uniform(0, 2 * np.pi, size=8)))
    u[1] = u[0] + gap * (1 + abs(u[0]) ** 2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    pts = [param.point(ProjPoint1([v, 1.0])) for v in u]
    P = HomogPoly(0, [1.0])
    for i, j in ((0, 2), (1, 3), (4, 5), (6, 7)):
        P = poly_mul(P, line_through(pts[i], pts[j], Q))
    P = P * (1.0 / P.norm())
    return P + poly_mul(Q.poly(), random_homog(2, rng)) * 0.1


def _dense_ellipsoid(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    A = q * rng.uniform(0.6, 1.6, size=3)
    return QuadForm(A @ A.T)


class TestPairScans:
    """ill_conditioned and conjugation against scalar chordal distances."""

    @staticmethod
    def _brute_ill(ctx):
        return any(chordal(a.point, b.point) < 10 * ctx.eps_cluster
                   for a, b in itertools.combinations(ctx.clusters, 2))

    def test_near_double_is_ill_conditioned(self, sphere, hyperboloid):
        rng = np.random.default_rng(46)
        for Q in (sphere, hyperboloid):
            for _ in range(5):
                ctx = _FactorContext(_near_double(rng, Q, 4e-6), Q)
                assert len(ctx.clusters) == 8
                assert ctx.ill_conditioned and self._brute_ill(ctx)

    def test_generic_is_not(self, sphere, hyperboloid, dense_complex):
        rng = np.random.default_rng(47)
        for Q in (sphere, hyperboloid, dense_complex):
            for d in (1, 2, 4, 8):
                ctx = _FactorContext(random_homog(d, rng), Q)
                assert not ctx.ill_conditioned and not self._brute_ill(ctx)

    def test_conjugation_matches_brute_force(self, sphere):
        rng = np.random.default_rng(48)
        for Q in (sphere, _dense_ellipsoid(rng)):
            for d in range(1, 13):
                ctx = _FactorContext(random_homog(d, rng, real=True), Q)
                sigma = ctx.conjugation(require_free=True)
                assert sigma == _conjugation_permutation(ctx.points)
                assert all(i != j for i, j in enumerate(sigma))


def _outcome(fn):
    try:
        fact = fn()
    except (SolveFailure, NoEvaluationPoint, ConjugationPairingFailure) as exc:
        return type(exc), str(exc)
    return fact.lam, [L.coeffs.tolist() for L in fact.lines]


class TestAtScale:
    """A context re-clustered at another scale against a fresh one there."""

    SCALES = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1)

    def _check(self, P, Q, strategy):
        base = _FactorContext(P, Q)
        for eps in self.SCALES:
            got = base.at_scale(eps)
            want = _FactorContext(P, Q, eps_cluster=eps)
            assert got.multiplicities == want.multiplicities
            for a, b in zip(got.clusters, want.clusters):
                assert np.array_equal(a.point.coords, b.point.coords)
            assert got.ill_conditioned == want.ill_conditioned
            assert got.attempt_key(strategy) == want.attempt_key(strategy)
            assert _outcome(lambda: got.factor_with(strategy)) \
                == _outcome(lambda: want.factor_with(strategy))

    def test_near_double(self, sphere, hyperboloid):
        rng = np.random.default_rng(49)
        for Q in (sphere, hyperboloid):
            for gap in (4e-6, 4e-4):
                self._check(_near_double(rng, Q, gap), Q, "canonical")

    def test_real_pairing(self, sphere):
        rng = np.random.default_rng(50)
        for d in (2, 5, 8):
            self._check(random_homog(d, rng, real=True), sphere, "real_unique")

    def test_unchanged_groups_share_clusters(self, sphere):
        rng = np.random.default_rng(51)
        base = _FactorContext(random_homog(4, rng), sphere)
        same = base.at_scale(1e-5)
        assert same.clusters is base.clusters and same.points is base.points
        assert same.at_scale(1e-3).clusters is base.clusters


class TestDiscriminant:
    def test_generic_false(self, sphere):
        assert not in_discriminant(poly_mul(X, Y), sphere)

    def test_square_true(self, sphere):
        assert in_discriminant(poly_mul(X, X), sphere)

    def test_tangent_line_true(self, sphere):
        # i*x + z is tangent to the conic at [i:0:1]
        tangent = X * 1j + Z
        assert in_discriminant(poly_mul(X, tangent), sphere)

    def test_shared_point_true(self, sphere):
        param = conic_param(sphere)
        q0 = param.point(ProjPoint1([1.0, 2.0 + 1j]))
        q1 = param.point(ProjPoint1([0.5j, 1.0]))
        q2 = param.point(ProjPoint1([3.0, 1.0 - 2j]))
        l1 = line_through(q0, q1, sphere)
        l2 = line_through(q0, q2, sphere)
        assert in_discriminant(poly_mul(l1, l2), sphere)

    def test_divisible_rejected(self, sphere):
        with pytest.raises(DivisibleByQ):
            in_discriminant(sphere.poly(), sphere)

    def test_random_generic_false(self, sphere):
        rng = np.random.default_rng(26)
        for d in (2, 3, 4):
            for _ in range(5):
                p = random_homog(d, rng)
                assert not in_discriminant(p, sphere)
