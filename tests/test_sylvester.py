"""Parcelling combinatorics, cone factorization, real uniqueness,
and discriminant membership."""

import copy
import itertools
import math
import re

import numpy as np
import pytest

from quadpole import (
    DivisibleByQ,
    EnumerationLimit,
    GeneralizedParcelling,
    HomogPoly,
    Multipole,
    MultipoleFactorization,
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
    full_decompose,
    in_discriminant,
    intersection_clusters,
    line_through,
    poly_mul,
    real_factor,
    real_factorizations,
)
from quadpole import algebra, deconstruct, sylvester
from quadpole.algebra import TOL_DIV, grade_dim
from quadpole.conic import BinaryForm, ProjPoint2, RootCluster, restrict_to_conic
from quadpole.errors import (ConjugationPairingFailure, NoEvaluationPoint, NotOnConic,
                             QuadpoleError, SolveFailure, StrategyMismatch)
from quadpole.sylvester import _FactorContext

from conftest import (compose_linear, eval_point, monomial_index, q_orthogonal, random_homog,
                      random_poly)


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

    def test_counted_before_listing(self, monkeypatch):
        # the count that decides EnumerationLimit is the list's length, and
        # more than ENUMERATION_CAP are refused before any is listed
        rng = np.random.default_rng(13)
        for _ in range(200):
            mults = rng.integers(0, 5, rng.integers(0, 7)).tolist()
            if sum(mults) % 2 == 0:
                assert sylvester._parcelling_count(tuple(sorted(m for m in mults if m))) \
                    == len(enumerate_parcellings(mults))

        def refuse(mults):
            raise AssertionError("listed")

        monkeypatch.setattr(sylvester, "_parcellings", refuse)
        with pytest.raises(EnumerationLimit, match="more than 1000000 parcellings"):
            enumerate_parcellings([1] * 16)  # 15!! = 2,027,025
        monkeypatch.undo()
        # the cap itself is listed; the saturated counts are cached per cap
        monkeypatch.setattr(sylvester, "ENUMERATION_CAP", 105)
        sylvester._parcelling_count.cache_clear()
        try:
            assert len(enumerate_parcellings([1] * 8)) == 105
            with pytest.raises(EnumerationLimit, match="more than 105 parcellings"):
                enumerate_parcellings([2, 1, 1, 1, 1, 1, 1, 1, 1])
        finally:
            sylvester._parcelling_count.cache_clear()

    def test_repeated_calls_share_parcellings_not_lists(self):
        # the same multiplicities, as a list, a tuple or numpy integers,
        # give equal parcellings, shared; each call returns its own list
        a = enumerate_parcellings([2, 1, 1, 2])
        b = enumerate_parcellings((2, 1, 1, 2))
        c = enumerate_parcellings(np.array([2, 1, 1, 2]))
        assert a == b == c and a is not b
        assert all(x is y for x, y in zip(a, c))
        a.clear()
        assert enumerate_parcellings([2, 1, 1, 2]) == b
        with pytest.raises(OddTotal):
            enumerate_parcellings([2, 1, 1, 1])
        with pytest.raises(ValueError):
            enumerate_parcellings([2, -1, 1])

    def test_large_listings_not_cached(self):
        # a generic degree 7's 135,135 parcellings stayed in the cache,
        # 43.7 MB after the caller let them go; above PARCELLING_CACHE_MAX,
        # a generic degree 6's count, a listing is built anew and not kept
        assert sylvester.PARCELLING_CACHE_MAX == count_parcellings(6)
        sylvester._parcellings.cache_clear()
        assert len(enumerate_parcellings([1] * 14)) == count_parcellings(7)
        assert sylvester._parcellings.cache_info().currsize == 0
        for d in (4, 6):
            a, b = enumerate_parcellings([1] * (2 * d)), enumerate_parcellings([1] * (2 * d))
            assert len(a) == count_parcellings(d) and all(x is y for x, y in zip(a, b))
        assert sylvester._parcellings.cache_info().currsize == 2
        # the layout _factor_rows reads is kept with the listing, and only
        # with a kept listing
        big = sylvester._listing([1] * 14)
        assert big.cols.shape == (count_parcellings(7), 7) and not big.cols.flags.writeable
        assert sylvester._listing([1] * 12) is sylvester._listing([1] * 12)
        assert sylvester._parcellings.cache_info().currsize == 2

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
        # a complex Q * R, for which intersection_clusters returned 8
        # clusters of round-off
        qr = poly_mul(sphere.poly(), random_homog(2, np.random.default_rng(1)))
        for call in (intersection_clusters, in_discriminant, all_factorizations):
            with pytest.raises(DivisibleByQ):
                call(qr, sphere)

    @pytest.mark.parametrize("pieces", [((0, 0), (1, 2)), ((0, 5), (1, 2)),
                                        ((0, -1), (1, 2))])
    def test_parcelling_off_the_multiplicities_rejected(self, sphere, pieces):
        # x*y meets the sphere's cone in four simple points
        with pytest.raises(ValueError, match="does not match the root multiplicities"):
            factor_on_quadric(poly_mul(X, Y), sphere, GeneralizedParcelling(pieces))

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

    def test_nan_imaginary_part_is_not_real(self, sphere):
        # x^2 + 0.3xy + (1 + NaN i)y^2: a NaN imaginary part passed the
        # real-input test, so real_unique factoring raised DivisibleByQ
        # and full_decompose returned a sequence
        p = hp(2, {(2, 0, 0): 1, (1, 1, 0): 0.3, (0, 2, 0): complex(1, math.nan)})
        with pytest.raises(NotReal):
            factor(p, sphere, "real_unique")
        with pytest.raises(StrategyMismatch):
            full_decompose(p, sphere, "real_unique")

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


def _near_multiple(Q, d, size, rng):
    """Q * R + E for a random R of degree d - 2 and an E orthogonal to the
    multiples of Q with ||E|| = size * ||Q * R||: the least-squares
    division of this input by Q leaves the residual E."""
    QR = poly_mul(Q.poly(), random_homog(d - 2, rng))
    e = random_homog(d, rng)
    E = e - poly_mul(Q.poly(), algebra.divide_by_quadric(e, Q, tol_div=1.0))
    return QR + E * (size * QR.norm() / E.norm())


def _rel(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def _engine_inputs(rng):
    yield random_homog(3, rng)
    yield random_homog(4, rng)
    # a double cone point (a squared line)
    yield poly_mul(poly_mul(X + 2 * Y, X + 2 * Y), Z - 0.5 * X + 0.3j * Y)


class TestEnumerationEngine:
    """all_factorizations shares lines and the division operator across
    parcellings and factors them as one stack of rows; none of that may
    change a result."""

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
            want = {par: ctx._factor_rows([par])[0] for par in pars}
            shuffled = _FactorContext(p, Q)
            for k in rng.permutation(len(pars)):
                got = shuffled._factor_rows([pars[k]])[0]
                ref = want[pars[k]]
                assert got.lam == ref.lam
                assert np.array_equal(got.remainder.coeffs, ref.remainder.coeffs)
                assert all(np.array_equal(a.coeffs, b.coeffs)
                           for a, b in zip(got.lines, ref.lines))

    def test_one_line_per_pair(self, hyperboloid, monkeypatch):
        # the rows of every stacked call: 28 distinct pairs, each built once
        rows = []
        original = sylvester.line_through

        def counted(pa, pb, Q):
            rows.extend(frozenset((a.tobytes(), b.tobytes()))
                        for a, b in zip(pa.coords, pb.coords))
            return original(pa, pb, Q)

        monkeypatch.setattr(sylvester, "line_through", counted)
        p = random_homog(4, np.random.default_rng(42))
        facts = all_factorizations(p, hyperboloid)
        pieces = {piece for f in facts for piece in f.parcelling.pieces}
        assert len(facts) == 105
        assert len(rows) == len(set(rows)) == len(pieces) == 28

    def test_one_call_per_context(self, sphere, monkeypatch):
        # a _factor_rows call builds its lines with one stacked call: 28 rows
        # for the 105 parcellings of a generic quartic, 4 for its canonical
        # parcelling, and 28 again, with the same lambdas, when one context
        # factors the 105 parcellings a second time
        calls = []
        original = sylvester.line_through

        def counted(pa, pb, Q):
            calls.append(len(pa.coords))
            return original(pa, pb, Q)

        monkeypatch.setattr(sylvester, "line_through", counted)
        P = random_homog(4, np.random.default_rng(63))
        assert len(all_factorizations(P, sphere)) == 105
        assert calls == [28]
        calls.clear()
        factor(P, sphere)
        assert calls == [4]
        calls.clear()
        ctx = _FactorContext(P, sphere)
        pars = enumerate_parcellings(ctx.multiplicities)
        first = ctx._factor_rows(pars)
        again = ctx._factor_rows(pars)
        assert calls == [28, 28]
        assert [np.complex128(f.lam).tobytes() for f in again] \
            == [np.complex128(f.lam).tobytes() for f in first]

    def test_no_product_per_parcelling(self, sphere, monkeypatch):
        # a generic quartic's 105 parcellings are one stack of rows: their
        # line products and the product by Q in the division of the stack
        # are row-wise (3 and 1 calls), and no parcelling calls poly_mul.
        # The restriction shows the quartic is not a multiple of Q, so no
        # divisibility division multiplies by Q; a quartic within 5 * tol_div
        # of a multiple of Q still has that division, and its product by Q
        counts = {}

        def counted(module, name):
            original = getattr(module, name)
            counts[module.__name__, name] = 0

            def wrapper(*args, **kwargs):
                counts[module.__name__, name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module in (sylvester, algebra):
            for name in ("poly_mul", "poly_mul_rows"):
                counted(module, name)
        P = random_homog(4, np.random.default_rng(46))
        assert len(all_factorizations(P, sphere)) == 105
        assert counts == {("quadpole.sylvester", "poly_mul"): 0,
                          ("quadpole.sylvester", "poly_mul_rows"): 3,
                          ("quadpole.algebra", "poly_mul"): 0,
                          ("quadpole.algebra", "poly_mul_rows"): 1}
        near = _near_multiple(sphere, 4, 5 * TOL_DIV, np.random.default_rng(46))
        counts.update(dict.fromkeys(counts, 0))
        assert len(all_factorizations(near, sphere)) == 105
        assert counts == {("quadpole.sylvester", "poly_mul"): 0,
                          ("quadpole.sylvester", "poly_mul_rows"): 3,
                          ("quadpole.algebra", "poly_mul"): 0,
                          ("quadpole.algebra", "poly_mul_rows"): 2}

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

    def test_one_stack_division_per_context(self, sphere, monkeypatch):
        # one division of the stack of all the parcellings' defects of a
        # generic quartic, 7!! = 105 rows, and no divisibility division:
        # the restriction shows the quartic is not a multiple of Q.  A
        # quartic within 5 * tol_div of a multiple of Q has a restriction
        # too small to show it, so the division decides first
        calls = []
        for name in ("divide_by_quadric", "divide_rows_by_quadric"):
            original = getattr(sylvester, name)

            def counted(p, *args, _name=name, _original=original, **kwargs):
                rows = 1 if _name == "divide_by_quadric" else p.shape[0]
                degree = p.degree if _name == "divide_by_quadric" else args[0]
                calls.append((_name, rows, degree))
                return _original(p, *args, **kwargs)

            monkeypatch.setattr(sylvester, name, counted)
        P = random_homog(4, np.random.default_rng(46))
        facts = all_factorizations(P, sphere)
        assert len(facts) == count_parcellings(4) == 105
        assert calls == [("divide_rows_by_quadric", 105, 4)]
        calls.clear()
        near = _near_multiple(sphere, 4, 5 * TOL_DIV, np.random.default_rng(46))
        assert len(all_factorizations(near, sphere)) == 105
        assert calls == [("divide_by_quadric", 1, 4),
                         ("divide_rows_by_quadric", 105, 4)]

    def test_small_multiple_of_q_divided(self, sphere):
        # P = lam * prod(L) + Q * R with ||Q * R|| = 1e-7 ||P||: under
        # tol_div = 1e-6, as multipole_series passes for small bands, that
        # defect is still divided, not taken for R = 0 and then refused at
        # TOL_FACT
        rng = np.random.default_rng(47)
        base = all_factorizations(random_homog(4, rng), sphere)[0].product()
        QS = poly_mul(sphere.poly(), random_homog(2, rng))
        P = base + HomogPoly(4, 1e-7 * base.norm() / QS.norm() * QS.coeffs)
        facts = _FactorContext(P, sphere, tol_div=1e-6).rows("enumerate")
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
        # the first line a context builds, row 0 of its first stacked call
        rng = np.random.default_rng(45)
        original = sylvester.line_through
        first = []

        def perturbed(pa, pb, Q):
            lines = original(pa, pb, Q)
            if not first:
                first.append(True)
                e = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                lines[0] = lines[0] + size * np.linalg.norm(lines[0]) * e / np.linalg.norm(e)
            return lines

        monkeypatch.setattr(sylvester, "line_through", perturbed)
        for Q in (sphere, hyperboloid, dense_complex):
            for p in _engine_inputs(rng):
                pars = enumerate_parcellings(
                    [c.multiplicity for c in intersection_clusters(p, Q)])
                for k in rng.choice(len(pars), size=4, replace=False):
                    first.clear()
                    with pytest.raises(SolveFailure):
                        _FactorContext(p, Q, tol_div=tol_div)._factor_rows([pars[k]])


def _late_piece(ctx):
    """The piece whose first parcelling comes last in enumeration order,
    with that parcelling's index."""
    first = {}
    for k, par in enumerate(enumerate_parcellings(ctx.multiplicities)):
        for piece in par.pieces:
            first.setdefault(piece, k)
    piece = max(first, key=first.get)
    return piece, first[piece]


def _real_secants(rng, Q, d):
    """prod of d real secants through 2d real conic points of the hyperboloid."""
    t = np.sort(rng.uniform(0, 2 * np.pi, size=2 * d))
    pts = [np.array([np.cos(a), np.sin(a), 1.0]) for a in t]
    p = HomogPoly(0, [1.0])
    for k in range(d):
        p = poly_mul(p, HomogPoly(1, np.cross(pts[2 * k], pts[2 * k + 1])))
    return p


class TestBatchedGates:
    """A line perturbed by 1e-7 in a late row of the stack is refused, not
    only one in the first row; so is a real row's perturbed remainder."""

    def _perturb_late_line(self, monkeypatch, P, Q, rng):
        ctx = _FactorContext(P, Q)
        (i, j), row = _late_piece(ctx)
        assert row >= len(enumerate_parcellings(ctx.multiplicities)) // 2
        target = {ctx.points[i].coords.tobytes(), ctx.points[j].coords.tobytes()}
        original = sylvester.line_through
        hits = []

        def perturbed(pa, pb, Q):
            lines = original(pa, pb, Q)
            for k, (a, b) in enumerate(zip(pa.coords, pb.coords)):
                if {a.tobytes(), b.tobytes()} == target:
                    hits.append(True)
                    e = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                    lines[k] = lines[k] + 1e-7 * np.linalg.norm(lines[k]) * e / np.linalg.norm(e)
            return lines

        monkeypatch.setattr(sylvester, "line_through", perturbed)
        return hits

    def test_all_factorizations(self, sphere, hyperboloid, dense_complex,
                                monkeypatch):
        rng = np.random.default_rng(52)
        for Q in (sphere, hyperboloid, dense_complex):
            P = random_homog(4, rng)
            hits = self._perturb_late_line(monkeypatch, P, Q, rng)
            with pytest.raises(SolveFailure):
                all_factorizations(P, Q)
            assert hits == [True]
            monkeypatch.undo()

    def test_full_decompose_enumerate(self, sphere, dense_complex, monkeypatch):
        from quadpole import full_decompose
        rng = np.random.default_rng(53)
        for Q in (sphere, dense_complex):
            P = random_homog(4, rng)
            hits = self._perturb_late_line(monkeypatch, P, Q, rng)
            with pytest.raises(SolveFailure):
                full_decompose(P, Q, strategy="enumerate")
            assert hits == [True]
            monkeypatch.undo()

    def _perturb_remainder(self, monkeypatch, late, delta):
        # delta(R) added to row late's remainder R at the real-parts step,
        # after the complex checks; a perturbed line of the table would
        # reach every row that shares it
        original = _FactorContext._real_parts

        def perturbed(self, lams, w, cols, rem):
            rem = rem.copy()
            rem[late] = rem[late] + delta(rem[late])
            return original(self, lams, w, cols, rem)

        monkeypatch.setattr(_FactorContext, "_real_parts", perturbed)

    @pytest.mark.parametrize("late", [1, 52, 104])
    def test_real_factorizations(self, hyperboloid, monkeypatch, late):
        # a real perturbation of one row's remainder: the drift gate cannot
        # see it, so the real-part residual gate must refuse it
        rng = np.random.default_rng(54)
        P = _real_secants(rng, hyperboloid, 4)
        assert len(real_factorizations(P, hyperboloid)) == 105
        e = rng.standard_normal(grade_dim(2))
        self._perturb_remainder(monkeypatch, late,
                                lambda R: 1e-7 * P.norm() * e / np.linalg.norm(e))
        with pytest.raises(SolveFailure, match="real factorization residual"):
            real_factorizations(P, hyperboloid)

    @pytest.mark.parametrize("late", [1, 52, 104])
    def test_real_factorizations_drift(self, hyperboloid, monkeypatch, late):
        # an imaginary perturbation of one row's remainder, ten times
        # TOL_DRIFT relative to max(||R||, 1): the drift gate must refuse it
        P = _real_secants(np.random.default_rng(54), hyperboloid, 4)
        self._perturb_remainder(monkeypatch, late, lambda R: 10j * sylvester.TOL_DRIFT
                                * max(np.linalg.norm(R), 1.0))
        with pytest.raises(ConjugationPairingFailure, match="imaginary drift"):
            real_factorizations(P, hyperboloid)


class TestFirstFailingRow:
    """Rows that fail different checks: the error raised is the one the
    first failing parcelling raises alone."""

    def test_error_of_first_failing_row(self, sphere, monkeypatch):
        P = random_homog(4, np.random.default_rng(57))
        ctx = _FactorContext(P, sphere)
        pars = enumerate_parcellings(ctx.multiplicities)
        ctx._factor_rows(pars)  # every row passes before the patch
        row = _late_line_through_q(ctx, monkeypatch)
        wrong = GeneralizedParcelling(((0, 0), (1, 2), (3, 4), (5, 6)))
        with pytest.raises(NoEvaluationPoint):
            ctx._factor_rows(pars)
        # wrong misses the multiplicities, so its defect is not a multiple of Q
        with pytest.raises(SolveFailure, match="not a multiple of Q"):
            ctx._factor_rows(pars[:row] + [wrong] + pars[row:])
        with pytest.raises(NoEvaluationPoint):
            ctx._factor_rows(pars[:row + 1] + [wrong])

    def test_listing_rows_fail_as_a_list_of_rows(self, sphere, monkeypatch):
        # the rows of a cached listing fail as the same parcellings given as
        # a list: a point off the conic is named by line_through in the
        # order of first use of the pieces (pa[0], pb[0], pa[1], ...), and
        # a late row on a line through q fails after the division
        P = random_homog(4, np.random.default_rng(58))
        ctx = _FactorContext(P, sphere)
        pars = enumerate_parcellings(ctx.multiplicities)
        first_use = [i for piece in dict.fromkeys(itertools.chain.from_iterable(
            par.pieces for par in pars)) for i in piece]
        coords = ctx.points.coords.copy()
        moved = [5, 2]
        for c in moved:
            coords[c] = coords[c] * np.array([1.0, 1.0, 1.5])
        named = ProjPoint2._of(coords[min(moved, key=first_use.index)])
        off = copy.copy(ctx)
        off.points = ProjPoint2._of(coords)
        message = re.escape("point %r is off the conic" % named)
        for call in (lambda: off.rows("enumerate"), lambda: off._factor_rows(pars),
                     lambda: off._factor_rows(sylvester._listing(off.multiplicities))):
            with pytest.raises(NotOnConic, match=message):
                call()
        _late_line_through_q(ctx, monkeypatch)
        for call in (lambda: ctx.rows("enumerate"), lambda: ctx._factor_rows(pars),
                     lambda: all_factorizations(P, sphere)):
            with pytest.raises(NoEvaluationPoint, match="evaluation point lies on a factor line"):
                call()

    def test_enumerate_expands_no_row_of_a_failing_level(self, sphere, monkeypatch):
        # the late top-level row fails, so full_decompose raises its error
        # before any earlier row's remainder gets a context of its own
        P = random_homog(4, np.random.default_rng(57))
        assert _late_line_through_q(_FactorContext(P, sphere), monkeypatch) > 0
        built = []

        def counted(h, *args, **kwargs):
            built.append(h.degree)
            return _FactorContext(h, *args, **kwargs)

        monkeypatch.setattr(deconstruct, "_FactorContext", counted)
        with pytest.raises(NoEvaluationPoint):
            full_decompose(P, sphere, strategy="enumerate")
        assert built == [4]


def _late_line_through_q(ctx, monkeypatch):
    """Make line_through give, for the piece of ctx first used latest, a
    line through the evaluation point q; returns that piece's first row.

    q's pivot coordinate p is exactly 1 and |q_j| < 1, so the line with 1
    at j and -q_j at p is its own normalization and is exactly 0 at q.
    """
    piece, row = _late_piece(ctx)
    q = ctx.param.point(_evaluation_point(ctx)).coords
    p = int(np.flatnonzero(q == 1.0)[0])
    j = min((k for k in range(3) if k != p), key=lambda k: abs(q[k]))
    assert abs(q[j]) < 1.0
    through_q = np.zeros(3, dtype=complex)
    through_q[j], through_q[p] = 1.0, -q[j]
    ends = [ctx.points.coords[i].tobytes() for i in piece]
    original = sylvester.line_through

    def late_line_through_q(pa, pb, Q):
        w = original(pa, pb, Q)
        for k, (a, b) in enumerate(zip(pa.coords, pb.coords)):
            if [a.tobytes(), b.tobytes()] == ends:
                w[k] = through_q
        return w

    monkeypatch.setattr(sylvester, "line_through", late_line_through_q)
    return row


def _from_parts_reference(lam, line_polys):
    """Multipole.from_parts one line at a time, as a test-local copy."""

    def line_key(coeffs):
        parts = [float(v) for c in coeffs for v in (c.real, c.imag)]
        return tuple(round(v, 9) for v in parts) + tuple(parts)

    scale = complex(lam)
    vecs = []
    for L in line_polys:
        w = np.asarray(L.coeffs, dtype=complex)
        j = int(np.argmax(np.abs(w)))
        scale *= w[j]
        v = w / w[j]
        v[j] = 1.0
        vecs.append(tuple(complex(x) for x in v))
    vecs.sort(key=line_key)
    return Multipole(scale, tuple(vecs))


def _bits(mp):
    return (type(mp.scale), np.complex128(mp.scale).tobytes(),
            np.array(mp.lines, dtype=complex).tobytes())


class TestMultipoleFromParts:
    """from_parts normalizes all lines as one array, with the bits of the
    line-by-line normalization."""

    def test_random_lines(self):
        rng = np.random.default_rng(55)
        for d in range(7):
            for _ in range(20):
                lam = complex(*rng.standard_normal(2))
                lines = [HomogPoly(1, rng.standard_normal(3) + 1j * rng.standard_normal(3))
                         for _ in range(d)]
                assert _bits(Multipole.from_parts(lam, lines)) \
                    == _bits(_from_parts_reference(lam, lines))

    def test_conjugate_ties(self):
        # conjugate pairs share their rounded real parts, and coefficients
        # of equal modulus tie for the pivot
        rng = np.random.default_rng(56)
        for _ in range(50):
            lines = []
            for _ in range(3):
                w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                lines += [HomogPoly(1, w), HomogPoly(1, w.conj())]
            lines.append(HomogPoly(1, [1.0, 1j, rng.standard_normal()]))
            lines.append(HomogPoly(1, [-1j, 1.0, 0.5]))
            order = rng.permutation(len(lines))
            lines = [lines[k] for k in order]
            assert _bits(Multipole.from_parts(2.5, lines)) \
                == _bits(_from_parts_reference(2.5, lines))


def _doubled_divisor():
    """(x + 2y)^2 (z - x/2): two conic points of multiplicity 2, so some
    parcellings double a point (pieces (i, i), the tangent lines)."""
    return poly_mul(poly_mul(X + 2 * Y, X + 2 * Y), Z - 0.5 * X)


def _reference_chain(h, Q):
    """Every (lam, terms) decomposition of h by enumeration, with each
    level's multipoles from _from_parts_reference of its rows' lambda and
    lines: a test-local copy of deconstruct's recursion."""
    cur, ctx = deconstruct._strip_q_powers(h, Q, sylvester.EPS_CLUSTER)
    if ctx is None:
        if cur.degree == 1 and not cur.is_zero():
            return [(0j, {1: _from_parts_reference(1.0, [cur])})]
        return [(complex(cur.coeffs[0]) if cur.degree == 0 else 0j, {})]
    out = []
    for f in ctx._factor_rows(enumerate_parcellings(ctx.multiplicities)):
        mp = _from_parts_reference(f.lam, f.lines)
        out.extend((lam, {mp.degree: mp, **terms})
                   for lam, terms in _reference_chain(f.remainder, Q))
    return out


class TestMultipoleTable:
    """The multipoles a line table gives, each distinct line normalized and
    keyed once, have the bits of the line-by-line normalization of each
    row's lambda and lines."""

    def _check(self, facts, carried):
        assert facts
        for f in facts:
            assert (f._multipole is not None) == carried
            assert _bits(f.multipole()) == _bits(_from_parts_reference(f.lam, f.lines))

    def test_rows_of_every_entry(self, sphere, hyperboloid, dense_complex):
        rng = np.random.default_rng(90)
        for Q in (sphere, hyperboloid, dense_complex):
            for P in [random_homog(d, rng) for d in (1, 2, 3, 4)] + [_doubled_divisor()]:
                self._check(_FactorContext(P, Q).rows("enumerate"), True)
                self._check(all_factorizations(P, Q), False)
                self._check([factor(P, Q)], True)
        facts = _FactorContext(_doubled_divisor(), sphere).rows("enumerate")
        assert any(i == j for f in facts for i, j in f.parcelling.pieces)
        # a factorization built by hand carries none, and gets from_parts'
        hand = [MultipoleFactorization(f.lam, f.lines, f.remainder, f.parcelling) for f in facts]
        self._check(hand, False)
        assert [_bits(f.multipole()) for f in hand] == [_bits(f.multipole()) for f in facts]

    def test_real_rows(self, sphere, hyperboloid):
        rng = np.random.default_rng(91)
        for d in (1, 2, 3, 4):
            P = random_homog(d, rng, real=True)
            self._check([factor(P, sphere, "real_unique")], True)
            self._check(real_factorizations(P, sphere), False)
            self._check(real_factorizations(P, hyperboloid), False)
            self._check(real_factorizations(_real_secants(rng, hyperboloid, d), hyperboloid),
                        False)
            self._check(_FactorContext(P, sphere).rows("real_unique"), True)

    def test_full_decompose_enumerate(self, sphere, hyperboloid, dense_complex):
        # inhomogeneous inputs of degree 1 to 4: the linear levels come as
        # one stack per level of remainders, or alone for a linear part
        from quadpole.algebra import grade_split, homogenize_on_quadric
        rng = np.random.default_rng(92)
        for Q in (sphere, hyperboloid, dense_complex):
            for d in (1, 2, 3, 4):
                P = random_poly(d, rng)
                chains = [_reference_chain(homogenize_on_quadric(g, Q), Q)
                          if not g.is_zero() else [(0j, {})] for g in grade_split(P)]
                want = [(lam_e + lam_o, {**terms_e, **terms_o})
                        for lam_e, terms_e in chains[0] for lam_o, terms_o in chains[1]]
                got = full_decompose(P, Q, strategy="enumerate")
                assert len(got) == len(want)
                for seq, (lam, terms) in zip(got, want):
                    assert seq.lam == lam and sorted(seq.terms) == sorted(terms)
                    assert all(_bits(seq.terms[k]) == _bits(terms[k]) for k in terms)
            P = _doubled_divisor()
            got = full_decompose(P, Q, strategy="enumerate")
            want = _reference_chain(P, Q)
            assert [{k: _bits(m) for k, m in seq.terms.items()} for seq in got] \
                == [{k: _bits(m) for k, m in terms.items()} for _, terms in want]


class TestLineProducts:
    """MultipoleFactorization.product and Multipole.product_poly against
    lam * prod(L(x)), evaluated point by point."""

    def test_pointwise(self, sphere, dense_complex):
        rng = np.random.default_rng(64)
        pts = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
        for Q in (sphere, dense_complex):
            for d in range(1, 7):
                f = factor(random_homog(d, rng), Q)
                mp = f.multipole()
                for got, lam, lines in ((f.product(), f.lam, [L.coeffs for L in f.lines]),
                                        (mp.product_poly(), mp.scale, mp.lines)):
                    # a line's value at x is its coefficients dotted with x
                    want = lam * np.prod(pts @ np.array(lines).T, axis=1)
                    assert got.degree == d
                    assert _rel(got.eval_many(pts), want) <= 1e-12


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

    def test_same_parcellings_as_the_piecewise_filter(self, hyperboloid):
        # stability is decided once per distinct piece of the listing; the
        # rows are those of the filter that tested every piece of every
        # parcelling, a test-local copy, in the same order
        def stable_reference(P, Q):
            ctx = _FactorContext(P, Q)
            sigma = ctx.conjugation(require_free=False)
            return [par for par in enumerate_parcellings(ctx.multiplicities)
                    if all(tuple(sorted((sigma[i], sigma[j]))) == (i, j)
                           for i, j in par.pieces)]

        rng = np.random.default_rng(93)
        counts = []
        for d in (2, 3, 4):
            for P in [_real_secants(rng, hyperboloid, d)] \
                    + [random_homog(d, rng, real=True) for _ in range(3)]:
                want = stable_reference(P, hyperboloid)
                assert [f.parcelling for f in real_factorizations(P, hyperboloid)] == want
                counts.append(len(want))
        # all-real points list every parcelling, others fewer
        assert max(counts) == count_parcellings(4) and min(counts) < count_parcellings(2)

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
            assert _outcome(lambda: got.rows(strategy)[0]) \
                == _outcome(lambda: want.rows(strategy)[0])

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

    def test_roots_found_once(self, sphere, monkeypatch):
        # the context keeps the raw roots it clusters, so a band factored
        # again at new scales runs np.roots once
        from quadpole import conic
        calls = []
        original = conic._raw_roots

        def counted(b):
            calls.append(b)
            return original(b)

        monkeypatch.setattr(conic, "_raw_roots", counted)
        monkeypatch.setattr(sylvester, "_raw_roots", counted)
        base = _FactorContext(random_homog(4, np.random.default_rng(52)), sphere)
        for eps in (1e-5, 1e-4, 1e-3, 1e-2, 0.1):
            base.at_scale(eps)
        assert len(calls) == 1


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

    def test_constant_false(self, sphere):
        # a nonzero constant meets the conic nowhere; the resultant, built
        # for every input, raised ZeroForm here
        assert not in_discriminant(HomogPoly(0, [2.0]), sphere)

    def test_random_generic_false(self, sphere):
        rng = np.random.default_rng(26)
        for d in (2, 3, 4):
            for _ in range(5):
                p = random_homog(d, rng)
                assert not in_discriminant(p, sphere)


class TestTolDivRefused:
    """The division takes any finite positive tol_div, and refuses the rest:
    with NaN or inf every divisibility test would pass."""

    def test_division_rule(self, sphere):
        # the division alone takes any finite positive bound, 1 included:
        # tol_div = 1 gives the least-squares quotient of any input
        xyz = HomogPoly(3, np.arange(1.0, 11.0))
        assert algebra.divide_by_quadric(xyz, sphere, tol_div=1.0).degree == 1
        for tol_div in (float("nan"), float("inf"), -float("inf"), 0.0, -1.0):
            with pytest.raises(ValueError, match="tol_div must be finite and positive"):
                algebra.divide_by_quadric(xyz, sphere, tol_div=tol_div)


class TestEpsClusterRefused:
    """An eps_cluster that is NaN, infinite or negative raises ValueError:
    a NaN scale merged no roots, so x^2 was outside the discriminant and
    factor found no evaluation point, and a negative one fell to
    in_discriminant's floor of 1e-5 unseen.  A zero scale merges equal
    roots only, and stays accepted."""

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-6])
    def test_every_entry_point(self, sphere, eps):
        xx = poly_mul(X, X)
        for call in (full_decompose, factor, all_factorizations, in_discriminant,
                     intersection_clusters):
            with pytest.raises(ValueError, match="eps_cluster must be finite and non-negative"):
                call(xx, sphere, eps_cluster=eps)
        # a linear surface input is not clustered, and still refused
        with pytest.raises(ValueError, match="eps_cluster must be finite and non-negative"):
            full_decompose(X, sphere, eps_cluster=eps)

    def test_zero_accepted(self, sphere):
        xx = poly_mul(X, X)
        assert in_discriminant(xx, sphere, eps_cluster=0.0)
        assert not in_discriminant(poly_mul(X, Y), sphere, eps_cluster=0.0)
        assert len(full_decompose(poly_mul(X, Y), sphere, eps_cluster=0.0).terms) == 1

    def test_zero_pairs_conjugates(self, sphere):
        # conjugate cluster points differ by round-off, so pairing them within
        # 10 * eps_cluster = 0 raised ConjugationPairingFailure for generic
        # real inputs; at 0 they now factor with the bits of the default scale
        rng = np.random.default_rng(76)
        for Q in (sphere, QuadForm(np.diag([1.0, 2.0, 0.5]))):
            for d in range(2, 7):
                P = random_homog(d, rng, real=True)
                f0, f6 = (factor(P, Q, "real_unique", eps_cluster=eps) for eps in (0.0, 1e-6))
                assert np.complex128(f0.lam).tobytes() == np.complex128(f6.lam).tobytes()
                assert [L.coeffs.tobytes() for L in f0.lines] \
                    == [L.coeffs.tobytes() for L in f6.lines]
                assert f0.remainder.coeffs.tobytes() == f6.remainder.coeffs.tobytes()
                P = random_poly(d, rng, real=True)
                s0, s6 = (repr(full_decompose(P, Q, strategy="real_unique", eps_cluster=eps))
                          for eps in (0.0, 1e-6))
                assert s0 == s6


def _decision(P, Q, tol_div, b=None):
    """What _reject_multiple_of_q decides: the quotient's bits, or None."""
    try:
        sylvester._reject_multiple_of_q(P, Q, tol_div, b)
    except DivisibleByQ as exc:
        return exc.quotient.coeffs.tobytes()
    return None


class TestDivisibilityFromRestriction:
    """Given P's restriction b, _reject_multiple_of_q skips the division
    only where b shows that P is not a multiple of Q, so it decides as the
    division does.  Inputs Q * R + E put the division's residual ||E|| at
    chosen multiples s of its bound tol_div * ||P||."""

    TOLS = (1e-6, 1e-9, 1e-12, 1e-15)
    SIZES = (0.0, 0.1, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 5.0, 9.0, 10.0, 11.0,
             20.0, 100.0, 1e4)

    def test_sweep_across_the_bound(self, sphere, hyperboloid, dense_complex,
                                    monkeypatch):
        divisions = []
        original = sylvester.divide_by_quadric

        def counted(*args, **kwargs):
            divisions.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(sylvester, "divide_by_quadric", counted)
        rng = np.random.default_rng(70)
        skipped = 0
        for Q in (sphere, hyperboloid, dense_complex):
            for d in (2, 3, 4, 6):
                for tol in self.TOLS:
                    for s in self.SIZES:
                        P = _near_multiple(Q, d, s * tol, rng)
                        b = restrict_to_conic(P, conic_param(Q))
                        want = _decision(P, Q, tol)
                        divisions.clear()
                        assert _decision(P, Q, tol, b) == want, (d, tol, s)
                        skipped += not divisions
                        if want is not None or tol < 1e-12:
                            assert divisions
        # the restriction decided for every large enough residual
        assert skipped >= 3 * 4 * 2 * 3

    def test_random_inputs(self, sphere, hyperboloid, dense_complex):
        rng = np.random.default_rng(71)
        for Q in (sphere, hyperboloid, dense_complex):
            for d in range(1, 9):
                for real in (False, True):
                    P = random_homog(d, rng, real=real)
                    b = restrict_to_conic(P, conic_param(Q))
                    for tol in self.TOLS + (1.0,):
                        assert _decision(P, Q, tol, b) == _decision(P, Q, tol)

    def test_singular_form_refused_at_construction(self):
        # no singular form reaches the divisibility test: QuadForm refuses it,
        # whether B is singular or only within TOL_DET of it
        from quadpole import Degenerate
        for diag in ([1.0, 1.0, 0.0], [1.0, 1.0, 1e-14]):
            with pytest.raises(Degenerate):
                QuadForm(np.diag(diag))

    def test_in_discriminant(self, sphere, dense_complex, monkeypatch):
        # against in_discriminant with every divisibility test divided: an
        # infinite restriction norm never lets the restriction decide
        divisions = []
        original = sylvester.divide_by_quadric

        def counted(*args, **kwargs):
            divisions.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(sylvester, "divide_by_quadric", counted)
        rng = np.random.default_rng(72)
        inputs = [(Q, _near_multiple(Q, d, s * tol, rng), tol)
                  for Q in (sphere, dense_complex) for d in (2, 3, 4)
                  for tol in self.TOLS for s in (0.0, 0.5, 2.0, 20.0, 1e4)]
        inputs += [(Q, poly_mul(X, X), TOL_DIV) for Q in (sphere, dense_complex)]
        restriction_of = sylvester._restriction_of

        def outcome(P, Q, tol):
            # in_discriminant with its divisibility test at tol, not TOL_DIV
            monkeypatch.setattr(sylvester, "_restriction_of",
                                lambda P, Q, _: restriction_of(P, Q, tol))
            return _outcome_of(lambda: in_discriminant(P, Q))

        got = [outcome(P, Q, tol) for Q, P, tol in inputs]
        divided = len(divisions)
        monkeypatch.setattr(sylvester, "_restriction_norm", lambda Q, d: np.inf)
        assert got == [outcome(P, Q, tol) for Q, P, tol in inputs]
        assert len(divisions) == divided + len(inputs)
        # the restriction decided for x * x and at least every s = 1e4 input
        # with tol_div >= 1e-12
        assert divided <= len(inputs) - 2 - 2 * 3 * 3
        assert sum(o[0] == "DivisibleByQ" for o in got) >= 2 * 3 * 4


def _outcome_of(fn):
    try:
        return "value", fn()
    except QuadpoleError as exc:
        return type(exc).__name__, str(exc)


def _evaluation_point(ctx):
    """The trial point a context's _evaluation_index picks."""
    return ProjPoint1._of(sylvester._TRIALS[ctx._evaluation_index()])


def _evaluation_point_reference(ctx):
    """_evaluation_point as a scalar loop, a test-local copy."""
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    max_c = float(np.max(np.abs(ctx.b.coeffs)))
    power = 1.0
    for _ in range(64):
        u = ProjPoint1([1.0, power])
        power *= float(golden)
        if any(chordal(u, c.point) <= 10 * ctx.eps_cluster for c in ctx.clusters):
            continue
        if abs(eval_point(ctx.b, u)) <= 1e-4 * max_c:
            continue
        return u
    raise NoEvaluationPoint("no conic evaluation point cleared the thresholds")


def _point_outcome(fn):
    try:
        return fn().coords.tobytes()
    except NoEvaluationPoint as exc:
        return str(exc)


def _stub_context(params, b, eps_cluster):
    """What _evaluation_index reads of a context: clusters at the given
    parameters, the restriction b and the scale."""
    ctx = _FactorContext.__new__(_FactorContext)
    ctx.clusters = [RootCluster(ProjPoint1(p), 1) for p in params]
    ctx.b = b
    ctx.eps_cluster = eps_cluster
    return ctx


class TestEvaluationPoint:
    """_evaluation_point against a test-local copy of the scalar loop."""

    def test_contexts(self, sphere, dense_complex):
        rng = np.random.default_rng(73)
        for Q in (sphere, dense_complex):
            for d in (1, 2, 4, 8):
                P = random_homog(d, rng)
                for eps in (1e-6, 1e-3, 1e-2, 0.05, 0.0999, 0.1):
                    ctx = _FactorContext(P, Q, eps_cluster=eps)
                    assert _point_outcome(lambda: _evaluation_point(ctx)) \
                        == _point_outcome(lambda: _evaluation_point_reference(ctx))

    def test_clearance_ties(self):
        # the clearance 10 * eps set to one of the distances, so the array
        # and the scalar distance may differ in their last bit right there
        rng = np.random.default_rng(74)
        trials = sylvester._TRIALS
        for _ in range(200):
            k = int(rng.integers(1, 6))
            params = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
            b = BinaryForm(4, rng.standard_normal(5) + 1j * rng.standard_normal(5))
            t, j = int(rng.integers(0, 3)), int(rng.integers(0, k))
            dist = chordal(ProjPoint1(trials[t]), ProjPoint1(params[j]))
            for eps in (dist / 10, np.nextafter(dist, 0) / 10, np.nextafter(dist, 2) / 10):
                ctx = _stub_context(params, b, eps)
                assert _point_outcome(lambda: _evaluation_point(ctx)) \
                    == _point_outcome(lambda: _evaluation_point_reference(ctx))

    def test_distance_exactly_one(self):
        # [-1 : 1/golden] lies at chordal distance exactly 1 from the second
        # trial point [1/golden : 1]: at eps_cluster = 0.1 the clearance is
        # 1, the tie rejects, and no trial point clears the cluster; just
        # below 0.1 that trial point is the first to clear it
        second = sylvester._TRIALS[1]
        far = [-1.0, second[0]]
        assert chordal(ProjPoint1._of(second), ProjPoint1(far)) == 1.0
        b = BinaryForm(2, [1.0, 0.5, 2.0])
        for params in ([far], [far, [3.0, 1j]]):
            ctx = _stub_context(params, b, 0.1)
            with pytest.raises(NoEvaluationPoint):
                _evaluation_point(ctx)
            with pytest.raises(NoEvaluationPoint):
                _evaluation_point_reference(ctx)
        ctx = _stub_context([far], b, np.nextafter(0.1, 0))
        assert 10 * ctx.eps_cluster < 1.0
        assert _evaluation_point(ctx).coords.tobytes() \
            == _evaluation_point_reference(ctx).coords.tobytes() == second.tobytes()

    def test_trial_points(self):
        power = 1.0
        for k in range(64):
            assert sylvester._TRIALS[k].tobytes() == ProjPoint1([1.0, power]).coords.tobytes()
            power *= sylvester._GOLDEN


class TestRowBits:
    """The rows' lambdas are Python complex products in piece order."""

    def test_lambda_bits(self, sphere, hyperboloid, dense_complex):
        import math
        rng = np.random.default_rng(75)
        for Q in (sphere, hyperboloid, dense_complex):
            for d in (1, 2, 3, 4):
                ctx = _FactorContext(random_homog(d, rng), Q)
                facts = ctx.rows("enumerate")
                # a test-local reference: the evaluation point q, P(q), and
                # each piece's line, built alone and scaled so its
                # max-modulus coefficient is 1, with its value at q
                q = ctx.param.point(_evaluation_point(ctx)).coords
                p_at_q = ctx.P(q)
                lines = {}
                for piece in {p for f in facts for p in f.parcelling.pieces}:
                    w = line_through(ctx.points[piece[0]], ctx.points[piece[1]], Q).coeffs
                    L = HomogPoly(1, w / w[np.argmax(np.abs(w))])
                    lines[piece] = (L, L(q))
                for f in facts:
                    denom = math.prod((lines[p][1] for p in f.parcelling.pieces),
                                      start=1.0 + 0.0j)
                    want = p_at_q / denom
                    assert type(f.lam) is complex
                    assert np.complex128(f.lam).tobytes() == np.complex128(want).tobytes()
                    assert [L.coeffs.tobytes() for L in f.lines] \
                        == [lines[p][0].coeffs.tobytes() for p in f.parcelling.pieces]

    def test_real_rows_are_real_parts(self, sphere, hyperboloid):
        # a real row has the bits of the real parts, stored as complex, of
        # factor_on_quadric's row of the same parcelling; its remainder
        # those of the complex row in a stack of the same rows, since a
        # remainder's last bits depend on how many rows share the division
        def real_parts(poly):
            return poly.coeffs.real.astype(complex).tobytes()

        def check(P, Q, rows, stacked):
            assert [row.parcelling for row in stacked] == [row.parcelling for row in rows]
            for row, same_stack in zip(rows, stacked):
                ref = factor_on_quadric(P, Q, row.parcelling)
                assert type(row.lam) is complex
                assert np.complex128(row.lam).tobytes() == np.complex128(ref.lam.real).tobytes()
                assert len(row.lines) == len(ref.lines)
                for got, want in zip(row.lines, ref.lines):
                    assert got.coeffs.tobytes() == real_parts(want)
                assert row.remainder.coeffs.tobytes() == real_parts(same_stack.remainder)

        rng = np.random.default_rng(78)
        for Q in (sphere, QuadForm(np.diag([1.0, 2.0, 0.5]))):
            for d in (1, 2, 3, 4):
                P = random_homog(d, rng, real=True)
                row = factor(P, Q, "real_unique")
                check(P, Q, [row], [factor_on_quadric(P, Q, row.parcelling)])
        # random inputs, with few real points, and products of real secants
        for P in [random_homog(d, rng, real=True) for d in (2, 3, 4)] \
                + [_real_secants(rng, hyperboloid, d) for d in (2, 3, 4)]:
            rows = real_factorizations(P, hyperboloid)
            check(P, hyperboloid, rows, _FactorContext(P, hyperboloid)._factor_rows(
                [row.parcelling for row in rows]))


class TestTrialTables:
    """The trial points' conic points and monomial rows, cached per form,
    against the per-point path they replace."""

    def test_points_and_values(self, sphere, hyperboloid, dense_complex):
        rng = np.random.default_rng(76)
        for Q in (sphere, hyperboloid, dense_complex):
            param = conic_param(Q)
            pts = sylvester._trial_conic_points(Q)
            assert pts.shape == (64, 3) and not pts.flags.writeable
            for k in range(64):
                want = param.point(ProjPoint1._of(sylvester._TRIALS[k])).coords
                assert pts[k].tobytes() == want.tobytes()
            for d in (1, 2, 5, 9):
                P = random_homog(d, rng)
                for k in range(64):
                    row = sylvester._trial_monomials(Q, d, k)
                    assert row.shape == (1, grade_dim(d)) and not row.flags.writeable
                    got = complex((row @ P.coeffs)[0])
                    assert np.complex128(got).tobytes() == np.complex128(P(pts[k])).tobytes()

    def test_tables_bounded(self):
        # a form of this test's own: factoring inputs on it adds the
        # trial-points entry and one row per trial index used, and no entry
        # that depends on the input; at eps_cluster = 0.04 the search often
        # passes the first trial points
        rng = np.random.default_rng(77)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Q, d = QuadForm(m + m.T), 4

        def entries():
            return {key for key in algebra._OPERATORS if key[1] == Q.key}

        def trial_entries(used):
            return {("_trial_conic_points", Q.key)} \
                | {("_trial_monomials", Q.key, d, k) for k in used}

        used = set()
        for batch in range(2):
            for _ in range(50):
                P = random_homog(d, rng)
                try:
                    factor(P, Q, eps_cluster=0.04)
                except QuadpoleError:
                    pass
                try:
                    used.add(_FactorContext(P, Q, eps_cluster=0.04)._evaluation_index())
                except NoEvaluationPoint:
                    pass
            if batch == 0:
                first = entries()
                assert {key for key in first if key[0].startswith("_trial")} \
                    == trial_entries(used)
        assert len(used) > 4
        assert entries() - first == trial_entries(used) - first
        assert all(isinstance(arg, int) for key in entries() for arg in key[2:])
