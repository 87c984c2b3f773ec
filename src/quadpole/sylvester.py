"""Factorization of polynomials on a quadric cone into products of lines.

A degree-d polynomial P that is not a multiple of Q meets the conic {Q = 0}
in a divisor of degree 2d.  Splitting that divisor into d pieces of weight 2
(a parcelling) selects d lines, secants for split pieces and tangents for
doubled points, and then P = lambda * prod(L) + Q * R holds with lambda fixed
by evaluation at any conic point away from the divisor and R unique for the
parcelling.  Real P with definite real Q admit exactly one parcelling that is
stable under conjugation, which yields the distinguished real factorization.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    HomogPoly,
    QuadForm,
    divide_by_quadric,
    double_factorial,
    poly_mul,
    TOL_DIV,
)
from .conic import (
    BinaryForm,
    ConicParam,
    EPS_CLUSTER,
    ProjPoint1,
    ProjPoint2,
    RootCluster,
    _clusters_of,
    _merge_groups,
    _raw_roots,
    binary_discriminant,
    chordal,
    conic_param,
    discriminant_scale,
    line_through,
    restrict_to_conic,
    roots_projective,
)
from .errors import (
    ConjugationPairingFailure,
    DivisibleByQ,
    NoEvaluationPoint,
    NotDefinite,
    NotDivisible,
    NotReal,
    OddTotal,
    SolveFailure,
)

TOL_FACT = 1e-8
TOL_DISC = 1e-9

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def count_parcellings(d: int) -> int:
    """Number of parcellings of 2d simple points into d pairs: (2d-1)!!."""
    if d < 0:
        raise ValueError("d must be non-negative")
    return double_factorial(2 * d - 1)


@dataclass(frozen=True)
class GeneralizedParcelling:
    """Multiset of weight-2 pieces over cluster indices; (i, i) doubles a point."""

    pieces: Tuple[Tuple[int, int], ...]

    @property
    def d(self) -> int:
        return len(self.pieces)

    def multiplicity_use(self, n_clusters: int) -> List[int]:
        use = [0] * n_clusters
        for i, j in self.pieces:
            use[i] += 1
            use[j] += 1
        return use


def enumerate_parcellings(multiplicities: Sequence[int]) -> List[GeneralizedParcelling]:
    """All splittings of the multiplicity vector into weight-2 pieces.

    Pieces are generated as a nondecreasing sequence of index pairs, so every
    multiset appears exactly once.  Raises OddTotal when the multiplicities
    sum to an odd number.
    """
    mults = [int(m) for m in multiplicities]
    if any(m < 0 for m in mults):
        raise ValueError("multiplicities must be non-negative")
    if sum(mults) % 2:
        raise OddTotal("multiplicities sum to %d" % sum(mults))
    out: List[GeneralizedParcelling] = []
    pieces: List[Tuple[int, int]] = []

    def rec(min_piece: Tuple[int, int]) -> None:
        i = next((a for a, m in enumerate(mults) if m > 0), None)
        if i is None:
            out.append(GeneralizedParcelling(tuple(pieces)))
            return
        cands: List[Tuple[int, int]] = []
        if mults[i] >= 2:
            cands.append((i, i))
        for j in range(i + 1, len(mults)):
            if mults[j] > 0:
                cands.append((i, j))
        for piece in cands:
            if piece < min_piece:
                continue
            mults[piece[0]] -= 1
            mults[piece[1]] -= 1
            pieces.append(piece)
            rec(piece)
            pieces.pop()
            mults[piece[0]] += 1
            mults[piece[1]] += 1

    rec((-1, -1))
    return out


def canonical_parcelling(multiplicities: Sequence[int]) -> GeneralizedParcelling:
    """Greedy pairing: repeatedly join the first two clusters with remaining weight.

    For simple roots this is the base pairing {{1,2},{3,4},...}; a cluster
    doubles with itself only when it is the last one left.
    """
    rem = [int(m) for m in multiplicities]
    if sum(rem) % 2:
        raise OddTotal("multiplicities sum to %d" % sum(rem))
    pieces: List[Tuple[int, int]] = []
    while True:
        live = [i for i, m in enumerate(rem) if m > 0]
        if not live:
            break
        if len(live) == 1:
            pieces.append((live[0], live[0]))
            rem[live[0]] -= 2
        else:
            i, j = live[0], live[1]
            pieces.append((i, j))
            rem[i] -= 1
            rem[j] -= 1
    return GeneralizedParcelling(tuple(sorted(pieces)))


def _line_key(coeffs) -> Tuple[float, ...]:
    """Sort key of a normalized line: its coefficients rounded, then exact.

    Conjugate lines of a real input have equal real parts in exact
    arithmetic; compared exactly, round-off would decide their order.
    """
    parts = [float(v) for c in coeffs for v in (c.real, c.imag)]
    return tuple(round(v, 9) for v in parts) + tuple(parts)


@dataclass(frozen=True)
class Multipole:
    """Scale and normalized, canonically ordered line coefficients.

    Two factorizations whose lines agree up to order and scaling produce the
    same Multipole: each line is scaled so its max-modulus coefficient is 1,
    the freed scalars are absorbed into the scale, and lines are sorted.
    """

    scale: complex
    lines: Tuple[Tuple[complex, complex, complex], ...]

    @classmethod
    def from_parts(cls, lam: complex, line_polys: Sequence[HomogPoly]) -> "Multipole":
        scale = complex(lam)
        vecs = []
        for L in line_polys:
            w = np.asarray(L.coeffs, dtype=complex)
            j = int(np.argmax(np.abs(w)))
            scale *= w[j]
            v = w / w[j]
            v[j] = 1.0
            vecs.append(tuple(complex(x) for x in v))
        vecs.sort(key=_line_key)
        return cls(scale, tuple(vecs))

    @property
    def degree(self) -> int:
        return len(self.lines)

    def product_poly(self) -> HomogPoly:
        out = HomogPoly(0, [self.scale])
        for w in self.lines:
            out = poly_mul(out, HomogPoly(1, w))
        return out

    def isclose(self, other: "Multipole", tol: float = 1e-8) -> bool:
        if self.degree != other.degree:
            return False
        if abs(self.scale - other.scale) > tol * (1.0 + abs(self.scale)):
            return False
        for a, b in zip(self.lines, other.lines):
            if max(abs(x - y) for x, y in zip(a, b)) > tol:
                return False
        return True


def _scaled(lam: complex, p: HomogPoly) -> HomogPoly:
    return HomogPoly(p.degree, lam * p.coeffs)


@dataclass
class MultipoleFactorization:
    """One parcelling's factorization P = lambda * prod(lines) + Q * remainder."""

    lam: complex
    lines: List[HomogPoly]
    remainder: HomogPoly
    parcelling: GeneralizedParcelling
    ill_conditioned: bool = False

    @property
    def degree(self) -> int:
        return len(self.lines)

    def product(self) -> HomogPoly:
        if not self.lines:
            return HomogPoly(0, [self.lam])
        return _scaled(self.lam, functools.reduce(poly_mul, self.lines))

    def reconstruct(self, Q: QuadForm) -> HomogPoly:
        """lam * prod(lines) + Q * remainder; a zero remainder adds nothing."""
        if self.remainder.is_zero():
            return self.product()
        return self.product() + poly_mul(Q.poly(), self.remainder)

    def multipole(self) -> Multipole:
        return Multipole.from_parts(self.lam, self.lines)

    def is_real(self, tol: float = 1e-9) -> bool:
        vals = [abs(self.lam.imag)]
        vals.extend(float(np.max(np.abs(L.coeffs.imag), initial=0.0)) for L in self.lines)
        vals.append(float(np.max(np.abs(self.remainder.coeffs.imag), initial=0.0)))
        scale = max(abs(self.lam), 1.0)
        return max(vals) <= tol * scale


def _pairwise_chordal(a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """chordal(a[i], b[j]) for all rows of two coordinate arrays (b defaults to a).

    The numerator |a ^ b| is summed over the 2x2 minors, as outer products.
    """
    b = a if b is None else b
    num = 0.0
    for s, t in itertools.combinations(range(a.shape[1]), 2):
        num = num + np.abs(a[:, s, None] * b[:, t] - a[:, t, None] * b[:, s]) ** 2
    return np.sqrt(num) / (np.linalg.norm(a, axis=1)[:, None] * np.linalg.norm(b, axis=1))


def _reject_multiple_of_q(P: HomogPoly, Q: QuadForm, tol_div: float) -> None:
    """Raise DivisibleByQ, carrying the quotient P / Q, when P is a multiple of Q."""
    if P.degree < 2:
        return
    try:
        quotient = divide_by_quadric(P, Q, tol_div=tol_div)
    except NotDivisible:
        return
    raise DivisibleByQ("input is a multiple of the quadratic form", quotient)


class _FactorContext:
    """One P on one quadric: the work every parcelling shares, done once.

    The divisibility test, the restriction and the roots are computed once.
    The point q where lambda is fixed, P(q), and each cluster pair's line
    with its value at q are computed at first use and kept.  So are the
    line products of the last parcelling: a parcelling that shares its first
    pieces with the previous one (siblings in enumeration order do)
    multiplies only the lines after them.  That state is checked piece by
    piece, so results do not depend on the order of the calls.

    Every division by Q, the divisibility test and each parcelling's defect,
    goes through divide_by_quadric, which applies one operator cached per
    (Q, degree); the context holds no operator of its own.

    at_scale gives the same P clustered at another eps_cluster, sharing all
    of the above that the scale does not change.
    """

    def __init__(self, P: HomogPoly, Q: QuadForm, eps_cluster: float = EPS_CLUSTER,
                 tol_div: float = TOL_DIV):
        if P.degree < 1:
            raise ValueError("degree must be at least 1")
        if P.is_zero():
            raise ValueError("cannot factor the zero polynomial")
        self.P = P
        self.Q = Q
        self.tol_div = tol_div
        self.pnorm = P.norm()
        _reject_multiple_of_q(P, Q, tol_div)
        self.param: ConicParam = conic_param(Q)
        self.b: BinaryForm = restrict_to_conic(P, self.param)
        # conic._raw_roots of b and the merge groups at this scale, for
        # at_scale; the first scale is clustered by roots_projective, as in
        # every context, so they are computed by the first at_scale
        self._raw: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        self._groups: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._take_clusters(roots_projective(self.b, eps_cluster=eps_cluster))
        self._set_scale(eps_cluster)

    def _take_clusters(self, clusters: List[RootCluster]) -> None:
        """Take the clusters, their multiplicities, conic points and least separation."""
        self.clusters: List[RootCluster] = clusters
        self.multiplicities: List[int] = [c.multiplicity for c in clusters]
        self.points: List[ProjPoint2] = [self.param.point(c.point) for c in clusters]
        near = _pairwise_chordal(np.array([c.point.coords for c in clusters]))
        np.fill_diagonal(near, np.inf)
        self._min_separation = float(near.min())

    def _set_scale(self, eps_cluster: float) -> None:
        """Set eps_cluster and what it decides, and empty the caches that follow from it."""
        self.eps_cluster = eps_cluster
        self.ill_conditioned = bool(self._min_separation < 10 * eps_cluster)
        # None until evaluation_point searches; False if no point cleared
        self._eval_u = None
        self._q: Optional[np.ndarray] = None
        self._p_at_q = 0j
        # piece -> (its normalized line, the line's value at q)
        self._lines: Dict[Tuple[int, int], Tuple[HomogPoly, complex]] = {}
        # (piece, product of the lines up to and including it), last parcelling
        self._prefix: List[Tuple[Tuple[int, int], HomogPoly]] = []

    def at_scale(self, eps_cluster: float) -> "_FactorContext":
        """This P with its roots merged at eps_cluster instead.

        Shares P, its norm, the divisibility test, the restriction and the
        raw roots; when the roots merge into the same groups as here, also
        the clusters and their conic points.  The evaluation point, the
        lines and the products start afresh.
        """
        if self._raw is None:
            self._raw = _raw_roots(self.b)
            self._groups = _merge_groups(self._raw[2], self.eps_cluster)
        ctx = copy.copy(self)
        ctx._groups = _merge_groups(self._raw[2], eps_cluster)
        if ctx._groups != self._groups:
            ctx._take_clusters(_clusters_of(*self._raw, ctx._groups))
        ctx._set_scale(eps_cluster)
        return ctx

    def evaluation_point(self) -> ProjPoint1:
        """First golden-ratio trial point clear of the divisor with |b| not small.

        The search runs once per context; a failed search is kept too.
        """
        if self._eval_u is None:
            self._eval_u = False
            max_c = float(np.max(np.abs(self.b.coeffs)))
            power = 1.0
            for _ in range(64):
                u = ProjPoint1([1.0, power])
                power *= _GOLDEN
                if any(chordal(u, c.point) <= 10 * self.eps_cluster
                       for c in self.clusters):
                    continue
                if abs(self.b.eval_point(u)) <= 1e-4 * max_c:
                    continue
                self._eval_u = u
                break
        if self._eval_u is False:
            raise NoEvaluationPoint("no conic evaluation point cleared the thresholds")
        return self._eval_u

    def _line(self, piece: Tuple[int, int]) -> Tuple[HomogPoly, complex]:
        """The piece's line, scaled so its max-modulus coefficient is 1, and its value at q."""
        hit = self._lines.get(piece)
        if hit is None:
            if self._q is None:
                self._q = self.param.point(self.evaluation_point()).coords
                self._p_at_q = self.P(self._q)
            i, j = piece
            w = line_through(self.points[i], self.points[j], self.Q).coeffs
            L = HomogPoly(1, w / w[int(np.argmax(np.abs(w)))])
            hit = self._lines[piece] = (L, L(self._q))
        return hit

    def _line_product(self, pieces: Sequence[Tuple[int, int]],
                      lines: Sequence[HomogPoly]) -> HomogPoly:
        """prod(lines), reusing the last parcelling's products over the common prefix."""
        prefix = self._prefix
        k = 0
        while k < min(len(prefix), len(pieces)) and prefix[k][0] == pieces[k]:
            k += 1
        del prefix[k:]
        for piece, L in zip(pieces[k:], lines[k:]):
            prefix.append((piece, poly_mul(prefix[-1][1], L) if prefix else L))
        return prefix[-1][1]

    def factor(self, parcelling: GeneralizedParcelling) -> MultipoleFactorization:
        """P = lam * prod(L) + Q * R over the parcelling, certified once.

        The one check is on the defect diff = P - lam * prod(L).  In a
        well-conditioned context R is zero when ||diff|| is at most
        min(tol_div, TOL_FACT) * ||P||, and otherwise the division of diff
        by Q must leave a residual ||Q * R - diff|| within that same bound.
        The bound is relative to ||P|| because ||diff|| has lost digits to
        cancellation when lambda * prod(L) nearly equals P.  Close clusters
        (ill_conditioned) take R = 0 at tol_div * ||P|| and otherwise allow
        a division residual of 1e-4 * ||diff||.  A linear P has no R: it
        must lie within TOL_FACT * ||P|| of lam * L.
        """
        if parcelling.multiplicity_use(len(self.clusters)) != self.multiplicities:
            raise ValueError("parcelling does not match the root multiplicities")
        lines = []
        denom = 1.0 + 0.0j
        for piece in parcelling.pieces:
            L, value = self._line(piece)
            lines.append(L)
            denom *= value
        if denom == 0:
            raise NoEvaluationPoint("evaluation point lies on a factor line")
        lam = self._p_at_q / denom
        diff = self.P - _scaled(lam, self._line_product(parcelling.pieces, lines))
        if self.P.degree < 2:
            if diff.norm() > TOL_FACT * self.pnorm:
                raise SolveFailure("linear input is not proportional to its line")
            remainder = HomogPoly.zero(0)
        else:
            tol = self.tol_div if self.ill_conditioned else min(self.tol_div, TOL_FACT)
            if diff.norm() <= tol * self.pnorm:
                remainder = HomogPoly.zero(self.P.degree - 2)
            else:
                tol, ref = (1e-4, None) if self.ill_conditioned else (tol, self.pnorm)
                try:
                    remainder = divide_by_quadric(diff, self.Q, tol_div=tol,
                                                  ref_norm=ref)
                except NotDivisible as exc:
                    raise SolveFailure("factorization defect is not a multiple of Q: %s"
                                       % exc) from None
        return MultipoleFactorization(lam, lines, remainder, parcelling,
                                      ill_conditioned=self.ill_conditioned)

    def parcelling_for(self, strategy: str) -> GeneralizedParcelling:
        """The parcelling a strategy picks.

        canonical takes canonical_parcelling of the multiplicities;
        real_unique pairs each cluster with its conjugate's, the only
        conjugation-stable parcelling when conjugation acts freely.
        """
        if strategy == "canonical":
            return canonical_parcelling(self.multiplicities)
        sigma = self.conjugation(require_free=True)
        pieces: List[Tuple[int, int]] = []
        for i, j in enumerate(sigma):
            if i < j:
                pieces.extend([(i, j)] * self.clusters[i].multiplicity)
        return GeneralizedParcelling(tuple(sorted(pieces)))

    def factor_with(self, strategy: str) -> MultipoleFactorization:
        """P factored over the strategy's parcelling; real_unique's is made real."""
        fact = self.factor(self.parcelling_for(strategy))
        if strategy == "real_unique":
            fact = _realified(fact, self.P, self.Q)
        return fact

    def attempt_key(self, strategy: str) -> tuple:
        """What factor_with(strategy) reads that the clustering scale changes.

        That is the clusters, the parcelling, the evaluation point and
        ill_conditioned, in the order factor_with reads them; a failure
        stands for itself by its type and message, and ends the key, as it
        ends the attempt.  Two contexts of one P with equal keys return equal
        factorizations or raise the same error.
        """
        key: list = [tuple((c.point.key(), c.multiplicity) for c in self.clusters)]
        try:
            key.append(self.parcelling_for(strategy).pieces)
            key.append(self.evaluation_point().key())
        except (NoEvaluationPoint, ConjugationPairingFailure) as exc:
            key.append((type(exc), str(exc)))
        else:
            key.append(self.ill_conditioned)
        return tuple(key)

    def factor_all(self) -> List[MultipoleFactorization]:
        """Factorizations for every parcelling, in enumeration order."""
        return [self.factor(par) for par in enumerate_parcellings(self.multiplicities)]

    def conjugation(self, require_free: bool) -> List[int]:
        """Index map pairing each cluster with the conjugate conic point's cluster.

        Conjugation acts on the surface points, not the parameter coordinates:
        the partner of a cluster is the one whose conic point is proportional
        to the componentwise conjugate.
        """
        tol = 10 * self.eps_cluster
        pts = np.array([pt.coords for pt in self.points])
        dists = _pairwise_chordal(pts.conj(), pts)
        sigma: List[int] = []
        for i, cl in enumerate(self.clusters):
            j = int(np.argmin(dists[i]))
            if dists[i, j] > tol:
                raise ConjugationPairingFailure(
                    "cluster %d has no conjugate partner within tolerance" % i)
            if self.clusters[j].multiplicity != cl.multiplicity:
                raise ConjugationPairingFailure(
                    "conjugate clusters %d, %d have different multiplicities" % (i, j))
            sigma.append(j)
        for i, j in enumerate(sigma):
            if sigma[j] != i:
                raise ConjugationPairingFailure("conjugation map is not an involution")
            if require_free and j == i:
                raise ConjugationPairingFailure(
                    "cluster %d is real; conjugation must act freely" % i)
        return sigma


def _check_real_input(P: HomogPoly, tol: float = 1e-12) -> None:
    if float(np.max(np.abs(P.coeffs.imag), initial=0.0)) > tol * max(P.norm(), 1e-300):
        raise NotReal("polynomial has non-real coefficients")


def _realified(fact: MultipoleFactorization, P: HomogPoly,
               Q: QuadForm) -> MultipoleFactorization:
    """Drop imaginary round-off from a factorization that must be real."""
    scale = max(abs(fact.lam), 1.0)
    drift = [abs(fact.lam.imag) / scale]
    drift.extend(float(np.max(np.abs(L.coeffs.imag), initial=0.0)) for L in fact.lines)
    drift.append(float(np.max(np.abs(fact.remainder.coeffs.imag), initial=0.0))
                 / max(fact.remainder.norm(), 1.0))
    if max(drift) > 1e-6:
        raise ConjugationPairingFailure(
            "factorization expected to be real has imaginary drift %.3e" % max(drift))
    real_fact = MultipoleFactorization(
        complex(fact.lam.real),
        [HomogPoly(1, L.coeffs.real.astype(complex)) for L in fact.lines],
        HomogPoly(fact.remainder.degree, fact.remainder.coeffs.real.astype(complex)),
        fact.parcelling,
        ill_conditioned=fact.ill_conditioned,
    )
    if not fact.ill_conditioned:
        res = (real_fact.reconstruct(Q) - P).norm()
        if res > TOL_FACT * P.norm():
            raise SolveFailure("real factorization residual %.3e too large" % res)
    return real_fact


def factor_on_quadric(P: HomogPoly, Q: QuadForm, parcelling: GeneralizedParcelling,
                      eps_cluster: float = EPS_CLUSTER,
                      tol_div: float = TOL_DIV) -> MultipoleFactorization:
    """Factor P as lambda * prod(lines) + Q * R for one chosen parcelling."""
    ctx = _FactorContext(P, Q, eps_cluster=eps_cluster, tol_div=tol_div)
    return ctx.factor(parcelling)


def all_factorizations(P: HomogPoly, Q: QuadForm, eps_cluster: float = EPS_CLUSTER,
                       tol_div: float = TOL_DIV) -> List[MultipoleFactorization]:
    """Factorizations for every parcelling, in enumeration order."""
    ctx = _FactorContext(P, Q, eps_cluster=eps_cluster, tol_div=tol_div)
    return ctx.factor_all()


def real_factor(P: HomogPoly, Q: QuadForm, eps_cluster: float = EPS_CLUSTER,
                tol_div: float = TOL_DIV) -> MultipoleFactorization:
    """The unique real factorization of real P over a definite real Q.

    The conic of a definite form has no real points, so conjugation acts
    freely on the intersection divisor and pairing every cluster with its
    conjugate is the only conjugation-stable parcelling.
    """
    return factor(P, Q, "real_unique", eps_cluster=eps_cluster, tol_div=tol_div)


def _strategy_context(P: HomogPoly, Q: QuadForm, strategy: str,
                      eps_cluster: float, tol_div: float) -> _FactorContext:
    """P's factor context, after the checks the strategy makes on its input."""
    if strategy == "real_unique":
        _check_real_input(P)
        if not Q.is_real or Q.signature not in (-3, 3):
            raise NotDefinite("real factorization needs a definite real form")
    elif strategy != "canonical":
        raise ValueError("unknown factoring strategy %r" % (strategy,))
    return _FactorContext(P, Q, eps_cluster=eps_cluster, tol_div=tol_div)


def factor(P: HomogPoly, Q: QuadForm, strategy: str = "canonical",
           eps_cluster: float = EPS_CLUSTER,
           tol_div: float = TOL_DIV) -> MultipoleFactorization:
    """One factorization of P on the cone of Q, chosen by strategy.

    canonical takes canonical_parcelling of the root clusters; real_unique
    is real_factor, the conjugation-stable one for real P over a definite
    real form.
    """
    ctx = _strategy_context(P, Q, strategy, eps_cluster=eps_cluster,
                            tol_div=tol_div)
    return ctx.factor_with(strategy)


def real_factorizations(P: HomogPoly, Q: QuadForm, eps_cluster: float = EPS_CLUSTER,
                        tol_div: float = TOL_DIV) -> List[MultipoleFactorization]:
    """All factorizations with real lines: one per conjugation-stable parcelling.

    Conjugate cluster pairs are forced together; only the clusters at real
    parameters leave freedom, so the count is the parcelling count of the
    multiplicity vector restricted to the real clusters.
    """
    _check_real_input(P)
    if not Q.is_real:
        raise NotReal("quadratic form must be real")
    ctx = _FactorContext(P, Q, eps_cluster=eps_cluster, tol_div=tol_div)
    sigma = ctx.conjugation(require_free=False)
    out = []
    for par in enumerate_parcellings(ctx.multiplicities):
        stable = all(tuple(sorted((sigma[i], sigma[j]))) == (i, j)
                     for i, j in par.pieces)
        if stable:
            out.append(_realified(ctx.factor(par), P, Q))
    return out


def intersection_clusters(P: HomogPoly, Q: QuadForm,
                          eps_cluster: float = EPS_CLUSTER) -> List[RootCluster]:
    """Clusters of the divisor P meets on {Q = 0}, in canonical order."""
    param = conic_param(Q)
    b = restrict_to_conic(P, param)
    if not np.any(b.coeffs):
        raise DivisibleByQ("restriction to the conic vanishes identically")
    return roots_projective(b, eps_cluster=eps_cluster)


def in_discriminant(P: HomogPoly, Q: QuadForm, tol_disc: float = TOL_DISC,
                    eps_cluster: float = EPS_CLUSTER,
                    tol_div: float = TOL_DIV) -> bool:
    """Whether the intersection divisor of P on {Q = 0} has a multiple point.

    The divisor has a multiple point exactly when the discriminant resultant
    of the conic restriction vanishes.  Numerically the decision is made by
    root clustering at resolution max(10 * eps_cluster, 1e-5), which stays
    reliable at every degree; the normalized resultant magnitude corroborates
    it at moderate degree but its scale collapses as the degree grows, so a
    disagreement is resolved in favor of the clusters.
    """
    _reject_multiple_of_q(P, Q, tol_div)
    b = restrict_to_conic(P, conic_param(Q))
    max_c = float(np.max(np.abs(b.coeffs)))
    if max_c == 0.0:
        raise DivisibleByQ("restriction to the conic vanishes identically")
    eps_mult = max(10.0 * eps_cluster, 1e-5)
    clusters = roots_projective(b, eps_cluster=eps_mult)
    multiple = any(c.multiplicity >= 2 for c in clusters)
    bn = BinaryForm(b.degree, b.coeffs / max_c)
    small = abs(binary_discriminant(bn)) <= tol_disc * discriminant_scale(bn)
    if multiple and not small and b.degree <= 8:
        raise SolveFailure("cluster and resultant discriminant signals disagree")
    return multiple
