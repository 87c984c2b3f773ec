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
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    HomogPoly,
    QuadForm,
    divide_by_quadric,
    divide_rows_by_quadric,
    double_factorial,
    grade_dim,
    poly_mul,
    poly_mul_rows,
    TOL_DIV,
    _monomial_values,
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
    _normalize_rows,
    _raw_roots,
    _restriction_norm,
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
    Degenerate,
    DivisibleByQ,
    NoEvaluationPoint,
    NotDefinite,
    NotDivisible,
    NotReal,
    OddTotal,
    QuadpoleError,
    SolveFailure,
)

TOL_FACT = 1e-8
TOL_DISC = 1e-9
# largest imaginary part, relative to a reference norm, of input taken as real
TOL_REAL = 1e-12

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
    sum to an odd number.  The parcellings of the last 128 multiplicity
    vectors are kept and shared (they are frozen); the list is new at every
    call.
    """
    mults = tuple(int(m) for m in multiplicities)
    if any(m < 0 for m in mults):
        raise ValueError("multiplicities must be non-negative")
    if sum(mults) % 2:
        raise OddTotal("multiplicities sum to %d" % sum(mults))
    return list(_parcellings(mults))


@functools.lru_cache(maxsize=128)
def _parcellings(multiplicities: Tuple[int, ...]) -> Tuple[GeneralizedParcelling, ...]:
    mults = list(multiplicities)
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
    return tuple(out)


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


def _line_key(parts: List[float]) -> Tuple[float, ...]:
    """Sort key of a normalized line, given as its real and imaginary parts
    in turn: the parts rounded, then exact.

    Conjugate lines of a real input have equal real parts in exact
    arithmetic; compared exactly, round-off would decide their order.
    Python's round, not np.round, which can break ties the other way.
    """
    return tuple([round(v, 9) for v in parts] + parts)


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
        if not line_polys:
            return cls(scale, ())
        w = np.array([L.coeffs for L in line_polys], dtype=complex)
        at = (np.arange(len(w)), np.argmax(np.abs(w), axis=1))
        pivots = w[at]
        for p in pivots:
            scale *= p
        v = w / pivots[:, None]
        v[at] = 1.0
        vecs = list(map(tuple, v.tolist()))
        if len(vecs) > 1:
            parts = v.view(np.float64).tolist()
            vecs = [vecs[i] for i in sorted(range(len(vecs)), key=lambda i: _line_key(parts[i]))]
        return cls(scale, tuple(vecs))

    @property
    def degree(self) -> int:
        return len(self.lines)

    def product_poly(self) -> HomogPoly:
        """scale * prod(lines), the scale multiplied into the first line."""
        if not self.lines:
            return HomogPoly(0, [self.scale])
        lines = np.array([self.lines], dtype=complex)
        lines[:, 0] = poly_mul_rows(np.array([[self.scale]]), 0, lines[:, 0], 1)
        return HomogPoly(self.degree, _line_products(lines)[0])

    def isclose(self, other: "Multipole", tol: float = 1e-8) -> bool:
        if self.degree != other.degree:
            return False
        if abs(self.scale - other.scale) > tol * (1.0 + abs(self.scale)):
            return False
        for a, b in zip(self.lines, other.lines):
            if max(abs(x - y) for x, y in zip(a, b)) > tol:
                return False
        return True


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
        """lam * prod(lines), the lines multiplied first."""
        if not self.lines:
            return HomogPoly(0, [self.lam])
        lines = np.array([[L.coeffs for L in self.lines]])
        return HomogPoly(self.degree, self.lam * _line_products(lines)[0])

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


def _line_products(lines: np.ndarray) -> np.ndarray:
    """prod(L) for each row of an (n, d, 3) stack of lines, left to right."""
    prod = lines[:, 0]
    for k in range(1, lines.shape[1]):
        prod = poly_mul_rows(prod, k, lines[:, k], 1)
    return prod


def _objects(items: Sequence) -> np.ndarray:
    """The items as a 1-d object array, to be indexed or reshaped like any
    array and turned into nested lists of the same objects by tolist."""
    out = np.empty(len(items), dtype=object)
    out[:] = items
    return out


def _factorization_rows(lams: Sequence[complex], lines: Sequence[List[HomogPoly]],
                        deg_r: int, rem: np.ndarray,
                        parcellings: Sequence[GeneralizedParcelling],
                        ill_conditioned: bool) -> List[MultipoleFactorization]:
    """One MultipoleFactorization per row; the remainders are the rows of
    rem as they are, not copied."""
    return list(map(MultipoleFactorization, lams, lines,
                    map(HomogPoly._of, itertools.repeat(deg_r), rem),
                    parcellings, itertools.repeat(ill_conditioned)))


def _reject_multiple_of_q(P: HomogPoly, Q: QuadForm, tol_div: float,
                          b: Optional[BinaryForm] = None) -> None:
    """Raise DivisibleByQ, carrying the quotient P / Q, when P is a multiple of Q.

    The division decides, unless b, P's restriction to the conic, shows
    without it that P is not a multiple.  Q vanishes on the conic, so
    ||b|| <= ||T||_2 * ||P - Q * R|| for every R, where T is
    _restriction_matrix(Q, deg P); ||b|| > 10 * ||T||_2 * tol_div * ||P||
    therefore puts the division's residual above its bound tol_div * ||P||,
    and the factor 10 leaves room for the round-off in b.  Below
    tol_div = 1e-12 that room is too small, and the division always runs.
    """
    if P.degree < 2:
        return
    if b is not None and tol_div >= 1e-12 \
            and b.norm() > 10 * _restriction_norm(Q, P.degree) * tol_div * P.norm():
        return
    try:
        quotient = divide_by_quadric(P, Q, tol_div=tol_div)
    except NotDivisible:
        return
    raise DivisibleByQ("input is a multiple of the quadratic form", quotient)


def _restriction_of(P: HomogPoly, Q: QuadForm, tol_div: float
                    ) -> Tuple[ConicParam, BinaryForm]:
    """The conic's parameterization and P's restriction to it, once
    _reject_multiple_of_q, given the restriction, has let P pass.

    A form whose conic has no parameterization raises Degenerate only after
    the division has decided, so its errors come in the same order.
    """
    try:
        param = conic_param(Q)
    except Degenerate:
        _reject_multiple_of_q(P, Q, tol_div)
        raise
    b = restrict_to_conic(P, param)
    _reject_multiple_of_q(P, Q, tol_div, b)
    return param, b


def _trial_points() -> Tuple[np.ndarray, np.ndarray]:
    """The 64 golden-ratio trial parameters [1 : golden**k], normalized as
    ProjPoint1 normalizes them, as a read-only (64, 2) array, with their
    norms as a (64, 1) column."""
    powers = [1.0]
    for _ in range(63):
        powers.append(powers[-1] * _GOLDEN)
    trials = _normalize_rows(np.array([[1.0, p] for p in powers], dtype=complex))
    norms = np.linalg.norm(trials, axis=1)[:, None]
    trials.flags.writeable = norms.flags.writeable = False
    return trials, norms


_TRIALS, _TRIAL_NORMS = _trial_points()


class _FactorContext:
    """One P on one quadric: the work every parcelling shares, done once.

    The restriction, the divisibility test and the roots are computed once.
    The divisibility test divides P by Q only when the restriction b cannot
    decide it: Q vanishes on the conic, so ||b|| <= ||T||_2 * ||P - Q * R||
    for the restriction matrix T of P's degree and every R, and
    ||b|| > 10 * ||T||_2 * tol_div * ||P|| already shows that the division's
    residual exceeds tol_div * ||P|| (_reject_multiple_of_q).  So a generic
    P is not divided; a P within about 10 * tol_div of a multiple of Q is,
    and so is every P when tol_div < 1e-12.

    The point q where lambda is fixed and P(q) are computed at first use
    and kept; so is each cluster pair's line with its value at q, where the
    lines a _factor_rows call is the first to use are built by one
    line_through call on the stack of their point pairs.  _factor_rows
    takes a list of parcellings as one stack of rows: the line products,
    lambdas, defects and their norms for all rows at once, and one division
    of the stack by Q.  Each row is computed as it is alone, except that a
    remainder R, from one matrix product for the stack, can differ in its
    last bits with the number of rows that share the call.

    Every division by Q, the divisibility test and the parcellings'
    defects, goes through divide_rows_by_quadric, which applies one operator
    cached per (Q, degree); the context holds no operator of its own.

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
        self.param, self.b = _restriction_of(P, Q, tol_div)
        # conic._raw_roots of b and the merge groups at this scale, for
        # at_scale; the first scale is clustered by roots_projective, as in
        # every context, so they are computed by the first at_scale
        self._raw: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        self._groups: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._take_clusters(roots_projective(self.b, eps_cluster=eps_cluster))
        self._set_scale(eps_cluster)

    def _take_clusters(self, clusters: List[RootCluster]) -> None:
        """Take the clusters, their multiplicities, parameters, conic points
        and least separation."""
        self.clusters: List[RootCluster] = clusters
        self.multiplicities: List[int] = [c.multiplicity for c in clusters]
        self._params = np.array([c.point.coords for c in clusters])
        self.points = ProjPoint2._of(self.param.points(self._params))
        near = _pairwise_chordal(self._params)
        np.fill_diagonal(near, np.inf)
        self._min_separation = float(near.min())
        # the trial points' distances to the clusters, at first use
        self._trial_dist: Optional[np.ndarray] = None

    def _set_scale(self, eps_cluster: float) -> None:
        """Set eps_cluster and what it decides, and empty the caches that follow from it."""
        self.eps_cluster = eps_cluster
        self.ill_conditioned = bool(self._min_separation < 10 * eps_cluster)
        self._q: Optional[np.ndarray] = None
        self._p_at_q = 0j
        # piece -> (its normalized line, the line's value at q)
        self._lines: Dict[Tuple[int, int], Tuple[HomogPoly, complex]] = {}

    def at_scale(self, eps_cluster: float) -> "_FactorContext":
        """This P with its roots merged at eps_cluster instead.

        Shares P, its norm, the divisibility test, the restriction and the
        raw roots; when the roots merge into the same groups as here, also
        the clusters and their conic points.  The evaluation point and the
        lines start afresh.
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

        A trial point is clear when its chordal distance to every cluster
        exceeds 10 * eps_cluster.  The distances of all 64 trial points
        (_trial_points) to all clusters are one array, computed once per
        set of clusters; where one lies within 1e-12 (relative) of the
        clearance, its last bits could decide, and the scalar chordal
        decides instead.  So every decision is the scalar chordal's, also at
        eps_cluster = 0.1, whose clearance 1 is the largest chordal distance
        there is: a tie there still rejects.  |b| is then evaluated in trial
        order, at the points that clear, until one is not below
        1e-4 * max |b_k|.
        """
        if self._trial_dist is None:
            # |u0 v1 - u1 v0| / (|u| |v|) for every trial point u and cluster v
            u, v = _TRIALS, self._params
            cross = u[:, :1] * v[:, 1] - u[:, 1:] * v[:, 0]
            mods = np.abs(v)
            norms = _TRIAL_NORMS * np.hypot(mods[:, 0], mods[:, 1])
            self._trial_dist = np.abs(cross) / norms
        clear = 10 * self.eps_cluster
        dist = self._trial_dist
        far = dist > clear * (1 + 1e-12)
        for t, j in zip(*np.nonzero(~far & (dist >= clear * (1 - 1e-12)))):
            far[t, j] = chordal(ProjPoint1._of(_TRIALS[t]), self.clusters[j].point) > clear
        max_c = float(np.max(np.abs(self.b.coeffs)))
        for t in np.flatnonzero(far.all(axis=1)):
            u = ProjPoint1._of(_TRIALS[t])
            if abs(self.b.eval_point(u)) > 1e-4 * max_c:
                return u
        raise NoEvaluationPoint("no conic evaluation point cleared the thresholds")

    def _factor_rows(self, parcellings: Sequence[GeneralizedParcelling]
                     ) -> Tuple[List[MultipoleFactorization], Optional[Exception]]:
        """P = lam * prod(L) + Q * R over each parcelling, each certified once:
        the rows before the first failing one, and that row's error.  Every
        parcelling must use each cluster its multiplicity times.

        The one check is on the defect diff = P - lam * prod(L).  In a
        well-conditioned context R is zero when ||diff|| is at most
        min(tol_div, TOL_FACT) * ||P||, and otherwise the division of diff
        by Q must leave a residual ||Q * R - diff|| within that same bound.
        The bound is relative to ||P|| because ||diff|| has lost digits to
        cancellation when lambda * prod(L) nearly equals P.  Close clusters
        (ill_conditioned) take R = 0 at tol_div * ||P|| and otherwise allow
        a division residual of 1e-4 * ||diff||.  A linear P has no R: it
        must lie within TOL_FACT * ||P|| of lam * L.

        Each check runs on the rows before the first failure found so far,
        in the order a single row meets them, so the error kept is the one
        the first failing parcelling gives alone; it is None when every row
        passes.

        No Python loop or generator runs per row: the pieces are one (n, d)
        array of columns into the kept lines, lambda's denominators Python
        complex products in piece order, taken one piece of every row at a
        time, and the rows' lines and remainders views, not validated copies.
        """
        n, err = len(parcellings), None
        if n == 0:
            return [], err
        # every row's d = deg P pieces in turn
        pieces = list(itertools.chain.from_iterable(
            map(operator.attrgetter("pieces"), parcellings)))
        # the pieces whose lines are not kept yet, in order of first use;
        # every row uses every cluster, so a point off the conic, like a
        # failed search for the evaluation point, fails row 0
        missing = [piece for piece in dict.fromkeys(pieces) if piece not in self._lines]
        if missing:
            try:
                if self._q is None:
                    q = self.param.point(self.evaluation_point()).coords
                    self._p_at_q = self.P(q)
                    # the degree-1 monomials at q, as HomogPoly.__call__ takes them
                    self._q = _monomial_values(1, np.asarray(q, dtype=complex).reshape(1, 3))
                ends = np.array(missing, dtype=np.intp)
                w = line_through(self.points[ends[:, 0]], self.points[ends[:, 1]], self.Q)
            except QuadpoleError as exc:
                n, err = 0, exc
            else:
                # each line scaled so its max-modulus coefficient is 1, and
                # its value at q as the (1, 3) @ (3,) product of one line
                w = w / w[np.arange(len(w)), np.argmax(np.abs(w), axis=1)][:, None]
                at_q = (self._q @ w[:, :, None])[:, 0, 0]
                for piece, row, value in zip(missing, w, at_q.tolist()):
                    self._lines[piece] = (HomogPoly._of(1, row), value)
        if n == 0:
            return [], err
        # the pieces as columns of the table of kept lines
        d = self.P.degree
        table = list(self._lines.values())
        flat = list(map(dict(zip(self._lines, itertools.count())).__getitem__, pieces))
        cols = np.array(flat, dtype=np.intp).reshape(-1, d)
        # lambda's denominator as a Python complex, 1 times each line's
        # value at q in piece order, one piece of every row at a time
        values = [value for _, value in table]
        denoms = [1.0 + 0.0j] * n
        for k in range(d):
            denoms = list(map(operator.mul, denoms, map(values.__getitem__, flat[k::d])))
        if 0 in denoms:
            n, err = denoms.index(0), NoEvaluationPoint(
                "evaluation point lies on a factor line")
            if n == 0:
                return [], err
        lams = list(map(operator.truediv, itertools.repeat(self._p_at_q), denoms[:n]))
        lines = np.array([L.coeffs for L, _ in table])[cols[:n]]
        diff = self.P.coeffs - np.array(lams)[:, None] * _line_products(lines)
        norms = np.linalg.norm(diff, axis=1)
        deg_r = max(self.P.degree - 2, 0)
        rem = np.zeros((n, grade_dim(deg_r)), dtype=complex)
        if self.P.degree < 2:
            bad = np.flatnonzero(norms > TOL_FACT * self.pnorm)
            if bad.size:
                n, err = int(bad[0]), SolveFailure(
                    "linear input is not proportional to its line")
        else:
            tol = self.tol_div if self.ill_conditioned else min(self.tol_div, TOL_FACT)
            big = np.flatnonzero(norms > tol * self.pnorm)
            if big.size:
                tol, ref = (1e-4, None) if self.ill_conditioned else (tol, self.pnorm)
                try:
                    rem[big] = divide_rows_by_quadric(diff[big], self.P.degree, self.Q,
                                                      tol_div=tol, ref_norm=ref)
                except NotDivisible as exc:
                    rem[big[:exc.row]] = exc.quotient
                    n, err = int(big[exc.row]), SolveFailure(
                        "factorization defect is not a multiple of Q: %s" % exc)
        lines_of = _objects([L for L, _ in table])[cols[:n]].tolist()
        return _factorization_rows(lams[:n], lines_of, deg_r, rem[:n], parcellings[:n],
                                   self.ill_conditioned), err

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

    def rows(self, strategy: str
             ) -> Tuple[List[MultipoleFactorization], Optional[Exception]]:
        """The strategy's rows as _factor_rows gives them: every parcelling's
        for enumerate, else the one parcelling_for picks, made real for
        real_unique."""
        if strategy == "enumerate":
            return self._factor_rows(enumerate_parcellings(self.multiplicities))
        facts, err = self._factor_rows([self.parcelling_for(strategy)])
        if strategy == "real_unique":
            return _realified(facts, self.P, self.Q, err)
        return facts, err

    def conjugation(self, require_free: bool) -> List[int]:
        """Index map pairing each cluster with the conjugate conic point's cluster.

        Conjugation acts on the surface points, not the parameter coordinates:
        the partner of a cluster is the one whose conic point is proportional
        to the componentwise conjugate.
        """
        tol = 10 * self.eps_cluster
        pts = self.points.coords
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


def _rows_or_raise(rows: Tuple[List[MultipoleFactorization], Optional[Exception]]
                   ) -> List[MultipoleFactorization]:
    """The rows of a (rows, error) pair as _factor_rows gives it, or its error raised."""
    facts, err = rows
    if err is not None:
        raise err
    return facts


def _check_real_input(P: HomogPoly) -> None:
    if float(np.max(np.abs(P.coeffs.imag), initial=0.0)) > TOL_REAL * max(P.norm(), 1e-300):
        raise NotReal("polynomial has non-real coefficients")


def _realified(facts: Sequence[MultipoleFactorization], P: HomogPoly, Q: QuadForm,
               err: Optional[Exception]
               ) -> Tuple[List[MultipoleFactorization], Optional[Exception]]:
    """Drop imaginary round-off from factorizations of P that must be real.

    The rows come from one context, and err is the factoring error of the
    row after them, if any.  Each row must have an imaginary drift of at
    most 1e-6 and, unless ill-conditioned, its real parts must rebuild P
    within TOL_FACT * ||P||.  Both gates run over all rows at once.  Gives
    the real factorizations before the first row that fails, and the error
    that comes first: that row's, else err.
    """
    if not facts:
        return [], err
    lam = np.array([f.lam for f in facts])
    lines = np.array([L.coeffs for f in facts for L in f.lines]).reshape(len(facts), -1, 3)
    rem = np.array([f.remainder.coeffs for f in facts])
    drift = np.maximum.reduce([
        np.abs(lam.imag) / np.maximum(np.abs(lam), 1.0),
        np.max(np.abs(lines.imag), axis=(1, 2), initial=0.0),
        np.max(np.abs(rem.imag), axis=1) / np.maximum(np.linalg.norm(rem, axis=1), 1.0)])
    n = len(facts)
    bad = np.flatnonzero(drift > 1e-6)
    if bad.size:
        n = int(bad[0])
        err = ConjugationPairingFailure(
            "factorization expected to be real has imaginary drift %.3e" % drift[n])
    lam, lines, rem = lam.real[:n], lines.real[:n].astype(complex), rem.real[:n].astype(complex)
    if n and not facts[0].ill_conditioned:
        recon = lam[:, None] * _line_products(lines)
        if P.degree >= 2:
            recon = recon + poly_mul_rows(Q.poly().coeffs[None, :], 2, rem, P.degree - 2)
        res = np.linalg.norm(recon - P.coeffs, axis=1)
        bad = np.flatnonzero(res > TOL_FACT * P.norm())
        if bad.size:
            n = int(bad[0])
            err = SolveFailure("real factorization residual %.3e too large" % res[n])
    lines_of = _objects(list(map(HomogPoly._of, itertools.repeat(1),
                                 lines.reshape(-1, 3))))
    return _factorization_rows(lam.astype(complex).tolist(),
                               lines_of.reshape(lines.shape[:2]).tolist(),
                               facts[0].remainder.degree, rem,
                               list(map(operator.attrgetter("parcelling"), facts[:n])),
                               facts[0].ill_conditioned), err


def factor_on_quadric(P: HomogPoly, Q: QuadForm, parcelling: GeneralizedParcelling,
                      eps_cluster: float = EPS_CLUSTER,
                      tol_div: float = TOL_DIV) -> MultipoleFactorization:
    """Factor P as lambda * prod(lines) + Q * R for one chosen parcelling."""
    ctx = _FactorContext(P, Q, eps_cluster=eps_cluster, tol_div=tol_div)
    n = len(ctx.clusters)
    if not all(0 <= i < n for piece in parcelling.pieces for i in piece) \
            or parcelling.multiplicity_use(n) != ctx.multiplicities:
        raise ValueError("parcelling does not match the root multiplicities")
    return _rows_or_raise(ctx._factor_rows([parcelling]))[0]


def all_factorizations(P: HomogPoly, Q: QuadForm, eps_cluster: float = EPS_CLUSTER,
                       tol_div: float = TOL_DIV) -> List[MultipoleFactorization]:
    """Factorizations for every parcelling, in enumeration order."""
    ctx = _FactorContext(P, Q, eps_cluster=eps_cluster, tol_div=tol_div)
    return _rows_or_raise(ctx.rows("enumerate"))


def real_factor(P: HomogPoly, Q: QuadForm, eps_cluster: float = EPS_CLUSTER,
                tol_div: float = TOL_DIV) -> MultipoleFactorization:
    """The unique real factorization of real P over a definite real Q.

    The conic of a definite form has no real points, so conjugation acts
    freely on the intersection divisor and pairing every cluster with its
    conjugate is the only conjugation-stable parcelling.
    """
    return factor(P, Q, "real_unique", eps_cluster=eps_cluster, tol_div=tol_div)


def _auto_strategy(imag_max: float, ref_norm: float, Q: QuadForm) -> str:
    """real_unique for real input over a definite real form, else canonical.

    The input is real when its largest imaginary part imag_max is at most
    TOL_REAL * ref_norm; each caller gives its own reference norm.
    """
    if imag_max <= TOL_REAL * ref_norm and Q.is_real and Q.signature in (-3, 3):
        return "real_unique"
    return "canonical"


def _strategy_context(P: HomogPoly, Q: QuadForm, strategy: str,
                      eps_cluster: float, tol_div: float) -> _FactorContext:
    """P's factor context, after the checks the strategy makes on its input.

    The strategy is one of canonical, enumerate and real_unique.
    """
    if strategy == "real_unique":
        _check_real_input(P)
        if not Q.is_real or Q.signature not in (-3, 3):
            raise NotDefinite("real factorization needs a definite real form")
    return _FactorContext(P, Q, eps_cluster=eps_cluster, tol_div=tol_div)


def factor(P: HomogPoly, Q: QuadForm, strategy: str = "canonical",
           eps_cluster: float = EPS_CLUSTER,
           tol_div: float = TOL_DIV) -> MultipoleFactorization:
    """One factorization of P on the cone of Q, chosen by strategy.

    canonical takes canonical_parcelling of the root clusters; real_unique
    is real_factor, the conjugation-stable one for real P over a definite
    real form.
    """
    if strategy not in ("canonical", "real_unique"):
        raise ValueError("unknown factoring strategy %r" % (strategy,))
    ctx = _strategy_context(P, Q, strategy, eps_cluster=eps_cluster,
                            tol_div=tol_div)
    return _rows_or_raise(ctx.rows(strategy))[0]


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
    stable = [par for par in enumerate_parcellings(ctx.multiplicities)
              if all(tuple(sorted((sigma[i], sigma[j]))) == (i, j) for i, j in par.pieces)]
    facts, err = ctx._factor_rows(stable)
    return _rows_or_raise(_realified(facts, P, Q, err))


def intersection_clusters(P: HomogPoly, Q: QuadForm,
                          eps_cluster: float = EPS_CLUSTER) -> List[RootCluster]:
    """Clusters of the divisor P meets on {Q = 0}, in canonical order."""
    param = conic_param(Q)
    b = restrict_to_conic(P, param)
    if not np.any(b.coeffs):
        raise DivisibleByQ("restriction to the conic vanishes identically")
    return roots_projective(b, eps_cluster=eps_cluster)


def in_discriminant(P: HomogPoly, Q: QuadForm, eps_cluster: float = EPS_CLUSTER,
                    tol_div: float = TOL_DIV) -> bool:
    """Whether the intersection divisor of P on {Q = 0} has a multiple point.

    The divisor has a multiple point exactly when the discriminant resultant
    of the conic restriction vanishes.  Numerically the decision is made by
    root clustering at resolution max(10 * eps_cluster, 1e-5), which stays
    reliable at every degree; the normalized resultant magnitude corroborates
    it at moderate degree but its scale collapses as the degree grows, so a
    disagreement is resolved in favor of the clusters.  P is tested for
    being a multiple of Q as a factor context tests it: the restriction
    decides where it can, the division elsewhere.
    """
    b = _restriction_of(P, Q, tol_div)[1]
    max_c = float(np.max(np.abs(b.coeffs)))
    if max_c == 0.0:
        raise DivisibleByQ("restriction to the conic vanishes identically")
    eps_mult = max(10.0 * eps_cluster, 1e-5)
    clusters = roots_projective(b, eps_cluster=eps_mult)
    multiple = any(c.multiplicity >= 2 for c in clusters)
    bn = BinaryForm(b.degree, b.coeffs / max_c)
    small = abs(binary_discriminant(bn)) <= TOL_DISC * discriminant_scale(bn)
    if multiple and not small and b.degree <= 8:
        raise SolveFailure("cluster and resultant discriminant signals disagree")
    return multiple
