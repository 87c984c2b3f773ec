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
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    HomogPoly,
    NORM_FLOOR,
    QuadForm,
    divide_by_quadric,
    divide_rows_by_quadric,
    double_factorial,
    form_operator,
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
    ProjPoint2,
    RootCluster,
    TOL_SAME_POINT,
    _check_eps_cluster,
    _clusters_of,
    _discriminant_matrix,
    _merge_groups,
    _norm,
    _normalize_rows,
    _raw_roots,
    _restriction_norm,
    conic_param,
    line_through,
    restrict_to_conic,
    roots_projective,
)
from .errors import (
    ConjugationPairingFailure,
    DivisibleByQ,
    EnumerationLimit,
    NoEvaluationPoint,
    NotDefinite,
    NotDivisible,
    NotReal,
    OddTotal,
    SolveFailure,
)

TOL_FACT = 1e-8
TOL_DISC = 1e-9
# largest imaginary part, relative to a reference norm, of input taken as real
TOL_REAL = 1e-12
TOL_REAL_RESULT = 1e-9  # the same, relative to max(|lam|, 1), for is_real of a result
CLEARANCE = 10  # clusters or points within CLEARANCE * eps_cluster are close
RESTRICTION_ROOM = 10  # room for the round-off in b in _reject_multiple_of_q's test
RESTRICTION_TOL_DIV_MIN = 1e-12  # least tol_div at which the restriction decides
EVAL_FLOOR = 1e-4  # least |b| at the evaluation point, relative to max |b_k|
TOL_DIV_ILL = 1e-4  # an ill-conditioned division's residual bound, relative to ||diff||
TOL_DRIFT = 1e-6  # largest imaginary drift of a row that _real_parts makes real
EPS_DISC_FLOOR = 1e-5  # in_discriminant's least clustering resolution
TOL_ISCLOSE = 1e-8  # Multipole.isclose's default bound on scale and coefficients
LINE_KEY_DIGITS = 9  # the decimals of the rounded half of a line's sort key
DISC_RESULTANT_MAX_DEGREE = 8  # the largest restriction degree the resultant checks
ENUMERATION_CAP = 10 ** 6  # the most parcellings, sequences or fibers an enumeration lists

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
    sum to an odd number, and EnumerationLimit, before listing any, when
    there are more than ENUMERATION_CAP.  The parcellings of the last 128
    multiplicity vectors are kept and shared (they are frozen); the list is
    new at every call.
    """
    mults = tuple(int(m) for m in multiplicities)
    if any(m < 0 for m in mults):
        raise ValueError("multiplicities must be non-negative")
    if sum(mults) % 2:
        raise OddTotal("multiplicities sum to %d" % sum(mults))
    if _parcelling_count(tuple(sorted(m for m in mults if m))) > ENUMERATION_CAP:
        raise EnumerationLimit("more than %d parcellings" % ENUMERATION_CAP)
    return list(_parcellings(mults))


@functools.lru_cache(maxsize=1024)
def _parcelling_count(mults: Tuple[int, ...]) -> int:
    """len(_parcellings(mults)) for sorted positive mults, or a number above
    ENUMERATION_CAP when that is larger, counted without listing them.

    The first cluster is doubled a times and paired with the others in
    every way that uses it up; the count of what is left depends only on
    its sorted multiplicities.  The sum stops once it passes the cap.
    """
    if not mults:
        return 1
    total = 0
    for a in range(mults[0] // 2 + 1):
        for left in _take(mults[0] - 2 * a, mults[1:]):
            total += _parcelling_count(tuple(sorted(m for m in left if m)))
            if total > ENUMERATION_CAP:
                return total
    return total


def _take(r: int, mults: Tuple[int, ...]):
    """What is left of mults after each way of taking r from them in all,
    at most mults[j] from each j."""
    if not mults:
        if r == 0:
            yield ()
        return
    for t in range(min(r, mults[0]) + 1):
        for rest in _take(r - t, mults[1:]):
            yield (mults[0] - t,) + rest


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
    return tuple([round(v, LINE_KEY_DIGITS) for v in parts] + parts)


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

    def isclose(self, other: "Multipole", tol: float = TOL_ISCLOSE) -> bool:
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

    def is_real(self, tol: float = TOL_REAL_RESULT) -> bool:
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


def _reject_multiple_of_q(P: HomogPoly, Q: QuadForm, tol_div: float,
                          b: Optional[BinaryForm] = None) -> None:
    """Raise DivisibleByQ, carrying the quotient P / Q, when P is a multiple of Q.

    The division decides, unless b, P's restriction to the conic, shows
    without it that P is not a multiple.  Q vanishes on the conic, so
    ||b|| <= ||T||_2 * ||P - Q * R|| for every R, where T is
    _restriction_matrix(Q, deg P); ||b|| > RESTRICTION_ROOM * ||T||_2 *
    tol_div * ||P|| therefore puts the division's residual above its bound
    tol_div * ||P||, the factor leaving room for the round-off in b.  Below
    RESTRICTION_TOL_DIV_MIN that room is too small, and the division runs.
    """
    if P.degree < 2:
        return
    if b is not None and tol_div >= RESTRICTION_TOL_DIV_MIN and b.norm() \
            > RESTRICTION_ROOM * _restriction_norm(Q, P.degree) * tol_div * P.norm():
        return
    try:
        quotient = divide_by_quadric(P, Q, tol_div=tol_div)
    except NotDivisible:
        return
    raise DivisibleByQ("input is a multiple of the quadratic form", quotient)


def _restriction_of(P: HomogPoly, Q: QuadForm, tol_div: float
                    ) -> Tuple[ConicParam, BinaryForm]:
    """The conic's parameterization and P's restriction to it, once
    _reject_multiple_of_q, given the restriction, has let P pass."""
    param = conic_param(Q)
    b = restrict_to_conic(P, param)
    _reject_multiple_of_q(P, Q, tol_div, b)
    return param, b


def _trial_points() -> np.ndarray:
    """The 64 golden-ratio trial parameters [1 : golden**k], normalized as
    ProjPoint1 normalizes them, as a read-only (64, 2) array."""
    powers = [1.0]
    for _ in range(63):
        powers.append(powers[-1] * _GOLDEN)
    trials = _normalize_rows(np.array([[1.0, p] for p in powers], dtype=complex))
    trials.flags.writeable = False
    return trials


_TRIALS = _trial_points()
# each trial point's coordinates as Python complex numbers and its norm,
# as chordal takes them
_TRIAL_COORDS = _TRIALS.tolist()
_TRIAL_NORMS = [_norm(u) for u in _TRIAL_COORDS]


@form_operator
def _trial_conic_points(Q: QuadForm) -> np.ndarray:
    """The conic points of the trial parameters: row k of this read-only
    (64, 3) array has the bits of conic_param(Q).point at _TRIALS[k]."""
    pts = conic_param(Q).points(_TRIALS)
    pts.flags.writeable = False
    return pts


@form_operator
def _trial_monomials(Q: QuadForm, degree: int, k: int) -> np.ndarray:
    """The monomials of grade `degree` at trial point k's conic point, as
    the read-only (1, grade_dim(degree)) row HomogPoly.__call__ builds for
    it: row @ P.coeffs has the bits of P at that point."""
    row = _monomial_values(degree, _trial_conic_points(Q)[k:k + 1])
    row.flags.writeable = False
    return row


class _FactorContext:
    """One P on one quadric: the work every parcelling shares, done once.

    The restriction, the divisibility test and the roots are computed once.
    The divisibility test divides P by Q only when the restriction b cannot
    decide it: Q vanishes on the conic, so ||b|| <= ||T||_2 * ||P - Q * R||
    for the restriction matrix T of P's degree and every R, and
    ||b|| > RESTRICTION_ROOM * ||T||_2 * tol_div * ||P|| already shows that
    the division's residual exceeds tol_div * ||P|| (_reject_multiple_of_q).
    So a generic P is not divided; a P near a multiple of Q is, and so is
    every P when tol_div < RESTRICTION_TOL_DIV_MIN.  tol_div is TOL_DIV
    but for multipole_series, which raises it to each band's noise floor.

    _factor_rows takes a list of parcellings as one stack of rows, and
    finds for them the point q where lambda is fixed, P(q) and, by one
    line_through call, the lines of their distinct pieces.  It gives every
    row's factorization, or raises the error of the first failing row.  q
    is the conic point of the trial parameter _evaluation_index picks, read
    from a table cached per form (_trial_conic_points), and P(q) is the
    product of P's coefficients with that point's monomial row, cached per
    (form, degree, trial index) (_trial_monomials); neither table depends
    on P.  Each row is computed as it is alone, except that a remainder R,
    from one matrix product for the stack, can differ in its last bits with
    the number of rows that share the call.

    Every division by Q, the divisibility test and the parcellings'
    defects, goes through divide_rows_by_quadric, which applies one operator
    cached per (Q, degree); the context holds no operator of its own.

    at_scale gives the same P clustered at another eps_cluster, sharing all
    of the above that the scale does not change.

    A context checks nothing of what a strategy asks of its input: the
    entry that takes the strategy does (factor, full_decompose,
    multipole_series).  Rows that must be real are made real and gated in
    the one _factor_rows pass (_real_parts), before any object is built,
    and share the line table's objects as complex rows do.
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
        # roots_projective's steps, with the raw roots and the merge groups
        # kept for at_scale
        self._raw = _raw_roots(self.b)
        self._groups = _merge_groups(self._raw[2], eps_cluster)
        self._take_clusters(_clusters_of(*self._raw, self._groups))
        self.eps_cluster = eps_cluster

    def _take_clusters(self, clusters: List[RootCluster]) -> None:
        """Take the clusters, their multiplicities, parameters, conic points
        and least separation."""
        self.clusters: List[RootCluster] = clusters
        self.multiplicities: List[int] = [c.multiplicity for c in clusters]
        params = np.array([c.point.coords for c in clusters])
        self.points = ProjPoint2._of(self.param.points(params))
        near = _pairwise_chordal(params)
        np.fill_diagonal(near, np.inf)
        self._min_separation = float(near.min())

    @property
    def ill_conditioned(self) -> bool:
        """Whether two clusters lie within CLEARANCE * eps_cluster of each other."""
        return bool(self._min_separation < CLEARANCE * self.eps_cluster)

    def at_scale(self, eps_cluster: float) -> "_FactorContext":
        """This P with its roots merged at eps_cluster instead.

        Shares P, its norm, the divisibility test, the restriction and the
        raw roots; when the roots merge into the same groups as here, also
        the clusters and their conic points.
        """
        ctx = copy.copy(self)
        ctx._groups = _merge_groups(self._raw[2], eps_cluster)
        if ctx._groups != self._groups:
            ctx._take_clusters(_clusters_of(*self._raw, ctx._groups))
        ctx.eps_cluster = eps_cluster
        return ctx

    def _evaluation_index(self) -> int:
        """Index in _TRIALS of the first golden-ratio trial point clear of
        the divisor with |b| not small.

        A trial point is clear when its chordal distance to every cluster
        exceeds CLEARANCE * eps_cluster; |b| there must not be below
        EVAL_FLOOR * max |b_k|.  Each distance is chordal's, in its order of
        operations, with every cluster's coordinates and norm taken once.
        """
        clear = CLEARANCE * self.eps_cluster
        max_c = float(np.max(np.abs(self.b.coeffs)))
        others = []
        for c in self.clusters:
            v = c.point.coords.tolist()
            others.append((v[0], v[1], _norm(v)))
        for k, (u0, u1) in enumerate(_TRIAL_COORDS):
            nu = _TRIAL_NORMS[k]
            if all(abs(u0 * v1 - u1 * v0) / (nu * nv) > clear for v0, v1, nv in others) \
                    and abs(self.b.eval_uv(*_TRIALS[k])) > EVAL_FLOOR * max_c:
                return k
        raise NoEvaluationPoint("no conic evaluation point cleared the thresholds")

    def _factor_rows(self, parcellings: Sequence[GeneralizedParcelling],
                     real: bool = False) -> List[MultipoleFactorization]:
        """P = lam * prod(L) + Q * R over each parcelling, each certified once.
        Every parcelling must use each cluster its multiplicity times.
        With real, the rows are made real by _real_parts once they have
        passed every check below, a late NoEvaluationPoint included.

        The one check is on the defect diff = P - lam * prod(L).  In a
        well-conditioned context R is zero when ||diff|| is at most
        min(tol_div, TOL_FACT) * ||P||, and otherwise the division of diff
        by Q must leave a residual ||Q * R - diff|| within that same bound.
        The bound is relative to ||P|| because ||diff|| has lost digits to
        cancellation when lambda * prod(L) nearly equals P.  Close clusters
        (ill_conditioned) take R = 0 at tol_div * ||P|| and otherwise allow
        a division residual of TOL_DIV_ILL * ||diff||.  A linear P has no R: it
        must lie within TOL_FACT * ||P|| of lam * L.

        Each check runs on the rows before the first failure found so far,
        in the order a single row meets them, so the error raised is the one
        the first failing parcelling raises alone.

        No Python loop or generator runs per row: the pieces are one (n, d)
        array of columns into the call's lines, lambda's denominators Python
        complex products in piece order, taken one piece of every row at a
        time, and the rows' lines and remainders views, not validated copies.
        Rows that use the same line share one HomogPoly of it.
        """
        n = len(parcellings)
        if n == 0:
            return []
        # every row's d = deg P pieces in turn, and the distinct pieces in
        # order of first use; every row uses every cluster, so a point off
        # the conic, like a failed search for the evaluation point, fails row 0
        pieces = list(itertools.chain.from_iterable(
            map(operator.attrgetter("pieces"), parcellings)))
        distinct = list(dict.fromkeys(pieces))
        k = self._evaluation_index()
        q = _trial_conic_points(self.Q)[k]
        p_at_q = complex((_trial_monomials(self.Q, self.P.degree, k) @ self.P.coeffs)[0])
        ends = np.array(distinct, dtype=np.intp)
        w = line_through(self.points[ends[:, 0]], self.points[ends[:, 1]], self.Q)
        # each line scaled so its max-modulus coefficient is 1, and its value
        # at q as the (1, 3) @ (3,) product of the degree-1 monomials at q,
        # as HomogPoly.__call__ takes them, with one line
        w = w / w[np.arange(len(w)), np.argmax(np.abs(w), axis=1)][:, None]
        values = (_monomial_values(1, q.reshape(1, 3)) @ w[:, :, None])[:, 0, 0].tolist()
        d, late = self.P.degree, None
        flat = list(map(dict(zip(distinct, itertools.count())).__getitem__, pieces))
        cols = np.array(flat, dtype=np.intp).reshape(-1, d)
        # lambda's denominator as a Python complex, 1 times each line's
        # value at q in piece order, one piece of every row at a time
        denoms = [1.0 + 0.0j] * n
        for k in range(d):
            denoms = list(map(operator.mul, denoms, map(values.__getitem__, flat[k::d])))
        if 0 in denoms:
            n, late = denoms.index(0), NoEvaluationPoint(
                "evaluation point lies on a factor line")
            if n == 0:
                raise late
        lams = list(map(operator.truediv, itertools.repeat(p_at_q), denoms[:n]))
        lines = w[cols[:n]]
        diff = self.P.coeffs - np.array(lams)[:, None] * _line_products(lines)
        norms = np.linalg.norm(diff, axis=1)
        deg_r = max(self.P.degree - 2, 0)
        rem = np.zeros((n, grade_dim(deg_r)), dtype=complex)
        if self.P.degree < 2:
            if np.any(norms > TOL_FACT * self.pnorm):
                raise SolveFailure("linear input is not proportional to its line")
        else:
            tol = self.tol_div if self.ill_conditioned else min(self.tol_div, TOL_FACT)
            big = np.flatnonzero(norms > tol * self.pnorm)
            if big.size:
                tol, ref = (TOL_DIV_ILL, None) if self.ill_conditioned else (tol, self.pnorm)
                try:
                    rem[big] = divide_rows_by_quadric(diff[big], self.P.degree, self.Q,
                                                      tol_div=tol, ref_norm=ref)
                except NotDivisible as exc:
                    raise SolveFailure(
                        "factorization defect is not a multiple of Q: %s" % exc) from None
        if late is not None:
            raise late
        if real:
            lams, w, rem = self._real_parts(lams, w, cols, rem)
        # one HomogPoly per line of the table, shared by the rows that use it
        lines_of = np.empty(len(w), dtype=object)
        lines_of[:] = list(map(HomogPoly._of, itertools.repeat(1), w))
        return list(map(MultipoleFactorization, lams, lines_of[cols].tolist(),
                        map(HomogPoly._of, itertools.repeat(deg_r), rem),
                        parcellings, itertools.repeat(self.ill_conditioned)))

    def _real_parts(self, lams: List[complex], w: np.ndarray, cols: np.ndarray,
                    rem: np.ndarray) -> Tuple[List[complex], np.ndarray, np.ndarray]:
        """The real parts, as complex, of the lambdas, the line table w (row
        i of the stack takes lines cols[i]) and the remainders.  Each row's
        imaginary drift must be at most TOL_DRIFT and, unless ill-conditioned,
        the real parts of the rows before the first drifting one must
        rebuild P within TOL_FACT * ||P||: the first failing row's error.
        """
        lam = np.array(lams)
        drift = np.maximum.reduce([
            np.abs(lam.imag) / np.maximum(np.abs(lam), 1.0),
            np.max(np.abs(w.imag), axis=1)[cols].max(axis=1),
            np.max(np.abs(rem.imag), axis=1) / np.maximum(np.linalg.norm(rem, axis=1), 1.0)])
        drifting = np.flatnonzero(drift > TOL_DRIFT)
        n = int(drifting[0]) if drifting.size else len(lam)
        w, rem = w.real.astype(complex), rem.real.astype(complex)
        if n and not self.ill_conditioned:
            recon = lam.real[:n, None] * _line_products(w[cols[:n]])
            if self.P.degree >= 2:
                recon = recon + poly_mul_rows(self.Q.poly().coeffs[None, :], 2, rem[:n],
                                              self.P.degree - 2)
            res = np.linalg.norm(recon - self.P.coeffs, axis=1)
            bad = np.flatnonzero(res > TOL_FACT * self.pnorm)
            if bad.size:
                raise SolveFailure("real factorization residual %.3e too large" % res[bad[0]])
        if drifting.size:
            raise ConjugationPairingFailure(
                "factorization expected to be real has imaginary drift %.3e" % drift[n])
        return lam.real.astype(complex).tolist(), w, rem

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

    def rows(self, strategy: str) -> List[MultipoleFactorization]:
        """The strategy's rows as _factor_rows gives them, or its error
        raised: every parcelling's for enumerate, else the one parcelling_for
        picks, made real in the same pass for real_unique."""
        if strategy == "enumerate":
            return self._factor_rows(enumerate_parcellings(self.multiplicities))
        return self._factor_rows([self.parcelling_for(strategy)],
                                 real=strategy == "real_unique")

    def conjugation(self, require_free: bool) -> List[int]:
        """Index map pairing each cluster with the conjugate conic point's cluster.

        Conjugation acts on the surface points, not the parameter coordinates:
        the partner of a cluster is the one whose conic point is proportional
        to the componentwise conjugate, within CLEARANCE * eps_cluster, but
        never within less than TOL_SAME_POINT: conjugate points differ by
        round-off even at eps_cluster = 0.
        """
        tol = max(CLEARANCE * self.eps_cluster, TOL_SAME_POINT)
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


def _is_real(grades: Iterable[HomogPoly], ref_norm: float) -> bool:
    """Whether input is taken as real: no grade's imaginary part exceeds
    TOL_REAL * ref_norm, each caller giving its own reference norm.  A NaN
    imaginary part or reference norm is not real."""
    bound = TOL_REAL * ref_norm
    return all(float(np.max(np.abs(g.coeffs.imag), initial=0.0)) <= bound for g in grades)


def _check_real_input(P: HomogPoly) -> None:
    if not _is_real([P], max(P.norm(), NORM_FLOOR)):
        raise NotReal("polynomial has non-real coefficients")


def factor_on_quadric(P: HomogPoly, Q: QuadForm, parcelling: GeneralizedParcelling,
                      eps_cluster: float = EPS_CLUSTER) -> MultipoleFactorization:
    """Factor P as lambda * prod(lines) + Q * R for one chosen parcelling."""
    ctx = _FactorContext(P, Q, eps_cluster=eps_cluster)
    n = len(ctx.clusters)
    if not all(0 <= i < n for piece in parcelling.pieces for i in piece) \
            or parcelling.multiplicity_use(n) != ctx.multiplicities:
        raise ValueError("parcelling does not match the root multiplicities")
    return ctx._factor_rows([parcelling])[0]


def all_factorizations(P: HomogPoly, Q: QuadForm,
                       eps_cluster: float = EPS_CLUSTER) -> List[MultipoleFactorization]:
    """Factorizations for every parcelling, in enumeration order."""
    ctx = _FactorContext(P, Q, eps_cluster=eps_cluster)
    return ctx.rows("enumerate")


def real_factor(P: HomogPoly, Q: QuadForm,
                eps_cluster: float = EPS_CLUSTER) -> MultipoleFactorization:
    """The unique real factorization of real P over a definite real Q.

    The conic of a definite form has no real points, so conjugation acts
    freely on the intersection divisor and pairing every cluster with its
    conjugate is the only conjugation-stable parcelling.
    """
    return factor(P, Q, "real_unique", eps_cluster=eps_cluster)


def _auto_strategy(grades: Iterable[HomogPoly], ref_norm: float, Q: QuadForm) -> str:
    """real_unique for real input (_is_real of the grades at ref_norm) over a
    definite real form, else canonical."""
    if _is_real(grades, ref_norm) and Q.is_definite:
        return "real_unique"
    return "canonical"


def factor(P: HomogPoly, Q: QuadForm, strategy: str = "canonical",
           eps_cluster: float = EPS_CLUSTER) -> MultipoleFactorization:
    """One factorization of P on the cone of Q, chosen by strategy.

    canonical takes canonical_parcelling of the root clusters; real_unique
    is real_factor, the conjugation-stable one for real P over a definite
    real form.
    """
    if strategy not in ("canonical", "real_unique"):
        raise ValueError("unknown factoring strategy %r" % (strategy,))
    if strategy == "real_unique":
        _check_real_input(P)
        if not Q.is_definite:
            raise NotDefinite("real factorization needs a definite real form")
    ctx = _FactorContext(P, Q, eps_cluster=eps_cluster)
    return ctx.rows(strategy)[0]


def real_factorizations(P: HomogPoly, Q: QuadForm,
                        eps_cluster: float = EPS_CLUSTER) -> List[MultipoleFactorization]:
    """All factorizations with real lines: one per conjugation-stable parcelling.

    Conjugate cluster pairs are forced together; only the clusters at real
    parameters leave freedom, so the count is the parcelling count of the
    multiplicity vector restricted to the real clusters.
    """
    _check_real_input(P)
    if not Q.is_real:
        raise NotReal("quadratic form must be real")
    ctx = _FactorContext(P, Q, eps_cluster=eps_cluster)
    sigma = ctx.conjugation(require_free=False)
    stable = [par for par in enumerate_parcellings(ctx.multiplicities)
              if all(tuple(sorted((sigma[i], sigma[j]))) == (i, j) for i, j in par.pieces)]
    return ctx._factor_rows(stable, real=True)


def intersection_clusters(P: HomogPoly, Q: QuadForm,
                          eps_cluster: float = EPS_CLUSTER) -> List[RootCluster]:
    """Clusters of the divisor P meets on {Q = 0}, in canonical order; a
    multiple of Q is refused as a factor context refuses it, at TOL_DIV."""
    b = _restriction_of(P, Q, TOL_DIV)[1]
    if not np.any(b.coeffs):
        raise DivisibleByQ("restriction to the conic vanishes identically")
    return roots_projective(b, eps_cluster=eps_cluster)


def in_discriminant(P: HomogPoly, Q: QuadForm,
                    eps_cluster: float = EPS_CLUSTER) -> bool:
    """Whether the intersection divisor of P on {Q = 0} has a multiple point.

    The divisor has a multiple point exactly when the discriminant resultant
    of the conic restriction vanishes.  Numerically the decision is made by
    root clustering at resolution max(CLEARANCE * eps_cluster,
    EPS_DISC_FLOOR), which stays reliable at every degree.  The normalized
    resultant magnitude corroborates it at restriction degree at most
    DISC_RESULTANT_MAX_DEGREE, where its scale has not yet collapsed: when
    the clusters see a multiple point there and the resultant does not,
    SolveFailure is raised.  Every other disagreement, and every one above
    that degree, goes to the clusters.  P is tested for being a multiple of
    Q as a factor context tests it, at TOL_DIV: the restriction decides
    where it can, the division elsewhere.  A nonzero constant meets the conic nowhere, so
    its divisor has no multiple point.
    """
    b = _restriction_of(P, Q, TOL_DIV)[1]
    max_c = float(np.max(np.abs(b.coeffs)))
    if max_c == 0.0:
        raise DivisibleByQ("restriction to the conic vanishes identically")
    _check_eps_cluster(eps_cluster)
    eps_mult = max(CLEARANCE * eps_cluster, EPS_DISC_FLOOR)
    clusters = roots_projective(b, eps_cluster=eps_mult)
    multiple = any(c.multiplicity >= 2 for c in clusters)
    if multiple and b.degree <= DISC_RESULTANT_MAX_DEGREE:
        # the resultant of the normalized restriction's partials, against
        # the Hadamard bound of their Sylvester matrix S
        S = _discriminant_matrix(BinaryForm(b.degree, b.coeffs / max_c))
        rows = np.linalg.norm(S, axis=1)
        scale = float(np.prod(np.where(rows == 0, 1.0, rows)))
        if not abs(complex(np.linalg.det(S))) <= TOL_DISC * scale:
            raise SolveFailure("cluster and resultant discriminant signals disagree")
    return multiple
