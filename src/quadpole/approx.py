"""Least-squares approximation of sampled functions on the surface {Q = 1}.

A function known at quadrature nodes is split into its best-approximation
components from the harmonic space of each degree (its "bands").  Projection
happens in the discrete inner product of the rule, so the Pythagoras identity
between band norms and the residual is exact to roundoff, and any Parseval
defect measures only the tail beyond the cutoff degree.  Each band, being
harmonic, factors on the cone into a scale and lines, and the resulting
multipole reproduces the band exactly through the potential-derivative
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

import numpy as np

from .algebra import (
    HomogPoly,
    QuadForm,
    QuadratureRule,
    TOL_DIV,
    _UNIT,
    _exponent_table,
    _lex_index,
    _monomial_values,
    _mul_matrix,
    form_operator,
    grade_dim,
    quad_reduce,
)
from .conic import EPS_CLUSTER
from .errors import (
    ConjugationPairingFailure,
    DivisibleByQ,
    InsufficientQuadrature,
    NoEvaluationPoint,
    SolveFailure,
)
from .harmonic import delta_matrix
from .maxwell import TOL_REPRODUCE, maxwell_fit, maxwell_poly
from .sylvester import Multipole, _FactorContext, _auto_strategy

TOL_ZERO_BAND = 1e-12
TOL_BAND_FIT = 1e-12  # a band fit this close, relative, ends its escalation
NOISE_ROOM = 1e3  # a band's least division tolerance, in units of its noise floor
EPS_CLUSTER_MAX = 0.2  # the largest clustering scale the escalation reaches
ESCALATION = 10.0  # the factor from one clustering scale of the escalation to the next


def _surface_nodes(Q: QuadForm, rule: QuadratureRule) -> np.ndarray:
    return rule.sphere_points() @ Q.a_inv


_SPHERE = QuadForm.sphere()


@lru_cache(maxsize=None)
def _sphere_rule(exact_degree: int) -> QuadratureRule:
    return QuadratureRule(exact_degree)


@form_operator
def _pullback_matrix(Q: QuadForm, k: int) -> np.ndarray:
    """T_k, the grade-k pullback p(v) -> p(vA) through A = quad_reduce(Q).

    Monomial values obey M_k(vA) = M_k(v) @ T_k, so column m of T_k holds the
    coefficients of (vA)^m.  With i the first axis m uses, (vA)^m is the
    linear form (vA)_i times (vA)^(m - e_i), a column of T_(k-1): one product
    per axis builds the grade from the one below.
    """
    if k == 0:
        return np.ones((1, 1), dtype=complex)
    A = quad_reduce(Q)
    low = _pullback_matrix(Q, k - 1)
    exps = _exponent_table(k)
    first = np.argmax(exps > 0, axis=0)
    out = np.empty((grade_dim(k), grade_dim(k)), dtype=complex)
    for i in range(3):
        cols = np.flatnonzero(first == i)
        a, _, c = exps[:, cols] - _UNIT[i][:, None]
        prev = _lex_index(a, c, k - 1)
        out[:, cols] = _mul_matrix(HomogPoly(1, A[:, i]), k - 1) @ low[:, prev]
    return out


@form_operator
def _band_basis(Q: QuadForm, k: int, exact_degree: int
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the degree-k harmonic space at the nodes of
    QuadratureRule(exact_degree).

    Returns (C, V): C holds coefficient columns, V the matching node-value
    columns, orthonormal in the weighted discrete inner product.

    The basis is built on the unit sphere only.  The kernel of the Laplacian
    matrix is orthonormalized by two QR passes on the weighted value columns;
    each column's phase is fixed so its largest coefficient entry is positive
    real, making the basis deterministic.  Any other form Q = A A^T pulls it
    back through v -> vA: a Q-harmonic is a sphere harmonic of vA, and the
    nodes of {Q = 1} map onto the sphere's nodes, so V is the sphere's array
    itself and C is T_k @ C_sphere (see _pullback_matrix).  The phase
    convention then holds for the sphere's columns, not for these.
    """
    if Q.key != _SPHERE.key:
        coeffs, values = _band_basis(_SPHERE, k, exact_degree)
        return np.asfortranarray(_pullback_matrix(Q, k) @ coeffs), values
    rule = _sphere_rule(exact_degree)
    dm = delta_matrix(Q, k)
    if dm.shape[0] == 0:
        kernel = np.eye(grade_dim(k), dtype=complex)
    else:
        _, s, vh = np.linalg.svd(dm)
        tol = max(dm.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
        rank = int(np.sum(s > tol))
        kernel = vh[rank:].conj().T
    mono = _monomial_values(k, _surface_nodes(Q, rule))
    # one product per column: a single product with the whole kernel sums
    # in another order and moves the sphere's bands in the last bits
    vals = np.column_stack([mono @ np.ascontiguousarray(kernel[:, j])
                            for j in range(kernel.shape[1])])
    sw = np.sqrt(rule.weights)
    q1, r1 = np.linalg.qr(vals * sw[:, None])
    q2, r2 = np.linalg.qr(q1)
    coeffs = np.linalg.solve((r2 @ r1).T, kernel.T).T
    values = q2 / sw[:, None]
    for j in range(coeffs.shape[1]):
        idx = int(np.argmax(np.abs(coeffs[:, j])))
        phase = coeffs[idx, j] / abs(coeffs[idx, j])
        coeffs[:, j] /= phase
        values[:, j] /= phase
    return coeffs, values


@dataclass(frozen=True, eq=False)
class BandDecomposition:
    """Best harmonic approximations per degree plus the residual they leave.

    bands[k] is the degree-k component; band_norms, residual_norm, and f_norm
    are all taken in the discrete inner product of the rule on {Q = 1}, so
    f_norm**2 == sum(band_norms**2) + residual_norm**2 to roundoff.
    """

    bands: Tuple[HomogPoly, ...]
    residual_norm: float
    band_norms: Tuple[float, ...]
    f_norm: float
    Q: QuadForm
    rule: QuadratureRule

    @property
    def d_max(self) -> int:
        return len(self.bands) - 1

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        out = np.zeros(pts.shape[0], dtype=complex)
        for band in self.bands:
            out = out + band.eval_many(pts)
        return out


def l2_project(f: Callable[[np.ndarray], np.ndarray], Q: QuadForm, d_max: int,
               rule: QuadratureRule) -> BandDecomposition:
    """Project a sampled function onto the harmonic bands of degree <= d_max.

    f is called once on the rule's nodes mapped to {Q = 1} and must return one
    value per node; no interpolation happens anywhere.  The rule must be exact
    to degree 2 * d_max so the band Gram matrices are exact.
    """
    if d_max < 0:
        raise ValueError("d_max must be non-negative")
    if rule.exact_degree < 2 * d_max:
        raise InsufficientQuadrature(
            "rule exact to %d cannot project up to degree %d"
            % (rule.exact_degree, d_max))
    pts = _surface_nodes(Q, rule)
    fvals = np.asarray(f(pts), dtype=complex).reshape(-1)
    if fvals.shape[0] != pts.shape[0]:
        raise ValueError("sampled function must return one value per node")
    w = rule.weights
    bands: List[HomogPoly] = []
    norms: List[float] = []
    acc = np.zeros_like(fvals)
    for k in range(d_max + 1):
        coeffs, values = _band_basis(Q, k, rule.exact_degree)
        comp = values.conj().T @ (w * fvals)
        bands.append(HomogPoly(k, coeffs @ comp))
        norms.append(float(np.linalg.norm(comp)))
        acc = acc + values @ comp
    resid = fvals - acc
    residual_norm = float(np.sqrt(max(np.real(np.dot(w, np.abs(resid) ** 2)),
                                      0.0)))
    f_norm = float(np.sqrt(max(np.real(np.dot(w, np.abs(fvals) ** 2)), 0.0)))
    return BandDecomposition(tuple(bands), residual_norm, tuple(norms), f_norm,
                             Q, rule)


def parseval_gap(f: Callable[[np.ndarray], np.ndarray],
                 decomp: BandDecomposition) -> float:
    """Energy of f not captured by the bands: <f, f> - sum of band norms^2.

    Non-negative up to roundoff, zero exactly when f lies in the projected
    space, and shrinking as d_max grows.
    """
    pts = _surface_nodes(decomp.Q, decomp.rule)
    fvals = np.asarray(f(pts), dtype=complex).reshape(-1)
    total = float(np.real(np.dot(decomp.rule.weights, np.abs(fvals) ** 2)))
    return total - float(sum(n * n for n in decomp.band_norms))


@dataclass(frozen=True, eq=False)
class SeriesMultipoles:
    """One multipole per band: a constant plus scaled line products.

    terms[k] is the band-k multipole (the zero multipole, with no lines and
    scale 0, when the band vanishes); scales[k] converts its potential-
    derivative polynomial back into the band; norms[k] is the ambient
    coefficient norm of the scaled line product, with norms[0] = |lam|.
    """

    lam: complex
    terms: Dict[int, Multipole]
    scales: Dict[int, complex]
    norms: Dict[int, float]

    @property
    def d_max(self) -> int:
        return max(self.norms) if self.norms else 0

    def band_poly(self, k: int, Q: QuadForm) -> HomogPoly:
        """The degree-k harmonic polynomial this band's multipole encodes."""
        if k == 0:
            return HomogPoly(0, [self.lam])
        w = self.terms[k]
        if w.degree == 0:
            return HomogPoly.zero(k)
        vectors = [np.asarray(line, dtype=complex) @ Q.b_inv
                   for line in w.lines]
        return maxwell_poly(Q, vectors) * self.scales[k]


def multipole_series(decomp: BandDecomposition, Q: QuadForm,
                     eps_cluster: float = EPS_CLUSTER) -> SeriesMultipoles:
    """Factor every band of a decomposition into one multipole.

    Real bands over a definite real form go through the unique real
    factorization; otherwise the deterministic greedy parcelling is used.
    Bands below TOL_ZERO_BAND * f_norm relative norm become the zero multipole.
    Each nonzero multipole is checked to reproduce its band within
    TOL_REPRODUCE relative, through the potential-derivative construction.

    A band's division tolerance is TOL_DIV raised to NOISE_ROOM times that
    band's noise floor.

    A band that does not reproduce within TOL_BAND_FIT relative is factored
    again with its roots merged at ESCALATION times the scale, from
    eps_cluster while the scale is at most EPS_CLUSTER_MAX; so eps_cluster
    must lie in (0, EPS_CLUSTER_MAX].  A scale whose roots merge into the
    same groups as a scale that was fit is skipped: its clusters, parcelling
    and lines are that scale's, so it could only give the same fit again.

    A harmonic band is never a multiple of Q, so a band that its division
    tolerance takes for one lies too near its noise floor to factor, and
    raises SolveFailure.
    """
    if not 0.0 < eps_cluster <= EPS_CLUSTER_MAX:
        raise ValueError("eps_cluster must lie in (0, %r], not %r"
                         % (EPS_CLUSTER_MAX, eps_cluster))
    scale_ref = max(decomp.f_norm, 1.0)
    strategy = _auto_strategy(decomp.bands, scale_ref, Q)
    lam = complex(decomp.bands[0].coeffs[0])
    terms: Dict[int, Multipole] = {}
    scales: Dict[int, complex] = {}
    norms: Dict[int, float] = {0: abs(lam)}
    for k in range(1, decomp.d_max + 1):
        fk = decomp.bands[k]
        if decomp.band_norms[k] <= TOL_ZERO_BAND * scale_ref:
            terms[k] = Multipole(0j, ())
            scales[k] = 0j
            norms[k] = 0.0
            continue
        # a band extracted from samples carries absolute noise at machine
        # precision relative to f_norm, so neither the cone division nor the
        # root clustering can be certified below that floor; an m-fold cone
        # root splits into a bunch of radius floor**(1/m), so the clustering
        # scale is escalated until the reproduction gate passes.  The band
        # is restricted and its roots found once; each scale re-merges them
        floor = np.finfo(float).eps * scale_ref / decomp.band_norms[k]
        band_tol_div = max(TOL_DIV, NOISE_ROOM * floor)
        w, c, best = None, 0j, np.inf
        last_err = None
        try:
            ctx = _FactorContext(fk, Q, eps_cluster=eps_cluster, tol_div=band_tol_div)
        except DivisibleByQ as exc:
            raise SolveFailure("band %d lies within its noise floor of a multiple of Q"
                               % k) from exc
        fitted = None  # the last context whose candidate was fit
        eps = eps_cluster
        while eps <= EPS_CLUSTER_MAX:
            if eps != eps_cluster:
                ctx = ctx.at_scale(eps)
            eps *= ESCALATION
            if fitted is not None and ctx._groups == fitted._groups:
                continue
            try:
                cand = ctx.rows(strategy)[0].multipole()
                cc, defect = maxwell_fit(fk, Q, cand.lines)[1:]
                fitted = ctx
                if defect < best:
                    w, c, best = cand, cc, defect
                if defect <= TOL_BAND_FIT * fk.norm():
                    break
            except (SolveFailure, ConjugationPairingFailure,
                    NoEvaluationPoint) as exc:
                last_err = exc
        if w is None:
            raise last_err
        if best > TOL_REPRODUCE * fk.norm():
            raise SolveFailure("band %d multipole deviates by %.3e relative"
                               % (k, best / fk.norm()))
        terms[k] = w
        scales[k] = c
        norms[k] = float(w.product_poly().norm())
    return SeriesMultipoles(lam, terms, scales, norms)


def corollary20_stat(s: SeriesMultipoles) -> List[float]:
    """Partial sums of the squared multipole norms, band by band.

    The sequence is the raw diagnostic a weighted summability bound would
    act on; for a polynomial input it becomes constant past the degree.
    """
    rho_sq = [s.norms[k] ** 2 for k in sorted(s.norms)]
    return [float(v) for v in np.cumsum(rho_sq)]
