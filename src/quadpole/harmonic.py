"""Harmonic theory for the Laplacian attached to a quadratic form.

The operator is delta_Q = sum_jk (B^-1)_jk d_j d_k; its kernel on each grade
splits the grade as Ker(delta_Q) + Q*V(d-2), which iterates into the full
decomposition P = sum_k Q^k H_k with every H_k annihilated by delta_Q.  The
split of a grade has a closed form in powers of Q and delta_Q (see
harmonic_project), so no linear system is solved for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from .algebra import (
    HomogPoly,
    NORM_FLOOR,
    Poly,
    QuadForm,
    _exponent_table,
    _lex_index,
    form_operator,
    grade_dim,
    grade_split,
    homogenize_on_quadric,
    poly_mul,
    poly_mul_rows,
    surface_samples,
)
from .errors import SolveFailure

TOL_HARM = 1e-9  # every delta_Q residual gate's bound, relative
TOL_DIRICHLET_DELTA = 1e-7  # dirichlet_solve's bound on delta_Q(P) - m, relative
TOL_DIRICHLET_SURFACE = 1e-6  # dirichlet_solve's bound on P - n at surface samples


# delta_Q has one term d_j d_k per pair j <= k, taken in the order of
# monomials(2): column t of _PAIRS is the exponent e_j + e_k of term t.
_PAIRS = _exponent_table(2)


@lru_cache(maxsize=None)
def _delta_table(degree: int) -> Tuple[np.ndarray, np.ndarray]:
    """The six terms of delta_Q from grade `degree` to `degree - 2` as
    (source, factor), two read-only (6, grade_dim(degree - 2)) arrays.

    Output monomial i, x^e, of term t is factor[t, i] times input
    coefficient source[t, i], that of x^(e + e_j + e_k); the factor is the
    integer that d_j d_k brings down, (e_j + 1)(e_k + 1), or (e_j + 2)(e_j + 1)
    for j = k.  Every output monomial reads all six terms.  The table does
    not depend on the form, so every form shares it.
    """
    shift = _PAIRS.T[:, :, None]
    src = _exponent_table(degree - 2)[None] + shift
    factor = np.prod(np.where(shift > 0, src, 1) * np.where(shift > 1, src - 1, 1),
                     axis=1).astype(float)
    source = _lex_index(src[:, 0], src[:, 2], degree)
    source.flags.writeable = False
    factor.flags.writeable = False
    return source, factor


@form_operator
def _delta_weights(Q: QuadForm) -> np.ndarray:
    """The weights of the six terms of _delta_table: (B^-1)_jj for j = k,
    (B^-1)_jk + (B^-1)_kj for j < k, as a read-only row."""
    j, k = np.triu_indices(3)
    w = np.where(j == k, 0.5, 1.0) * (Q.b_inv + Q.b_inv.T)[j, k]
    w.flags.writeable = False
    return w


def _delta(coeffs: np.ndarray, degree: int, weights: np.ndarray) -> np.ndarray:
    """delta_Q of a grade-`degree` coefficient row, degree >= 2, given the
    form's _delta_weights: one gather of six input coefficients per output
    coefficient through _delta_table, contracted with the weights."""
    source, factor = _delta_table(degree)
    return weights @ (factor * coeffs[source])


@form_operator
def delta_matrix(Q: QuadForm, degree: int) -> np.ndarray:
    """Dense matrix of delta_Q from grade `degree` down to `degree - 2`.

    Row i holds the numbers _delta contracts for output monomial i: term t
    puts weight[t] * factor[t, i] at column source[t, i].  The six columns
    of a row are distinct, so each entry is added to zero once, which also
    turns a -0 part of a weight into +0.  apply_delta_q does not use it; it
    serves the solvers that need the matrix itself.
    """
    if degree < 2:
        return np.zeros((0, grade_dim(degree)), dtype=complex)
    source, factor = _delta_table(degree)
    m = np.zeros((grade_dim(degree - 2), grade_dim(degree)), dtype=complex)
    m[np.arange(source.shape[1]), source] += _delta_weights(Q)[:, None] * factor
    return m


def apply_delta_q(p: HomogPoly, Q: QuadForm) -> HomogPoly:
    """delta_Q applied to a grade; degree drops by two (zero below degree 2)."""
    if p.degree < 2:
        return HomogPoly.zero(0)
    return HomogPoly._of(p.degree - 2, _delta(p.coeffs, p.degree, _delta_weights(Q)))


def is_harmonic(p: HomogPoly, Q: QuadForm) -> bool:
    """Whether ||delta_Q(p)|| is within TOL_HARM of ||p||, scaled by the
    size of delta_Q on the grade."""
    if p.degree < 2:
        return True
    res = apply_delta_q(p, Q).norm()
    scale = max(1.0, p.degree ** 2 * float(np.max(np.abs(Q.b_inv))))
    return res <= TOL_HARM * scale * max(p.norm(), NORM_FLOOR)


def _closed_split(p: HomogPoly, Q: QuadForm) -> Tuple[HomogPoly, HomogPoly]:
    """One pass of the formula of harmonic_project, R by Horner in Q, on
    coefficient rows; p.degree >= 2."""
    m, weights, q = p.degree, _delta_weights(Q), Q.poly().coeffs[None]
    terms, c, lap = [], 1.0, p.coeffs
    for j in range(1, m // 2 + 1):
        c = -c / (2 * j * (2 * m - 2 * j + 1))
        lap = _delta(lap, m - 2 * j + 2, weights)
        terms.append(lap * complex(-c))
    R, deg = terms.pop(), m % 2
    for term in reversed(terms):
        R = term + poly_mul_rows(q, 2, R[None], deg)[0]
        deg += 2
    return (HomogPoly._of(m, p.coeffs - poly_mul_rows(q, 2, R[None], deg)[0]),
            HomogPoly._of(deg, R))


def harmonic_project(p: HomogPoly, Q: QuadForm) -> Tuple[HomogPoly, HomogPoly]:
    """Split p = H + Q*R with delta_Q(H) = 0; returns (H, R).

    For p of degree m, H = sum_j c_j Q^j delta_Q^j p and R = (p - H) / Q with
    c_0 = 1, c_j = -c_(j-1) / (2j(2m - 2j + 1)): Axler, Bourdon & Ramey,
    Harmonic Function Theory, ch. 5, valid for Q as delta_Q Q = 6.  A second
    pass on H lowers its round-off in delta_Q(H), which must stay within
    TOL_HARM.
    """
    if p.degree < 2:
        return p.copy(), HomogPoly.zero(0)
    H, R = _closed_split(p, Q)
    H, R2 = _closed_split(H, Q)
    residual = apply_delta_q(H, Q).norm()
    if residual > TOL_HARM * max(apply_delta_q(p, Q).norm(), p.norm(), NORM_FLOOR):
        raise SolveFailure("projection residual %.3e too large" % residual)
    return H, R + R2


@dataclass
class HarmonicDecomp:
    """Components H_k of P = sum_k Q^k H_k, k = 0 .. floor(degree / 2)."""

    degree: int
    components: List[HomogPoly]

    def reconstruct(self, Q: QuadForm) -> HomogPoly:
        out = HomogPoly.zero(self.degree)
        qpow = HomogPoly(0, [1.0])
        for k, comp in enumerate(self.components):
            if k > 0:
                qpow = poly_mul(qpow, Q.poly())
            out = out + poly_mul(qpow, comp)
        return out


def harmonic_decompose(p: HomogPoly, Q: QuadForm) -> HarmonicDecomp:
    """Full splitting P = sum_k Q^k H_k by repeated projection.

    Grades 0 and 1 are harmonic as they stand, so the component list always
    has floor(degree/2) + 1 entries, indexed by the power of Q.
    """
    comps: List[HomogPoly] = []
    cur = p.copy()
    while True:
        if cur.degree < 2:
            comps.append(cur)
            break
        H, R = harmonic_project(cur, Q)
        comps.append(H)
        cur = R
    return HarmonicDecomp(p.degree, comps)


def dirichlet_solve(m: Poly, n: Poly, Q: QuadForm,
                    perturb_seed: Optional[int] = None) -> Poly:
    """The unique polynomial P with delta_Q(P) = m and P = n on {Q = 1}.

    Stage one lifts m grade by grade through a minimum-norm preimage T of
    delta_Q; stage two replaces the surface defect n - T by the harmonic
    polynomial with the same restriction to {Q = 1}.  With perturb_seed set,
    a random kernel element is added to T first; the output must not change,
    which makes the uniqueness statement directly testable.  Each grade's
    preimage must solve its equation within TOL_HARM, relative.
    """
    rng = np.random.default_rng(perturb_seed) if perturb_seed is not None else None
    t_grades: Dict[int, HomogPoly] = {}
    for k in range(m.degree + 1):
        part = m.part(k)
        if part.is_zero():
            continue
        dmat = delta_matrix(Q, k + 2)
        sol, *_ = np.linalg.lstsq(dmat, part.coeffs, rcond=None)
        if rng is not None:
            noise = rng.normal(size=dmat.shape[1]) + 1j * rng.normal(size=dmat.shape[1])
            noise -= np.linalg.lstsq(dmat, dmat @ noise, rcond=None)[0]
            sol = sol + noise
        residual = float(np.linalg.norm(dmat @ sol - part.coeffs))
        if residual > TOL_HARM * max(part.norm(), NORM_FLOOR):
            raise SolveFailure("no grade-%d preimage under delta_Q" % (k + 2))
        t_grades[k + 2] = HomogPoly(k + 2, sol)
    T = Poly.from_grades(t_grades) if t_grades else Poly.zero()
    W = n - T
    G = Poly.zero()
    for parity_part in grade_split(W):
        if parity_part.is_zero():
            continue
        hom = homogenize_on_quadric(parity_part, Q)
        decomp = harmonic_decompose(hom, Q)
        grades: Dict[int, HomogPoly] = {}
        for k, comp in enumerate(decomp.components):
            if not comp.is_zero():
                grades[comp.degree] = comp
        if grades:
            G = G + Poly.from_grades(grades)
    P = T + G
    # residual checks: the operator equation exactly, the boundary match on samples
    for k in range(max(P.degree - 2, m.degree) + 1):
        lhs = apply_delta_q(P.part(k + 2), Q) if k + 2 <= P.degree else HomogPoly.zero(k)
        diff = lhs - m.part(k)
        if diff.norm() > TOL_DIRICHLET_DELTA * max(m.norm(), P.norm(), 1.0):
            raise SolveFailure("delta_Q(P) misses target at grade %d" % k)
    pts = surface_samples(Q, 200, np.random.default_rng(20200))
    gap = np.max(np.abs(P.eval_many(pts) - n.eval_many(pts)))
    scale = max(n.norm(), P.norm(), 1.0)
    if gap > TOL_DIRICHLET_SURFACE * scale:
        raise SolveFailure("surface values miss the target by %.3e" % gap)
    return P
