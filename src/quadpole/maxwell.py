"""Construction of Q-harmonic polynomials by differentiating the potential.

Applying d directional derivatives to Q^{-1/2} leaves a polynomial numerator
over a half-integer power of Q; multiplying back by Q^{d+1/2} yields a
Q-harmonic polynomial of degree d, linear in each direction vector.  The
inverse problem factors a harmonic polynomial on the cone and converts each
line's coefficient vector w into a direction u = w.B^{-1}, fixed as the
convention by the degree-1 computation grad_u Q^{-1/2} = -<u.B, x>.Q^{-3/2}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .algebra import (HomogPoly, QuadForm, _UNIT, _exponent_table, _lex_index, grade_dim,
                      monomials)
from .conic import EPS_CLUSTER, _check_eps_cluster
from .errors import NotHarmonic, SolveFailure, ZeroVector
from .harmonic import is_harmonic
from .sylvester import _auto_strategy, factor

TOL_REPRODUCE = 1e-7  # largest defect, relative to ||P||, of a multipole's reproduction


@dataclass(frozen=True)
class PotentialTerm:
    """Numerator N and odd half-exponent m of a potential term N * Q^{-m/2}."""

    numerator: HomogPoly
    half_exponent: int

    def __post_init__(self):
        if self.half_exponent < 1 or self.half_exponent % 2 == 0:
            raise ValueError("half_exponent must be an odd positive integer")

    def value(self, points: np.ndarray, Q: QuadForm) -> np.ndarray:
        """Evaluate N(x) * Q(x)^{-m/2} at rows of points (principal branch)."""
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        qv = np.array([Q(p) for p in pts], dtype=complex)
        return self.numerator.eval_many(pts) * qv ** (-self.half_exponent / 2.0)


# The step (N, m) -> Q*grad_u(N) - m*<Bu, x>*N has 21 terms: for monomial
# x^{e_j} of Q and axis a, q_j*u_a * x^{e_j} * dN/dx_a (18 terms, j major),
# then for axis b, -m*(Bu)_b * x_b * N.  _SHIFTS[t] takes an output exponent
# to the exponent of N that term t reads, and _AXES[t] is a term's axis a.
_AXES = np.tile(np.arange(3), 6)
_SHIFTS = np.concatenate([(_UNIT - np.array(monomials(2))[:, None]).reshape(18, 3), -_UNIT])


@lru_cache(maxsize=None)
def _step_table(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The derivative step from grade k to grade k + 1 as (source, factor),
    two read-only (21, grade_dim(k + 1)) arrays with one row per term.

    Output monomial i of term t is factor[t, i] times coefficient
    source[t, i] of N: the exponent along a that d/dx_a brings down, or 1
    for x_b * N.  Where the term has no source, source[t, i] names the zero
    appended at index grade_dim(k) and factor[t, i] is 0.  The table does
    not depend on the form, so every form shares it.
    """
    src = _exponent_table(k + 1)[None] + _SHIFTS[:, :, None]
    factor = np.ones(src[:, 0].shape)
    factor[:18] = src[np.arange(18), _AXES]
    factor[src.min(axis=1) < 0] = 0.0
    source = np.where(factor > 0, _lex_index(src[:, 0], src[:, 2], k), grade_dim(k))
    source.flags.writeable = False
    factor.flags.writeable = False
    return source, factor


def _directions(vectors) -> np.ndarray:
    """The direction vectors as a (d, 3) complex stack; none may be zero."""
    U = np.asarray(vectors, dtype=complex).reshape(len(vectors), 3)
    if not np.all(np.any(np.abs(U) > 0.0, axis=1)):
        raise ZeroVector("direction vector is zero")
    return U


def _step_weights(Q: QuadForm, U: np.ndarray, half_exponents: np.ndarray) -> np.ndarray:
    """The 21 term weights of each row's step: q_j*u_a, then -m*(Bu)_b."""
    d = len(U)
    return np.concatenate([(Q.poly().coeffs[:, None] * U[:, None, :]).reshape(d, 18),
                           -half_exponents[:, None] * (U @ Q.B)], axis=1)


def _steps(N: np.ndarray, k: int, weights: np.ndarray) -> np.ndarray:
    """Coefficients of grade-k N after one derivative step per weight row."""
    for w in weights:
        source, factor = _step_table(k)
        N = w @ (factor * np.append(N, 0.0)[source])
        k += 1
    return N


def directional_derivative_potential(t: PotentialTerm, u: Sequence[complex],
                                     Q: QuadForm) -> PotentialTerm:
    """One derivative step: (N, m) -> (Q*grad_u(N) - (m/2)*N*grad_u(Q), m+2)."""
    w = _step_weights(Q, _directions([u]), np.array([float(t.half_exponent)]))
    N = t.numerator
    return PotentialTerm(HomogPoly._of(N.degree + 1, _steps(N.coeffs, N.degree, w)),
                         t.half_exponent + 2)


def maxwell_poly(Q: QuadForm, vectors: Sequence[Sequence[complex]]) -> HomogPoly:
    """Numerator left by applying every vector's derivative to Q^{-1/2}.

    The result is Q-harmonic of degree len(vectors) and linear in each slot;
    for degenerate vector lists it can vanish identically, and for huge or
    tiny vectors overflow to non-finite coefficients; both are errors.
    Step i starts from the half exponent 2i + 1.
    """
    U = _directions(vectors)
    N = _steps(np.ones(1, dtype=complex), 0,
               _step_weights(Q, U, np.arange(1.0, 2 * len(U), 2.0)))
    if np.linalg.norm(N) == 0.0:
        raise SolveFailure("vector configuration produced the zero polynomial")
    if not np.isfinite(N).all():
        raise SolveFailure("vector configuration produced non-finite coefficients")
    return HomogPoly._of(len(U), N)


def maxwell_fit(P: HomogPoly, Q: QuadForm, lines: Sequence[Sequence[complex]]
                ) -> Tuple[List[np.ndarray], complex, float]:
    """Directions u = w.B^{-1} of cone lines w, the least-squares scale c of
    P against maxwell_poly(Q, directions), and the defect ||P - c * model||."""
    U = np.asarray(lines, dtype=complex).reshape(len(lines), 3) @ Q.b_inv
    model = maxwell_poly(Q, U).coeffs
    scale = complex(np.vdot(model, P.coeffs) / np.vdot(model, model))
    return list(U), scale, float(np.linalg.norm(P.coeffs - scale * model))


def maxwell_decompose(P: HomogPoly, Q: QuadForm, eps_cluster: float = EPS_CLUSTER
                      ) -> Tuple[List[np.ndarray], complex]:
    """Direction vectors and scale c with P = c * maxwell_poly(Q, vectors).

    Real P over a definite real Q goes through the unique real factorization,
    so the vectors come out real; otherwise the canonical parcelling is used
    (any parcelling gives a proportional result: the construction is
    harmonic with the same cone divisor as P, and harmonics embed injectively
    into binary forms on the cone).  eps_cluster is checked as in every
    factor context, whatever the degree of P.  The fit's defect must be at
    most TOL_REPRODUCE * ||P||.
    """
    _check_eps_cluster(eps_cluster)
    if P.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    if not is_harmonic(P, Q):
        raise NotHarmonic("input is not annihilated by the quadric Laplacian")
    if P.degree == 0:
        return [], complex(P.coeffs[0])
    strategy = _auto_strategy([P], P.norm(), Q)
    fact = factor(P, Q, strategy, eps_cluster=eps_cluster)
    vectors, scale, defect = maxwell_fit(P, Q, [L.coeffs for L in fact.lines])
    if defect > TOL_REPRODUCE * P.norm():
        raise SolveFailure("reconstruction deviates by %.3e relative" %
                           (defect / P.norm()))
    return vectors, scale
