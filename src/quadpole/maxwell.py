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
from typing import List, Sequence, Tuple

import numpy as np

from .algebra import HomogPoly, QuadForm, poly_mul, TOL_DIV
from .conic import EPS_CLUSTER
from .errors import NotHarmonic, SolveFailure, ZeroVector
from .harmonic import TOL_HARM, is_harmonic
from .sylvester import _auto_strategy, factor


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


def _directional_gradient(p: HomogPoly, u: np.ndarray) -> HomogPoly:
    out = HomogPoly.zero(p.degree - 1)
    for axis in range(3):
        if u[axis] != 0:
            out = out + p.deriv(axis) * u[axis]
    return out


def directional_derivative_potential(t: PotentialTerm, u: Sequence[complex],
                                     Q: QuadForm) -> PotentialTerm:
    """One derivative step: (N, m) -> (Q*grad_u(N) - (m/2)*N*grad_u(Q), m+2)."""
    uv = np.asarray(u, dtype=complex).reshape(3)
    if not np.any(np.abs(uv) > 0.0):
        raise ZeroVector("direction vector is zero")
    grad_q = HomogPoly(1, 2.0 * (Q.B @ uv))
    second = poly_mul(t.numerator, grad_q) * (-0.5 * t.half_exponent)
    if t.numerator.degree >= 1:
        first = poly_mul(Q.poly(), _directional_gradient(t.numerator, uv))
        numerator = first + second
    else:
        numerator = second
    return PotentialTerm(numerator, t.half_exponent + 2)


def maxwell_poly(Q: QuadForm, vectors: Sequence[Sequence[complex]]) -> HomogPoly:
    """Numerator left by applying every vector's derivative to Q^{-1/2}.

    The result is Q-harmonic of degree len(vectors) and linear in each slot;
    for degenerate vector lists it can vanish identically, which is an error.
    """
    term = PotentialTerm(HomogPoly(0, [1.0]), 1)
    for u in vectors:
        term = directional_derivative_potential(term, u, Q)
    if term.numerator.norm() == 0.0:
        raise SolveFailure("vector configuration produced the zero polynomial")
    return term.numerator


def maxwell_fit(P: HomogPoly, Q: QuadForm, lines: Sequence[Sequence[complex]]
                ) -> Tuple[List[np.ndarray], complex, float]:
    """Directions u = w.B^{-1} of cone lines w, the least-squares scale c of
    P against maxwell_poly(Q, directions), and the defect ||P - c * model||."""
    vectors = [np.asarray(w, dtype=complex) @ Q.b_inv for w in lines]
    model = maxwell_poly(Q, vectors)
    scale = complex(np.vdot(model.coeffs, P.coeffs) / np.vdot(model.coeffs,
                                                              model.coeffs))
    return vectors, scale, (P - model * scale).norm()


def maxwell_decompose(P: HomogPoly, Q: QuadForm, tol_harm: float = TOL_HARM,
                      eps_cluster: float = EPS_CLUSTER, tol_div: float = TOL_DIV
                      ) -> Tuple[List[np.ndarray], complex]:
    """Direction vectors and scale c with P = c * maxwell_poly(Q, vectors).

    Real P over a definite real Q goes through the unique real factorization,
    so the vectors come out real; otherwise the canonical parcelling is used
    (any parcelling gives a proportional result: the construction is
    harmonic with the same cone divisor as P, and harmonics embed injectively
    into binary forms on the cone).
    """
    if P.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    if not is_harmonic(P, Q, tol=tol_harm):
        raise NotHarmonic("input is not annihilated by the quadric Laplacian")
    if P.degree == 0:
        return [], complex(P.coeffs[0])
    strategy = _auto_strategy(float(np.max(np.abs(P.coeffs.imag))), P.norm(), Q)
    fact = factor(P, Q, strategy, eps_cluster=eps_cluster, tol_div=tol_div)
    vectors, scale, defect = maxwell_fit(P, Q, [L.coeffs for L in fact.lines])
    if defect > 1e-7 * P.norm():
        raise SolveFailure("reconstruction deviates by %.3e relative" %
                           (defect / P.norm()))
    return vectors, scale
