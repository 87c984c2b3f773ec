"""Full multipole decomposition of polynomial functions on {Q = 1}.

After splitting off parities and homogenizing with powers of Q (free on the
surface, where Q = 1), the top homogeneous part factors into a scaled line
product plus Q times a remainder, and the remainder recurses two degrees
lower.  The result is a constant plus one multipole per degree.  A generic
degree-d input admits up to prod_{k=1..d} (2k-1)!! distinct sequences; real
inputs over a definite form have exactly one with all pieces real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import (
    HomogPoly,
    NORM_FLOOR,
    Poly,
    QuadForm,
    double_factorial,
    grade_split,
    homogenize_on_quadric,
)
from .conic import EPS_CLUSTER, _check_eps_cluster
from .errors import (
    DivisibleByQ,
    EnumerationLimit,
    InvalidPartition,
    StrategyMismatch,
)
from .sylvester import ENUMERATION_CAP, TOL_REAL_RESULT, Multipole, _FactorContext, _is_real

Strategy = ("canonical", "enumerate", "real_unique")


@dataclass
class MultipoleSequence:
    """Constant plus one multipole per degree: f = lam + sum_k prod_l L_{k,l}."""

    lam: complex
    terms: Dict[int, Multipole] = field(default_factory=dict)

    @property
    def degree(self) -> int:
        return max(self.terms, default=0)

    def is_real(self, tol: float = TOL_REAL_RESULT) -> bool:
        worst = abs(self.lam.imag)
        for mp in self.terms.values():
            worst = max(worst, abs(mp.scale.imag))
            for w in mp.lines:
                worst = max(worst, max(abs(c.imag) for c in w))
        return worst <= tol * max(1.0, abs(self.lam))


@dataclass(frozen=True)
class RepresentationCount:
    d: int
    bound: int


def representation_bound(d: int) -> RepresentationCount:
    """Upper bound prod_{k=1..d} (2k-1)!! on the number of sequences."""
    if d < 0:
        raise ValueError("d must be non-negative")
    bound = 1
    for k in range(1, d + 1):
        bound *= double_factorial(2 * k - 1)
    return RepresentationCount(d, bound)


def _strip_q_powers(h: HomogPoly, Q: QuadForm, eps_cluster: float
                    ) -> Tuple[HomogPoly, Optional[_FactorContext]]:
    """The first h / Q^k that is not a multiple of Q, with its factor context.

    The context runs the divisibility test, and a multiple of Q comes back
    as DivisibleByQ carrying the quotient, so each level is tested once.  A
    zero, constant or linear h builds no context and gives None.
    """
    while h.degree > 1 and not h.is_zero():
        try:
            return h, _FactorContext(h, Q, eps_cluster=eps_cluster)
        except DivisibleByQ as exc:
            h = exc.quotient
    return h, None


def _leaves(hs: Sequence[HomogPoly]) -> List[List[Tuple[complex, Dict[int, Multipole]]]]:
    """The one decomposition of each h of degree at most 1: its constant,
    or, for a nonzero line, the line as its own one-line multipole (a line
    is the secant of its two conic points, so scale * line = h exactly).
    The lines' multipoles come from one line table."""
    lines = [h.degree == 1 and not h.is_zero() for h in hs]
    w = np.array([h.coeffs for h, line in zip(hs, lines) if line], dtype=complex).reshape(-1, 3)
    mps = iter(Multipole._table([1.0] * len(w), w, np.arange(len(w))[:, None]))
    return [[(0j, {1: next(mps)})] if line
             else [(complex(h.coeffs[0]) if h.degree == 0 else 0j, {})]
            for h, line in zip(hs, lines)]


def _chain(h: HomogPoly, Q: QuadForm, strategy: str, eps_cluster: float,
           limit: int) -> List[Tuple[complex, Dict[int, Multipole]]]:
    """The constant and terms of every decomposition of h the strategy
    gives: each level keeps its context's rows(strategy) with their
    multipoles, and each row's remainder recurses with what is left of the
    limit; remainders of degree at most 1 end the chain together
    (_leaves).  More than limit decompositions raise EnumerationLimit.
    full_decompose has checked the input for the strategy; each level's
    rows certify themselves."""
    cur, ctx = _strip_q_powers(h, Q, eps_cluster)
    if ctx is None:
        return _leaves([cur])[0]
    rows = ctx.rows(strategy)
    tails = _leaves([f.remainder for f in rows]) if cur.degree <= 3 else None
    out: List[Tuple[complex, Dict[int, Multipole]]] = []
    for k, f in enumerate(rows):
        mp = f.multipole()
        chains = tails[k] if tails is not None else \
            _chain(f.remainder, Q, strategy, eps_cluster, limit - len(out))
        for lam, terms in chains:
            out.append((lam, {mp.degree: mp, **terms}))
            if len(out) > limit:
                raise EnumerationLimit("more than %d sequences" % ENUMERATION_CAP)
    return out


def full_decompose(P: Union[Poly, HomogPoly], Q: QuadForm,
                   strategy: str = "canonical",
                   eps_cluster: float = EPS_CLUSTER
                   ) -> Union[MultipoleSequence, List[MultipoleSequence]]:
    """Decompose a polynomial function on {Q = 1} into multipole terms.

    canonical picks one deterministic parcelling per level (greedy pairing of
    the sorted root clusters), enumerate fans out over every parcelling at
    every level and returns the full list, and real_unique forces the
    conjugation-stable choice, which exists and is unique for real input over
    a definite real form.  All three run one recursion, and differ only in
    the rows each level keeps.  eps_cluster is checked as in every factor
    context, whatever the degrees of P.
    """
    if isinstance(P, HomogPoly):
        P = Poly.from_homog(P)
    if strategy not in Strategy:
        raise ValueError("unknown strategy %r" % (strategy,))
    if strategy == "real_unique":
        if not Q.is_definite:
            raise StrategyMismatch("real_unique needs a definite real form")
        if not _is_real(P.parts, max(P.norm(), NORM_FLOOR)):
            raise StrategyMismatch("real_unique needs real coefficients")
    _check_eps_cluster(eps_cluster)
    parts = [None if g.is_zero() else homogenize_on_quadric(g, Q)
             for g in grade_split(P)]
    # the parity of lower top degree first, so that the other's chain stops
    # as soon as the product of their counts passes the cap
    chains = [[(0j, {})], [(0j, {})]]
    limit = ENUMERATION_CAP
    for i in sorted((0, 1), key=lambda i: -1 if parts[i] is None else parts[i].degree):
        if parts[i] is not None:
            chains[i] = _chain(parts[i], Q, strategy, eps_cluster, limit)
            limit //= len(chains[i])
    out = [MultipoleSequence(lam_e + lam_o, {**terms_e, **terms_o})
           for lam_e, terms_e in chains[0] for lam_o, terms_o in chains[1]]
    return out if strategy == "enumerate" else out[0]


def reconstruct(seq: MultipoleSequence, Q: QuadForm):
    """Surface evaluator and expanded Poly for a multipole sequence.

    The callable evaluates lam + sum_k prod_l L_{k,l} literally at point rows;
    the Poly is the expanded sum of the line products.  They agree everywhere,
    and match the decomposed input on {Q = 1}.
    """
    rep = Poly.constant(seq.lam)
    for mp in seq.terms.values():
        rep = rep + Poly.from_homog(mp.product_poly())

    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        vals = np.full(pts.shape[0], complex(seq.lam))
        for mp in seq.terms.values():
            prod = np.full(pts.shape[0], complex(mp.scale))
            for w in mp.lines:
                prod = prod * (pts @ np.asarray(w, dtype=complex))
            vals = vals + prod
        return vals

    return evaluate, rep


def lemma9_gap(l: int, degrees: Sequence[int]) -> int:
    """Dimension gap between degree-d functions on a degree-l surface and
    products with factor degrees `degrees`.

    Each term is the dimension of degree-k polynomials restricted to the
    surface: (l/2)(2k - l + 3) once k >= l, and the unrestricted count
    (k+1)(k+2)/2 below that (no multiple of the defining form exists in
    degree < l, so restriction is injective there).  The gap is zero for
    every split when l <= 2 and conjecturally positive whenever l >= 3 and
    there are at least two factors.
    """
    ds = [int(x) for x in degrees]
    if l < 1 or not ds or any(x < 1 for x in ds):
        raise InvalidPartition("need l >= 1 and positive factor degrees")

    def dim(k: int) -> int:
        if k < l:
            return (k + 1) * (k + 2) // 2
        return l * (2 * k - l + 3) // 2

    d = sum(ds)
    s = len(ds)
    return dim(d) - sum(dim(x) for x in ds) + (s - 1)
