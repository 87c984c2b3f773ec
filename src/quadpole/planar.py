"""Projection of conic divisors into the pencil of lines through a point.

A point p off the conic defines an involution swapping the two conic
intersections of each line through p; projecting a conic divisor along that
pencil of lines loses one bit per point, and the fiber over a pencil divisor
multiplies out to prod(m_nu + 1) over its non-tangent points, the two tangent
lines through p contributing a single choice each.  The Viete correspondence
identifies pencil divisors with binary forms via their root sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

import numpy as np

from .algebra import HomogPoly, QuadForm
from .conic import (
    BinaryForm,
    EPS_CLUSTER,
    ProjPoint1,
    ProjPoint2,
    _check_eps_cluster,
    _off_conic,
    chordal,
    conic_param,
    restrict_to_conic,
    roots_projective,
)
from .errors import Degenerate, DegenerateTangency, EnumerationLimit, NotOnConic
from .sylvester import ENUMERATION_CAP

TOL_DIVISORS_CLOSE = 1e-8  # divisors_close's default chordal distance
TOL_PENCIL_BASIS = 1e-8  # least |cross product| of two independent pencil basis lines


@dataclass(frozen=True)
class PencilCenter:
    """A projective point off the conic, the apex of a pencil of lines."""

    point: ProjPoint2

    @classmethod
    def from_coords(cls, coords: Sequence[complex], Q: QuadForm) -> "PencilCenter":
        pt = ProjPoint2(coords)
        if not _off_conic(pt.coords.reshape(1, 3), Q)[0][0]:
            raise Degenerate("pencil center lies on the conic")
        return cls(pt)


@dataclass(frozen=True, eq=False)
class _Divisor:
    """Effective divisor: (point, multiplicity) pairs sorted by point key.

    Two divisors are equal when they are of one subclass and their points
    have equal keys and multiplicities; the hash follows.  The repr is the
    dataclass's.
    """

    points: Tuple[Tuple[Any, int], ...]

    def __init__(self, points) -> None:
        entries = tuple(sorted(((pt, int(m)) for pt, m in points),
                               key=lambda e: e[0].key()))
        if any(m < 1 for _, m in entries):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "points", entries)

    def _key(self) -> tuple:
        return type(self), tuple((pt.key(), m) for pt, m in self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Divisor):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.points)


class ConicDivisor(_Divisor):
    """Effective divisor on the conic: (ProjPoint2, multiplicity) pairs."""


class PencilDivisor(_Divisor):
    """Effective divisor on the pencil's parameter line: (ProjPoint1, multiplicity) pairs."""


def divisors_close(a, b, tol: float = TOL_DIVISORS_CLOSE) -> bool:
    """Multiset match of two divisors up to chordal distance tol."""
    if a.degree != b.degree or len(a.points) != len(b.points):
        return False
    remaining = list(b.points)
    for pt, m in a.points:
        hit = next((k for k, (q, mq) in enumerate(remaining)
                    if mq == m and chordal(pt, q) <= tol), None)
        if hit is None:
            return False
        remaining.pop(hit)
    return True


def star_involution(q: ProjPoint2, p: PencilCenter, Q: QuadForm) -> ProjPoint2:
    """The other conic intersection of the line through p and q.

    q* = q - (2 beta(q,p)/Q(p)) p stays on the conic and on the line; it
    equals q exactly when that line is tangent, i.e. p lies on the tangent
    at q.
    """
    if _off_conic(q.coords.reshape(1, 3), Q)[0][0]:
        raise NotOnConic("point %r is off the conic" % q)
    pc = p.point.coords
    t = 2.0 * Q.polar(q.coords, pc) / Q(pc)
    return ProjPoint2(q.coords - t * pc)


class PencilFrame:
    """Fixed projective coordinates on the lines through a pencil center.

    The basis lines join the center to the conic points at parameters [1:0]
    and [0:1]; if the center is collinear with those two points the second
    basis line is replaced by the one through the parameter-[1:1] point.
    """

    def __init__(self, p: PencilCenter, Q: QuadForm):
        self.center = p
        self.param = conic_param(Q)
        pc = p.point.coords
        anchors = [ProjPoint1([1.0, 0.0]), ProjPoint1([0.0, 1.0]),
                   ProjPoint1([1.0, 1.0])]
        cols = []
        for u in anchors:
            w = np.cross(pc, self.param.point(u).coords)
            w = w / np.abs(w).max()
            if not cols:
                cols.append(w)
                continue
            if np.linalg.norm(np.cross(cols[0], w)) > TOL_PENCIL_BASIS:
                cols.append(w)
                break
        if len(cols) < 2:
            raise Degenerate("could not build an independent pencil basis")
        self.basis = np.stack(cols, axis=1)

    def line_vector(self, e: ProjPoint1) -> np.ndarray:
        return self.basis @ e.coords

    def param_of_line(self, w: Sequence[complex]) -> ProjPoint1:
        sol, *_ = np.linalg.lstsq(self.basis, np.asarray(w, dtype=complex),
                                  rcond=None)
        return ProjPoint1(sol)

    def param_of_point(self, q: ProjPoint2) -> ProjPoint1:
        return self.param_of_line(np.cross(self.center.point.coords, q.coords))


def tangent_lines_from(p: PencilCenter, Q: QuadForm,
                       eps_cluster: float = EPS_CLUSTER
                       ) -> Tuple[ProjPoint2, ProjPoint2]:
    """The two conic points whose tangents pass through p.

    They are the intersections of p's polar line with the conic; a double
    intersection would mean the polar is tangent, which only happens for a
    center on the conic.
    """
    param = conic_param(Q)
    polar = HomogPoly(1, Q.B @ p.point.coords)
    clusters = roots_projective(restrict_to_conic(polar, param),
                                eps_cluster=eps_cluster)
    if len(clusters) != 2:
        raise DegenerateTangency("polar line is tangent to the conic")
    a, b = (ProjPoint2._of(row)
            for row in param.points(np.array([c.point.coords for c in clusters])))
    return (a, b) if a.key() <= b.key() else (b, a)


def project_divisor(D: ConicDivisor, p: PencilCenter, Q: QuadForm,
                    eps_cluster: float = EPS_CLUSTER) -> PencilDivisor:
    """Push a conic divisor into the pencil, merging colliding images."""
    _check_eps_cluster(eps_cluster)
    frame = PencilFrame(p, Q)
    images = [(frame.param_of_point(q), m) for q, m in D.points]
    merged: List[Tuple[ProjPoint1, int]] = []
    for pt, m in images:
        hit = next((k for k, (q, _) in enumerate(merged)
                    if chordal(pt, q) <= eps_cluster), None)
        if hit is None:
            merged.append((pt, m))
        else:
            merged[hit] = (merged[hit][0], merged[hit][1] + m)
    return PencilDivisor(merged)


def fiber_enumerate(E: PencilDivisor, p: PencilCenter, Q: QuadForm,
                    eps_cluster: float = EPS_CLUSTER) -> List[ConicDivisor]:
    """All conic divisors projecting to E, in deterministic product order.

    A pencil point of multiplicity m contributes the m+1 splittings
    j q + (m-j) q* of its line's two conic points, or the single option
    m t when the line is tangent at t.  More than ENUMERATION_CAP fibers
    raise EnumerationLimit before any option is listed.
    """
    frame = PencilFrame(p, Q)
    # each pencil point's conic points, one when its line is tangent
    meets: List[Tuple[List[ProjPoint2], int]] = []
    for e, m in E.points:
        w = frame.line_vector(e)
        clusters = roots_projective(restrict_to_conic(HomogPoly(1, w),
                                                      frame.param),
                                    eps_cluster=eps_cluster)
        meets.append(([ProjPoint2._of(row) for row in
                       frame.param.points(np.array([c.point.coords for c in clusters]))], m))
    if math.prod(m + 1 if len(pts) == 2 else 1 for pts, m in meets) > ENUMERATION_CAP:
        raise EnumerationLimit("more than %d fibers" % ENUMERATION_CAP)
    # a tangent point's one option, or j q + (m-j) q* for j = 0..m, each
    # without its zero-multiplicity point
    options = [[((pts[0], m),)] if len(pts) == 1 else
               [tuple((pt, k) for pt, k in ((pts[0], j), (pts[1], m - j)) if k)
                for j in range(m + 1)]
               for pts, m in meets]
    # the last pencil point's option varies fastest
    return [ConicDivisor([entry for choice in combo for entry in choice])
            for combo in itertools.product(*options)]


def viete_map(D: PencilDivisor) -> BinaryForm:
    """Product of the linear binary forms vanishing at the divisor's points."""
    out = BinaryForm(0, [1.0])
    for pt, m in D.points:
        a0, a1 = pt.coords
        lin = BinaryForm(1, [a0, -a1])
        for _ in range(m):
            out = out.mul(lin)
    return out


def viete_inverse(f: BinaryForm,
                  eps_cluster: float = EPS_CLUSTER) -> PencilDivisor:
    """Root divisor of a binary form, clustered by multiplicity."""
    clusters = roots_projective(f, eps_cluster=eps_cluster)
    return PencilDivisor([(c.point, c.multiplicity) for c in clusters])
