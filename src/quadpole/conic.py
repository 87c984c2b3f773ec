"""Rational parameterization of the conic {Q = 0} and binary-form root finding.

The projective conic in CP^2 cut out by a nondegenerate quadratic form is a
rational curve; composing the standard parameterization of the sphere conic
with the inverse reduction matrix gives one for any Q.  Restricting a degree-d
polynomial to the conic produces a binary form of degree 2d whose projective
roots (with multiplicity) are the intersection divisor that all the
factorization machinery consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .algebra import NORM_FLOOR, HomogPoly, QuadForm, form_operator, monomials
from .errors import Degenerate, NotOnConic, ZeroForm

EPS_CLUSTER = 1e-6
# A leading coefficient below this (relative) threshold counts as a root at [1:0].
INF_COEFF_TOL = 1e-10
TOL_ON_CONIC = 1e-9
# Conic points closer than this chordal distance count as one point.
TOL_SAME_POINT = 1e-9
TOL_PARAM = 1e-10  # largest |Q(alpha(u))| coefficient of a parameterization, relative
NEWTON_STEP_TOL = 1e-14  # a root whose Newton step is below this, relative, stops moving
NEWTON_MAX_STEPS = 12  # the most Newton steps a root takes


def _normalize_rows(v: np.ndarray) -> np.ndarray:
    """Each row of an (n, size) complex array as a normalized projective point.

    The first max-modulus entry of each row is its pivot, every row is
    divided by its pivot and the pivots are set to 1: p / p can miss 1 + 0j
    in the last bit, and the canonical cluster order compares these
    coordinates, so the pivot is set exactly.  The pivots are picked by
    their index in the flattened rows, which costs less than indexing by
    row and column; the rows are taken C-ordered so that the result is too,
    and its ravel() a view.
    """
    v = np.ascontiguousarray(v)
    mags = np.abs(v)
    n, size = v.shape
    pivots = np.argmax(mags, axis=1) + np.arange(0, n * size, size)
    if not mags.ravel()[pivots].all():
        raise ValueError("zero vector does not define a projective point")
    out = v / v.ravel()[pivots][:, None]
    out.ravel()[pivots] = 1.0
    return out


class _ProjPoint:
    """Projective point, normalized so the max-modulus coordinate is exactly 1."""

    __slots__ = ("coords",)
    _size = 0

    def __init__(self, coords):
        v = np.asarray(coords, dtype=complex).ravel()
        if v.size != self._size:
            raise ValueError("expected %d homogeneous coordinates" % self._size)
        self.coords = _normalize_rows(v[None])[0]

    @classmethod
    def _of(cls, coords: np.ndarray):
        """Coordinates that are normalized already, kept as they are."""
        out = cls.__new__(cls)
        out.coords = coords
        return out

    def conj(self):
        return type(self)(np.conj(self.coords))

    def key(self) -> Tuple[float, ...]:
        """The real and imaginary parts of the coordinates in turn."""
        return tuple(self.coords.view(np.float64).tolist())


class ProjPoint1(_ProjPoint):
    """Point of CP^1, normalized so the max-modulus coordinate is exactly 1."""

    __slots__ = ()
    _size = 2

    def __repr__(self) -> str:
        return "ProjPoint1[%s : %s]" % (self.coords[0], self.coords[1])


class ProjPoint2(_ProjPoint):
    """Point of CP^2, normalized so the max-modulus coordinate is exactly 1.

    ProjPoint2.stack holds n points as one, with coords of shape (n, 3);
    indexing a stack gives a row as a point, or an index array's rows as a
    stack.
    """

    __slots__ = ()
    _size = 3

    @classmethod
    def stack(cls, points: Sequence["ProjPoint2"]) -> "ProjPoint2":
        """The points as one stack, row k holding points[k]'s coordinates."""
        return cls._of(np.array([p.coords for p in points], dtype=complex).reshape(-1, 3))

    def __getitem__(self, k) -> "ProjPoint2":
        return ProjPoint2._of(self.coords[k])

    def __repr__(self) -> str:
        return "ProjPoint2[%s : %s : %s]" % tuple(self.coords)


def _cross(u, v) -> Tuple[complex, complex, complex]:
    """Cross product of two 3-sequences, component by component."""
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _norm(u) -> float:
    return math.sqrt(sum(c.real * c.real + c.imag * c.imag for c in u))


def chordal(p, q) -> float:
    """Scale-invariant distance between projective points of the same dimension."""
    # Python complex arithmetic: on one pair, np.cross / np.linalg.norm
    # cost more in call overhead than in work
    u, v = p.coords.tolist(), q.coords.tolist()
    if len(u) == 2:
        num = abs(u[0] * v[1] - u[1] * v[0])
    else:
        num = _norm(_cross(u, v))
    return num / (_norm(u) * _norm(v))


class BinaryForm:
    """Homogeneous form in (u0, u1); coeffs[k] multiplies u0^k u1^(degree-k)."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        self.degree = int(degree)
        arr = np.asarray(coeffs, dtype=complex).ravel()
        if arr.size != degree + 1:
            raise ValueError("binary form of degree %d needs %d coefficients"
                             % (degree, degree + 1))
        self.coeffs = arr.copy()

    def eval_uv(self, u0: complex, u1: complex) -> complex:
        total = 0.0 + 0.0j
        p0 = 1.0 + 0.0j
        pows1 = np.empty(self.degree + 1, dtype=complex)
        pows1[self.degree] = 1.0
        for k in range(self.degree - 1, -1, -1):
            pows1[k] = pows1[k + 1] * u1
        for k, c in enumerate(self.coeffs):
            total += c * p0 * pows1[k]
            p0 *= u0
        return complex(total)

    def deriv_u0(self) -> "BinaryForm":
        if self.degree == 0:
            return BinaryForm(0, [0.0])
        d = np.arange(1, self.degree + 1) * self.coeffs[1:]
        return BinaryForm(self.degree - 1, d)

    def deriv_u1(self) -> "BinaryForm":
        if self.degree == 0:
            return BinaryForm(0, [0.0])
        d = np.arange(self.degree, 0, -1) * self.coeffs[:-1]
        return BinaryForm(self.degree - 1, d)

    def mul(self, other: "BinaryForm") -> "BinaryForm":
        return BinaryForm(self.degree + other.degree,
                          np.convolve(self.coeffs, other.coeffs))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __repr__(self) -> str:
        return "BinaryForm(%d, %s)" % (self.degree, self.coeffs.tolist())


@dataclass(frozen=True)
class RootCluster:
    """One projective root with the multiplicity of its merged cluster."""

    point: ProjPoint1
    multiplicity: int


@dataclass(frozen=True)
class ConicParam:
    """Degree-2 parameterization u -> alpha(u) of the conic {Q = 0}."""

    alphas: Tuple[BinaryForm, BinaryForm, BinaryForm]
    # the Q this parameterizes, which keys its restriction operators
    form: QuadForm = field(compare=False, repr=False)

    def points(self, U) -> np.ndarray:
        """alpha(u) for each row u of an (n, 2) array of parameters, as an
        (n, 3) array whose row k has the bits of point(u_k).coords.

        Each alpha_j(u) is BinaryForm.eval_uv's sum in its exact order of
        operations, in Python complex arithmetic: numpy's SIMD loop for
        complex array products rounds some products differently from scalar
        arithmetic, which eval_uv's numpy scalars and Python complex share.
        The rows are then normalized as one stack.
        """
        one = 1.0 + 0.0j
        coeffs = [a.coeffs.tolist() for a in self.alphas]
        vals = []
        for u0, u1 in np.asarray(U, dtype=complex).reshape(-1, 2).tolist():
            # eval_uv's powers of u1 and u0, each built up from 1 as there:
            # 1 * u is not u when u has a signed zero
            v1 = one * u1
            v2 = v1 * u1
            w1 = one * u0
            w2 = w1 * u0
            vals.append([0j + c0 * one * v2 + c1 * w1 * v1 + c2 * w2 * one
                         for c0, c1, c2 in coeffs])
        return _normalize_rows(np.array(vals, dtype=complex).reshape(-1, 3))

    def point(self, u: ProjPoint1) -> ProjPoint2:
        return ProjPoint2._of(self.points(u.coords.reshape(1, 2))[0])


_SPHERE_ALPHAS = (
    np.array([-1j, 0.0, 1j]),   # i*(u0^2 - u1^2)
    np.array([0.0, 2j, 0.0]),   # 2i*u0*u1
    np.array([1.0, 0.0, 1.0]),  # u0^2 + u1^2
)


@form_operator
def conic_param(Q: QuadForm) -> ConicParam:
    """Sphere-conic parameterization pushed through the reduction of Q.

    The component forms alpha_j satisfy Q(alpha(u)) = 0 identically; the
    constructor verifies all five quartic coefficients vanish (TOL_PARAM).
    Built once per form and shared, so the coefficient arrays are read-only.
    """
    a_inv = Q.a_inv
    alphas = []
    for j in range(3):
        coeffs = sum(_SPHERE_ALPHAS[i] * a_inv[i, j] for i in range(3))
        alpha = BinaryForm(2, coeffs)
        alpha.coeffs.flags.writeable = False
        alphas.append(alpha)
    quartic = np.zeros(5, dtype=complex)
    B = Q.B
    for i in range(3):
        for j in range(3):
            if B[i, j] != 0:
                quartic += B[i, j] * np.convolve(alphas[i].coeffs, alphas[j].coeffs)
    scale = max(float(np.max(np.abs(B))), 1.0)
    if np.max(np.abs(quartic)) > TOL_PARAM * scale:
        raise Degenerate("parameterization does not satisfy Q(alpha(u)) = 0")
    return ConicParam(tuple(alphas), Q)


@form_operator
def _restriction_matrix(Q: QuadForm, degree: int) -> np.ndarray:
    """The restriction to the conic of each monomial of grade `degree`.

    Row m of this (grade_dim(degree), 2 * degree + 1) array is the binary
    form alpha_0^a * alpha_1^b * alpha_2^c for monomial m = (a, b, c), by a
    chain of np.convolve calls.  Built once per (Q, degree) and shared, so
    it is read-only.
    """
    pows = []
    for a in conic_param(Q).alphas:
        chain = [np.array([1.0 + 0j])]
        for _ in range(degree):
            chain.append(np.convolve(chain[-1], a.coeffs))
        pows.append(chain)
    M = np.array([np.convolve(np.convolve(pows[0][a], pows[1][b]), pows[2][c])
                  for a, b, c in monomials(degree)], dtype=complex)
    M.flags.writeable = False
    return M


@form_operator
def _restriction_norm(Q: QuadForm, degree: int) -> float:
    """The spectral norm of _restriction_matrix(Q, degree): the most the
    restriction to the conic can multiply the norm of a coefficient row."""
    return float(np.linalg.norm(_restriction_matrix(Q, degree), 2))


def restrict_to_conic(p: HomogPoly, param: ConicParam) -> BinaryForm:
    """Binary form of degree 2*deg(p) obtained by substituting alpha(u) into p.

    The sum of c_m times row m of _restriction_matrix over the nonzero
    coefficients c_m of p, added to zero one row after another in monomial
    order (np.add.reduce over axis 0).  A BLAS product M.T @ c would sum in
    its own order and change the last bits.
    """
    c = p.coeffs
    nz = c != 0
    M = _restriction_matrix(param.form, p.degree)
    return BinaryForm(2 * p.degree, np.add.reduce(c[nz, None] * M[nz], axis=0, initial=0j))


def _newton_polish(coeffs_desc: np.ndarray, roots: np.ndarray,
                   multiplicity: int) -> np.ndarray:
    """Newton refinement of roots that share one known multiplicity.

    A root of multiplicity m is a simple root of the (m-1)st derivative, so
    polishing there restores quadratic convergence.  Each root keeps its
    best-residual iterate and stops on its own step test, exactly as if it
    were polished alone; the roots only share the polynomial evaluations.

    Each step evaluates the polynomial and its derivative in one Horner pass
    over the roots stacked twice, a flat array of length 2n, the
    derivative's coefficients behind a leading zero.  The pass starts from
    +0 and takes one complex product and one sum per coefficient, as
    np.polyval does, and numpy's complex products round the same at any
    array length, so every value has np.polyval's bits; 0 * x + 0 is again
    +0 for finite x, so the leading zero leaves the derivative's bits alone.
    """
    poly = coeffs_desc
    for _ in range(multiplicity - 1):
        poly = np.polyder(poly)
    # column 0 the polynomial, column 1 its derivative behind a zero
    table = np.zeros((poly.size, 2), dtype=complex)
    table[:, 0] = poly
    table[1:, 1] = np.polyder(poly)

    def horner(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        n = x.size
        x2 = np.concatenate([x, x])
        y = np.zeros(2 * n, dtype=complex)
        for c in np.repeat(table, n, axis=1):
            y *= x2
            y += c
        return y[:n], y[n:]

    cur = np.array(roots, dtype=complex)
    best = cur.copy()
    val, dv = horner(cur)
    best_val = np.abs(val)
    live = np.arange(cur.size)
    for _ in range(NEWTON_MAX_STEPS):
        moving = dv != 0
        live, cur, val, dv = live[moving], cur[moving], val[moving], dv[moving]
        if live.size == 0:
            break
        step = val / dv
        cur = cur - step
        val, dv = horner(cur)
        mag = np.abs(val)
        better = mag < best_val[live]
        best[live[better]] = cur[better]
        best_val[live[better]] = mag[better]
        moving = np.abs(step) >= NEWTON_STEP_TOL * (1 + np.abs(cur))
        live, cur, val, dv = live[moving], cur[moving], val[moving], dv[moving]
        if live.size == 0:
            break
    return best


def _raw_roots(p: BinaryForm) -> Tuple[int, np.ndarray, np.ndarray]:
    """The step of roots_projective that no clustering scale changes.

    Returns the multiplicity of the root at [1:0] (the count of vanishing
    leading coefficients), the descending coefficients of the rest, and
    their roots, unmerged.  When the trailing coefficient is nonzero and
    the degree left is at least 1, the roots are np.roots' without its
    wrapper: the eigenvalues of the same companion matrix.  Otherwise (a
    root at [0:1], or no root left) they are np.roots' own.
    """
    c = p.coeffs
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        raise ZeroForm("binary form is identically zero")
    n = p.degree
    m_inf = 0
    while m_inf < n and abs(c[n - m_inf]) <= INF_COEFF_TOL * scale:
        m_inf += 1
    desc = c[: n - m_inf + 1][::-1]
    if desc.size == 1 or desc[-1] == 0:
        return m_inf, desc, np.roots(desc)
    # desc[0] is nonzero: this is the companion matrix np.roots builds
    A = np.eye(desc.size - 1, k=-1, dtype=complex)
    A[0] = -desc[1:] / desc[0]
    return m_inf, desc, np.linalg.eigvals(A)


def _check_eps_cluster(eps_cluster: float) -> None:
    """Raise ValueError unless eps_cluster is finite and non-negative."""
    if not 0 <= eps_cluster < math.inf:
        raise ValueError("eps_cluster must be finite and non-negative, not %r" % eps_cluster)


def _merge_groups(roots: np.ndarray, eps_cluster: float) -> Tuple[Tuple[int, ...], ...]:
    """Indices of the roots that merge at eps_cluster, one tuple per cluster.

    Roots within eps_cluster * (1 + |root|) of each other merge, and so do
    chains of them.  Groups come in the order of their first index, with
    ascending members, so equal partitions give equal tuples.  When no two
    roots are close, every root is its own group and no union-find runs.
    """
    _check_eps_cluster(eps_cluster)
    k = roots.size
    mags = np.abs(roots)
    close = (np.abs(roots[:, None] - roots[None, :])
             <= eps_cluster * (1.0 + np.maximum.outer(mags, mags)))
    pairs = np.nonzero(np.triu(close, 1))
    if not pairs[0].size:
        return tuple((i,) for i in range(k))
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*pairs):
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[rj] = ri
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(g) for g in groups.values())


def _clusters_of(m_inf: int, desc: np.ndarray, roots: np.ndarray,
                 groups: Sequence[Sequence[int]]) -> List[RootCluster]:
    """One cluster per group at the mean of its roots, Newton-polished at
    its multiplicity, plus the root at [1:0]; in canonical order."""
    clusters: List[RootCluster] = []
    if m_inf > 0:
        clusters.append(RootCluster(ProjPoint1([1.0, 0.0]), m_inf))
    if groups:
        sizes = [len(g) for g in groups]
        # np.mean of one root adds +0.0 to it (-0.0 becomes 0.0); so does
        # the shortcut, which skips np.mean's overhead on simple roots
        reps = np.array([np.mean(roots[list(g)]) if len(g) > 1 else roots[g[0]] + 0j
                         for g in groups], dtype=complex)
        for mult in set(sizes):
            same = np.equal(sizes, mult)
            reps[same] = _newton_polish(desc, reps[same], mult)
        params = np.ones((len(reps), 2), dtype=complex)
        params[:, 0] = reps
        for coords, mult in zip(_normalize_rows(params), sizes):
            clusters.append(RootCluster(ProjPoint1._of(coords), mult))
    clusters.sort(key=lambda cl: cl.point.key())
    return clusters


def roots_projective(p: BinaryForm, eps_cluster: float = EPS_CLUSTER) -> List[RootCluster]:
    """Projective roots of p with multiplicities from cluster merging.

    Roots at [1:0] are detected by counting vanishing leading coefficients;
    affine roots come from the companion matrix, are merged when within
    eps_cluster * (1 + |root|) of each other, and get a Newton polish.
    Clusters are returned sorted by the canonical key of their normalized
    parameter, so the ordering is reproducible and shared by every caller.
    Only the merge and what follows it depend on eps_cluster, so a caller
    that tries several scales runs _raw_roots once and the rest per scale.
    """
    m_inf, desc, roots = _raw_roots(p)
    return _clusters_of(m_inf, desc, roots, _merge_groups(roots, eps_cluster))


def _off_conic(pts: np.ndarray, Q: QuadForm) -> Tuple[np.ndarray, np.ndarray]:
    """Which rows of an (n, 3) stack of points lie off the conic, and their norms.

    A point p is off when |Q(p)| exceeds TOL_ON_CONIC * max|B| * |p|^2,
    with max|B| floored at NORM_FLOOR.
    """
    # squares summed in coordinate order, as Python complex arithmetic
    # sums them for chordal
    sq = pts.real * pts.real + pts.imag * pts.imag
    norms = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])
    val = (pts[:, None] @ Q.B @ pts[:, :, None])[:, 0, 0]
    scale = max(float(np.max(np.abs(Q.B))), NORM_FLOOR)
    # np.hypot, not np.abs, gives abs(complex) of each value
    return np.hypot(val.real, val.imag) > TOL_ON_CONIC * scale * norms ** 2, norms


def line_through(pa: ProjPoint2, pb: ProjPoint2, Q: QuadForm):
    """Linear form vanishing on the line through two conic points.

    Distinct points give the secant (cross product of coordinates); points
    closer than TOL_SAME_POINT in chordal distance give the tangent line at
    pa, whose coefficients are B @ pa.  pa and pb may each hold a stack of
    n points (ProjPoint2.stack): the n lines then come as one (n, 3) array,
    row k equal to the line of the k-th pair alone, which comes as a
    HomogPoly.
    Every point must lie on the conic; NotOnConic names the first that does
    not, in the order pa[0], pb[0], pa[1], pb[1], ...
    """
    n = pa.coords.size // 3
    ab = np.concatenate([pa.coords.reshape(-1, 3), pb.coords.reshape(-1, 3)])
    off, norms = _off_conic(ab, Q)
    if off.any():
        k = int(np.argmax(off[:n] | off[n:]))
        raise NotOnConic("point %r is off the conic"
                         % ProjPoint2._of(ab[k] if off[k] else ab[n + k]))
    # the cross product u[s] * v[t] - u[t] * v[s] with s = (1, 2, 0) and
    # t = (2, 0, 1), in real and imaginary parts as Python complex does it
    twice = np.concatenate([ab, ab], axis=1)
    a1, a2, b1, b2 = twice[:n, 1:4], twice[:n, 2:5], twice[n:, 1:4], twice[n:, 2:5]
    re = ((a1.real * b2.real - a1.imag * b2.imag)
          - (a2.real * b1.real - a2.imag * b1.imag))
    im = ((a1.real * b2.imag + a1.imag * b2.real)
          - (a2.real * b1.imag + a2.imag * b1.real))
    sq = re * re + im * im
    chord = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2]) / (norms[:n] * norms[n:])
    w = np.empty((n, 3), dtype=complex)
    w.real, w.imag = re, im
    tangent = chord < TOL_SAME_POINT
    if tangent.any():
        w[tangent] = (Q.B @ ab[:n][tangent, :, None])[:, :, 0]
    return HomogPoly(1, w[0]) if pa.coords.ndim == 1 else w


def _sylvester(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Sylvester matrix from descending coefficient vectors."""
    m = f.size - 1
    l = g.size - 1
    size = m + l
    S = np.zeros((size, size), dtype=complex)
    for i in range(l):
        S[i, i:i + m + 1] = f
    for i in range(m):
        S[l + i, i:i + l + 1] = g
    return S


def _discriminant_matrix(p: BinaryForm) -> np.ndarray:
    """Sylvester matrix of the two partial derivatives of p, of degree >= 2."""
    return _sylvester(p.deriv_u0().coeffs[::-1], p.deriv_u1().coeffs[::-1])


def binary_discriminant(p: BinaryForm) -> complex:
    """Resultant of the two partial derivatives of p, via the Sylvester determinant.

    By the Euler identity a common projective zero of both partials is a
    multiple root of p (including at [1:0]), and conversely, so the value
    vanishes exactly on forms with a multiple root.
    """
    if p.degree < 1:
        raise ZeroForm("discriminant needs degree >= 1")
    if p.degree == 1:
        return 1.0 + 0.0j
    return complex(np.linalg.det(_discriminant_matrix(p)))
