"""Dense arithmetic for complex polynomials in three variables.

A homogeneous grade of degree d is stored as one coefficient vector over the
full monomial basis x^a y^b z^c (a+b+c = d) in lexicographic order, so every
operator in the package can be a dense matrix.  General polynomials keep one
grade per degree.  Quadratic forms are symmetric 3x3 matrices B acting as
Q(v) = v B v^T.  Degrees stay small (at most ~24), double precision is used
throughout, and exactness is always checked by residuals, never assumed.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from functools import lru_cache, wraps
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from .errors import Degenerate, InsufficientQuadrature, MixedParity, NotDivisible

TOL_DIV = 1e-9  # the factor path's division residual bound, relative to ||P||
TOL_DET = 1e-12
TOL_SYMMETRIC = 1e-12  # largest |B - B^T| of a form, relative to max|B|
NORM_FLOOR = 1e-300  # least reference norm of a relative bound, which keeps it above 0
TOL_PIVOT = 1e-13  # least pivot of quad_reduce and _sqrt_factor_2x2, relative to max entry
SAMPLE_Q_FLOOR = 1e-9  # least |Q(u)|, or Q(u) when real, of a sample scaled onto {Q = 1}


Monomial = Tuple[int, int, int]


@lru_cache(maxsize=None)
def monomials(degree: int) -> Tuple[Monomial, ...]:
    """Exponent triples (a, b, c) with a+b+c = degree, lexicographically descending."""
    out = []
    for a in range(degree, -1, -1):
        for b in range(degree - a, -1, -1):
            out.append((a, b, degree - a - b))
    return tuple(out)


def grade_dim(degree: int) -> int:
    return (degree + 1) * (degree + 2) // 2


def _lex_index(a, c, degree: int):
    """The lexicographic index of x^a y^b z^c in grade `degree`, the
    position of (a, b, c) in monomials(degree); a and c may be arrays."""
    return (degree - a) * (degree - a + 1) // 2 + c


@lru_cache(maxsize=None)
def _exponent_table(degree: int) -> np.ndarray:
    """The exponents of monomials(degree) as a read-only (3, grade_dim) array."""
    table = np.array(monomials(degree), dtype=np.intp).reshape(-1, 3).T.copy()
    table.flags.writeable = False
    return table


def _monomial_values(degree: int, pts: np.ndarray) -> np.ndarray:
    """Matrix of monomial values, one row per point, one column per monomial.

    The powers x_k^j of each coordinate are built up from 1 by repeated
    products, and the value of x^a y^b z^c is (x^a * y^b) * z^c, gathered
    for all monomials at once through _exponent_table.  numpy's complex
    products give the same bits whatever the array layout, so these are the
    bits of one such product chain per monomial and point.  The result is
    C-contiguous: a BLAS product such as mono @ v rounds differently on an
    F-ordered matrix.
    """
    n = pts.shape[0]
    # pows[k, j] holds x_k^j for every point
    pows = np.empty((3, degree + 1, n), dtype=complex)
    pows[:, 0] = 1.0
    for j in range(1, degree + 1):
        pows[:, j] = pows[:, j - 1] * pts.T
    a, b, c = _exponent_table(degree)
    vals = np.empty((n, grade_dim(degree)), dtype=complex)
    # the products formed in place in vals, so one gathered power column
    # stack at a time is held beside it
    prod = vals.T
    np.take(pows[0], a, axis=0, out=prod, mode="clip")
    prod *= pows[1, b]
    prod *= pows[2, c]
    return vals


class HomogPoly:
    """Homogeneous polynomial of a fixed degree with dense complex coefficients."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs=None):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        self.degree = int(degree)
        if coeffs is None:
            self.coeffs = np.zeros(grade_dim(degree), dtype=complex)
        else:
            arr = np.asarray(coeffs, dtype=complex)
            if arr.shape != (grade_dim(degree),):
                raise ValueError("coefficient vector has length %d, expected %d"
                                 % (arr.size, grade_dim(degree)))
            self.coeffs = arr.copy()

    @classmethod
    def _of(cls, degree: int, coeffs: np.ndarray) -> "HomogPoly":
        """A complex coefficient row of the right length, kept as it is:
        not validated, not copied."""
        out = cls.__new__(cls)
        out.degree = degree
        out.coeffs = coeffs
        return out

    @classmethod
    def zero(cls, degree: int) -> "HomogPoly":
        return cls(degree)

    def copy(self) -> "HomogPoly":
        return HomogPoly(self.degree, self.coeffs)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in addition")
        return HomogPoly(self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in subtraction")
        return HomogPoly(self.degree, self.coeffs - other.coeffs)

    def __neg__(self) -> "HomogPoly":
        return HomogPoly(self.degree, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, HomogPoly):
            return poly_mul(self, other)
        return HomogPoly(self.degree, self.coeffs * complex(other))

    def __rmul__(self, other):
        return HomogPoly(self.degree, self.coeffs * complex(other))

    def __truediv__(self, other):
        return HomogPoly(self.degree, self.coeffs / complex(other))

    def eval_many(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=complex)
        return _monomial_values(self.degree, pts) @ self.coeffs

    def __call__(self, v) -> complex:
        pts = np.asarray(v, dtype=complex).reshape(1, 3)
        return complex(self.eval_many(pts)[0])

    def __repr__(self) -> str:
        parts = []
        for m, c in zip(monomials(self.degree), self.coeffs):
            if c != 0:
                parts.append("(%s)*x%dy%dz%d" % (complex(c), *m))
        return "HomogPoly(%d: %s)" % (self.degree, " + ".join(parts) or "0")


@lru_cache(maxsize=None)
def _mul_table(d1: int, d2: int) -> np.ndarray:
    """Index in grade d1 + d2 of the product of monomial i of grade d1 and
    monomial j of grade d2, at position i * grade_dim(d2) + j."""
    a, _, c = _exponent_table(d1)[:, :, None] + _exponent_table(d2)[:, None, :]
    return _lex_index(a, c, d1 + d2).ravel()


def _mul_matrix(f: HomogPoly, degree: int) -> np.ndarray:
    """Dense matrix of multiplication by f from grade `degree` upward."""
    n = grade_dim(degree)
    m = np.zeros((grade_dim(f.degree + degree), n), dtype=complex)
    # distinct monomials of f move one input monomial to distinct outputs,
    # so no entry is written twice
    m[_mul_table(f.degree, degree), np.tile(np.arange(n), grade_dim(f.degree))] \
        = np.repeat(f.coeffs, n)
    return m


_UNIT = np.eye(3, dtype=np.intp)


@lru_cache(maxsize=None)
def _mul_table_re_im(d1: int, d2: int) -> np.ndarray:
    """_mul_table for the products read as (re, im) float pairs."""
    table = 2 * _mul_table(d1, d2)
    return np.stack([table, table + 1], axis=1).ravel()


def poly_mul(p: HomogPoly, q: HomogPoly) -> HomogPoly:
    """Product of homogeneous polynomials; degrees add.  The one-row case
    of poly_mul_rows."""
    return HomogPoly(p.degree + q.degree,
                     poly_mul_rows(p.coeffs[None], p.degree, q.coeffs[None], q.degree)[0])


def poly_mul_rows(a: np.ndarray, deg_a: int, b: np.ndarray, deg_b: int) -> np.ndarray:
    """Products row by row: row i is the product of rows i of a and b.

    a and b are stacks of coefficient rows of grades deg_a and deg_b; a
    one-row stack is paired with every row of the other.  One bincount sums
    the real and the imaginary parts of every row's products, in product
    order, so each row's bits do not depend on the rows beside it.
    """
    prods = a[:, :, None] * b[:, None, :]
    n = prods.shape[0]
    dim2 = 2 * grade_dim(deg_a + deg_b)
    bins = _mul_table_re_im(deg_a, deg_b)
    if n > 1:
        # row i's bins are offset by i * dim2, so one bincount serves every row
        bins = (bins + dim2 * np.arange(n)[:, None]).ravel()
    out = np.bincount(bins, weights=prods.view(np.float64).ravel(), minlength=n * dim2)
    return out.view(complex).reshape(n, -1)


class Poly:
    """General polynomial stored as one homogeneous grade per degree."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[HomogPoly]):
        parts = list(parts)
        for k, p in enumerate(parts):
            if p.degree != k:
                raise ValueError("grade %d has degree %d" % (k, p.degree))
        while len(parts) > 1 and parts[-1].is_zero():
            parts.pop()
        if not parts:
            parts = [HomogPoly.zero(0)]
        self.parts = tuple(parts)

    @classmethod
    def zero(cls) -> "Poly":
        return cls([HomogPoly.zero(0)])

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls([HomogPoly(0, [c])])

    @classmethod
    def from_homog(cls, h: HomogPoly) -> "Poly":
        parts = [HomogPoly.zero(k) for k in range(h.degree)] + [h.copy()]
        return cls(parts)

    @classmethod
    def from_grades(cls, grades: Dict[int, HomogPoly]) -> "Poly":
        top = max(grades) if grades else 0
        parts = [grades[k].copy() if k in grades else HomogPoly.zero(k)
                 for k in range(top + 1)]
        return cls(parts)

    @property
    def degree(self) -> int:
        return len(self.parts) - 1

    def part(self, k: int) -> HomogPoly:
        if 0 <= k < len(self.parts):
            return self.parts[k]
        return HomogPoly.zero(k)

    def norm(self) -> float:
        return float(math.sqrt(sum(p.norm() ** 2 for p in self.parts)))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def _padded(self, other: "Poly"):
        top = max(self.degree, other.degree)
        return ([self.part(k) for k in range(top + 1)],
                [other.part(k) for k in range(top + 1)])

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self._padded(other)
        return Poly([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "Poly") -> "Poly":
        a, b = self._padded(other)
        return Poly([x - y for x, y in zip(a, b)])

    def __neg__(self) -> "Poly":
        return Poly([-p for p in self.parts])

    def __mul__(self, other):
        return Poly([p * complex(other) for p in self.parts])

    __rmul__ = __mul__

    def eval_many(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=complex)
        vals = np.zeros(pts.shape[0], dtype=complex)
        for p in self.parts:
            vals += p.eval_many(pts)
        return vals

    def __call__(self, v) -> complex:
        pts = np.asarray(v, dtype=complex).reshape(1, 3)
        return complex(self.eval_many(pts)[0])

    def __repr__(self) -> str:
        return "Poly[%s]" % "; ".join(repr(p) for p in self.parts if not p.is_zero())


def grade_split(p: Poly) -> Tuple[Poly, Poly]:
    """Split into the even-degree and odd-degree parts; they sum back to p."""
    even = [part.copy() if k % 2 == 0 else HomogPoly.zero(k)
            for k, part in enumerate(p.parts)]
    odd = [part.copy() if k % 2 == 1 else HomogPoly.zero(k)
           for k, part in enumerate(p.parts)]
    return Poly(even), Poly(odd)


FORM_CACHE_FORMS = 8  # forms whose operators form_operator keeps

_OPERATORS: Dict[tuple, object] = {}
# Q.key -> the keys of that form's entries in _OPERATORS, least recently used form first
_FORM_KEYS: "OrderedDict[bytes, list]" = OrderedDict()


def form_operator(build: Callable) -> Callable:
    """Cache build(Q, *args) under (its name, Q.key, *args), for the forms
    used last.

    The key is the value of B, not the QuadForm object: forms built afresh
    from equal matrices (the CLI builds one per call) share their operators.
    The arguments after Q are positional and hashable.  The cache holds the
    entries of at most FORM_CACHE_FORMS forms: a call on a form not held
    evicts every entry of the least recently used form once that many are
    held, and any call, hit or build, makes its form the most recently used.
    An evicted entry is built again, with the same bits, when it is next
    asked for.  The functions that hold per-form entries are mul_q_matrix and
    _quotient_matrix here; delta_matrix and _delta_weights in harmonic;
    conic_param, _restriction_matrix and _restriction_norm in conic;
    _trial_conic_points and _trial_monomials in sylvester; _pullback_matrix
    and _band_basis in approx.  Tables that do not depend on the form, such
    as harmonic._delta_table and maxwell._step_table, are cached per degree
    instead and shared by every form.
    """
    name = build.__name__

    @wraps(build)
    def cached(Q: "QuadForm", *args):
        qkey = Q.key
        key = (name, qkey) + args
        keys = _FORM_KEYS.get(qkey)
        if keys is None:
            if len(_FORM_KEYS) >= FORM_CACHE_FORMS:
                for old in _FORM_KEYS.popitem(last=False)[1]:
                    del _OPERATORS[old]
            keys = _FORM_KEYS[qkey] = []
        else:
            _FORM_KEYS.move_to_end(qkey)
        op = _OPERATORS.get(key)
        if op is None:
            op = _OPERATORS[key] = build(Q, *args)
            keys.append(key)
        return op

    return cached


class QuadForm:
    """Nondegenerate complex symmetric quadratic form Q(v) = v B v^T on C^3.

    A singular B raises Degenerate: one that is zero, or whose determinant
    is at most TOL_DET * max|B|^3 in magnitude.  A B with a NaN or infinite
    entry raises ValueError: its determinant would be NaN.
    """

    def __init__(self, B):
        B = np.asarray(B, dtype=complex)
        if B.shape != (3, 3):
            raise ValueError("B must be a 3x3 matrix")
        if not np.all(np.isfinite(B)):
            raise ValueError("B must have finite entries")
        scale = float(np.max(np.abs(B)))
        if scale > 0 and np.max(np.abs(B - B.T)) > TOL_SYMMETRIC * scale:
            raise ValueError("B must be symmetric")
        self.B = 0.5 * (B + B.T)
        if scale == 0.0 or abs(np.linalg.det(self.B)) <= TOL_DET * scale ** 3:
            raise Degenerate("quadratic form is singular within tolerance")
        self.is_real = bool(np.all(self.B.imag == 0))
        if self.is_real:
            eig = np.linalg.eigvalsh(self.B.real)
            self.signature = int(np.sum(eig > 0) - np.sum(eig < 0))
        else:
            self.signature = None
        self._poly = None
        self._b_inv = None
        self._a_inv = None

    @classmethod
    def sphere(cls) -> "QuadForm":
        return cls(np.eye(3))

    @classmethod
    def hyperboloid(cls) -> "QuadForm":
        return cls(np.diag([1.0, 1.0, -1.0]))

    @property
    def key(self) -> bytes:
        return self.B.tobytes()

    @property
    def is_definite(self) -> bool:
        return self.is_real and self.signature in (-3, 3)

    @property
    def b_inv(self) -> np.ndarray:
        if self._b_inv is None:
            self._b_inv = np.linalg.inv(self.B)
        return self._b_inv

    def poly(self) -> HomogPoly:
        if self._poly is None:
            B = self.B
            self._poly = HomogPoly(2, [B[0, 0], 2 * B[0, 1], 2 * B[0, 2],
                                       B[1, 1], 2 * B[1, 2], B[2, 2]])
        return self._poly.copy()

    def __call__(self, v) -> complex:
        v = np.asarray(v, dtype=complex)
        return complex(v @ self.B @ v)

    def polar(self, u, v) -> complex:
        """Symmetric bilinear form with polar(v, v) = Q(v)."""
        u = np.asarray(u, dtype=complex)
        v = np.asarray(v, dtype=complex)
        return complex(u @ self.B @ v)

    @property
    def a_inv(self) -> np.ndarray:
        """Inverse of the reduction matrix A of quad_reduce (A @ A.T = B)."""
        if self._a_inv is None:
            self._a_inv = np.linalg.inv(quad_reduce(self))
        return self._a_inv

    def __repr__(self) -> str:
        return "QuadForm(%r)" % (self.B.tolist(),)


def _sqrt_factor_2x2(T: np.ndarray) -> np.ndarray:
    """W with W @ W.T = T for symmetric complex 2x2 T."""
    t00, t01, t11 = T[0, 0], T[0, 1], T[1, 1]
    scale = max(abs(t00), abs(t01), abs(t11))
    if abs(t00) > TOL_PIVOT * scale:
        w1 = np.array([t00, t01], dtype=complex) / np.sqrt(t00)
        w2 = np.array([0.0, np.sqrt(t11 - w1[1] ** 2)], dtype=complex)
        return np.column_stack([w1, w2])
    if abs(t11) > TOL_PIVOT * scale:
        w1 = np.array([t01, t11], dtype=complex) / np.sqrt(t11)
        w2 = np.array([np.sqrt(t00 - w1[0] ** 2), 0.0], dtype=complex)
        return np.column_stack([w2, w1])
    s = np.sqrt(t01 / 2.0)
    return s * np.array([[1.0, 1j], [1.0, -1j]], dtype=complex)


def quad_reduce(Q: QuadForm) -> np.ndarray:
    """Matrix A with A @ A.T = B, so Q becomes a sum of three squares in v @ A.

    Symmetric elimination with largest-pivot selection; a 2x2 block step covers
    the case of a vanishing diagonal.  Complex square roots take the principal
    branch, so the result is deterministic.
    """
    B = Q.B
    scale = float(np.max(np.abs(B)))
    M = B.copy()
    piv_tol = TOL_PIVOT * scale
    cols = []
    while len(cols) < 3:
        dvals = np.abs(np.diag(M))
        j = int(np.argmax(dvals))
        if dvals[j] > piv_tol:
            a = M[:, j] / np.sqrt(M[j, j])
            cols.append(a)
            M = M - np.outer(a, a)
            M[j, :] = 0.0
            M[:, j] = 0.0
            continue
        off = np.abs(M)
        np.fill_diagonal(off, 0.0)
        j, k = np.unravel_index(int(np.argmax(off)), off.shape)
        if off[j, k] <= piv_tol:
            raise Degenerate("rank-deficient form slipped past the determinant check")
        S = M[np.ix_([j, k], [j, k])]
        P2 = M[:, [j, k]]
        Tinv = np.linalg.inv(S)
        V = P2 @ _sqrt_factor_2x2(Tinv)
        cols.append(V[:, 0])
        cols.append(V[:, 1])
        M = M - P2 @ Tinv @ P2.T
        M[[j, k], :] = 0.0
        M[:, [j, k]] = 0.0
    if len(cols) != 3:
        raise Degenerate("elimination produced %d columns" % len(cols))
    return np.column_stack(cols)


@form_operator
def mul_q_matrix(Q: QuadForm, degree_r: int) -> np.ndarray:
    """Dense matrix of multiplication by Q from grade degree_r to degree_r + 2."""
    return _mul_matrix(Q.poly(), degree_r)


@form_operator
def _quotient_matrix(Q: QuadForm, degree_r: int) -> np.ndarray:
    """M^+ for M, the multiplication by Q from grade degree_r to degree_r + 2.

    M has full column rank, so the least-squares solution of M X = I is its
    pseudo-inverse.  M is built here and dropped, so the cache holds this
    operator in place of M rather than both, which would double its size.
    A real form has a real M and so a real M^+: it is solved in real
    arithmetic, 4-6 times faster than the complex solve at degree_r = 38,
    and stored complex, so the division is the same product for every form.
    The solve stays np.linalg.lstsq: perfbench's tracer counts the calls to
    it from this module as algebra.lstsq.calls.
    """
    M = _mul_matrix(Q.poly(), degree_r)
    if Q.is_real:
        return np.linalg.lstsq(M.real, np.eye(M.shape[0]), rcond=None)[0].astype(complex)
    return np.linalg.lstsq(M, np.eye(M.shape[0]), rcond=None)[0]


def divide_by_quadric(p: HomogPoly, Q: QuadForm, tol_div: float = TOL_DIV,
                      ref_norm: Optional[float] = None) -> HomogPoly:
    """The R with p = Q * R: divide_rows_by_quadric for one polynomial.

    Raises NotDivisible when ||Q * R - p|| exceeds tol_div * ref_norm, where
    ref_norm defaults to ||p||.
    """
    if p.degree < 2:
        raise ValueError("cannot divide a polynomial of degree < 2 by a quadric")
    return HomogPoly(p.degree - 2, divide_rows_by_quadric(
        p.coeffs[None, :], p.degree, Q, tol_div=tol_div, ref_norm=ref_norm)[0])


def divide_rows_by_quadric(rows: np.ndarray, degree: int, Q: QuadForm,
                           tol_div: float = TOL_DIV, ref_norm=None) -> np.ndarray:
    """The rows R_i with p_i = Q * R_i, for a stack of grade-`degree` rows p_i.

    This is the package's only division by Q: the least-squares quotient,
    by one product with the operator M^+ cached per (Q, degree).  A row is
    divisible when ||Q * R_i - p_i|| is at most tol_div * ref_i, where
    ref_norm is one number or one per row and defaults to ||p_i||.
    Otherwise NotDivisible is raised for the first such row.  tol_div must
    be finite and positive: a NaN or infinite bound would pass every row.
    1 and above are taken: at tol_div = 1 any row gets its least-squares
    quotient, as the tests' near-multiples need.
    """
    if degree < 2:
        raise ValueError("cannot divide a polynomial of degree < 2 by a quadric")
    if not (math.isfinite(tol_div) and tol_div > 0):
        raise ValueError("tol_div must be finite and positive, not %r" % (tol_div,))
    # one row gives the bits of M^+ @ p
    quot = rows @ _quotient_matrix(Q, degree - 2).T
    residual = np.linalg.norm(poly_mul_rows(Q.poly().coeffs[None, :], 2, quot, degree - 2)
                              - rows, axis=1)
    ref = np.linalg.norm(rows, axis=1) if ref_norm is None else ref_norm
    bad = np.flatnonzero(residual > tol_div * np.maximum(ref, NORM_FLOOR))
    if bad.size:
        raise NotDivisible("division residual %.3e exceeds tolerance" % residual[bad[0]])
    return quot


def homogenize_on_quadric(p: Poly, Q: QuadForm) -> HomogPoly:
    """Lift all grades to the top degree by multiplying with powers of Q.

    All present grades must share parity (else MixedParity); the result agrees
    with p on the surface {Q = 1}.
    """
    present = [k for k, part in enumerate(p.parts) if not part.is_zero()]
    if not present:
        return HomogPoly.zero(0)
    parities = {k % 2 for k in present}
    if len(parities) > 1:
        raise MixedParity("grades %s mix parities" % (present,))
    top = present[-1]
    qpow = HomogPoly(0, [1.0])
    qpowers = [qpow]
    for _ in range((top - present[0]) // 2):
        qpow = poly_mul(qpow, Q.poly())
        qpowers.append(qpow)
    out = HomogPoly.zero(top)
    for k in present:
        out = out + poly_mul(p.parts[k], qpowers[(top - k) // 2])
    return out


def double_factorial(n: int) -> int:
    """n!! with the empty-product convention (-1)!! = 0!! = 1."""
    return math.prod(range(n, 0, -2))


def monomial_sphere_integral(a: int, b: int, c: int) -> float:
    """Integral of x^a y^b z^c over the unit sphere with surface measure.

    Zero when any exponent is odd, else
    4*pi * (a-1)!!(b-1)!!(c-1)!! / (a+b+c+1)!!.
    """
    if a % 2 or b % 2 or c % 2:
        return 0.0
    num = (double_factorial(a - 1) * double_factorial(b - 1)
           * double_factorial(c - 1))
    return 4.0 * math.pi * num / double_factorial(a + b + c + 1)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights, as read-only arrays."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


class QuadratureRule:
    """Tensor rule on the sphere, exact for polynomials up to exact_degree.

    Uniform angles in theta (trapezoid on the circle) and Gauss-Legendre in
    cos(phi), its nodes and weights computed once per node count; nodes are
    stored as (theta, phi) rows with combined weights for the measure
    |sin phi| dtheta dphi.
    """

    def __init__(self, exact_degree: int):
        if exact_degree < 0:
            raise ValueError("exact_degree must be non-negative")
        self.exact_degree = int(exact_degree)
        n_theta = exact_degree + 1
        n_phi = (exact_degree + 2) // 2
        theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        w_theta = np.full(n_theta, 2.0 * np.pi / n_theta)
        t, w_t = _gauss_legendre(max(n_phi, 1))
        phi = np.arccos(t)
        th, ph = np.meshgrid(theta, phi, indexing="ij")
        wt, wp = np.meshgrid(w_theta, w_t, indexing="ij")
        self.nodes = np.column_stack([th.ravel(), ph.ravel()])
        self.weights = (wt * wp).ravel()
        self._points = None

    def sphere_points(self) -> np.ndarray:
        if self._points is None:
            th = self.nodes[:, 0]
            ph = self.nodes[:, 1]
            sp = np.sin(ph)
            self._points = np.column_stack(
                [np.cos(th) * sp, np.sin(th) * sp, np.cos(ph)]).astype(complex)
        return self._points

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.dot(self.weights, values))


def inner_product(f, g, Q: QuadForm, rule: QuadratureRule) -> complex:
    """Hermitian product of f and g over the surface {Q = 1}.

    Points of the unit sphere are pulled back through the inverse of the
    reduction matrix A (so they satisfy Q = 1) and the sphere measure is used.
    Exact when exact_degree covers deg f + deg g; raises InsufficientQuadrature
    otherwise.
    """
    need = f.degree + g.degree
    if rule.exact_degree < need:
        raise InsufficientQuadrature(
            "rule exact to %d cannot integrate degree %d" % (rule.exact_degree, need))
    pts = rule.sphere_points() @ Q.a_inv
    fv = f.eval_many(pts)
    gv = g.eval_many(pts)
    return complex(np.dot(rule.weights, fv * np.conj(gv)))


def surface_samples(Q: QuadForm, n: int, rng: np.random.Generator,
                    real: bool = False) -> np.ndarray:
    """n points on {Q = 1}; complex in general, real when real=True."""
    pts = np.empty((n, 3), dtype=complex)
    got = 0
    while got < n:
        u = rng.normal(size=3).astype(complex)
        if not real:
            u = u + 1j * rng.normal(size=3)
        qu = Q(u)
        if real:
            if qu.real <= SAMPLE_Q_FLOOR:
                continue
            pts[got] = u / math.sqrt(qu.real)
        else:
            if abs(qu) <= SAMPLE_Q_FLOOR:
                continue
            pts[got] = u * qu ** -0.5
        got += 1
    return pts
