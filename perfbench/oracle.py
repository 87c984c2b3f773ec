"""The benchmark's own polynomial arithmetic, written with numpy alone.

Input generation and output certification use this module and never the
package under test, so a defect in the package cannot certify itself.

Conventions shared with the package's documented formats:
  * a homogeneous grade of degree d is a coefficient vector over the
    monomials x^a y^b z^c (a+b+c = d) in lexicographically descending order;
  * a quadratic form is a symmetric 3x3 matrix B with Q(v) = v B v^T.
Every form the benchmark makes is built as B = A A^T from a known A, so
points on {Q = 1} and on the cone {Q = 0} come from A without any solving.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

EPS = float(np.finfo(float).eps)
SQRT_EPS = math.sqrt(EPS)


@lru_cache(maxsize=None)
def monomials(d: int) -> Tuple[Tuple[int, int, int], ...]:
    return tuple((a, b, d - a - b) for a in range(d, -1, -1)
                 for b in range(d - a, -1, -1))


@lru_cache(maxsize=None)
def exponents(d: int) -> np.ndarray:
    return np.array(monomials(d), dtype=int).reshape(-1, 3)


def dim(d: int) -> int:
    return (d + 1) * (d + 2) // 2


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


# -- evaluation ------------------------------------------------------------

def monomial_values(d: int, pts: np.ndarray) -> np.ndarray:
    """Rows: points; columns: monomials of degree d in the shared order."""
    pts = np.asarray(pts, dtype=complex)
    e = exponents(d)
    pw = [np.power.outer(pts[:, k], np.arange(d + 1)) for k in range(3)]
    return pw[0][:, e[:, 0]] * pw[1][:, e[:, 1]] * pw[2][:, e[:, 2]]


def eval_grade(coeffs: np.ndarray, d: int, pts: np.ndarray) -> np.ndarray:
    return monomial_values(d, pts) @ np.asarray(coeffs, dtype=complex)


def eval_abs_grade(coeffs: np.ndarray, d: int, pts: np.ndarray) -> np.ndarray:
    """Sum of |term| at each point: the scale rounding errors are measured on."""
    return np.abs(monomial_values(d, pts)) @ np.abs(np.asarray(coeffs))


def eval_grades(grades: Dict[int, np.ndarray], pts: np.ndarray):
    """Values and term-magnitude scale of a sum of grades."""
    val = np.zeros(len(pts), dtype=complex)
    mag = np.zeros(len(pts))
    for d, c in grades.items():
        val += eval_grade(c, d, pts)
        mag += eval_abs_grade(c, d, pts)
    return val, mag


def grades_from_terms(terms: Sequence[dict]) -> Dict[int, np.ndarray]:
    """Grades of a polynomial given in the JSON term format."""
    out: Dict[int, np.ndarray] = {}
    for t in terms:
        a, b, c = t["exp"]
        d = a + b + c
        if d not in out:
            out[d] = np.zeros(dim(d), dtype=complex)
        out[d][monomials(d).index((a, b, c))] += complex(t.get("re", 0.0),
                                                        t.get("im", 0.0))
    return out


def terms_from_grades(grades: Dict[int, np.ndarray]) -> List[dict]:
    terms = []
    for d in sorted(grades):
        for m, c in zip(monomials(d), grades[d]):
            c = complex(c)
            if c != 0:
                terms.append({"exp": list(m), "re": c.real, "im": c.imag})
    return terms


# -- forms and points ------------------------------------------------------

def form_matrix(A: np.ndarray) -> np.ndarray:
    B = A @ A.T
    B = 0.5 * (B + B.T)
    if np.all(B.imag == 0):
        return B.real.copy()
    return B


def q_values(B: np.ndarray, pts: np.ndarray) -> np.ndarray:
    return np.einsum("ni,ij,nj->n", pts, B, pts)


def surface_points(A: np.ndarray, rng: np.random.Generator, n: int,
                   real: bool = False) -> np.ndarray:
    """n points x with Q(x) = 1: x = y A^{-1} for y with y . y = 1."""
    y = rng.normal(size=(n, 3)).astype(complex)
    if not real:
        y = y + 0.5j * rng.normal(size=(n, 3))
    y = y / np.sqrt(np.sum(y * y, axis=1))[:, None]
    return y @ np.linalg.inv(A)


def cone_point(A: np.ndarray, u: complex) -> np.ndarray:
    """The point of {Q = 0} at parameter u of the sphere conic pushed by A."""
    s = np.array([1j * (1.0 - u * u), 2j * u, 1.0 + u * u], dtype=complex)
    return s @ np.linalg.inv(A)


def random_points(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))


# -- dense cube arithmetic -------------------------------------------------
# A grade of degree d as a (d+1)^3 array c[a, b, c] makes products with Q,
# derivatives and the Laplacian plain index shifts.

def to_cube(coeffs: np.ndarray, d: int) -> np.ndarray:
    cube = np.zeros((d + 1,) * 3, dtype=complex)
    e = exponents(d)
    cube[e[:, 0], e[:, 1], e[:, 2]] = coeffs
    return cube


def from_cube(cube: np.ndarray, d: int) -> np.ndarray:
    e = exponents(d)
    return cube[e[:, 0], e[:, 1], e[:, 2]]


def _unit(i: int) -> Tuple[int, int, int]:
    return tuple(1 if k == i else 0 for k in range(3))


def cube_mul_q(cube: np.ndarray, B: np.ndarray) -> np.ndarray:
    n = cube.shape[0]
    out = np.zeros((n + 2,) * 3, dtype=complex)
    for i in range(3):
        for j in range(3):
            if B[i, j] == 0:
                continue
            s = np.add(_unit(i), _unit(j))
            out[s[0]:s[0] + n, s[1]:s[1] + n, s[2]:s[2] + n] += B[i, j] * cube
    return out


def cube_mul_linear(cube: np.ndarray, w: np.ndarray) -> np.ndarray:
    n = cube.shape[0]
    out = np.zeros((n + 1,) * 3, dtype=complex)
    for i in range(3):
        s = _unit(i)
        out[s[0]:s[0] + n, s[1]:s[1] + n, s[2]:s[2] + n] += w[i] * cube
    return out


def cube_deriv(cube: np.ndarray, axis: int) -> np.ndarray:
    n = cube.shape[0]
    if n == 1:
        return np.zeros((1, 1, 1), dtype=complex)
    sl = [slice(0, n - 1)] * 3
    sl[axis] = slice(1, n)
    shape = [1, 1, 1]
    shape[axis] = n - 1
    fac = np.arange(1, n).reshape(shape)
    return cube[tuple(sl)] * fac


def laplacian_q(coeffs: np.ndarray, d: int, B: np.ndarray) -> np.ndarray:
    """Coefficients of sum_jk (B^-1)_jk d_j d_k applied to a grade."""
    if d < 2:
        return np.zeros(1, dtype=complex)
    binv = np.linalg.inv(B)
    cube = to_cube(coeffs, d)
    first = [cube_deriv(cube, j) for j in range(3)]
    out = np.zeros((d - 1,) * 3, dtype=complex)
    for j in range(3):
        for k in range(3):
            if binv[j, k] != 0:
                out += binv[j, k] * cube_deriv(first[j], k)
    return from_cube(out, d - 2)


def maxwell_numerator(B: np.ndarray, vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Coefficients of N with d_{v_1} ... d_{v_k} Q^{-1/2} = N Q^{-(2k+1)/2}.

    One derivative of N Q^{-m/2} is (Q d_v N - (m/2) N d_v Q) Q^{-(m+2)/2}.
    """
    cube = np.ones((1, 1, 1), dtype=complex)
    m = 1
    for v in vectors:
        v = np.asarray(v, dtype=complex)
        grad_n = sum(v[i] * cube_deriv(cube, i) for i in range(3))
        first = cube_mul_q(grad_n, B) if cube.shape[0] > 1 else None
        second = cube_mul_linear(cube, 2.0 * (v @ B)) * (-0.5 * m)
        cube = second if first is None else first + second
        m += 2
    return from_cube(cube, len(vectors))


def product_of_lines(lines: Sequence[np.ndarray]) -> np.ndarray:
    cube = np.ones((1, 1, 1), dtype=complex)
    for w in lines:
        cube = cube_mul_linear(cube, np.asarray(w, dtype=complex))
    return from_cube(cube, len(lines))


def mul_q_grade(coeffs: np.ndarray, d: int, B: np.ndarray) -> np.ndarray:
    return from_cube(cube_mul_q(to_cube(coeffs, d), B), d + 2)


# -- combinatorics ---------------------------------------------------------

def _matchings(items):
    if not items:
        yield ()
        return
    a = items[0]
    for k in range(1, len(items)):
        for m in _matchings(items[1:k] + items[k + 1:]):
            yield ((a, items[k]),) + m


@lru_cache(maxsize=None)
def parcelling_count(mults: Tuple[int, ...]) -> int:
    """Distinct multisets of weight-2 pieces, by brute force over matchings
    of labelled copies (at most 12 copies here)."""
    labels = [i for i, m in enumerate(mults) for _ in range(m)]
    seen = set()
    for m in _matchings(list(range(len(labels)))):
        seen.add(tuple(sorted(tuple(sorted((labels[a], labels[b])))
                              for a, b in m)))
    return len(seen)
