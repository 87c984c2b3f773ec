"""JSON for what the CLI reads and writes.

Complex numbers travel as [re, im] pairs (a bare number is accepted on input
as a real).  The parsers read the commands' inputs: polynomials, quadrics
and pencil divisors.  They validate shapes and reject unknown keys and NaN
or infinite numbers with InvalidInput so the CLI can map schema problems to
its parse-error exit code.  The writers give the objects of the parts of an
answer that the CLI's printer does not write from arrays itself: root
clusters, conic divisors, and a grade or line stack with a NaN or infinite
coefficient.  The CLI builds its answers (cli._factorization_arrays,
_multipole_arrays, _sequence_arrays) and prints them as exactly
json.dumps(obj, indent=2, sort_keys=True) plus a newline.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import Any, Dict, Iterable, List

import numpy as np

from .algebra import HomogPoly, Poly, QuadForm, _lex_index, grade_dim, monomials
from .conic import ProjPoint1, RootCluster
from .errors import InvalidInput
from .planar import ConicDivisor, PencilDivisor


def _cnum(z: complex) -> List[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _is_finite(x: Any) -> bool:
    """Whether a parsed int or float is a finite double: an int beyond the
    double range, which float() cannot convert, is not."""
    try:
        return -math.inf < float(x) < math.inf
    except OverflowError:
        return False


def _parse_cnum(v: Any, where: str) -> complex:
    parts = v if isinstance(v, list) and len(v) == 2 else [v]
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
        raise InvalidInput("%s: expected a number or [re, im] pair" % where)
    if not all(map(_is_finite, parts)):
        raise InvalidInput("%s: expected finite numbers" % where)
    return complex(*parts)


def _check_keys(obj: Dict[str, Any], allowed: Iterable[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise InvalidInput("%s: expected an object" % where)
    unknown = set(obj) - set(allowed)
    if unknown:
        raise InvalidInput("%s: unknown keys %s" % (where, sorted(unknown)))


# ---------------------------------------------------------------------------
# polynomials: {"degree": d, "terms": [{"exp": [a,b,c], "re": r, "im": s}]}

def poly_to_json(p) -> Dict[str, Any]:
    """Serialize a Poly or HomogPoly; zero coefficients are omitted.  A
    HomogPoly is written at its own degree, the zero grade included."""
    parts = p.parts if isinstance(p, Poly) else (p,)
    terms = []
    for part in parts:
        monos = monomials(part.degree)
        nz = np.flatnonzero(part.coeffs != 0)
        c = part.coeffs[nz]
        for i, re, im in zip(nz.tolist(), c.real.tolist(), c.imag.tolist()):
            terms.append({"exp": list(monos[i]), "re": re, "im": im})
    return {"degree": parts[-1].degree, "terms": terms}


_TERM_KEYS = frozenset(("exp", "re", "im"))
# the largest exponent whose sum with two others stays an intp
_EXP_MAX = np.iinfo(np.intp).max // 3


def _bulk_terms(terms: list, d: int):
    """(k, a, c, re, im) of the terms as arrays, k = a + b + c, when every
    term passes every check of _term_arrays' loop; None otherwise.

    One pass per check over all terms: their types by set(map(type, ...)),
    the exponents as one intp array with each checked against d before
    they are summed, and the coefficients as two float arrays checked with
    np.isfinite.  It only says "all good": None leaves the verdict, and
    the message, to the per-term checks.
    """
    if not set(map(type, terms)) <= {dict} \
            or not set(chain.from_iterable(terms)) <= _TERM_KEYS:
        return None
    exps = list(map(dict.get, terms, repeat("exp")))
    if not set(map(type, exps)) <= {list} or not set(map(len, exps)) <= {3}:
        return None
    flat = list(chain.from_iterable(exps))
    re = list(map(dict.get, terms, repeat("re"), repeat(0.0)))
    im = list(map(dict.get, terms, repeat("im"), repeat(0.0)))
    if not set(map(type, flat)) <= {int} or not set(map(type, re + im)) <= {int, float}:
        return None
    try:
        e = np.array(flat, dtype=np.intp).reshape(-1, 3)
        re = np.array(re, dtype=float)
        im = np.array(im, dtype=float)
    except OverflowError:  # an int beyond intp or beyond the doubles
        return None
    if e.size and (e.min() < 0 or e.max() > min(d, _EXP_MAX)):
        return None
    k = e.sum(axis=1)
    if (k.size and k.max() > d) \
            or not (np.isfinite(re).all() and np.isfinite(im).all()):
        return None
    return k, e[:, 0], e[:, 2], re, im


def _term_arrays(terms: list, d: int):
    """(k, a, c, re, im) of the terms, the grade and exponents of x and z of
    each and its coefficient's parts; raises InvalidInput naming the first
    term that fails a check.  The loop below states the checks; _bulk_terms
    passes all the terms at once when none fails.  The loop's results are
    lists of Python ints and numbers, for the caller to convert."""
    bulk = _bulk_terms(terms, d)
    if bulk is not None:
        return bulk
    ks: List[int] = []
    a_s: List[int] = []
    c_s: List[int] = []
    re_parts: List[Any] = []
    im_parts: List[Any] = []
    for t in terms:
        _check_keys(t, _TERM_KEYS, "polynomial term")
        e = t.get("exp")
        if (not isinstance(e, list) or len(e) != 3
                or any(not isinstance(x, int) or isinstance(x, bool) or x < 0
                       for x in e)):
            raise InvalidInput("polynomial term: exp must be three"
                               " non-negative integers")
        a, b, c = e
        k = a + b + c
        if k > d:
            raise InvalidInput("polynomial term: exponent %s exceeds the"
                               " stated degree %d" % (e, d))
        re = t.get("re", 0.0)
        im = t.get("im", 0.0)
        if not isinstance(re, (int, float)) or isinstance(re, bool):
            raise InvalidInput("polynomial term: re must be a number")
        if not isinstance(im, (int, float)) or isinstance(im, bool):
            raise InvalidInput("polynomial term: im must be a number")
        if not _is_finite(re):
            raise InvalidInput("polynomial term: re must be finite")
        if not _is_finite(im):
            raise InvalidInput("polynomial term: im must be finite")
        ks.append(k)
        a_s.append(a)
        c_s.append(c)
        re_parts.append(re)
        im_parts.append(im)
    return ks, a_s, c_s, re_parts, im_parts


def poly_from_json(obj: Any) -> Poly:
    """Parse a polynomial; terms with the same exponent add up in term order.

    The terms are checked all at once, and one by one only when that bulk
    check refuses, to name the first bad term (_term_arrays).  Each term's
    coefficient is placed by its flat index, the offset of its grade plus
    its lexicographic index in that grade, and one bincount per part sums
    the real parts and one the imaginary parts, so each sum runs in term
    order from 0.0, as adding complex(re, im) to a zero grade does.  The
    grades above the highest that a term uses are left out: Poly trims them.
    Terms whose grades are too large to hold in memory are refused with
    InvalidInput.
    """
    _check_keys(obj, ("degree", "terms"), "polynomial")
    if "degree" not in obj or "terms" not in obj:
        raise InvalidInput("polynomial: needs 'degree' and 'terms'")
    d = obj["degree"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise InvalidInput("polynomial: degree must be a non-negative integer")
    if not isinstance(obj["terms"], list):
        raise InvalidInput("polynomial: terms must be a list")
    k, a, c, re, im = _term_arrays(obj["terms"], d)
    try:
        k, a, c = (np.asarray(v, dtype=np.intp) for v in (k, a, c))
        top = int(k.max(initial=0))
        # grades up to top hold (top+1)(top+2)(top+3)/6 monomials
        size = (top + 1) * (top + 2) * (top + 3) // 6
        flat = np.empty(size, dtype=complex)
    except (MemoryError, OverflowError, ValueError):
        raise InvalidInput("polynomial: a term of degree %d is too large to"
                           " hold" % max(k)) from None
    bins = k * (k + 1) * (k + 2) // 6 + _lex_index(a, c, k)
    flat.real = np.bincount(bins, weights=re, minlength=size)
    flat.imag = np.bincount(bins, weights=im, minlength=size)
    return Poly([HomogPoly(k, flat[k * (k + 1) * (k + 2) // 6:][:grade_dim(k)])
                 for k in range(top + 1)])


def homog_from_json(obj: Any) -> HomogPoly:
    """Parse a polynomial required to be homogeneous of its stated degree;
    one with no nonzero term is the zero grade of that degree."""
    p = poly_from_json(obj)
    d = obj["degree"]
    for part in p.parts:
        if part.degree != d and not part.is_zero():
            raise InvalidInput("polynomial: expected homogeneous of degree %d"
                               " but grade %d is present" % (d, part.degree))
    return p.part(d)


# ---------------------------------------------------------------------------
# quadratic forms: {"B": 3x3, "real": bool}; presets sphere / hyperboloid

QUADRIC_PRESETS = ("sphere", "hyperboloid")


def quadform_from_json(obj: Any) -> QuadForm:
    _check_keys(obj, ("B", "real"), "quadric")
    if "B" not in obj:
        raise InvalidInput("quadric: needs 'B'")
    b = obj["B"]
    if not isinstance(b, list) or len(b) != 3 \
            or any(not isinstance(r, list) or len(r) != 3 for r in b):
        raise InvalidInput("quadric: B must be a 3x3 matrix")
    M = np.array([[_parse_cnum(b[i][j], "quadric B[%d][%d]" % (i, j))
                   for j in range(3)] for i in range(3)])
    real = obj.get("real", False)
    if not isinstance(real, bool):
        raise InvalidInput("quadric: real must be true or false")
    if real:
        if np.max(np.abs(M.imag)) != 0.0:
            raise InvalidInput("quadric: marked real but B has imaginary"
                               " entries")
        M = M.real
    return QuadForm(M)


def quadform_preset(name: str) -> QuadForm:
    if name == "sphere":
        return QuadForm(np.eye(3))
    if name == "hyperboloid":
        return QuadForm(np.diag([1.0, 1.0, -1.0]))
    raise InvalidInput("unknown quadric preset %r" % name)


# ---------------------------------------------------------------------------
# root clusters: {"u": [[re,im],[re,im]], "mult": m}

def cluster_to_json(c: RootCluster) -> Dict[str, Any]:
    return {"u": [_cnum(v) for v in c.point.coords], "mult": int(c.multiplicity)}


def cluster_from_json(obj: Any) -> RootCluster:
    _check_keys(obj, ("u", "mult"), "root cluster")
    u = obj.get("u")
    if not isinstance(u, list) or len(u) != 2:
        raise InvalidInput("root cluster: u must have two coordinates")
    m = obj.get("mult")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InvalidInput("root cluster: mult must be a positive integer")
    return RootCluster(ProjPoint1([_parse_cnum(v, "root coordinate")
                                   for v in u]), m)


# ---------------------------------------------------------------------------
# line stacks: [[[re,im] x 3] per line], from an (n, 3) complex array

def _lines_to_json(lines: np.ndarray) -> List[List[List[float]]]:
    return [[_cnum(v) for v in row] for row in lines]


# ---------------------------------------------------------------------------
# planar divisors

def pencil_divisor_from_json(v: Any) -> PencilDivisor:
    if not isinstance(v, list) or not v:
        raise InvalidInput("pencil divisor: expected a non-empty list")
    return PencilDivisor([(c.point, c.multiplicity) for c in map(cluster_from_json, v)])


def conic_divisor_to_json(d: ConicDivisor) -> List[Dict[str, Any]]:
    return [{"point": [_cnum(v) for v in pt.coords], "mult": int(m)}
            for pt, m in d.points]
