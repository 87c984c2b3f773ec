"""Op lists for the three workloads, made from the seed alone.

A run is a fixed list of ops: a warm-up pass over the pooled forms (part of
set-up) and a number of timed passes that depends only on --seconds.  Each
pass holds the same mix of op kinds in its own shuffled order, with fresh
random inputs, so the mix and the number of distinct quadratic forms are
the same however fast the code runs.  Nothing here reads a clock.

Every op is a JSON-ready dict; complex arrays are packed as [re, im, shape].
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import List, Sequence

import numpy as np

from oracle import (
    cone_point,
    dim,
    double_factorial,
    form_matrix,
    maxwell_numerator,
    mul_q_grade,
    parcelling_count,
    product_of_lines,
    terms_from_grades,
)

WORKLOADS = ("enumerate", "decompose", "approx")

# Nominal length of one timed pass on a 2-core x86 container with one BLAS
# thread; it converts --seconds into a whole number of passes and is never
# measured at run time.
PASS_SECONDS = {"enumerate": 1.3, "decompose": 0.8, "approx": 2.7}

# A near-double conic point: two roots at this chordal gap stay separate
# clusters (the merge radius is 1e-6) but flag the ill-conditioned path
# (closer than 1e-5).
NEAR_DOUBLE_GAP = 4e-6


def pack(a) -> list:
    a = np.asarray(a, dtype=complex)
    return [a.real.ravel().tolist(), a.imag.ravel().tolist(), list(a.shape)]


def unpack(p) -> np.ndarray:
    re, im, shape = p
    return (np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
            ).reshape(shape)


def n_passes(workload: str, seconds: int) -> int:
    return max(2, int(round(seconds / PASS_SECONDS[workload])))


# -- forms -----------------------------------------------------------------

def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def sphere_form() -> dict:
    return {"name": "sphere", "A": pack(np.eye(3))}


def hyperboloid_form() -> dict:
    return {"name": "hyperboloid", "A": pack(np.diag([1.0, 1.0, 1j]))}


def ellipsoid_form(rng: np.random.Generator) -> dict:
    """A rotated ellipsoid: real positive definite B with a dense matrix."""
    axes = rng.uniform(0.6, 1.6, size=3)
    return {"name": "ellipsoid", "A": pack(_rotation(rng) * axes)}


def complex_form(rng: np.random.Generator) -> dict:
    A = np.eye(3) + 0.4 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return {"name": "complex", "A": pack(A)}


def form_A(form: dict) -> np.ndarray:
    return unpack(form["A"])


def form_B(form: dict) -> np.ndarray:
    return form_matrix(form_A(form))


def is_definite(form: dict) -> bool:
    B = form_B(form)
    return bool(np.isrealobj(B) and np.all(np.linalg.eigvalsh(B) > 0))


# -- polynomial inputs -----------------------------------------------------

def random_grade(rng: np.random.Generator, d: int, real: bool) -> np.ndarray:
    c = rng.normal(size=dim(d)).astype(complex)
    if not real:
        c = c + 1j * rng.normal(size=dim(d))
    return c / np.linalg.norm(c)


def _line(x: np.ndarray, y: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Secant through two conic points, or the tangent when they coincide."""
    w = B @ x if x is y else np.cross(x, y)
    return w / w[int(np.argmax(np.abs(w)))]


def divisor_poly(rng: np.random.Generator, form: dict, params: Sequence[complex],
                 pieces: Sequence[tuple], real: bool = False) -> np.ndarray:
    """prod(lines of the pieces) + Q * R: its cone divisor is known exactly."""
    A, B = form_A(form), form_B(form)
    pts = [cone_point(A, u) for u in params]
    lines = [_line(pts[i], pts[j] if i != j else pts[i], B) for i, j in pieces]
    d = len(pieces)
    P = product_of_lines(lines)
    P = P / np.linalg.norm(P)
    if d >= 2:
        P = P + mul_q_grade(0.5 * random_grade(rng, d - 2, real), d - 2, B)
    if real:
        P = P.real.astype(complex)
    return P / np.linalg.norm(P)


def exact_divisor_poly(rng: np.random.Generator, form: dict,
                       pieces: Sequence[tuple]) -> np.ndarray:
    """prod(lines) + Q * R with Gaussian-integer coefficients throughout.

    On the sphere and the hyperboloid (A is diagonal with entries 1 and i)
    conic points at parameters (a + bi)/c with small integers have
    Gaussian-integer coordinates, and so do the lines through them and R.
    A point shared by two pieces is then a repeated point of the rounded
    input itself, not only of the exact polynomial the input approximates.
    """
    A, B = form_A(form), form_B(form)
    n = 1 + max(max(p) for p in pieces)
    cands = sorted({(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1)
                    for c in (1, 2) if c == 1 or a % 2 or b % 2})
    chosen = rng.choice(len(cands), size=n, replace=False)
    pts = []
    for k in chosen:
        a, b, c = cands[k]
        u0, u1 = complex(c), complex(a, b)
        s = np.array([1j * (u0 * u0 - u1 * u1), 2j * u0 * u1, u0 * u0 + u1 * u1])
        pts.append(np.round(s @ np.linalg.inv(A)))
    lines = [B @ pts[i] if i == j else np.cross(pts[i], pts[j]) for i, j in pieces]
    d = len(pieces)
    R = rng.integers(-1, 2, size=dim(d - 2)) + 1j * rng.integers(-1, 2, size=dim(d - 2))
    return product_of_lines(lines) + mul_q_grade(R.astype(complex), d - 2, B)


def _params(rng: np.random.Generator, n: int, real: bool = False) -> List[complex]:
    """Conic parameters in an annulus, so no two points crowd by chance."""
    r = rng.uniform(0.4, 2.5, size=n)
    if real:
        return list(r * rng.choice([-1.0, 1.0], size=n))
    ang = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return list(r * np.exp(1j * ang))


# -- enumerate -------------------------------------------------------------
# pooled forms: 0 sphere, 1 hyperboloid, 2 and 3 random complex forms

GENERALIZED_PIECES = {
    # degree 5, multiplicities (2, 2, 2, 2, 1, 1)
    "d5_four_doubles": ((0, 1), (0, 2), (1, 3), (2, 3), (4, 5)),
    # degree 5, multiplicities (2, 2, 2, 2, 2): a closed chain of secants
    "d5_five_doubles": ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)),
    # degree 4, one doubled point and six simple ones
    "d4_one_double": ((0, 1), (0, 2), (3, 4), (5, 6)),
}


def _mults(pieces) -> tuple:
    n = 1 + max(max(p) for p in pieces)
    m = [0] * n
    for i, j in pieces:
        m[i] += 1
        m[j] += 1
    return tuple(m)


def _allfact_generic(rng, form_ix, d, real):
    return {"kind": "allfact", "form": form_ix, "d": d,
            "P": pack(random_grade(rng, d, real)),
            "expect": {"count": double_factorial(2 * d - 1)}}


def _allfact_divisor(rng, form_ix, forms, label):
    pieces = GENERALIZED_PIECES[label]
    mults = _mults(pieces)
    P = exact_divisor_poly(rng, forms[form_ix], pieces)
    return {"kind": "allfact", "form": form_ix, "d": len(pieces), "P": pack(P),
            "label": label, "expect": {"count": parcelling_count(mults)}}


def _allfact_near_double(rng, forms):
    d = 4
    params = _params(rng, 2 * d)
    u = params[0]
    params[1] = u + NEAR_DOUBLE_GAP * (1 + abs(u) ** 2) * np.exp(
        1j * rng.uniform(0, 2 * math.pi))
    # pair the near points with others so no line is a near-tangent
    pieces = ((0, 2), (1, 3), (4, 5), (6, 7))
    P = divisor_poly(rng, forms[0], params, pieces)
    return {"kind": "allfact", "form": 0, "d": d, "P": pack(P),
            "label": "near_double",
            "expect": {"count": double_factorial(2 * d - 1)}}


def _decomp_enum(rng, form_ix):
    d = 3
    grades = {k: random_grade(rng, k, False) for k in range(d + 1)}
    count = math.prod(double_factorial(2 * k - 1) for k in range(1, d + 1))
    return {"kind": "decomp_enum", "form": form_ix, "d": d,
            "grades": {str(k): pack(c) for k, c in grades.items()},
            "expect": {"count": count}}


def _realfact(rng, forms, d):
    """Real input on the hyperboloid whose 2d conic points are all real."""
    params = _params(rng, 2 * d, real=True)
    pieces = tuple((2 * k, 2 * k + 1) for k in range(d))
    P = divisor_poly(rng, forms[1], params, pieces, real=True)
    return {"kind": "realfact", "form": 1, "d": d, "P": pack(P),
            "expect": {"count": double_factorial(2 * d - 1)}}


def _fiber(rng, form_ix, mults):
    center = rng.normal(size=3) + np.array([0.0, 0.0, 2.0])
    params = _params(rng, len(mults))
    divisor = [[pack([1.0, u]), m] for u, m in zip(params, mults)]
    return {"kind": "fiber", "form": form_ix, "center": pack(center),
            "divisor": divisor,
            "expect": {"count": math.prod(m + 1 for m in mults)}}


def _enumerate_pass(rng, forms, fresh: Sequence[int]) -> List[dict]:
    ops = []
    for f in (0, 0, 1, 2, 3):
        ops.append(_allfact_generic(rng, f, 4, real=(f < 2)))
    for f in (0, 1, 2, 3):
        ops.append(_allfact_generic(rng, f, 3, real=False))
    # exactly repeated points need the integer construction: sphere and
    # hyperboloid only
    ops.append(_allfact_divisor(rng, 0, forms, "d4_one_double"))
    ops.append(_allfact_divisor(rng, 1, forms, "d4_one_double"))
    ops.append(_allfact_divisor(rng, 1, forms, "d5_four_doubles"))
    ops.append(_allfact_divisor(rng, 0, forms, "d5_five_doubles"))
    ops.append(_allfact_near_double(rng, forms))
    for f in (0, 1, 2):
        ops.append(_decomp_enum(rng, f))
    ops.extend([_realfact(rng, forms, 3), _realfact(rng, forms, 3),
                _realfact(rng, forms, 4)])
    for f, mults in ((0, (1, 2, 1)), (1, (3, 1)), (2, (2, 2, 1))):
        ops.append(_fiber(rng, f, mults))
    return ops


def _enumerate_warmup(forms) -> List[dict]:
    rng = np.random.default_rng(0)
    ops = []
    for f in range(len(forms)):
        for d in (3, 4, 5):
            ops.append({"kind": "decomp_canonical", "form": f, "d": d,
                        "grades": {str(d): pack(random_grade(rng, d, False))}})
        ops.append(_allfact_generic(rng, f, 3, real=False))
    return ops


# -- decompose -------------------------------------------------------------
# pooled forms: 0 sphere, 1 hyperboloid, 2 and 3 rotated ellipsoids; each
# pass adds fresh ellipsoids that no earlier op has used.

FRESH_PER_PASS = {"enumerate": 0, "decompose": 2, "approx": 1}


def _surface(rng, form_ix, d, strategy):
    real = strategy == "real_unique"
    grades = {k: random_grade(rng, k, real) * rng.uniform(0.5, 1.5)
              for k in range(d + 1)}
    argv = ["decompose", "@in"]
    if strategy != "canonical":
        argv += ["--strategy", strategy]
    return {"kind": "cli", "check": "surface", "form": form_ix, "d": d,
            "argv": argv, "input": {"degree": d,
                                    "terms": terms_from_grades(grades)},
            "expect": {"real": real}}


def _cone(rng, form_ix, d, strategy):
    real = strategy == "real_unique"
    P = random_grade(rng, d, real)
    argv = ["decompose", "--cone", "@in"]
    if strategy != "canonical":
        argv += ["--strategy", strategy]
    return {"kind": "cli", "check": "cone", "form": form_ix, "d": d,
            "argv": argv, "input": {"degree": d,
                                    "terms": terms_from_grades({d: P})},
            "expect": {"real": real}}


def _harmonic(rng, form_ix, d):
    P = random_grade(rng, d, False)
    return {"kind": "cli", "check": "harmonic", "form": form_ix, "d": d,
            "argv": ["harmonic", "@in"],
            "input": {"degree": d, "terms": terms_from_grades({d: P})},
            "expect": {}}


def _maxwell(rng, form_ix, forms, d):
    vectors = rng.normal(size=(d, 3))
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    P = maxwell_numerator(form_B(forms[form_ix]), vectors)
    P = P / np.linalg.norm(P)
    if is_definite(forms[form_ix]):
        P = P.real.astype(complex)
    return {"kind": "cli", "check": "maxwell", "form": form_ix, "d": d,
            "argv": ["maxwell", "--invert", "@in"],
            "input": {"degree": d, "terms": terms_from_grades({d: P})},
            "expect": {}}


def _discriminant(rng, form_ix, forms, d, double):
    if double:
        pieces = ((0, 1), (0, 2)) + tuple((k, k + 1) for k in range(3, 2 * d - 2, 2))
        P = exact_divisor_poly(rng, forms[form_ix], pieces)
    else:
        P = random_grade(rng, d, False)
    return {"kind": "cli", "check": "discriminant", "form": form_ix, "d": d,
            "argv": ["discriminant", "@in"],
            "input": {"degree": d, "terms": terms_from_grades({d: P})},
            "expect": {"in_discriminant": double}}


def _decompose_pass(rng, forms, fresh: Sequence[int]) -> List[dict]:
    ops = [
        _surface(rng, 0, 12, "canonical"),
        _surface(rng, 1, 10, "canonical"),
        _surface(rng, 2, 8, "canonical"),
        _surface(rng, 3, 14, "canonical"),
        _surface(rng, 0, 6, "canonical"),
        _surface(rng, 0, 10, "real_unique"),
        _surface(rng, 2, 6, "real_unique"),
        _surface(rng, 3, 8, "real_unique"),
        _cone(rng, 1, 8, "canonical"),
        _cone(rng, 2, 6, "canonical"),
        _cone(rng, 0, 8, "real_unique"),
        _harmonic(rng, 0, 24),
        _harmonic(rng, 1, 16),
        _maxwell(rng, 0, forms, 6),
        _maxwell(rng, 1, forms, 5),
        _discriminant(rng, 1, forms, 6, True),
        _discriminant(rng, 0, forms, 6, False),
        _surface(rng, fresh[0], 10, "canonical"),
        _harmonic(rng, fresh[1], 16),
    ]
    return ops


def _decompose_warmup(forms) -> List[dict]:
    rng = np.random.default_rng(0)
    ops = []
    for f in range(4):
        ops.append(_surface(rng, f, 14, "canonical"))
        ops.append(_harmonic(rng, f, 24))
    ops.append(_maxwell(rng, 0, forms, 3))
    ops.append(_discriminant(rng, 0, forms, 4, False))
    return ops


# -- approx ----------------------------------------------------------------
# pooled forms: 0 sphere, 1 and 2 rotated ellipsoids; one fresh per pass.

def _approx(form_ix, d_max, func):
    return {"kind": "approx", "form": form_ix, "d_max": d_max, "func": func}


def _generic(rng):
    v = rng.normal(size=3)
    w = rng.normal(size=3)
    return {"type": "generic", "v": pack(v / np.linalg.norm(v)),
            "w": pack(w / np.linalg.norm(w))}


def _band_limited(rng, degree):
    grades = {k: random_grade(rng, k, True) for k in range(degree + 1)}
    return {"type": "poly", "degree": degree,
            "grades": {str(k): pack(c) for k, c in grades.items()}}


def _approx_pass(rng, forms, fresh: Sequence[int]) -> List[dict]:
    return [
        _approx(0, 6, _generic(rng)),
        _approx(1, 8, _generic(rng)),
        _approx(2, 10, _generic(rng)),
        _approx(0, 8, _generic(rng)),
        _approx(0, 6, {"type": "exp_x"}),
        _approx(0, 8, {"type": "exp_x"}),
        _approx(0, 12, {"type": "exp_x"}),
        _approx(1, 6, {"type": "exp_x"}),
        _approx(0, 6, {"type": "gauss"}),
        _approx(0, 8, {"type": "gauss"}),
        _approx(2, 8, {"type": "gauss"}),
        _approx(1, 6, _band_limited(rng, 4)),
        _approx(2, 8, _band_limited(rng, 5)),
        _approx(fresh[0], 6, _generic(rng)),
    ]


def _approx_warmup(forms) -> List[dict]:
    warm = {"type": "poly", "degree": 2,
            "grades": {"2": pack(np.array([1.0, 0, 0, 0.5, 0.25, 0]))}}
    return [_approx(f, d_max, warm)
            for f in range(len(forms)) for d_max in (6, 8, 10, 12)]


# -- assembly --------------------------------------------------------------

PASS = {"enumerate": _enumerate_pass, "decompose": _decompose_pass,
        "approx": _approx_pass}
WARMUP = {"enumerate": _enumerate_warmup, "decompose": _decompose_warmup,
          "approx": _approx_warmup}

def build(workload: str, seed: int, seconds: int) -> dict:
    """The complete, deterministic op list of one run."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "enumerate":
        forms = [sphere_form(), hyperboloid_form(), complex_form(rng),
                 complex_form(rng)]
    elif workload == "decompose":
        forms = [sphere_form(), hyperboloid_form(), ellipsoid_form(rng),
                 ellipsoid_form(rng)]
    else:
        # The approx pool is the same for every seed: whether a symmetric
        # function factors on a pooled ellipsoid depends on the ellipsoid,
        # and a pool drawn per seed would turn that into seed-to-seed
        # spread.  The seed still draws the functions and the fresh forms.
        fixed = np.random.default_rng(0)
        forms = [sphere_form(), ellipsoid_form(fixed), ellipsoid_form(fixed)]
    pooled = len(forms)
    warmup = WARMUP[workload](forms)
    passes = []
    for _ in range(n_passes(workload, seconds)):
        fresh = []
        for _ in range(FRESH_PER_PASS[workload]):
            forms.append(ellipsoid_form(rng))
            fresh.append(len(forms) - 1)
        ops = PASS[workload](rng, forms, fresh)
        passes.append([ops[i] for i in rng.permutation(len(ops))])
    n = 0
    for i, op in enumerate(warmup):
        op["id"] = "w%d" % i
    for ops in passes:
        for op in ops:
            op["id"] = n
            n += 1
    for k, form in enumerate(forms):
        form["pooled"] = k < pooled
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "forms": forms, "warmup": warmup, "passes": passes}


def encode(plan: dict) -> bytes:
    return json.dumps(plan, sort_keys=True, separators=(",", ":")).encode()


def quadric_json(form: dict) -> dict:
    B = form_B(form)
    return {"B": [[[float(B[i, j].real), float(B[i, j].imag)] for j in range(3)]
                  for i in range(3)],
            "real": bool(np.isrealobj(B))}


def write_inputs(plan: dict, work: Path) -> None:
    """Files the CLI ops read: one per op input and one per non-preset form."""
    for k, form in enumerate(plan["forms"]):
        if form["name"] in ("ellipsoid", "complex"):
            (work / ("form%d.json" % k)).write_text(json.dumps(quadric_json(form)))
    for op in plan["warmup"] + [o for p in plan["passes"] for o in p]:
        if op["kind"] == "cli":
            (work / ("in_%s.json" % op["id"])).write_text(json.dumps(op["input"]))
