"""Independent certification of every op's output against its original input.

Outputs arrive as plain arrays and dicts (the worker copies them out of the
package's objects); each check re-evaluates the claimed identity with the
benchmark's own arithmetic (oracle.py) at points drawn from the op's id.

Tolerance: a result passes when the identity holds to
    tol(d) = max(d, 1) * sqrt(machine epsilon)
relative to the sum of the magnitudes of the terms at each point.  sqrt(eps)
is the accuracy a double root leaves in double precision; the factor d
allows one such loss per factor.  The rule is fixed by dtype and degree
before any run; a wrong answer (a wrong line, scale or remainder) misses it
by orders of magnitude.

Each check returns the number of certified results, or raises Miss.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from oracle import (
    SQRT_EPS,
    eval_abs_grade,
    eval_grade,
    eval_grades,
    grades_from_terms,
    laplacian_q,
    maxwell_numerator,
    q_values,
    random_points,
    surface_points,
)
from workloads import form_A, form_B, unpack

N_POINTS = 6


class Miss(Exception):
    """An output that does not match its input."""


def tol(d: int) -> float:
    return max(d, 1) * SQRT_EPS


def _rng(op: dict) -> np.random.Generator:
    key = op["id"] if isinstance(op["id"], int) else 10 ** 6 + int(op["id"][1:])
    return np.random.default_rng([7919, key])


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise Miss(what)


def _close(val, ref, scale, d: int, what: str) -> None:
    err = float(np.max(np.abs(val - ref) / np.maximum(scale, 1e-300)))
    if not err <= tol(d):
        raise Miss("%s: relative error %.2e exceeds %.2e" % (what, err, tol(d)))


def _lines_at(lines: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Values of each line at each point: shape (points, lines)."""
    if len(lines) == 0:
        return np.ones((len(pts), 0), dtype=complex)
    return pts @ np.asarray(lines, dtype=complex).T


def _factorization(f: dict, P: np.ndarray, d: int, B: np.ndarray,
                   pts: np.ndarray, what: str) -> None:
    """lam * prod(L) + Q * R - P vanishes at the points."""
    lv = _lines_at(f["lines"], pts)
    prod = f["lam"] * np.prod(lv, axis=1)
    scale = abs(f["lam"]) * np.prod(np.abs(lv), axis=1) + eval_abs_grade(P, d, pts)
    val = prod - eval_grade(P, d, pts)
    if d >= 2:
        qv = q_values(B, pts)
        val = val + qv * eval_grade(f["remainder"], d - 2, pts)
        scale = scale + np.abs(qv) * eval_abs_grade(f["remainder"], d - 2, pts)
    _close(val, 0.0, scale, d, what)


def _distinct_pieces(facts: Sequence[dict]) -> None:
    keys = {tuple(map(tuple, f["pieces"])) for f in facts}
    _require(len(keys) == len(facts), "repeated parcellings")


def _real(arrays, d: int, what: str) -> None:
    for a in arrays:
        a = np.asarray(a, dtype=complex)
        if a.size:
            _require(float(np.max(np.abs(a.imag))) <= tol(d) * max(
                1.0, float(np.max(np.abs(a)))), what + " is not real")


# -- enumerate -------------------------------------------------------------

def check_factorizations(op: dict, forms: List[dict], facts: List[dict],
                         real: bool = False) -> int:
    d = op["d"]
    P = unpack(op["P"])
    B = form_B(forms[op["form"]])
    _require(len(facts) == op["expect"]["count"],
             "%d factorizations, expected %d" % (len(facts), op["expect"]["count"]))
    _distinct_pieces(facts)
    pts = random_points(_rng(op), N_POINTS)
    for k, f in enumerate(facts):
        _factorization(f, P, d, B, pts, "factorization %d" % k)
        if real:
            _real([[f["lam"]], f["lines"], f["remainder"]], d, "factorization %d" % k)
    return len(facts)


def _sequence_values(seq: dict, pts: np.ndarray):
    val = np.full(len(pts), seq["lam"], dtype=complex)
    mag = np.full(len(pts), abs(seq["lam"]))
    for scale, lines in seq["terms"].values():
        lv = _lines_at(lines, pts)
        val = val + scale * np.prod(lv, axis=1)
        mag = mag + abs(scale) * np.prod(np.abs(lv), axis=1)
    return val, mag


def _surface_identity(seq: dict, grades: Dict[int, np.ndarray], d: int,
                      pts: np.ndarray, what: str) -> None:
    val, mag = _sequence_values(seq, pts)
    ref, ref_mag = eval_grades(grades, pts)
    _close(val, ref, mag + ref_mag, d, what)


def check_sequences(op: dict, forms: List[dict], seqs: List[dict]) -> int:
    d = op["d"]
    grades = {int(k): unpack(v) for k, v in op["grades"].items()}
    A = form_A(forms[op["form"]])
    _require(len(seqs) == op["expect"]["count"],
             "%d sequences, expected %d" % (len(seqs), op["expect"]["count"]))
    pts = surface_points(A, _rng(op), N_POINTS)
    keys = set()
    for k, seq in enumerate(seqs):
        _surface_identity(seq, grades, d, pts, "sequence %d" % k)
        terms = [scale * np.prod(_lines_at(lines, pts[:1]))
                 for _, (scale, lines) in sorted(seq["terms"].items())]
        terms = np.array(terms + [seq["lam"]], dtype=complex)
        keys.add(tuple(np.round(terms / (1.0 + np.max(np.abs(terms))), 6)
                       .view(float).tolist()))
    _require(len(keys) == len(seqs), "repeated sequences")
    return len(seqs)


def check_fibers(op: dict, forms: List[dict], fibers: List[list]) -> int:
    """Each fiber: points on the conic whose lines through the center carry
    exactly the pencil divisor's multiplicities; fibers pairwise distinct."""
    B = form_B(forms[op["form"]])
    center = unpack(op["center"])
    mults = sorted(m for _, m in op["divisor"])
    _require(len(fibers) == op["expect"]["count"],
             "%d fibers, expected %d" % (len(fibers), op["expect"]["count"]))
    lines: List[np.ndarray] = []

    def line_index(q: np.ndarray) -> int:
        w = np.cross(center, q)
        w = w / np.linalg.norm(w)
        for i, v in enumerate(lines):
            if np.linalg.norm(np.cross(v, w)) < 1e-6:
                return i
        lines.append(w)
        return len(lines) - 1

    keys = set()
    for k, fib in enumerate(fibers):
        per_line: Dict[int, int] = {}
        key = []
        for q, m in fib:
            q = np.asarray(q, dtype=complex)
            qn = q / np.linalg.norm(q)
            _require(abs(qn @ B @ qn) <= tol(len(mults)) * np.max(np.abs(B)),
                     "fiber %d has a point off the conic" % k)
            i = line_index(q)
            per_line[i] = per_line.get(i, 0) + m
            q = q / q[int(np.argmax(np.abs(q)))]
            key.append((tuple(np.round(q, 6).view(float).tolist()), m))
        _require(sorted(per_line.values()) == mults,
                 "fiber %d does not project onto the divisor" % k)
        keys.add(tuple(sorted(key)))
    _require(len(lines) == len(mults), "fibers span %d pencil lines, expected %d"
             % (len(lines), len(mults)))
    _require(len(keys) == len(fibers), "repeated fibers")
    return len(fibers)


# -- decompose (CLI JSON) --------------------------------------------------

def _cnum(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def _json_lines(v) -> np.ndarray:
    return np.array([[_cnum(c) for c in line] for line in v],
                    dtype=complex).reshape(-1, 3)


def _json_sequence(obj: dict) -> dict:
    return {"lam": _cnum(obj["lambda"]),
            "terms": {int(k): (_cnum(t["scale"]), _json_lines(t["lines"]))
                      for k, t in obj["terms"].items()}}


def check_cli(op: dict, forms: List[dict], out: dict) -> int:
    check = op["check"]
    d = op["d"]
    A = form_A(forms[op["form"]])
    B = form_B(forms[op["form"]])
    grades = grades_from_terms(op["input"]["terms"])
    rng = _rng(op)
    if check == "surface":
        seq = _json_sequence(out)
        _surface_identity(seq, grades, d, surface_points(A, rng, N_POINTS),
                          "surface decomposition")
        if op["expect"]["real"]:
            _real([[seq["lam"]]] + [[s] for s, _ in seq["terms"].values()]
                  + [l for _, l in seq["terms"].values()], d, "decomposition")
        return len(seq["terms"])
    P = grades.get(d, np.zeros(1))
    pts = random_points(rng, N_POINTS)
    if check == "cone":
        f = {"lam": _cnum(out["lambda"]), "lines": _json_lines(out["lines"]),
             "remainder": grades_from_terms(out["remainder"]["terms"]).get(
                 d - 2, np.zeros((d - 1) * d // 2, dtype=complex))}
        _factorization(f, P, d, B, pts, "cone factorization")
        if op["expect"]["real"]:
            _real([[f["lam"]], f["lines"], f["remainder"]], d, "cone factorization")
        return 1
    if check == "harmonic":
        comps = [grades_from_terms(c["terms"]) for c in out["components"]]
        _require(len(comps) == d // 2 + 1, "%d harmonic components" % len(comps))
        qv = q_values(B, pts)
        val = np.zeros(len(pts), dtype=complex)
        mag = eval_abs_grade(P, d, pts)
        binv = float(np.sum(np.abs(np.linalg.inv(B))))
        for k, comp in enumerate(comps):
            h = comp.get(d - 2 * k)
            if h is None:
                continue
            val = val + qv ** k * eval_grade(h, d - 2 * k, pts)
            mag = mag + np.abs(qv) ** k * eval_abs_grade(h, d - 2 * k, pts)
            lap = laplacian_q(h, d - 2 * k, B)
            bound = tol(d) * (d - 2 * k) ** 2 * binv * np.linalg.norm(h)
            _require(np.linalg.norm(lap) <= bound,
                     "component %d is not harmonic" % k)
        _close(val, eval_grade(P, d, pts), mag, d, "harmonic sum")
        return len(comps)
    if check == "maxwell":
        vectors = _json_lines(out["vectors"])
        scale = _cnum(out["scale"])
        N = maxwell_numerator(B, vectors)
        _close(scale * eval_grade(N, d, pts), eval_grade(P, d, pts),
               abs(scale) * eval_abs_grade(N, d, pts) + eval_abs_grade(P, d, pts),
               d, "maxwell inversion")
        return 1
    if check == "discriminant":
        _require(out["in_discriminant"] is op["expect"]["in_discriminant"],
                 "discriminant verdict %r" % out["in_discriminant"])
        return 1
    raise ValueError("unknown CLI check %r" % check)


# -- approx ----------------------------------------------------------------

def sample_function(func: dict):
    """The sampled function of an approx op, as numpy code."""
    kind = func["type"]
    if kind == "exp_x":
        return lambda pts: np.exp(pts[:, 0])
    if kind == "gauss":
        return lambda pts: np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2))
    if kind == "generic":
        v, w = unpack(func["v"]), unpack(func["w"])
        return lambda pts: np.exp(pts @ v) * np.cos(pts @ w)
    if kind == "poly":
        grades = {int(k): unpack(c) for k, c in func["grades"].items()}
        return lambda pts: eval_grades(grades, pts)[0]
    raise ValueError("unknown function %r" % kind)


def check_approx(op: dict, forms: List[dict], out: dict) -> int:
    """Pythagoras and the Parseval gap; each nonzero band rebuilt from its
    vectors and scale; band-limited inputs recovered exactly."""
    d_max = op["d_max"]
    A = form_A(forms[op["form"]])
    B = form_B(forms[op["form"]])
    fn2 = out["f_norm"] ** 2
    parts = sum(n * n for n in out["band_norms"]) + out["residual_norm"] ** 2
    _require(abs(fn2 - parts) <= tol(d_max) * fn2, "Pythagoras fails")
    _require(abs(out["gap"] - out["residual_norm"] ** 2) <= tol(d_max) * fn2,
             "Parseval gap disagrees with the residual")
    rng = _rng(op)
    surf = surface_points(A, rng, N_POINTS)
    binv = np.linalg.inv(B)
    results = 0
    for k in range(1, d_max + 1):
        band = out["bands"][k]
        lines = out["lines"][k]
        if len(lines) == 0:
            _require(out["band_norms"][k] <= tol(d_max) * out["f_norm"],
                     "band %d has no multipole but norm %.2e"
                     % (k, out["band_norms"][k]))
            continue
        _require(len(lines) == k, "band %d multipole has %d lines" % (k, len(lines)))
        N = maxwell_numerator(B, np.asarray(lines) @ binv)
        c = out["scales"][k]
        _close(c * eval_grade(N, k, surf), eval_grade(band, k, surf),
               abs(c) * eval_abs_grade(N, k, surf) + eval_abs_grade(band, k, surf),
               k, "band %d rebuilt from its vectors" % k)
        results += 1
    if op["func"]["type"] == "poly":
        f = sample_function(op["func"])
        val = np.zeros(len(surf), dtype=complex)
        mag = np.zeros(len(surf))
        for k, band in enumerate(out["bands"]):
            val = val + eval_grade(band, k, surf)
            mag = mag + eval_abs_grade(band, k, surf)
        _close(val, f(surf), mag, d_max, "band-limited input")
        _require(out["residual_norm"] <= tol(d_max) * out["f_norm"],
                 "band-limited input leaves a residual")
    return results
