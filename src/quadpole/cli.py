"""Command-line interface: stable JSON in, stable JSON out.

Exit codes: 0 success, 2 unreadable or schema-violating input or an option
out of range (a quadrature rule too low for --d-max among them), 3 input that
is a multiple of the form where that is rejected, 4 numerical failure inside
an operation.  Output is deterministic: identical inputs and options produce
byte-identical JSON, exactly json.dumps(obj, indent=2, sort_keys=True) and a
newline.  main builds its argument parser once per process and reuses it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from . import io as qio
from .algebra import HomogPoly, QuadForm, QuadratureRule, _exponent_table
from .conic import EPS_CLUSTER
from .deconstruct import full_decompose, representation_bound
from .errors import DivisibleByQ, InsufficientQuadrature, InvalidInput, QuadpoleError
from .harmonic import harmonic_decompose
from .maxwell import maxwell_decompose, maxwell_poly
from .planar import PencilCenter, fiber_enumerate
from .sylvester import (
    _FactorContext,
    all_factorizations,
    count_parcellings,
    factor,
    in_discriminant,
)
from .approx import l2_project, multipole_series, parseval_gap


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidInput("cannot read %s: %s" % (path, exc)) from None
    return _parse_fragment(text, path)


def _parse_fragment(text: str, where: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput("%s is not valid JSON: %s" % (where, exc)) from None
    except RecursionError:
        raise InvalidInput("%s is nested too deeply to parse" % where) from None


def _resolve_quadric(name: str) -> QuadForm:
    if name in qio.QUADRIC_PRESETS:
        return qio.quadform_preset(name)
    return qio.quadform_from_json(_load_json(name))


_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")
COUNTS_MAX_D = 74  # the largest --d whose bound prints under the 4,300-digit str limit


@functools.lru_cache(maxsize=None)
def _grade_template(newline: str) -> Tuple[str, str, str]:
    """A grade's text at the line break newline, for % with its degree and
    then each term's three exponents, im and re: the head with the first
    term, each further term with its separator, and the tail."""
    inner = newline + "  "
    item = inner + "  "
    key = item + "  "
    exp = key + "  "
    term = ('{%s"exp": [%s%%d,%s%%d,%s%%d%s],%s"im": %%r,%s"re": %%r%s}'
            % (key, exp, exp, exp, key, key, key, item))
    return ('{%s"degree": %%d,%s"terms": [%s%s' % (inner, inner, item, term),
            "," + item + term, "%s]%s}" % (inner, newline))


def _grade_text(p: HomogPoly, newline: str) -> str:
    """The text of io.poly_to_json(p) at the line break newline.

    The nonzero terms' exponents come from the grade's exponent table and
    their im and re from its coefficients' tolist(), all written with one %
    of the template of the line break, repeated once per term.  A grade
    with a NaN or infinite coefficient is poly_to_json's own object.
    """
    nz = np.flatnonzero(p.coeffs)
    c = p.coeffs[nz]
    if not np.isfinite(c).all():
        return _json_text(qio.poly_to_json(p), newline)
    inner = newline + "  "
    n = len(nz)
    if not n:
        return '{%s"degree": %d,%s"terms": []%s}' % (inner, p.degree, inner, newline)
    numbers = [p.degree] + [None] * (5 * n)
    numbers[1::5], numbers[2::5], numbers[3::5] = _exponent_table(p.degree)[:, nz].tolist()
    numbers[4::5] = c.imag.tolist()
    numbers[5::5] = c.real.tolist()
    head, more, tail = _grade_template(newline)
    return (head + more * (n - 1) + tail) % tuple(numbers)


@functools.lru_cache(maxsize=None)
def _line_template(newline: str) -> str:
    """One line's text, for % with its three coefficients' re and im in
    turn, in a list whose items sit at the line break newline."""
    coeff = newline + "  "
    part = coeff + "  "
    pair = "[%s%%r,%s%%r%s]" % (part, part, coeff)
    return "[%s%s%s]" % (coeff, ("," + coeff).join([pair] * 3), newline)


def _lines_text(lines: np.ndarray, newline: str) -> str:
    """The text of io._lines_to_json(lines), lines an (n, 3) complex array,
    at the line break newline: every coefficient's re and im, in the
    array's order, in one % of the line template repeated once per line.
    Lines with a NaN or infinite coefficient are _lines_to_json's own."""
    if not np.isfinite(lines).all():
        return _json_text(qio._lines_to_json(lines), newline)
    if not len(lines):
        return "[]"
    inner = newline + "  "
    line = _line_template(inner)
    text = "[" + inner + line + ("," + inner + line) * (len(lines) - 1) + newline + "]"
    return text % tuple(np.ascontiguousarray(lines, dtype=complex).view(float).ravel().tolist())


def _json_text(obj: Any, newline: str = "\n") -> str:
    """The bytes of json.dumps(obj, indent=2, sort_keys=True).

    The standard library runs its pure-Python encoder whenever indent is
    set.  This one writes what the commands emit itself, with one join per
    container: lists, tuples and dicts whose keys are all str, with finite
    float and int children inline.  The commands' grades and line stacks,
    the bulk of every answer, come as a HomogPoly and an (n, 3) complex
    array, written as io.poly_to_json and io._lines_to_json would write
    them by _grade_text and _lines_text.  Every other value, a dict with a
    non-str key among them (its sort or key encoding raises TypeError), is
    json.dumps' own text with each of its line breaks indented to this
    level; json escapes the line breaks inside strings, and an unsupported
    type raises its TypeError.  newline is the line break and indentation
    of obj's own level.
    """
    cls = type(obj)
    inner = newline + "  "
    if cls is list or cls is tuple:
        if not obj:
            return "[]"
        return "[%s%s%s]" % (inner, ("," + inner).join(
            [float.__repr__(v) if type(v) is float and -_INF < v < _INF else
             int.__repr__(v) if type(v) is int else _json_text(v, inner)
             for v in obj]), newline)
    if cls is dict and obj:
        try:
            return "{%s%s%s}" % (inner, ("," + inner).join(
                [_encode_str(k) + ": " + (
                    float.__repr__(v) if type(v) is float and -_INF < v < _INF else
                    int.__repr__(v) if type(v) is int else _json_text(v, inner))
                 for k, v in sorted(obj.items())]), newline)
        except TypeError:
            pass
    if cls is HomogPoly:
        return _grade_text(obj, newline)
    if cls is np.ndarray:
        return _lines_text(obj, newline)
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline)


def _emit(obj: Any, output: Optional[str]) -> None:
    text = _json_text(obj) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInput("cannot write %s: %s" % (output, exc)) from None
    else:
        sys.stdout.write(text)


def _multipole_arrays(m) -> Dict[str, Any]:
    """A multipole's answer: its scale and its lines, an (n, 3) complex array."""
    return {"lines": np.array(m.lines, dtype=complex).reshape(-1, 3),
            "scale": qio._cnum(m.scale)}


def _factorization_arrays(f) -> Dict[str, Any]:
    """A factorization's answer: lambda, its lines as an (n, 3) complex
    array, its parcelling's pieces and its remainder, the grade itself."""
    return {"lambda": qio._cnum(f.lam),
            "lines": np.array([L.coeffs for L in f.lines], dtype=complex).reshape(-1, 3),
            "parcelling": [list(piece) for piece in f.parcelling.pieces],
            "remainder": f.remainder}


def _sequence_arrays(s) -> Dict[str, Any]:
    """A sequence's answer: lambda and each degree's multipole, keyed by
    the degree as a str."""
    return {"lambda": qio._cnum(s.lam),
            "terms": {str(k): _multipole_arrays(m) for k, m in s.terms.items()}}


def _cmd_decompose(args, Q: QuadForm) -> Any:
    data = _load_json(args.poly)
    strategy = args.strategy
    if args.all:
        if strategy == "real_unique":
            raise InvalidInput("--all cannot be combined with"
                               " --strategy real_unique")
        strategy = "enumerate"
    if args.cone:
        P = qio.homog_from_json(data)
        if strategy == "enumerate":
            facts = all_factorizations(P, Q, eps_cluster=args.eps_cluster)
            return {"count": len(facts),
                    "factorizations": [_factorization_arrays(f) for f in facts]}
        return _factorization_arrays(factor(
            P, Q, strategy, eps_cluster=args.eps_cluster))
    P = qio.poly_from_json(data)
    result = full_decompose(P, Q, strategy=strategy,
                            eps_cluster=args.eps_cluster)
    if strategy == "enumerate":
        return {"count": len(result),
                "sequences": [_sequence_arrays(s) for s in result]}
    return _sequence_arrays(result)


def _cmd_harmonic(args, Q: QuadForm) -> Any:
    P = qio.homog_from_json(_load_json(args.poly))
    dec = harmonic_decompose(P, Q)
    return {"components": dec.components}


def _parse_vectors(text: str) -> List[np.ndarray]:
    raw = _parse_fragment("[%s]" % text, "vectors")
    vectors = []
    for i, v in enumerate(raw):
        if not isinstance(v, list) or len(v) != 3:
            raise InvalidInput("vector %d must have three components" % i)
        vectors.append(np.array([qio._parse_cnum(x, "vector %d" % i)
                                 for x in v]))
    if not vectors:
        raise InvalidInput("need at least one vector")
    return vectors


def _cmd_maxwell(args, Q: QuadForm) -> Any:
    if args.invert is not None:
        P = qio.homog_from_json(_load_json(args.invert))
        vectors, scale = maxwell_decompose(P, Q, eps_cluster=args.eps_cluster)
        return {"vectors": np.array(vectors, dtype=complex).reshape(-1, 3),
                "scale": qio._cnum(scale)}
    if args.vectors is None:
        raise InvalidInput("maxwell needs --vectors or --invert")
    return maxwell_poly(Q, _parse_vectors(args.vectors))


def _cmd_fibers(args, Q: QuadForm) -> Any:
    P = qio.homog_from_json(_load_json(args.poly))
    # one context gives both the clusters and the factorizations, so the
    # restriction and the roots are computed once
    ctx = _FactorContext(P, Q, eps_cluster=args.eps_cluster)
    facts = ctx.rows("enumerate")
    return {"clusters": [qio.cluster_to_json(c) for c in ctx.clusters],
            "count": len(facts),
            "factorizations": [_factorization_arrays(f) for f in facts]}


def _cmd_discriminant(args, Q: QuadForm) -> Any:
    P = qio.homog_from_json(_load_json(args.poly))
    return {"in_discriminant": bool(in_discriminant(
        P, Q, eps_cluster=args.eps_cluster))}


def _cmd_planar_fiber(args, Q: QuadForm) -> Any:
    divisor = qio.pencil_divisor_from_json(_load_json(args.divisor))
    coords = _parse_fragment(args.center, "center")
    if not isinstance(coords, list) or len(coords) != 3:
        raise InvalidInput("center must have three coordinates")
    center = PencilCenter.from_coords(
        [qio._parse_cnum(x, "center") for x in coords], Q)
    fibers = fiber_enumerate(divisor, center, Q,
                             eps_cluster=args.eps_cluster)
    return {"count": len(fibers),
            "fibers": [qio.conic_divisor_to_json(d) for d in fibers]}


def _approx_function(args):
    if args.function == "exp_x":
        return lambda pts: np.exp(pts[:, 0])
    if args.function == "gauss":
        return lambda pts: np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2))
    P = qio.poly_from_json(_load_json(args.function))
    return lambda pts: P.eval_many(pts)


def _cmd_approx(args, Q: QuadForm) -> Any:
    f = _approx_function(args)
    exact = args.exact_degree if args.exact_degree is not None \
        else 2 * args.d_max
    rule = QuadratureRule(exact)
    dec = l2_project(f, Q, args.d_max, rule)
    series = multipole_series(dec, Q, eps_cluster=args.eps_cluster)
    gap = parseval_gap(f, dec)
    bands: Dict[str, Any] = {}
    for k in range(1, dec.d_max + 1):
        bands[str(k)] = {"multipole": _multipole_arrays(series.terms[k]),
                         "scale": qio._cnum(series.scales[k]),
                         "norm": float(series.norms[k])}
    return {"d_max": dec.d_max,
            "band_norms": [float(n) for n in dec.band_norms],
            "residual_norm": float(dec.residual_norm),
            "parseval_gap": float(gap),
            "lambda": qio._cnum(series.lam),
            "bands": bands}


def _cmd_counts(args, Q: QuadForm) -> Any:
    if args.d > COUNTS_MAX_D:
        raise InvalidInput("--d must be at most %d, not %d" % (COUNTS_MAX_D, args.d))
    return {"kappa": count_parcellings(args.d),
            "bound": representation_bound(args.d).bound}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadpole",
        description="Multipole decompositions of polynomials on quadric"
                    " surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, clustered=True):
        """--quadric, --output, and --eps-cluster when the handler clusters
        roots; every other tolerance is a constant."""
        p.add_argument("--quadric", default="sphere",
                       help="sphere, hyperboloid, or a quadric JSON file")
        if clustered:
            p.add_argument("--eps-cluster", type=float, default=EPS_CLUSTER,
                           dest="eps_cluster")
        p.add_argument("--output", default=None,
                       help="write JSON here instead of stdout")

    p = sub.add_parser("decompose", help="multipole decomposition of a"
                                         " polynomial")
    p.add_argument("poly", help="polynomial JSON file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--surface", action="store_true",
                      help="decompose on {Q = 1} (default)")
    mode.add_argument("--cone", action="store_true",
                      help="factor a homogeneous input on {Q = 0}")
    p.add_argument("--strategy", default="canonical",
                   choices=("canonical", "enumerate", "real_unique"))
    p.add_argument("--all", action="store_true",
                   help="shorthand for --strategy enumerate")
    common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("harmonic", help="split a homogeneous polynomial into"
                                        " harmonic components")
    p.add_argument("poly")
    common(p, clustered=False)
    p.set_defaults(func=_cmd_harmonic)

    p = sub.add_parser("maxwell", help="potential-derivative polynomial from"
                                       " vectors, or its inverse")
    p.add_argument("--vectors", default=None,
                   help="comma-separated vector list, e.g."
                        " \"[0,0,1],[0,0,1]\"")
    p.add_argument("--invert", default=None, metavar="POLY",
                   help="harmonic polynomial JSON to decompose into vectors")
    common(p)
    p.set_defaults(func=_cmd_maxwell)

    p = sub.add_parser("fibers", help="all cone factorizations of a"
                                      " homogeneous polynomial")
    p.add_argument("poly")
    common(p)
    p.set_defaults(func=_cmd_fibers)

    p = sub.add_parser("discriminant", help="test for a degenerate"
                                            " intersection divisor")
    p.add_argument("poly")
    common(p)
    p.set_defaults(func=_cmd_discriminant)

    p = sub.add_parser("planar-fiber", help="conic divisors over a pencil"
                                            " divisor")
    p.add_argument("divisor", help="pencil divisor JSON file")
    p.add_argument("--center", required=True,
                   help="pencil center coordinates, e.g. \"[0,0,1]\"")
    common(p)
    p.set_defaults(func=_cmd_planar_fiber)

    p = sub.add_parser("approx", help="harmonic band approximation of a"
                                      " sampled function")
    p.add_argument("--function", required=True,
                   help="exp_x, gauss, or a polynomial JSON file")
    p.add_argument("--d-max", type=int, required=True, dest="d_max")
    p.add_argument("--exact-degree", type=int, default=None,
                   dest="exact_degree",
                   help="quadrature exactness (default 2 * d_max)")
    common(p)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("counts", help="parcelling count and representation"
                                      " bound for a degree")
    p.add_argument("--d", type=int, required=True)
    common(p, clustered=False)
    p.set_defaults(func=_cmd_counts)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        Q = _resolve_quadric(args.quadric)
        result = args.func(args, Q)
        _emit(result, args.output)
    except (InvalidInput, InsufficientQuadrature, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except DivisibleByQ as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except QuadpoleError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
