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
import math
import operator
import sys
from itertools import chain
from typing import Any, Dict, List, Optional

import numpy as np

from . import io as qio
from .algebra import QuadForm, QuadratureRule
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
_TERM_FIELDS = [operator.itemgetter(key) for key in ("exp", "im", "re")]
COUNTS_MAX_D = 74  # the largest --d whose bound prints under the 4,300-digit str limit


@functools.lru_cache(maxsize=None)
def _term_template(newline: str) -> str:
    """One polynomial term's text, for % with its three exponents and its
    im and re, in a list whose items sit at the line break newline."""
    key = newline + "  "
    exp = key + "  "
    return ('{%s"exp": [%s%%d,%s%%d,%s%%d%s],%s"im": %%r,%s"re": %%r%s}'
            % (key, exp, exp, exp, key, key, key, newline))


def _terms_text(items, newline: str) -> Optional[str]:
    """The items of a list of polynomial terms joined at the line break
    newline, or None if they are not all terms.

    A term is a dict with exactly the keys exp, im and re, exp a list of
    three ints and im and re finite floats.  The whole list is checked at
    once, and written with one % of the template of its line break,
    repeated once per term, over every term's numbers in turn.
    """
    if set(map(type, items)) != {dict} or set(map(len, items)) != {3}:
        return None
    try:
        exps, ims, res = [list(map(get, items)) for get in _TERM_FIELDS]
    except KeyError:
        return None
    if set(map(type, exps)) != {list} or set(map(len, exps)) != {3}:
        return None
    ints = list(chain.from_iterable(exps))
    values = ims + res
    if (set(map(type, ints)) != {int} or set(map(type, values)) != {float}
            or not all(map(math.isfinite, values))):
        return None
    n = len(items)
    numbers = [None] * (5 * n)
    for i in range(3):
        numbers[i::5] = ints[i::3]
    numbers[3::5] = ims
    numbers[4::5] = res
    return ("," + newline).join([_term_template(newline)] * n) % tuple(numbers)


def _json_text(obj: Any, newline: str = "\n") -> str:
    """The bytes of json.dumps(obj, indent=2, sort_keys=True).

    The standard library runs its pure-Python encoder whenever indent is
    set.  This one writes what the commands emit itself, with one join per
    container: lists, tuples and dicts whose keys are all str, with finite
    float and int children inline.  A list of polynomial terms, the bulk of
    every answer, is written by _terms_text with one % per list.  Every other
    value, a dict with a non-str key among them (its sort or key encoding
    raises TypeError), is json.dumps' own text with each of its line breaks
    indented to this level; json escapes the line breaks inside strings,
    and an unsupported type raises its TypeError.  newline is the line
    break and indentation of obj's own level.
    """
    cls = type(obj)
    inner = newline + "  "
    if cls is list or cls is tuple:
        if not obj:
            return "[]"
        text = _terms_text(obj, inner) if type(obj[0]) is dict else None
        if text is None:
            text = ("," + inner).join(
                [float.__repr__(v) if type(v) is float and -_INF < v < _INF else
                 int.__repr__(v) if type(v) is int else _json_text(v, inner)
                 for v in obj])
        return "[%s%s%s]" % (inner, text, newline)
    if cls is dict and obj:
        try:
            return "{%s%s%s}" % (inner, ("," + inner).join(
                [_encode_str(k) + ": " + (
                    float.__repr__(v) if type(v) is float and -_INF < v < _INF else
                    int.__repr__(v) if type(v) is int else _json_text(v, inner))
                 for k, v in sorted(obj.items())]), newline)
        except TypeError:
            pass
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
                    "factorizations": [qio.factorization_to_json(f)
                                       for f in facts]}
        return qio.factorization_to_json(factor(
            P, Q, strategy, eps_cluster=args.eps_cluster))
    P = qio.poly_from_json(data)
    result = full_decompose(P, Q, strategy=strategy,
                            eps_cluster=args.eps_cluster)
    if strategy == "enumerate":
        return {"count": len(result),
                "sequences": [qio.sequence_to_json(s) for s in result]}
    return qio.sequence_to_json(result)


def _cmd_harmonic(args, Q: QuadForm) -> Any:
    P = qio.homog_from_json(_load_json(args.poly))
    dec = harmonic_decompose(P, Q)
    return {"components": [qio.poly_to_json(h) for h in dec.components]}


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
        return {"vectors": [[qio._cnum(x) for x in v] for v in vectors],
                "scale": qio._cnum(scale)}
    if args.vectors is None:
        raise InvalidInput("maxwell needs --vectors or --invert")
    return qio.poly_to_json(maxwell_poly(Q, _parse_vectors(args.vectors)))


def _cmd_fibers(args, Q: QuadForm) -> Any:
    P = qio.homog_from_json(_load_json(args.poly))
    # one context gives both the clusters and the factorizations, so the
    # restriction and the roots are computed once
    ctx = _FactorContext(P, Q, eps_cluster=args.eps_cluster)
    facts = ctx.rows("enumerate")
    return {"clusters": [qio.cluster_to_json(c) for c in ctx.clusters],
            "count": len(facts),
            "factorizations": [qio.factorization_to_json(f) for f in facts]}


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
        bands[str(k)] = {"multipole": qio.multipole_to_json(series.terms[k]),
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
