"""Command-line interface: stable JSON in, stable JSON out.

Exit codes: 0 success, 2 unreadable or schema-violating input, 3 input that
is a multiple of the form where that is rejected, 4 numerical failure inside
an operation.  Output is deterministic: identical inputs and options produce
byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

import numpy as np

from . import io as qio
from .algebra import QuadForm, QuadratureRule, TOL_DIV
from .conic import EPS_CLUSTER
from .deconstruct import full_decompose, representation_bound
from .errors import DivisibleByQ, InvalidInput, QuadpoleError
from .harmonic import TOL_HARM, harmonic_decompose
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
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput("cannot read %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise InvalidInput("%s is not valid JSON: %s" % (path, exc)) from None


def _parse_fragment(text: str, where: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput("%s is not valid JSON: %s" % (where, exc)) from None


def _resolve_quadric(name: str) -> QuadForm:
    if name in qio.QUADRIC_PRESETS:
        return qio.quadform_preset(name)
    return qio.quadform_from_json(_load_json(name))


def _emit(obj: Any, output: Optional[str]) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
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
            facts = all_factorizations(P, Q, eps_cluster=args.eps_cluster,
                                       tol_div=args.tol_div)
            return {"count": len(facts),
                    "factorizations": [qio.factorization_to_json(f)
                                       for f in facts]}
        return qio.factorization_to_json(factor(
            P, Q, strategy, eps_cluster=args.eps_cluster,
            tol_div=args.tol_div))
    P = qio.poly_from_json(data)
    result = full_decompose(P, Q, strategy=strategy,
                            eps_cluster=args.eps_cluster,
                            tol_div=args.tol_div)
    if strategy == "enumerate":
        return {"count": len(result),
                "sequences": [qio.sequence_to_json(s) for s in result]}
    return qio.sequence_to_json(result)


def _cmd_harmonic(args, Q: QuadForm) -> Any:
    P = qio.homog_from_json(_load_json(args.poly))
    dec = harmonic_decompose(P, Q, tol_harm=args.tol_harm)
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
        vectors, scale = maxwell_decompose(P, Q, tol_harm=args.tol_harm,
                                           eps_cluster=args.eps_cluster,
                                           tol_div=args.tol_div)
        return {"vectors": [[qio._cnum(x) for x in v] for v in vectors],
                "scale": qio._cnum(scale)}
    if args.vectors is None:
        raise InvalidInput("maxwell needs --vectors or --invert")
    return qio.poly_to_json(maxwell_poly(Q, _parse_vectors(args.vectors)))


def _cmd_fibers(args, Q: QuadForm) -> Any:
    P = qio.homog_from_json(_load_json(args.poly))
    # one context gives both the clusters and the factorizations, so the
    # restriction and the roots are computed once
    ctx = _FactorContext(P, Q, eps_cluster=args.eps_cluster,
                         tol_div=args.tol_div)
    facts = ctx.factor_all()
    return {"clusters": [qio.cluster_to_json(c) for c in ctx.clusters],
            "count": len(facts),
            "factorizations": [qio.factorization_to_json(f) for f in facts]}


def _cmd_discriminant(args, Q: QuadForm) -> Any:
    P = qio.homog_from_json(_load_json(args.poly))
    return {"in_discriminant": bool(in_discriminant(
        P, Q, eps_cluster=args.eps_cluster, tol_div=args.tol_div))}


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
    series = multipole_series(dec, Q, eps_cluster=args.eps_cluster,
                              tol_div=args.tol_div)
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
    return {"kappa": count_parcellings(args.d),
            "bound": representation_bound(args.d).bound}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadpole",
        description="Multipole decompositions of polynomials on quadric"
                    " surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    tolerances = {"tol_div": TOL_DIV, "tol_harm": TOL_HARM,
                  "eps_cluster": EPS_CLUSTER}
    factoring = ("tol_div", "eps_cluster")

    def common(p, *read):
        """--quadric, --output, and the tolerance flags the handler reads."""
        p.add_argument("--quadric", default="sphere",
                       help="sphere, hyperboloid, or a quadric JSON file")
        for dest in read:
            p.add_argument("--" + dest.replace("_", "-"), type=float,
                           default=tolerances[dest], dest=dest)
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
    common(p, *factoring)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("harmonic", help="split a homogeneous polynomial into"
                                        " harmonic components")
    p.add_argument("poly")
    common(p, "tol_harm")
    p.set_defaults(func=_cmd_harmonic)

    p = sub.add_parser("maxwell", help="potential-derivative polynomial from"
                                       " vectors, or its inverse")
    p.add_argument("--vectors", default=None,
                   help="comma-separated vector list, e.g."
                        " \"[0,0,1],[0,0,1]\"")
    p.add_argument("--invert", default=None, metavar="POLY",
                   help="harmonic polynomial JSON to decompose into vectors")
    common(p, "tol_harm", *factoring)
    p.set_defaults(func=_cmd_maxwell)

    p = sub.add_parser("fibers", help="all cone factorizations of a"
                                      " homogeneous polynomial")
    p.add_argument("poly")
    common(p, *factoring)
    p.set_defaults(func=_cmd_fibers)

    p = sub.add_parser("discriminant", help="test for a degenerate"
                                            " intersection divisor")
    p.add_argument("poly")
    common(p, "tol_div", "eps_cluster")
    p.set_defaults(func=_cmd_discriminant)

    p = sub.add_parser("planar-fiber", help="conic divisors over a pencil"
                                            " divisor")
    p.add_argument("divisor", help="pencil divisor JSON file")
    p.add_argument("--center", required=True,
                   help="pencil center coordinates, e.g. \"[0,0,1]\"")
    common(p, "eps_cluster")
    p.set_defaults(func=_cmd_planar_fiber)

    p = sub.add_parser("approx", help="harmonic band approximation of a"
                                      " sampled function")
    p.add_argument("--function", required=True,
                   help="exp_x, gauss, or a polynomial JSON file")
    p.add_argument("--d-max", type=int, required=True, dest="d_max")
    p.add_argument("--exact-degree", type=int, default=None,
                   dest="exact_degree",
                   help="quadrature exactness (default 2 * d_max)")
    common(p, *factoring)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("counts", help="parcelling count and representation"
                                      " bound for a degree")
    p.add_argument("--d", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_counts)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        Q = _resolve_quadric(args.quadric)
        result = args.func(args, Q)
        _emit(result, args.output)
    except (InvalidInput, ValueError) as exc:
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
