"""Spans around calls into the package, recorded from outside it.

install() rebinds every public function of every quadpole module, in every
quadpole module namespace that holds it, to a timing wrapper.  The modules
call one another through imported globals, so this catches calls between
modules as well as calls from the benchmark.  np.linalg.lstsq is wrapped
too and recorded only when called from quadpole.algebra.  uninstall() puts
every original back.

A span is (name, start, end, parent span, op id); spans stay in compact
arrays in memory and are written once, by save().
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

# Per-polynomial shape helpers; a span on each would cost more than the work.
NOT_WRAPPED = frozenset({"grade_dim", "double_factorial"})

MARK = "__perfbench_original__"

# name -> (kind, target); targets are "module.function" names
# or a bare module (layer) name.
LAYER_METRICS: Dict[str, tuple] = {
    "algebra.divide_by_quadric.calls": ("calls", "algebra.divide_by_quadric"),
    "algebra.divide_by_quadric.ms": ("ms", "algebra.divide_by_quadric"),
    "algebra.lstsq.calls": ("calls", "algebra.lstsq"),
    "algebra.poly_mul.calls": ("calls", "algebra.poly_mul"),
    "algebra.mul_q_matrix.ms": ("ms", "algebra.mul_q_matrix"),
    "algebra.homogenize_on_quadric.ms": ("ms", "algebra.homogenize_on_quadric"),
    "conic.conic_param.calls": ("calls", "conic.conic_param"),
    "conic.restrict_to_conic.ms": ("ms", "conic.restrict_to_conic"),
    "conic.roots_projective.calls": ("calls", "conic.roots_projective"),
    "conic.roots_projective.ms": ("ms", "conic.roots_projective"),
    "conic.line_through.calls": ("calls", "conic.line_through"),
    "conic.line_through.ms": ("ms", "conic.line_through"),
    "conic.line_through.distinct_ratio": ("distinct", "conic.line_through"),
    "sylvester.self_ms": ("self_ms", "sylvester"),
    "sylvester.real_factor.calls": ("calls", "sylvester.real_factor"),
    "harmonic.delta_matrix.ms": ("ms", "harmonic.delta_matrix"),
    "harmonic.harmonic_project.calls": ("calls", "harmonic.harmonic_project"),
    "harmonic.self_ms": ("self_ms", "harmonic"),
    "maxwell.maxwell_poly.calls": ("calls", "maxwell.maxwell_poly"),
    "maxwell.maxwell_poly.ms": ("ms", "maxwell.maxwell_poly"),
    "planar.fiber_enumerate.ms": ("ms", "planar.fiber_enumerate"),
    "deconstruct.self_ms": ("self_ms", "deconstruct"),
    "approx.l2_project.ms": ("ms", "approx.l2_project"),
    "approx.attempts_per_band": ("per_band", "sylvester.real_factor"),
    "approx.self_ms": ("self_ms", "approx"),
    "io.ms": ("layer_ms", "io"),
    "cli.self_ms": ("self_ms", "cli"),
}

LAYER_UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms", "layer_ms": "ms",
               "distinct": "ratio", "per_band": "ratio"}


def package_modules() -> Dict[str, object]:
    return {name: mod for name, mod in sys.modules.items()
            if (name == "quadpole" or name.startswith("quadpole.")) and mod}


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = ["op"]
        self.layer_of: List[str] = ["bench"]
        self.name_ix: Dict[str, int] = {"op": 0}
        self.s_name = array("l")
        self.s_parent = array("l")
        self.s_op = array("l")
        self.s_begin = array("d")
        self.s_end = array("d")
        self.s_outer = array("b")        # outermost span of its name
        self.s_layer_outer = array("b")  # outermost span of its layer
        self.stack: List[int] = []
        self.depth: Dict[int, int] = {}
        self.layer_depth: Dict[str, int] = {}
        self.op = -1
        self.pairs: Dict[int, set] = {}
        self.bound: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    # -- spans -----------------------------------------------------------

    def _nid(self, name: str, layer: str) -> int:
        nid = self.name_ix.get(name)
        if nid is None:
            nid = self.name_ix[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def _enter(self, nid: int, layer: str) -> int:
        i = len(self.s_name)
        d = self.depth.get(nid, 0)
        ld = self.layer_depth.get(layer, 0)
        self.depth[nid] = d + 1
        self.layer_depth[layer] = ld + 1
        self.s_name.append(nid)
        self.s_parent.append(self.stack[-1] if self.stack else -1)
        self.s_op.append(self.op)
        self.s_outer.append(d == 0)
        self.s_layer_outer.append(ld == 0)
        self.s_end.append(0.0)
        self.stack.append(i)
        self.s_begin.append(time.perf_counter())
        return i

    def _exit(self, i: int, nid: int, layer: str) -> None:
        self.s_end[i] = time.perf_counter()
        self.stack.pop()
        self.depth[nid] -= 1
        self.layer_depth[layer] -= 1

    def begin_op(self, op_id: int) -> int:
        self.op = op_id
        return self._enter(0, "bench")

    def end_op(self, i: int) -> None:
        self._exit(i, 0, "bench")
        self.op = -1

    def _wrap(self, fn, name: str, layer: str):
        nid = self._nid(name, layer)
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = enter(nid, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(i, nid, layer)

        setattr(wrapper, MARK, fn)
        return wrapper

    def _wrap_line_through(self, wrapper):
        pairs = self.pairs

        @functools.wraps(wrapper)
        def counted(pa, pb, *args, **kwargs):
            key = tuple(sorted((pa.coords.tobytes(), pb.coords.tobytes())))
            pairs.setdefault(self.op, set()).add(key)
            return wrapper(pa, pb, *args, **kwargs)

        setattr(counted, MARK, getattr(wrapper, MARK))
        return counted

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        mods = package_modules()
        originals = {}
        for modname, mod in mods.items():
            if modname == "quadpole":
                continue
            short = modname.split(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or attr in NOT_WRAPPED
                        or not inspect.isfunction(obj)
                        or obj.__module__ != modname):
                    continue
                w = self._wrap(obj, "%s.%s" % (short, attr), short)
                if attr == "line_through" and short == "conic":
                    w = self._wrap_line_through(w)
                originals[id(obj)] = w
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                w = originals.get(id(obj))
                if w is not None:
                    self.bound.append((mod, attr, obj))
                    setattr(mod, attr, w)
        lstsq = np.linalg.lstsq
        span = self._wrap(lstsq, "algebra.lstsq", "algebra")

        @functools.wraps(lstsq)
        def lstsq_from_algebra(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "quadpole.algebra":
                return span(*args, **kwargs)
            return lstsq(*args, **kwargs)

        setattr(lstsq_from_algebra, MARK, lstsq)
        self.bound.append((np.linalg, "lstsq", lstsq))
        np.linalg.lstsq = lstsq_from_algebra
        present = set(self.names)
        self.missing = sorted({t for kind, t in LAYER_METRICS.values()
                               if "." in t and t not in present})
        for t in self.missing:
            print("warning: wrap target %s not found; its metrics are null" % t,
                  file=sys.stderr)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self.bound):
            setattr(mod, attr, obj)
        self.bound = []
        # a module first imported while tracing bound wrappers of its own
        for mod in package_modules().values():
            for attr, obj in list(vars(mod).items()):
                if hasattr(obj, MARK):
                    setattr(mod, attr, getattr(obj, MARK))

    # -- derived figures -------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.array(self.s_name), "parent": np.array(self.s_parent),
                "op": np.array(self.s_op),
                "begin": np.array(self.s_begin), "end": np.array(self.s_end),
                "outer": np.array(self.s_outer, dtype=bool),
                "layer_outer": np.array(self.s_layer_outer, dtype=bool)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self, n_ops: int, bands: int) -> Tuple[Dict[str, Optional[float]], dict]:
        """Per-op layer metrics, and the self-time accounting of the ops."""
        a = self.arrays()
        dur = (a["end"] - a["begin"]) * 1e3
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_ms = dur - child
        timed = a["op"] >= 0
        a = {k: v[timed] for k, v in a.items()}
        dur, self_ms = dur[timed], self_ms[timed]
        layer = np.array(self.layer_of)[a["name"]] if len(dur) else np.array([])
        ix = self.name_ix
        out: Dict[str, Optional[float]] = {}
        for metric, (kind, target) in LAYER_METRICS.items():
            if target in self.missing:
                out[metric] = None
                continue
            sel = a["name"] == ix[target] if "." in target else layer == target
            calls = int(np.count_nonzero(sel))
            # A layer the workload never reaches did zero work: its counts
            # and times are 0, and so are ratios whose base is empty.
            if kind == "calls":
                out[metric] = calls / n_ops
            elif kind == "ms":
                out[metric] = float(np.sum(dur[sel & a["outer"]])) / n_ops
            elif kind == "layer_ms":
                out[metric] = float(np.sum(dur[sel & a["layer_outer"]])) / n_ops
            elif kind == "self_ms":
                out[metric] = float(np.sum(self_ms[sel])) / n_ops
            elif kind == "distinct":
                pairs = sum(len(s) for s in self.pairs.values())
                out[metric] = pairs / calls if calls else 0.0
            elif kind == "per_band":
                out[metric] = calls / bands if bands else 0.0
        roots = a["name"] == 0
        wall = dur[roots]
        per_op_self = np.zeros(int(a["op"].max()) + 1 if len(dur) else 0)
        np.add.at(per_op_self, a["op"], self_ms)
        covered = 1.0 - self_ms[roots] / np.maximum(wall, 1e-12)
        account = {
            "spans": int(len(dur)),
            "self_sum_vs_wall_max_abs_ms": float(np.max(np.abs(
                per_op_self[a["op"][roots]] - wall))) if len(wall) else 0.0,
            "package_share_of_op_wall_median": float(np.median(covered))
            if len(wall) else 0.0,
        }
        return out, account


def still_bound() -> List[str]:
    """Names in the package (and np.linalg.lstsq) that are still wrappers."""
    left = []
    for modname, mod in package_modules().items():
        for attr, obj in vars(mod).items():
            if hasattr(obj, MARK):
                left.append("%s.%s" % (modname, attr))
    if hasattr(np.linalg.lstsq, MARK):
        left.append("numpy.linalg.lstsq")
    return left
