"""Every threshold in the package has one module-level name.

A number written in exponent form (1e-9, 1e3) in src/quadpole/*.py must sit
on a module-level `UPPER_CASE = ...` line, so each tolerance is named once,
beside the module that owns it, and can be reported by that name.  The
scan reads NUMBER tokens, so docstrings and comments, which may quote the
values, are not counted.  README "Tolerances" lists exactly these names,
each with its module and value, and no public callable takes a tolerance
that the package fixes as a constant.
"""

import ast
import importlib
import inspect
import io
import re
import tokenize
from pathlib import Path

import quadpole

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quadpole"
NAMED = re.compile(r"[A-Z][A-Z0-9_]*\s*=")
CELL = re.compile(r"(?<!\\)\|")  # a cell border: a | not escaped as \|


def bare_thresholds(text):
    """(line number, token) of every exponent-form NUMBER token that is not
    on a module-level named line."""
    out = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        s = tok.string.lower()
        if tok.type == tokenize.NUMBER and "e" in s and not s.startswith("0x") \
                and not NAMED.match(tok.line):
            out.append((tok.start[0], tok.string))
    return out


def test_every_exponent_literal_is_named():
    files = sorted(SRC.glob("*.py"))
    assert files
    bare = {f.name: found for f in files
            if (found := bare_thresholds(f.read_text()))}
    assert bare == {}


def test_rule():
    src = ('"""A docstring may say 1e-9."""\n'
           "TOL_X = 1e-9  # and so may a comment, 1e-3\n"
           "def f(x, tol=1e-8):\n"
           "    y = 0x1e + 10 * x\n"
           "    return x > 2.5E3 * y\n")
    assert bare_thresholds(src) == [(3, "1e-8"), (5, "2.5E3")]


def named_constants():
    """{(module, name): value} of every numeric module-level UPPER_CASE
    assignment in src/quadpole."""
    out = {}
    for f in sorted(SRC.glob("*.py")):
        names = [node.targets[0].id for node in ast.parse(f.read_text()).body
                 if isinstance(node, ast.Assign) and len(node.targets) == 1
                 and isinstance(node.targets[0], ast.Name)
                 and re.fullmatch(r"[A-Z][A-Z0-9_]*", node.targets[0].id)]
        for name in names:
            value = getattr(importlib.import_module("quadpole." + f.stem), name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[f.stem, name] = value
    return out


def tolerance_rows():
    """(name, value, module) of each row of README "Tolerances", the cells
    stripped of their backticks."""
    section = (ROOT / "README.md").read_text().split("### Tolerances\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            name, value, module = (c.strip().strip("`") for c in CELL.split(line)[1:4])
            rows.append((name, value, module))
    return rows


def test_readme_tolerances_match_the_code():
    consts = named_constants()
    rows = tolerance_rows()
    assert rows
    assert sorted((module, name) for name, _, module in rows) == sorted(consts)
    for name, value, module in rows:
        assert float(value) == consts[module, name], name


def test_no_public_tolerance_knobs():
    # the division, harmonic and factoring bounds are constants: no public
    # callable, nor any method of a public class, takes one as a parameter.
    # divide_by_quadric is the division itself, whose bound is an operand:
    # the package divides at TOL_DIV, at a band's raised bound, at TOL_FACT
    # and at TOL_DIV_ILL
    knobs = {"tol_div", "tol_harm", "tol_fact"}
    taking = []
    for name in quadpole.__all__:
        obj = getattr(quadpole, name)
        calls = [(name, obj)]
        if inspect.isclass(obj):
            calls += [(name + "." + attr, getattr(obj, attr)) for attr in vars(obj)
                      if callable(getattr(obj, attr))]
        for label, call in calls:
            try:
                params = inspect.signature(call).parameters
            except (TypeError, ValueError):
                continue
            if knobs & set(params):
                taking.append(label)
    assert taking == ["divide_by_quadric"]
    assert list(inspect.signature(quadpole.is_harmonic).parameters) == ["p", "Q"]
