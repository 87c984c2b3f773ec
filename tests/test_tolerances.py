"""Every threshold in the package has one module-level name.

A number written in exponent form (1e-9, 1e3) in src/quadpole/*.py must sit
on a module-level `UPPER_CASE = ...` line, so each tolerance is named once,
beside the module that owns it, and can be reported by that name.  The
scan reads NUMBER tokens, so docstrings and comments, which may quote the
values, are not counted.
"""

import io
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quadpole"
NAMED = re.compile(r"[A-Z][A-Z0-9_]*\s*=")


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
