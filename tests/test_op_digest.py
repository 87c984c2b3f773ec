"""The --per-op lines of tools/op_digest.py, on fixed outputs; no benchmark runs."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("op_digest", ROOT / "tools" / "op_digest.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


op_digest = _load_tool()


def _raise():
    raise ValueError("tol_div must be finite and positive, not -1.0")


def test_status_and_digest_of_fixed_outputs():
    # (op, its call, the status, the bytes the op feeds: a tuple as "[" and
    # its length, then its items; integers and strings by repr)
    message = "tol_div must be finite and positive, not -1.0"
    cases = [
        ({"kind": "allfact"}, lambda: 3, "ok", b"3"),
        ({"kind": "allfact"}, _raise, "raised ValueError", b"!ValueError: " + message.encode()),
        ({"kind": "cli"}, lambda: (0, "{}"), "ok", b"[20'{}'"),
        ({"kind": "cli"}, lambda: (2, ""), "exit 2", b"[22''"),
    ]
    seed_hash = hashlib.sha256()
    for op, call, status, fed in cases:
        assert op_digest.digest_op(seed_hash, op, call, np) \
            == (status, hashlib.sha256(fed).hexdigest())
    # the seed's hash got every op's bytes in turn
    assert seed_hash.hexdigest() == hashlib.sha256(b"".join(c[3] for c in cases)).hexdigest()


def test_signed_zero_changes_the_digest():
    h = hashlib.sha256()
    a = op_digest.digest_op(h, {"kind": "allfact"}, lambda: np.array([0.0]), np)[1]
    b = op_digest.digest_op(h, {"kind": "allfact"}, lambda: np.array([-0.0]), np)[1]
    assert a != b


def test_line_format():
    line = op_digest.op_line(4, 17, "allfact d=4, sphere", "ok", "ab" * 32)
    assert line == "seed 4 op 17 [allfact d=4, sphere] ok sha256 " + "ab" * 32
    assert op_digest.op_line(11, "w3", "cli decompose --cone d=5, fresh ellipsoid",
                             "exit 4", "0" * 64) \
        == "seed 11 op w3 [cli decompose --cone d=5, fresh ellipsoid] exit 4 sha256 " + "0" * 64
