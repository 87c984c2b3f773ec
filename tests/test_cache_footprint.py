"""The summary of tools/cache_footprint.py, on a hand-made cache; no benchmark runs."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("cache_footprint",
                                                  ROOT / "tools" / "cache_footprint.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


cache_footprint = _load_tool()
MB = cache_footprint.MB


class _Param:
    __slots__ = ("alphas", "scale")

    def __init__(self, alphas):
        self.alphas = alphas
        self.scale = 2.0


def test_summary_of_hand_made_cache():
    shared = np.zeros(MB // 16, dtype=complex)       # 1 MB, in two entries
    cache = {
        ("delta_matrix", b"A", 4): np.zeros((MB // 8,), dtype=float),  # 1 MB
        ("delta_matrix", b"B", 4): np.zeros((2, MB // 8), dtype=float),  # 2 MB
        ("_band_basis", b"A", 2, 4): (np.zeros(MB // 16, dtype=complex), shared),
        ("_band_basis", b"B", 2, 4): (np.zeros(MB // 16, dtype=complex), shared),
        ("conic_param", b"C"): _Param([np.zeros(MB // 8), {"v": np.zeros(MB // 8)}]),
        ("_restriction_norm", b"C", 3): 1.5,
    }
    got = cache_footprint.summarize(cache)
    assert got["builders"] == {
        "delta_matrix": {"entries": 2, "mb": 3.0},
        # the shared array counts once, in the first entry that reaches it
        "_band_basis": {"entries": 2, "mb": 3.0},
        "conic_param": {"entries": 1, "mb": 2.0},
        "_restriction_norm": {"entries": 1, "mb": 0.0},
    }
    assert list(got["builders"]) == ["delta_matrix", "_band_basis", "conic_param",
                                     "_restriction_norm"]
    assert (got["entries"], got["mb"], got["forms"]) == (6, 8.0, 3)


def test_empty_cache():
    assert cache_footprint.summarize({}) == {"builders": {}, "entries": 0, "mb": 0.0,
                                             "forms": 0}
