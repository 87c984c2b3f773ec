"""Shared fixtures and numeric helpers for the test suite."""

import os
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from quadpole import (
    GeneralizedParcelling,
    HomogPoly,
    Multipole,
    MultipoleFactorization,
    MultipoleSequence,
    Poly,
    QuadForm,
    poly_mul,
)
from quadpole.algebra import grade_dim, monomials

# The property tests draw the same examples on every run and keep no
# example database, so the suite stays deterministic.
settings.register_profile("quadpole", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("quadpole")
# Hypothesis also caches the constants it reads in the package's modules,
# from collection on, under its home directory: .hypothesis/ in the working
# directory unless moved.  A temporary one is removed at exit.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


SRC = str(Path(__file__).resolve().parent.parent / "src")


def subprocess_env():
    """This process's environment with src first on PYTHONPATH, so that a
    child interpreter imports the package under test; pytest's pythonpath
    setting reaches only the pytest process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


@lru_cache(maxsize=None)
def monomial_index(degree):
    """Each monomial's position in monomials(degree), as a dict: the tests'
    reference index."""
    return {m: i for i, m in enumerate(monomials(degree))}


# decoders of the CLI's answers, parsed by json.loads, into the package's
# objects: each checks an object's exact key set and places every number as
# written, with no other validation

def _complex(pair):
    re, im = pair
    return complex(re, im)


def decode_grade(obj):
    """The HomogPoly a grade's {"degree", "terms"} object writes, each term's
    coefficient placed as complex(re, im) and every other coefficient 0."""
    assert set(obj) == {"degree", "terms"}
    coeffs = np.zeros(grade_dim(obj["degree"]), dtype=complex)
    for term in obj["terms"]:
        assert set(term) == {"exp", "im", "re"}
        coeffs[monomial_index(obj["degree"])[tuple(term["exp"])]] = complex(term["re"], term["im"])
    return HomogPoly(obj["degree"], coeffs)


def decode_factorization(obj):
    assert set(obj) == {"lambda", "lines", "parcelling", "remainder"}
    return MultipoleFactorization(
        _complex(obj["lambda"]),
        [HomogPoly(1, [_complex(c) for c in line]) for line in obj["lines"]],
        decode_grade(obj["remainder"]),
        GeneralizedParcelling(tuple(tuple(piece) for piece in obj["parcelling"])))


def decode_multipole(obj):
    assert set(obj) == {"lines", "scale"}
    return Multipole(_complex(obj["scale"]),
                     tuple(tuple(_complex(c) for c in line) for line in obj["lines"]))


def decode_sequence(obj):
    """The MultipoleSequence of a sequence object, its terms in degree order."""
    assert set(obj) == {"lambda", "terms"}
    return MultipoleSequence(_complex(obj["lambda"]), {
        int(k): decode_multipole(obj["terms"][k]) for k in sorted(obj["terms"], key=int)})


def eval_point(f, u):
    """The binary form f at the ProjPoint1 u."""
    return f.eval_uv(*u.coords)


@pytest.fixture(scope="session")
def sphere():
    return QuadForm(np.eye(3))


@pytest.fixture(scope="session")
def hyperboloid():
    return QuadForm(np.diag([1.0, 1.0, -1.0]))


@pytest.fixture(scope="session")
def dense_complex():
    """Complex symmetric form with no zero entry in B or in its inverse."""
    return QuadForm([[2.0, 0.5 + 0.3j, -0.4j],
                     [0.5 + 0.3j, 1.5 - 0.2j, 0.3],
                     [-0.4j, 0.3, 1.0 + 0.5j]])


def random_homog(d, rng, real=False):
    """Random homogeneous polynomial with standard-normal coefficients."""
    n = grade_dim(d)
    c = rng.standard_normal(n)
    if not real:
        c = c + 1j * rng.standard_normal(n)
    return HomogPoly(d, c)


def random_poly(d, rng, real=False):
    """Random inhomogeneous polynomial of degree d."""
    return Poly.from_grades({k: random_homog(k, rng, real=real)
                             for k in range(d + 1)})


def compose_linear(P, U):
    """The polynomial x -> P(x @ U), built by expanding each monomial."""
    U = np.asarray(U, dtype=complex)
    lins = [HomogPoly(1, U[:, i]) for i in range(3)]

    def _homog(h):
        from quadpole.algebra import monomials
        out = HomogPoly.zero(h.degree)
        for (a, b, c), coeff in zip(monomials(h.degree), h.coeffs):
            if coeff == 0:
                continue
            term = HomogPoly(0, [coeff])
            for lin, e in zip(lins, (a, b, c)):
                for _ in range(e):
                    term = poly_mul(term, lin)
            out = out + term
        return out

    if isinstance(P, HomogPoly):
        return _homog(P)
    return Poly([_homog(h) for h in P.parts])


def q_orthogonal(Q, rng, real=False, scale=0.5):
    """Random U with U @ B @ U.T = B, via the exponential of K @ inv(B)."""
    from scipy.linalg import expm
    k = rng.standard_normal((3, 3))
    if not real:
        k = k + 1j * rng.standard_normal((3, 3))
    k = scale * (k - k.T)
    U = expm(k @ np.linalg.inv(Q.B))
    assert np.linalg.norm(U @ Q.B @ U.T - Q.B) < 1e-9
    return U
