"""The exact bits of linalg.eigvalsh and linalg.eigh (eigenvalues and
eigenvectors) on a seeded corpus, as one sha256, with the error class
raised where a call refuses.

The corpus runs over n = 1 .. 16, 24 and 44 (eigvalsh only at n = 44):
Gaussian symmetric, graded 10^U(-12, 0), 0/1, clustered 1 + 1e-8 noise,
repeated eigenvalues, diagonal, zero and rank-one matrices, each also
scaled by 2^600 and 2^-600, and -1e308 ones(2, 2), whose eigenvalue
-2e308 is past the double range (TooLarge).

The same convention as tests/test_answer_bits.py: a change that is meant
to keep every output bit keeps this hex; a change that moves a bit
updates EXPECTED and says which spectrum moved and why. The bits rest on
Python's left-to-right float sum (tests/test_linalg.py::TestLeftToRightSum).
"""

import hashlib

import numpy as np
import pytest

from loewner import linalg
from loewner.errors import LoewnerError
from loewner.linalg import SymMat

EXPECTED = "d8b20e136e68f06d8aa63fa94d265f5627e8d4ecb962653fc7d64ebc9d7f95e9"

SEED = 20261019
DIMENSIONS = tuple(range(1, 17)) + (24, 44)
VECTORS_UP_TO = 24
SCALES = (1.0, 2.0 ** 600, 2.0 ** -600)


def _framed(rng, lam):
    q = np.linalg.qr(rng.standard_normal((len(lam), len(lam))))[0]
    m = (q * lam) @ q.T
    return (m + m.T) / 2.0


def _kinds(rng, n):
    """(kind, array) pairs, drawn in a fixed order from rng."""
    g = rng.standard_normal((n, n))
    yield "gaussian", (g + g.T) / 2.0
    yield "graded", _framed(rng, 10.0 ** rng.uniform(-12.0, 0.0, n))
    yield "zero-one", _framed(rng, rng.integers(0, 2, n).astype(float))
    yield "clustered", _framed(rng, 1.0 + 1e-8 * rng.standard_normal(n))
    yield "repeated", _framed(rng, rng.choice([-1.5, 0.25, 2.0], n))
    yield "diagonal", np.diag(rng.standard_normal(n))
    yield "zero", np.zeros((n, n))
    x = rng.standard_normal(n)
    yield "rank-one", np.outer(x, x)


def _outcome(thunk):
    try:
        value = thunk()
    except LoewnerError as exc:
        return None, type(exc).__name__
    if isinstance(value, linalg.Spectrum):
        return (value.eigenvalues.tobytes().hex(), value.eigenvectors.tobytes().hex()), None
    return value.tobytes().hex(), None


def _cases():
    """(n, kind, scale, SymMat) in a fixed order."""
    rng = np.random.default_rng(SEED)
    for n in DIMENSIONS:
        for kind, m in _kinds(rng, n):
            for scale in SCALES:
                yield n, kind, scale, SymMat(scale * m)
    yield 2, "past-the-range", 1.0, SymMat(-1e308 * np.ones((2, 2)))


def spectrum_digest():
    """(sha256 hex, {call: count}, error class names seen)."""
    h = hashlib.sha256()
    counts = {"eigvalsh": 0, "eigh": 0}
    errors = set()
    for n, kind, scale, m in _cases():
        calls = [("eigvalsh", linalg.eigvalsh)]
        if n <= VECTORS_UP_TO:
            calls.append(("eigh", linalg.eigh))
        for name, call in calls:
            outcome = _outcome(lambda: call(m))
            h.update(repr((n, kind, scale.hex(), name, outcome)).encode())
            counts[name] += 1
            if outcome[1] is not None:
                errors.add(outcome[1])
    return h.hexdigest(), counts, errors


@pytest.fixture(scope="module")
def digest():
    return spectrum_digest()


def test_the_corpus_reaches_every_size_and_refusal(digest):
    _, counts, errors = digest
    assert counts == {"eigvalsh": len(DIMENSIONS) * 8 * 3 + 1,
                      "eigh": (len(DIMENSIONS) - 1) * 8 * 3 + 1}
    assert errors == {"TooLarge"}


def test_every_spectrum_keeps_its_bits(digest):
    assert digest[0] == EXPECTED
