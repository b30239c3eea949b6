"""The exact answer bits of the generator, order, strength, effect and
interval calls on a seeded corpus at n = 3 (the list path) and n = 12
(LAPACK from linalg._LAPACK_ORDER on), as one sha256.

A change that is meant to keep every output bit keeps this hex. A change
that moves a bit updates EXPECTED and says which call moved and why. The
bits also rest on the numpy build: np.linalg.solve and np.linalg.inv run
in its LAPACK, and the list paths on Python's left-to-right float sum
(tests/test_linalg.py::TestLeftToRightSum).
"""

import hashlib

import numpy as np
import pytest

from loewner import intervals, linalg
from loewner.automorphisms import EffectAutomorphism
from loewner.effects import RankOneProjection, make_effect, strength, strength_witness
from loewner.errors import LoewnerError
from loewner.intervals import Endpoint, IntervalSpec
from loewner.linalg import SymMat

# Moved once: linalg._definite_root_pair took over the congruence of
# intervals._affine_to_unit, whose root pair at n = 12 comes from the
# Denman-Beavers iteration in place of sqrt_psd and inv. Four n = 12
# apply_chain answers moved (both ends finite), by at most 8.9e-15
# relative (Frobenius); every n = 3 answer kept its bits.
EXPECTED = "2fce26e17f9028bc93fcd5b92b0028d1070cd13bda46cdf5d45d959d19582a77"

SEED = 20261019


def _frame(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _sym(rng, lam):
    q = _frame(rng, len(lam))
    m = (q * lam) @ q.T
    return SymMat((m + m.T) / 2.0)


def _generator(rng, n):
    return (_frame(rng, n) * 10.0 ** rng.uniform(-0.5, 0.5, n)) @ _frame(rng, n)


def _effect(rng, n, low=0.05, high=0.95):
    return _sym(rng, rng.uniform(low, high, n))


def _plain(value):
    """Bytes of an answer: arrays and floats by their bits, a projection by
    its unit vector, an automorphism by its generator."""
    if isinstance(value, (tuple, list)):
        return tuple(_plain(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.tobytes().hex()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, SymMat):
        return _plain(value.a)
    if isinstance(value, RankOneProjection):
        return _plain(value.x)
    if isinstance(value, EffectAutomorphism):
        return _plain(value.t)
    return value


def _calls(n, rng):
    """(name, thunk) pairs, drawn in a fixed order from rng."""
    calls = []
    generators = [_generator(rng, n) for _ in range(8)]
    phis = [EffectAutomorphism(t) for t in generators]
    calls += [("construct", lambda t=t: EffectAutomorphism(t)) for t in generators]
    inputs = [_effect(rng, n) for _ in range(6)]
    inputs.append(RankOneProjection(rng.standard_normal(n)).mat)       # boundary: eigh route
    inputs.append(SymMat(np.eye(n)))
    for phi, x in zip(phis, inputs):
        calls.append(("apply", lambda phi=phi, x=x: phi.apply(x).mat))
    for i in range(4):
        calls.append(("compose", lambda f=phis[i], g=phis[i + 4]: f.compose(g)))
        calls.append(("inverse", lambda f=phis[i]: f.inverse()))

    pairs = []
    for _ in range(6):                                  # A <= B, with room
        a = _effect(rng, n, 0.0, 0.5)
        pairs.append((a, a + _sym(rng, rng.uniform(0.01, 0.5, n))))
    for _ in range(6):                                  # incomparable
        pairs.append((_sym(rng, rng.uniform(0.0, 1.0, n)), _sym(rng, rng.uniform(0.0, 1.0, n))))
    a = _sym(rng, rng.uniform(0.1, 1.0, n))
    pairs.append((a, a))                                # equal: inside the band
    pairs.append((a + _sym(rng, np.r_[1e-3, np.zeros(n - 1)]), a))   # off by a rank-one 1e-3
    for a, b in pairs:
        calls.append(("le", lambda a=a, b=b: linalg.loewner_le(a, b)))
        calls.append(("lt", lambda a=a, b=b: linalg.loewner_lt(a, b)))
        calls.append(("witness", lambda a=a, b=b: strength_witness(a, b)))

    for _ in range(7):
        calls.append(("make_effect", lambda m=_effect(rng, n): make_effect(m).mat))
    calls.append(("make_effect", lambda m=_sym(rng, np.r_[-0.1, rng.uniform(0.1, 0.9, n - 1)]):
                  make_effect(m).mat))
    calls.append(("make_effect", lambda m=_sym(rng, np.r_[rng.uniform(0.1, 0.9, n - 1), 1.2]):
                  make_effect(m).mat))
    calls.append(("make_effect", lambda m=RankOneProjection(rng.standard_normal(n)).mat:
                  make_effect(m).mat))

    for _ in range(5):
        a = _sym(rng, rng.uniform(0.1, 2.0, n))
        calls.append(("strength", lambda a=a, x=rng.standard_normal(n):
                      strength(a, RankOneProjection(x))))
    r = n // 2 + 1
    q = _frame(rng, n)
    singular = (q[:, :r] * rng.uniform(0.2, 1.0, r)) @ q[:, :r].T
    singular = SymMat((singular + singular.T) / 2.0)
    for x in (q[:, :r] @ rng.standard_normal(r), q @ rng.standard_normal(n), q[:, -1]):
        calls.append(("strength", lambda x=x: strength(singular, RankOneProjection(x))))

    lower = _sym(rng, rng.uniform(-1.0, 0.0, n))
    upper = lower + _sym(rng, rng.uniform(0.5, 2.0, n))
    inside = lower + 0.5 * (upper - lower)
    lowers = [Endpoint.finite(lower), Endpoint.finite(lower, closed=False), Endpoint.minus_infinity()]
    uppers = [Endpoint.finite(upper), Endpoint.finite(upper, closed=False), Endpoint.plus_infinity()]
    for low_end in lowers:
        for high_end in uppers:
            spec = IntervalSpec(low_end, high_end, n)
            calls.append(("apply_chain", lambda spec=spec:
                          intervals.apply_chain(intervals.build_chain(spec), inside, spec)))
    return calls


def _outcome(thunk):
    try:
        return _plain(thunk()), None
    except LoewnerError as exc:
        return None, type(exc).__name__


def answer_digest():
    """(sha256 hex, number of calls, calls per name)."""
    rng = np.random.default_rng(SEED)
    h = hashlib.sha256()
    names = {}
    count = 0
    for n in (3, 12):
        for name, thunk in _calls(n, rng):
            h.update(repr((n, name, _outcome(thunk))).encode())
            names[name] = names.get(name, 0) + 1
            count += 1
    return h.hexdigest(), count, names


@pytest.fixture(scope="module")
def digest():
    return answer_digest()


def test_the_corpus_reaches_every_call(digest):
    _, count, names = digest
    assert set(names) == {"construct", "apply", "compose", "inverse", "le", "lt", "witness",
                          "make_effect", "strength", "apply_chain"}
    assert 180 <= count <= 220


def test_every_answer_keeps_its_bits(digest):
    assert digest[0] == EXPECTED
