"""Seeded samplers and brute-force oracles backing the property tests.

Of the package's own modules only selftest imports this one. Randomness
comes from numpy's default PCG64 generator, whose stream is stable across
versions for a fixed seed, so every report here is reproducible bit for
bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from . import linalg
from .effects import Effect, RankOneProjection, make_effect
from .errors import NotPSD
from .intervals import (
    CanonicalClass,
    IntervalSpec,
    apply_chain,
    build_chain,
    canonical_interval,
    classify,
    invert_chain,
)
from .linalg import SymMat


@dataclass
class Sampler:
    """Single-owner random stream. Use derive(k) for independent shards."""

    seed: int
    rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)

    def derive(self, k: int) -> "Sampler":
        return Sampler(seed=(self.seed * 1_000_003 + k) % (2 ** 63))


_EDGE_MARGIN = 1e-6
# Condition-number cap of sample_invertible and spectral spread of sample_psd.
_COND_CAP = 1e2


def sample_effect(s: Sampler, n: int) -> Effect:
    """Random symmetric matrix with its spectrum affinely compressed into
    [0, 1], keeping a 1e-6 margin off the endpoints so downstream float
    noise cannot push samples out of the interval."""
    sym = SymMat(s.rng.standard_normal((n, n)))
    lam = linalg.eigvalsh(sym)
    lo, hi = float(lam[0]), float(lam[-1])
    if hi - lo < 1e-12:
        return make_effect(SymMat(float(s.rng.uniform()) * np.eye(n)))
    scale = (1.0 - 2.0 * _EDGE_MARGIN) / (hi - lo)
    return make_effect(SymMat((sym.a - lo * np.eye(n)) * scale + _EDGE_MARGIN * np.eye(n)))


def sample_orthogonal(s: Sampler, n: int) -> np.ndarray:
    """Product of random plane rotations over every index pair (i, j),
    i < j, in row order. The n(n - 1)/2 angles come from one uniform draw,
    with the values and the stream position of one draw per rotation. One
    rotation matrix is reused: its four entries are set for each pair and
    reset to the identity's after the product."""
    theta = s.rng.uniform(0.0, 2.0 * np.pi, size=n * (n - 1) // 2)
    cos, sin = np.cos(theta).tolist(), np.sin(theta).tolist()
    out = np.eye(n)
    rot = np.eye(n)
    for (i, j), c, sn in zip(itertools.combinations(range(n), 2), cos, sin):
        rot[i, i] = rot[j, j] = c
        rot[i, j] = -sn
        rot[j, i] = sn
        out = out @ rot
        rot[i, i] = rot[j, j] = 1.0
        rot[i, j] = rot[j, i] = 0.0
    return out


def sample_invertible(s: Sampler, n: int) -> np.ndarray:
    """O1 diag(sigma) O2^t with log-uniform singular values inside the
    condition cap."""
    half = np.sqrt(_COND_CAP)
    sigma = np.exp(s.rng.uniform(np.log(1.0 / half), np.log(half), size=n))
    return sample_orthogonal(s, n) @ np.diag(sigma) @ sample_orthogonal(s, n).T


def sample_comparable_pair(s: Sampler, n: int) -> Tuple[Effect, Effect]:
    """(X, Y) with X <= Y, built as X = Y - m D for a sum D of rank-one PSD
    increments. Y is positive definite (spectrum in [1e-6, 1 - 1e-6]), so
    the largest feasible m is 1 / lambda_max(Y^{-1/2} D Y^{-1/2})."""
    upper = sample_effect(s, n)
    count = int(s.rng.integers(1, n + 1))
    drop = np.zeros((n, n))
    for _ in range(count):
        direction = s.rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        drop += float(s.rng.uniform(0.1, 1.0)) * np.outer(direction, direction)
    root_inv = linalg.apply_fn(upper.mat, lambda level: 1.0 / math.sqrt(level)).a
    feasible = 1.0 / float(linalg.eigvalsh(SymMat(root_inv @ drop @ root_inv))[-1])
    # Stay a little inside the feasible scale so the lower matrix is PSD
    # with margin rather than grazing the cone boundary.
    scale = feasible * float(s.rng.uniform(0.0, 0.95))
    lower = make_effect(SymMat(upper.mat.a - scale * drop))
    return lower, upper


def sample_psd(s: Sampler, n: int, singular: bool = False) -> SymMat:
    """Random PSD matrix with spectrum inside the condition cap
    (log-uniform eigenvalues); singular=True zeroes out a random count of
    eigenvalues exactly. The cap keeps order-boundary crossings steep
    enough for tolerance-based predicates to locate them accurately."""
    frame = sample_orthogonal(s, n)
    top = float(s.rng.uniform(0.5, 2.0))
    lam = top * np.exp(s.rng.uniform(np.log(1.0 / _COND_CAP), 0.0, size=n))
    if singular and n > 1:
        drop = 1 + int(s.rng.integers(0, n - 1))
        lam[:drop] = 0.0
    return SymMat((frame * lam) @ frame.T)


def strength_bisection(A: SymMat, P: RankOneProjection) -> float:
    """Brute-force strength: bisect t over [0, ||A|| + 1] against the
    Loewner predicate tP <= A, i.e. A - tP PSD; at most 60 iterations.

    The bisection stops early once the midpoint reaches float resolution
    at an endpoint whose verdict is known: every later step would repeat
    that verdict and leave both endpoints as they are. lo's verdict is
    known from the start (t = 0 is the is_psd(A) check); hi's only once a
    step has set it.

    Each step decides the bare array A - tP, bitwise symmetric as A and P
    are, so a SymMat would not change it (linalg._order_verdict, is_psd's
    decision). Once a step's certificate is undecided, the midpoints lie
    near the crossing, inside the certificate's gate band, and every later
    step takes the Jacobi route alone: the verdict is the same on either
    route."""
    if not linalg.is_psd(A):
        raise NotPSD("strength oracle requires a PSD input")
    lo, hi = 0.0, linalg.spectral_norm(A) + 1.0
    hi_decided = False
    certify = True
    projection = P.mat.a
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == lo or (mid == hi and hi_decided):
            break
        psd, certify = linalg._order_verdict(A.a - mid * projection, False, linalg.DEFAULT_TOL,
                                             certify)
        if psd:
            lo = mid
        else:
            hi, hi_decided = mid, True
    return lo


@dataclass(frozen=True)
class MonotonicityReport:
    preserved: int
    reversed: int
    violated: int
    trials: int

    @property
    def ok(self) -> bool:
        return self.violated == 0


def _sample_psd(s: Sampler, n: int) -> np.ndarray:
    g = s.rng.standard_normal((n, n))
    return (g @ g.T) / n


def _sample_canonical_pair(s: Sampler, cls: CanonicalClass, n: int) -> Tuple[SymMat, SymMat]:
    if cls is CanonicalClass.UNIT_INTERVAL:
        lower, upper = sample_comparable_pair(s, n)
        return lower.mat, upper.mat
    if cls is CanonicalClass.POSITIVE_CLOSED:
        x = SymMat(_sample_psd(s, n))
        return x, SymMat(x.a + _sample_psd(s, n))
    if cls is CanonicalClass.POSITIVE_OPEN:
        margin = 0.1 * (1.0 + float(s.rng.uniform()))
        x = SymMat(_sample_psd(s, n) + margin * np.eye(n))
        return x, SymMat(x.a + _sample_psd(s, n))
    if cls is CanonicalClass.NEGATIVE_CLOSED:
        x = SymMat(_sample_psd(s, n))
        y = SymMat(x.a + _sample_psd(s, n))
        return SymMat(-y.a), SymMat(-x.a)
    x = SymMat(s.rng.standard_normal((n, n)))
    return x, SymMat(x.a + _sample_psd(s, n))


def monotonicity_report(map_fn: Callable[[SymMat], SymMat],
                        domain: IntervalSpec,
                        trials: int,
                        s: Sampler) -> MonotonicityReport:
    """Sample comparable pairs inside the domain, push them through the
    map, and tally preserved / reversed / violated comparisons. Pairs are
    drawn in the canonical representative and transported back through
    the even-parity normalization chain."""
    cls = classify(domain)
    back = invert_chain(build_chain(domain))
    canon = canonical_interval(cls, domain.n)
    preserved = reversed_count = violated = 0
    for _ in range(trials):
        # Degenerate (equal) pairs carry no order information; resample.
        for _ in range(32):
            low_c, high_c = _sample_canonical_pair(s, cls, domain.n)
            if not linalg.loewner_le(high_c, low_c):
                break
        low = apply_chain(back, low_c, canon)
        high = apply_chain(back, high_c, canon)
        image_low = map_fn(low)
        image_high = map_fn(high)
        le_forward = linalg.loewner_le(image_low, image_high)
        le_backward = linalg.loewner_le(image_high, image_low)
        if le_forward:
            preserved += 1
        elif le_backward:
            reversed_count += 1
        else:
            violated += 1
    return MonotonicityReport(preserved=preserved, reversed=reversed_count,
                              violated=violated, trials=trials)
