"""Matrix intervals under the Loewner order: endpoint specifications,
classification into the five canonical classes, and explicit isomorphism
chains built from four primitive maps (translate, congruence, invert,
negate).

Every interval of symmetric matrices is order isomorphic to exactly one
of [0, I], [0, inf), (-inf, 0], (0, inf), (-inf, inf). build_chain
produces an even-parity chain onto the canonical representative with
closed finite endpoints mapped exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from . import linalg
from .errors import (
    IntermediateSingular,
    InvalidSpec,
    NotIsomorphic,
    OutOfDomain,
    Singular,
)
from .linalg import DEFAULT_TOL, SymMat, Tolerances

_FINITE = "finite"
_PLUS_INF = "plus_infinity"
_MINUS_INF = "minus_infinity"


@dataclass(frozen=True)
class Endpoint:
    """A finite symmetric matrix or a signed infinity, with an open/closed
    flag; infinite endpoints are always open."""

    kind: str
    closed: bool = False
    matrix: Optional[SymMat] = None

    def __post_init__(self):
        if self.kind not in (_FINITE, _PLUS_INF, _MINUS_INF):
            raise InvalidSpec(f"unknown endpoint kind {self.kind!r}")
        if self.kind == _FINITE:
            if self.matrix is None:
                raise InvalidSpec("finite endpoint requires a matrix")
        else:
            if self.matrix is not None:
                raise InvalidSpec("infinite endpoint cannot carry a matrix")
            if self.closed:
                raise InvalidSpec("infinite endpoints are always open")

    @classmethod
    def finite(cls, matrix: SymMat, closed: bool = True) -> "Endpoint":
        return cls(kind=_FINITE, closed=closed, matrix=matrix)

    @classmethod
    def plus_infinity(cls) -> "Endpoint":
        return cls(kind=_PLUS_INF)

    @classmethod
    def minus_infinity(cls) -> "Endpoint":
        return cls(kind=_MINUS_INF)

    @property
    def is_finite(self) -> bool:
        return self.kind == _FINITE


@dataclass(frozen=True)
class IntervalSpec:
    """Endpoint pair defining a matrix interval in dimension n; finite
    endpoints must satisfy lower < upper at the tolerances `tol`, which
    contains, build_chain and apply_chain use as well."""

    lower: Endpoint
    upper: Endpoint
    n: int
    tol: Tolerances = field(default=DEFAULT_TOL, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSpec("dimension must be at least 1")
        if self.lower.kind == _PLUS_INF:
            raise InvalidSpec("lower endpoint cannot be plus infinity")
        if self.upper.kind == _MINUS_INF:
            raise InvalidSpec("upper endpoint cannot be minus infinity")
        for end in (self.lower, self.upper):
            if end.is_finite and end.matrix.n != self.n:
                raise InvalidSpec("endpoint dimension differs from the interval dimension")
        if self.lower.is_finite and self.upper.is_finite:
            if not linalg.loewner_lt(self.lower.matrix, self.upper.matrix, self.tol):
                raise InvalidSpec("finite endpoints must satisfy lower < upper strictly")

    def contains(self, X: SymMat) -> bool:
        linalg._check_same_dim(X, self)
        if self.lower.is_finite:
            ok = (linalg.loewner_le(self.lower.matrix, X, self.tol) if self.lower.closed
                  else linalg.loewner_lt(self.lower.matrix, X, self.tol))
            if not ok:
                return False
        if self.upper.is_finite:
            ok = (linalg.loewner_le(X, self.upper.matrix, self.tol) if self.upper.closed
                  else linalg.loewner_lt(X, self.upper.matrix, self.tol))
            if not ok:
                return False
        return True


class CanonicalClass(enum.Enum):
    UNIT_INTERVAL = "unit_interval"
    POSITIVE_CLOSED = "positive_closed"
    NEGATIVE_CLOSED = "negative_closed"
    POSITIVE_OPEN = "positive_open"
    WHOLE = "whole"


@dataclass(frozen=True, eq=False)
class Translate:
    """X -> X + S; order preserving."""

    shift: SymMat
    reverses = False

    def apply(self, X: SymMat) -> SymMat:
        return X + self.shift

    def inverse(self) -> "Translate":
        return Translate(shift=-self.shift)


@dataclass(frozen=True, eq=False)
class Congruence:
    """X -> T X T^t for invertible T; order preserving. T is refused as
    Singular when an entry is not finite or sigma_min <= 1e-12 sigma_max
    (linalg._require_regular with no determinant floor), a gate on its
    condition number alone, at every scale."""

    generator: np.ndarray

    reverses = False

    def __post_init__(self):
        t = np.array(self.generator, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise InvalidSpec("congruence generator must be square")
        if not np.isfinite(t).all():
            raise Singular("congruence generator entries must be finite")
        linalg._require_regular(t, 1e-12, "congruence generator is singular")
        t.flags.writeable = False
        object.__setattr__(self, "generator", t)

    def apply(self, X: SymMat) -> SymMat:
        return _congruent(self.generator, X)

    def inverse(self) -> "Congruence":
        return Congruence(generator=np.linalg.inv(self.generator))


@np.errstate(over="ignore", invalid="ignore")
def _congruent(t: np.ndarray, X: SymMat) -> SymMat:
    """T X T^t, the image of X under the Congruence with generator T."""
    return linalg._computed(t @ X.a @ t.T, "the image does not fit in a double")


@dataclass(frozen=True)
class Invert:
    """X -> X^{-1}; order reversing on definite matrices. Singularity is
    decided at the tolerances `tol` of the interval the step was built for."""

    tol: Tolerances = field(default=DEFAULT_TOL, compare=False, repr=False)
    reverses = True

    def apply(self, X: SymMat) -> SymMat:
        try:
            return linalg.inv(X, self.tol)
        except Singular as exc:
            raise IntermediateSingular(
                "chain reached a singular intermediate value") from exc

    def inverse(self) -> "Invert":
        return self


@dataclass(frozen=True)
class Negate:
    """X -> -X; order reversing."""

    reverses = True

    def apply(self, X: SymMat) -> SymMat:
        return -X

    def inverse(self) -> "Negate":
        return self


PrimitiveMap = Union[Translate, Congruence, Invert, Negate]


@dataclass(frozen=True)
class MapChain:
    """A sequence of primitive maps applied left to right."""

    steps: Tuple[PrimitiveMap, ...]

    @property
    def parity(self) -> bool:
        """True exactly when the composite reverses order (odd count of
        reversing steps)."""
        return sum(step.reverses for step in self.steps) % 2 == 1


def chain_of(*steps: PrimitiveMap) -> MapChain:
    return MapChain(steps=steps)


def classify(spec: IntervalSpec) -> CanonicalClass:
    """Assign the interval to its canonical class by endpoint flags."""
    lower_closed = spec.lower.is_finite and spec.lower.closed
    upper_closed = spec.upper.is_finite and spec.upper.closed
    if lower_closed and upper_closed:
        return CanonicalClass.UNIT_INTERVAL
    if lower_closed:
        return CanonicalClass.POSITIVE_CLOSED
    if upper_closed:
        return CanonicalClass.NEGATIVE_CLOSED
    if not spec.lower.is_finite and not spec.upper.is_finite:
        return CanonicalClass.WHOLE
    return CanonicalClass.POSITIVE_OPEN


def _is_zero(M: SymMat) -> bool:
    return not M.a.any()


def _is_identity(M: SymMat) -> bool:
    return bool((M.a == np.eye(M.n)).all())


def _to_zero(M: SymMat) -> list:
    """The translation taking M to 0; none when M is 0."""
    return [] if _is_zero(M) else [Translate(shift=-M)]


def _affine_to_unit(spec: IntervalSpec) -> list:
    """Steps sending [lower, upper] onto [0, I] exactly; no-op steps are
    omitted so canonical inputs yield empty prefixes."""
    lower, upper, tol = spec.lower.matrix, spec.upper.matrix, spec.tol
    steps = _to_zero(lower)
    gap = upper - lower
    if not _is_identity(gap):
        steps.append(Congruence(generator=linalg._definite_root_pair(gap, tol)[1].a))
    return steps


def _half_open_to_cone(spec: IntervalSpec) -> list:
    # [0, I) -> [0, inf) through X -> (I - X)^{-1} - I; two reversing steps.
    eye = SymMat.identity(spec.n)
    return [Negate(), Translate(shift=eye), Invert(spec.tol), Translate(shift=-eye)]


def _reverse_half_open_to_cone(spec: IntervalSpec) -> list:
    # (0, I] -> (-inf, 0] through X -> I - X^{-1}; two reversing steps.
    return [Invert(spec.tol), Negate(), Translate(shift=SymMat.identity(spec.n))]


def build_chain(spec: IntervalSpec) -> MapChain:
    """Even-parity chain sending the interval onto its canonical
    representative, with closed finite endpoints mapped exactly; its
    Invert steps carry spec.tol."""
    cls = classify(spec)
    steps: list = []
    if cls is CanonicalClass.UNIT_INTERVAL:
        steps = _affine_to_unit(spec)
    elif cls is CanonicalClass.POSITIVE_CLOSED:
        if spec.upper.is_finite:
            steps = _affine_to_unit(spec) + _half_open_to_cone(spec)
        else:
            steps = _to_zero(spec.lower.matrix)
    elif cls is CanonicalClass.NEGATIVE_CLOSED:
        if spec.lower.is_finite:
            steps = _affine_to_unit(spec) + _reverse_half_open_to_cone(spec)
        else:
            steps = _to_zero(spec.upper.matrix)
    elif cls is CanonicalClass.POSITIVE_OPEN:
        if spec.lower.is_finite and spec.upper.is_finite:
            steps = _affine_to_unit(spec) + _half_open_to_cone(spec)
        elif spec.lower.is_finite:
            steps = _to_zero(spec.lower.matrix)
        else:
            # (-inf, B): shift B to 0, then X -> (-X)^{-1} lands on (0, inf).
            steps = _to_zero(spec.upper.matrix) + [Negate(), Invert(spec.tol)]
    return chain_of(*steps)


def apply_chain(chain: MapChain, X: SymMat, domain: IntervalSpec) -> SymMat:
    """Evaluate the chain at X after checking membership in the declared
    domain (open/closed flags honored) at domain.tol."""
    if not domain.contains(X):
        raise OutOfDomain("input lies outside the declared interval")
    value = X
    for step in chain.steps:
        value = step.apply(value)
    return value


def invert_chain(chain: MapChain) -> MapChain:
    return chain_of(*(step.inverse() for step in reversed(chain.steps)))


def iso_between(spec_a: IntervalSpec, spec_b: IntervalSpec) -> MapChain:
    """Order isomorphism from the first interval onto the second, routed
    through the shared canonical representative."""
    cls_a, cls_b = classify(spec_a), classify(spec_b)
    if cls_a is not cls_b:
        message = None
        pair = {cls_a, cls_b}
        if pair == {CanonicalClass.POSITIVE_CLOSED, CanonicalClass.NEGATIVE_CLOSED}:
            message = ("intervals are not order isomorphic: positive_closed vs "
                       "negative_closed (negation gives an order anti-isomorphism)")
        raise NotIsomorphic(cls_a, cls_b, message)
    return chain_of(*(build_chain(spec_a).steps + invert_chain(build_chain(spec_b)).steps))


def canonical_interval(cls: CanonicalClass, n: int) -> IntervalSpec:
    """The fixed representative of each class in dimension n."""
    zero = SymMat.zero(n)
    eye = SymMat.identity(n)
    if cls is CanonicalClass.UNIT_INTERVAL:
        return IntervalSpec(Endpoint.finite(zero), Endpoint.finite(eye), n)
    if cls is CanonicalClass.POSITIVE_CLOSED:
        return IntervalSpec(Endpoint.finite(zero), Endpoint.plus_infinity(), n)
    if cls is CanonicalClass.NEGATIVE_CLOSED:
        return IntervalSpec(Endpoint.minus_infinity(), Endpoint.finite(zero), n)
    if cls is CanonicalClass.POSITIVE_OPEN:
        return IntervalSpec(Endpoint.finite(zero, closed=False), Endpoint.plus_infinity(), n)
    return IntervalSpec(Endpoint.minus_infinity(), Endpoint.plus_infinity(), n)
