"""Order automorphisms of the unit matrix interval [0, I].

Every order automorphism is a congruence-like fractional map driven by an
invertible generator T:

    phi_T(X) = T (X (T^t T - I) + I)^{-1} X T^t,

with T unique up to sign. This module provides the group operations on
generators, evaluation of the map, recovery of the generator from a
black-box automorphism, and the older fractional-linear (Mobius)
parametrization together with its conversion to generator form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from . import linalg
from .effects import Effect, RankOneProjection, make_effect
from .errors import (
    BadParameter,
    DimensionMismatch,
    DomainError,
    InternalInversionFailure,
    NotAnEffect,
    NotAutomorphism,
    NotPSD,
    OutOfInterval,
    Singular,
    TooLarge,
)
from .linalg import DEFAULT_TOL, SymMat, Tolerances

_RESIDUAL_PROBE_SEED = 271828
_CONVERSION_CHECK_SEED = 314159


def _canonical_sign(t: np.ndarray, tol: Tolerances, top: float) -> np.ndarray:
    """Flip T so its first significantly nonzero entry (row-major) is
    positive: the first with |t_ij| > equality_tol * ||T||_2, where top =
    ||T||_2 is sigma_max from the regularity gate (np.linalg.norm(T, 2)
    is the same SVD). If none passes (equality_tol >= 1, as |t_ij| <=
    ||T||_2), the largest entry decides."""
    gate = tol.equality_tol * top
    values = t.ravel().tolist()
    for value in values:
        if abs(value) > gate:
            return -t if value < 0.0 else t
    return -t if max(values, key=abs) < 0.0 else t


def _coerce_effect(X, tol: Tolerances) -> Effect:
    if isinstance(X, Effect):
        return X
    if isinstance(X, SymMat):
        try:
            return make_effect(X, tol)
        except OutOfInterval as exc:
            raise NotAnEffect(str(exc)) from exc
    raise NotAnEffect(f"expected an Effect or SymMat, got {type(X).__name__}")


class EffectAutomorphism:
    """phi_T with the generator stored in canonical sign.

    Construction raises Singular unless T is regular within rank
    tolerance: linalg._require_regular asks sigma_min > rank_tol *
    sigma_max and |det T| > rank_tol of one SVD of T, whose sigma_max
    also sets the sign gate (_canonical_sign). Every method
    works at the tolerances given at construction, and compose and
    inverse build their result at them.
    """

    __slots__ = ("t", "n", "gram", "_tol")

    def __init__(self, generator, tol: Tolerances = DEFAULT_TOL):
        t = np.array(generator, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or not t.size:
            raise DimensionMismatch(f"generator must be square and nonempty, got shape {t.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            product = t.T @ t
        # below 2^1022, symmetrizing in SymMat cannot overflow either; an
        # entry of T that is not finite makes a diagonal entry inf or nan
        if not abs(product).max() < 2.0 ** 1022:
            if not np.isfinite(t).all():
                raise Singular("generator entries must be finite")
            raise TooLarge(f"generator scale {float(abs(t).max()):.3g} is too large: "
                           f"T^t T overflows")
        gram = SymMat(product)
        sigma = linalg._require_regular(t, tol.rank_tol, "generator is singular within rank tolerance",
                                        math.log(tol.rank_tol))
        t = _canonical_sign(t, tol, sigma[0])
        t.flags.writeable = False
        self.t = t
        self.n = t.shape[0]
        self.gram = gram
        self._tol = tol

    @property
    def extension_bound(self) -> Optional[float]:
        """The certified radius eps beyond the unit interval on which the
        defining formula stays invertible: the map is well defined on
        [0, (1 + eps) I), with None meaning unbounded. Computed when read
        from lambda_min(T^t T) = sigma_min^2, of one SVD of T."""
        lam_min = linalg._singular_values(self.t)[-1] ** 2
        if lam_min >= 1.0:
            return None
        shrunk = lam_min * (1.0 - 1e-12)
        return shrunk / (1.0 - shrunk)

    def _noise_gate(self) -> float:
        """Roundoff in the defining formula grows with the conditioning of
        T^t T; images are certified against psd_tol widened by this
        float-noise bound and then clamped back onto [0, 1]. Its norm and
        condition number are read from one SVD of T on each call."""
        sigma = linalg._singular_values(self.t)
        return 64.0 * np.finfo(float).eps * (sigma[0] / sigma[-1]) ** 2 * max(1.0, sigma[0] * sigma[0])

    def _formula(self, xs: np.ndarray) -> np.ndarray:
        """T (X (T^t T - I) + I)^{-1} X T^t for each matrix X of the stack
        xs, of shape (..., n, n): one stacked solve and one pair of
        products, with the bits of one matrix at a time. Not symmetrized,
        not certified into [0, I] and not tested for finiteness;
        InternalInversionFailure when the solve fails."""
        # Invertible for every effect: with G = T^t T > 0 and 0 <= X <= I,
        # X (G - I) + I has the spectrum of X^{1/2} G X^{1/2} + I - X > 0.
        eye = np.eye(self.n)
        m = xs @ (self.gram.a - eye) + eye
        try:
            z = np.linalg.solve(m, xs)
        except np.linalg.LinAlgError as exc:
            raise InternalInversionFailure(
                "certified-invertible matrix was numerically intractable") from exc
        return self.t @ z @ self.t.T

    def _image(self, x: np.ndarray) -> SymMat:
        """_formula of the matrix x of one effect, as a SymMat."""
        return SymMat(self._formula(x))

    def _images(self, xs: np.ndarray) -> np.ndarray:
        """_image of each matrix of the stack xs, as one array: the average
        of each _formula with its transpose has SymMat's bits, and a
        bitwise symmetric matrix keeps its own, unless an entry reaches
        2^1023 and the sum overflows to inf. An image that is not finite
        fails a residual check, whose norm is then not at most 1e-6, where
        _image's SymMat refuses it."""
        w = self._formula(xs)
        # an average that overflows reads inf, as above, with no warning
        with np.errstate(over="ignore"):
            return (w + w.swapaxes(-1, -2)) / 2.0

    def apply(self, X) -> Effect:
        """Evaluate T (X (T^t T - I) + I)^{-1} X T^t (_image), certified
        back into [0, I]: InternalInversionFailure when the image leaves it
        past the noise gate, else the image clamped onto it."""
        tol = self._tol
        eff = _coerce_effect(X, tol)
        linalg._check_same_dim(eff, self)
        image = self._image(eff.mat.a)
        if linalg._certified_within(image.a, 0.0, 1.0):
            return Effect(mat=image)
        spec = linalg.eigh(image)
        lam = spec.eigenvalues
        if float(lam[0]) < -tol.psd_tol or float(lam[-1]) > 1.0 + tol.psd_tol:
            gate = max(tol.psd_tol, self._noise_gate())
            if float(lam[0]) < -gate or float(lam[-1]) > 1.0 + gate:
                raise InternalInversionFailure(
                    f"image left the unit interval beyond the noise gate "
                    f"(eigenvalues {float(lam[0])!r}..{float(lam[-1])!r})")
        if float(lam[0]) < 0.0 or float(lam[-1]) > 1.0:
            clipped = np.clip(lam, 0.0, 1.0)
            image = SymMat((spec.eigenvectors * clipped) @ spec.eigenvectors.T)
        return Effect(mat=image)

    def compose(self, other: "EffectAutomorphism") -> "EffectAutomorphism":
        """Generator product: applying `other` first, then `self`."""
        linalg._check_same_dim(self, other)
        return EffectAutomorphism(self.t @ other.t, self._tol)

    def inverse(self) -> "EffectAutomorphism":
        return EffectAutomorphism(np.linalg.inv(self.t), self._tol)

    def equals(self, other: "EffectAutomorphism") -> bool:
        linalg._check_same_dim(self, other)
        return float(np.linalg.norm(self.t - other.t)) <= self._tol.equality_tol * float(np.linalg.norm(self.t))

    def project_image(self, P: RankOneProjection) -> RankOneProjection:
        """Projection onto T x for x spanning Im P; certified against the
        direction of the mapped projection (_dominant_direction)."""
        linalg._check_same_dim(P, self)
        image = RankOneProjection(self.t @ P.x)
        dominant = _dominant_direction(self.apply(Effect(mat=P.mat)), self._tol)
        cosine = min(1.0, abs(float(image.x @ dominant)))
        if math.acos(cosine) > 1e-6:
            raise InternalInversionFailure("image direction certificate failed")
        return image

    def __repr__(self):
        return f"EffectAutomorphism(n={self.n}, t={self.t.tolist()!r})"


def identity_automorphism(n: int) -> EffectAutomorphism:
    return EffectAutomorphism(np.eye(n))


def _random_effects(n: int, count: int, seed: int) -> List[Effect]:
    """Deterministic effects used for residual checks: each symmetrized
    Gaussian S is squeezed affinely from the ends lo, hi of its Jacobi
    spectrum onto [0.1, 0.9], so probes stay away from the boundary.

    The count Gaussians are one (count, n, n) draw, which takes the same
    values from the generator's stream, in the same order, as count draws
    of (n, n); they are symmetrized and squeezed as one stack, with the
    bits of one matrix at a time, and each spectrum is one eigvalsh. Each
    matrix of both stacks is bitwise symmetric, since a sum commutes and
    the squeeze is entrywise, so each is frozen as it is (linalg._computed
    with symmetric=True), with SymMat's bits and no copy.

    Each is an effect by the bound below, so none is certified. The
    computed lo and hi lie within eps = linalg._jacobi_error(n, ||S||_F)
    of the ends of the true spectrum, so c (S - lo I) + 0.1 I, with
    c = 0.8 / (hi - lo), has its spectrum in [0.1 - c eps, 0.9 + c eps].
    Forming it in floating point (c included) rounds each entry at most
    three times, which moves each eigenvalue by at most about 3 u sqrt(n)
    (Weyl's inequality). Past the guard hi - lo > 16 eps, c eps < 0.05,
    so the spectrum stays inside (0, 1) at every n; below it the effect
    is (1/2)I. Over both seeds (_RESIDUAL_PROBE_SEED, ten draws, and
    _CONVERSION_CHECK_SEED, twenty) and every n in 2..44, c eps is at most
    1.01e-10 and hi - lo at least 0.287, so the guard takes no seeded
    draw."""
    draws = np.random.default_rng(seed).standard_normal((count, n, n))
    syms = (draws + draws.swapaxes(1, 2)) / 2.0
    spectra = [linalg.eigvalsh(linalg._computed(s, linalg._OVERFLOW, symmetric=True))
               for s in syms]
    lo, hi = np.array([(lam[0], lam[-1]) for lam in spectra]).T
    flat = hi - lo <= 16.0 * linalg._jacobi_error(n, np.linalg.norm(syms, axis=(1, 2)))
    eye = np.eye(n)
    # a flat spectrum divides by zero here; its effect is replaced below
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = ((syms - lo[:, None, None] * eye) * (0.8 / (hi - lo))[:, None, None]
                  + 0.1 * eye)
    scaled[flat] = 0.5 * eye
    return [Effect(mat=linalg._computed(s, linalg._OVERFLOW, symmetric=True)) for s in scaled]


def recovery_probe_effects(n: int) -> List[Effect]:
    """The exact ordered list of effects recover_generator feeds to its
    oracle: (1/2)I, the basis projections, the mixed two-index
    projections, then the ten deterministic residual-check effects. Each
    is an effect by construction (_random_effects), so none is certified.
    The projections are the outer products x x^t of x = e_i and of
    x = (e_1 + e_j) / sqrt(2), whose two entries are 0.5 / sqrt(0.5): the
    unit vectors RankOneProjection forms from e_i and e_1 + e_j, bit for
    bit (it halves both, and 0.25 + 0.25 is exact)."""
    eye = np.eye(n)
    probes: List[Effect] = [Effect(mat=SymMat(0.5 * eye))]
    probes.extend(Effect(mat=SymMat(np.outer(e, e))) for e in eye)
    for j in range(1, n):
        x = np.zeros(n)
        x[0] = x[j] = 0.5 / math.sqrt(0.5)
        probes.append(Effect(mat=SymMat(np.outer(x, x))))
    probes.extend(_random_effects(n, 10, _RESIDUAL_PROBE_SEED))
    return probes


def _dominant_direction(E: Effect, tol: Tolerances) -> np.ndarray:
    """A unit vector spanning the image E of a rank-one projection.

    The column of E with the largest diagonal entry, normalized to v, is
    accepted when the rank-one residual ||E - v v^t||_F <= rank_tol ||E||_F;
    then E is within rank_tol ||E||_F of v v^t, whose eigenvalues are 1 and
    0, so by Weyl's inequality and the Davis-Kahan sin-theta theorem the top
    eigenvector of E is within an angle of about rank_tol ||E||_F of v.
    Otherwise (E not a projection at tolerance) it is that eigenvector,
    from eigh."""
    m = E.mat.a
    column = m[:, int(np.argmax(np.diagonal(m)))]
    norm = float(np.linalg.norm(column))
    if norm > 0.0:
        v = column / norm
        if float(np.linalg.norm(m - np.outer(v, v))) <= tol.rank_tol * float(np.linalg.norm(m)):
            return v
    return linalg.eigh(E.mat).eigenvectors[:, -1]


def recover_generator(
    oracle: Callable[[Effect], Effect],
    n: int,
    tol: Tolerances = DEFAULT_TOL,
) -> EffectAutomorphism:
    """Reconstruct the generator of a black-box order automorphism.

    The image of (1/2)I determines T T^t; probing the basis projections
    recovers the orthogonal factor column by column, with per-column sign
    ambiguity resolved through the mixed (e_1 + e_j) projections. A final
    residual check compares the rebuilt map's uncertified images of ten
    deterministic effects, formed as one stack (EffectAutomorphism._images)
    before the check, against the oracle's: a Frobenius residual that is
    not at most 1e-6, NaN included, raises NotAutomorphism, and a failed
    solve InternalInversionFailure. The oracle sees the probes in the
    order of recovery_probe_effects, one call each, and none after the
    first residual that fails.
    """
    if n < 2:
        raise DimensionMismatch("dimension must be at least 2")
    probes = recovery_probe_effects(n)
    half_identity, basis = probes[0], probes[1:1 + n]
    mixed = probes[1 + n:2 * n]
    residual_probes = probes[2 * n:]

    C = oracle(half_identity)
    if not isinstance(C, Effect) or C.n != n:
        raise NotAutomorphism("oracle must return effects of matching dimension")
    if not (linalg.loewner_lt(SymMat.zero(n), C.mat, tol)
            and linalg.loewner_lt(C.mat, SymMat.identity(n), tol)):
        raise NotAutomorphism("image of (1/2)I must lie strictly inside (0, I)")

    try:
        shifted = linalg.inv(C.mat, tol) - SymMat.identity(n)
        M, M_inv = linalg._definite_root_pair(linalg.inv(shifted, tol), tol)
    except (Singular, NotPSD) as exc:
        raise NotAutomorphism(f"midpoint image is inconsistent: {exc}") from exc

    columns = []
    for i in range(n):
        v = _dominant_direction(oracle(basis[i]), tol)
        u = M_inv.a @ v
        norm = float(np.linalg.norm(u))
        if norm <= 1e-12:
            raise NotAutomorphism("degenerate image of a basis projection")
        columns.append(u / norm)

    # Align the rest with the first column. Its own sign is left open:
    # flipping it swaps the two scores of every choice below, so O turns
    # into -O, and EffectAutomorphism's canonical sign maps -M O to M O.
    u1 = columns[0]
    for j in range(1, n):
        w = _dominant_direction(oracle(mixed[j - 1]), tol)
        z = M_inv.a @ w
        z = z / float(np.linalg.norm(z))
        best_sign, best_score = 1.0, -1.0
        for sign in (1.0, -1.0):
            cand = u1 + sign * columns[j]
            norm = float(np.linalg.norm(cand))
            if norm <= 1e-12:
                continue
            score = abs(float((cand / norm) @ z))
            if score > best_score:
                best_sign, best_score = sign, score
        columns[j] = best_sign * columns[j]

    O = np.column_stack(columns)
    if float(np.linalg.norm(O.T @ O - np.eye(n))) > 1e-6:
        raise NotAutomorphism("recovered frame is not orthogonal")

    phi = EffectAutomorphism(M.a @ O, tol)
    mine = phi._images(np.array([probe.mat.a for probe in residual_probes]))
    for probe, image in zip(residual_probes, mine):
        if not float(np.linalg.norm(image - oracle(probe).mat.a)) <= 1e-6:
            raise NotAutomorphism("residual check against the oracle failed")
    return phi


def unit_mobius(p: float, x: float) -> float:
    """The increasing fractional-linear bijection of [0, 1]:
    x / (p x + (1 - p)), defined for every p < 1."""
    if not p < 1.0:
        raise BadParameter("p must be strictly below 1")
    if x < 0.0 or x > 1.0:
        raise BadParameter("x must lie in [0, 1]")
    return x / (p * x + (1.0 - p))


@dataclass(frozen=True)
class MobiusParams:
    """Parameters (p, q, T) of the fractional-linear form at tolerances tol:
    p, q < 1 and T an invertible contraction, on one SVD of T."""

    p: float
    q: float
    t: np.ndarray
    tol: Tolerances = field(default=DEFAULT_TOL, compare=False, repr=False)

    def __post_init__(self):
        if not (self.p < 1.0 and self.q < 1.0):
            raise BadParameter("p and q must be strictly below 1")
        t = np.array(self.t, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or not t.size:
            raise BadParameter("T must be a nonempty square matrix")
        if not np.isfinite(t).all():
            raise BadParameter("T entries must be finite")
        sigma = linalg._singular_values(t)
        if sigma[0] > 1.0 + self.tol.equality_tol:
            raise BadParameter("T must be a contraction (largest singular value <= 1)")
        if sigma[-1] <= self.tol.rank_tol:
            raise BadParameter("T must be invertible")
        t.flags.writeable = False
        object.__setattr__(self, "t", t)

    @property
    def n(self) -> int:
        return self.t.shape[0]


def mobius_apply(params: MobiusParams, X) -> Effect:
    """Evaluate the fractional-linear automorphism form on an effect:

        f_q( f_p(T T^t)^{-1/2} f_p(T X T^t) f_p(T T^t)^{-1/2} )

    with every scalar function taken spectrally and eigenvalues clamped
    into their theoretical ranges at the tolerances of params.
    """
    tol = params.tol
    eff = _coerce_effect(X, tol)
    linalg._check_same_dim(eff, params)
    p, q, t = params.p, params.q, params.t

    # Upper slack admits the contraction check's own tolerance on ||T||.
    upper_slack = tol.psd_tol + 3.0 * tol.equality_tol

    def clamped_mobius(level: float) -> float:
        if level < -tol.psd_tol or level > 1.0 + upper_slack:
            raise DomainError(f"eigenvalue {level!r} outside [0, 1] at tolerance")
        return unit_mobius(p, min(1.0, max(0.0, level)))

    def outer_mobius(level: float) -> float:
        # apply_fn passes InternalInversionFailure through unwrapped
        if level < -tol.psd_tol or level > 1.0 + tol.psd_tol:
            raise InternalInversionFailure("normalized middle term left [0, I]")
        return unit_mobius(q, min(1.0, max(0.0, level)))

    inner = SymMat(t @ eff.mat.a @ t.T)
    gram = SymMat(t @ t.T)
    f_inner = linalg.apply_fn(inner, clamped_mobius)
    # f_p(T T^t)^{-1/2} is a function of T T^t: one spectrum, not two
    floor = tol.rank_tol ** 2
    normalizer = linalg.apply_fn(
        gram, lambda level: 1.0 / math.sqrt(max(clamped_mobius(level), floor)))
    middle = SymMat(normalizer.a @ f_inner.a @ normalizer.a)
    return make_effect(linalg.apply_fn(middle, outer_mobius), tol)


def mobius_to_canonical(params: MobiusParams) -> EffectAutomorphism:
    """Convert the fractional-linear form to generator form by running the
    recovery algorithm against it at the tolerances of params, then
    verify on twenty deterministic effects (_random_effects) that the
    generator's uncertified images, formed as one stack before the check
    (EffectAutomorphism._images), are each within 1e-6 of the
    fractional-linear one in the Frobenius norm, in order; NaN fails."""
    phi = recover_generator(lambda E: mobius_apply(params, E), params.n, params.tol)
    probes = _random_effects(params.n, 20, _CONVERSION_CHECK_SEED)
    mine = phi._images(np.array([probe.mat.a for probe in probes]))
    for probe, image in zip(probes, mine):
        if not float(np.linalg.norm(image - mobius_apply(params, probe).mat.a)) <= 1e-6:
            raise NotAutomorphism("canonical form does not reproduce the fractional-linear map")
    return phi
