"""The unit matrix interval [0, I]: membership, rank-one projections, the
strength function along a projection and its order witness, and the
explicit 2x2 constructions (the one-third decomposition and the sharp
rotation).

The strength of a positive A along a rank-one projection P = xx^t is the
largest t with tP <= A. For x in the range of A it has the closed form
1 / <A+ x, x> (A+ the pseudoinverse); for x outside the range it is 0.
linalg._strength decides which factor or spectrum answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import linalg
from .errors import (
    BadParameter,
    DimensionMismatch,
    NotDiagonal,
    NotPSD,
    OutOfInterval,
)
from .linalg import DEFAULT_TOL, SymMat, Tolerances


@dataclass(frozen=True)
class Effect:
    """A symmetric matrix A with 0 <= A <= I.

    Construction checks nothing: make_effect is the checked constructor.
    Inside the package an Effect(mat=...) is built directly only on a
    proof that its caller keeps:
    - make_effect: _certified_within, else the ends of eigvalsh;
    - sharp: diag(s, t), each checked within psd_tol of [0, 1], turned by
      the orthogonal Hadamard basis;
    - EffectAutomorphism.apply: the image certified into [0, 1], else its
      spectrum held to the noise gate and clamped;
    - EffectAutomorphism.project_image: a rank-one projection;
    - recovery_probe_effects: (1/2)I, projections, and the Gaussians that
      _random_effects squeezes onto [0.1, 0.9] by its bound.
    """

    mat: SymMat

    @property
    def n(self) -> int:
        return self.mat.n


class RankOneProjection:
    """xx^t for a unit vector x, its only state: `mat` is formed on each read.

    The direction is first scaled by the power of two that brings its
    largest entry into [1/2, 1), so that x.x can neither overflow nor
    underflow; the unit vector is then the same bits for every 2^j
    multiple of the direction, and the same bits as dividing by the norm
    directly whenever every x_i^2 and x.x are normal doubles. Any finite
    nonzero direction spans a line, so only the zero vector and non-finite
    entries are refused."""

    __slots__ = ("x",)

    def __init__(self, direction):
        vec = np.array(direction, dtype=float).reshape(-1)
        top = float(np.abs(vec).max(initial=0.0))
        if not math.isfinite(top):
            raise BadParameter("projection direction must be finite")
        if top == 0.0:
            raise BadParameter("projection direction must be a nonzero vector")
        exponent = math.frexp(top)[1]
        if exponent:
            vec = np.ldexp(vec, -exponent)
        vec = vec / math.sqrt(vec.dot(vec))     # np.linalg.norm(vec), bit for bit
        vec.flags.writeable = False
        self.x = vec

    @property
    def mat(self) -> SymMat:
        """xx^t, bitwise symmetric as x_i x_j = x_j x_i."""
        return SymMat(np.outer(self.x, self.x))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def __repr__(self):
        return f"RankOneProjection({self.x.tolist()!r})"


# The Hadamard-basis pair summing to the identity.
BASIS_PLUS = SymMat([[0.5, 0.5], [0.5, 0.5]])
BASIS_MINUS = SymMat([[0.5, -0.5], [-0.5, 0.5]])


def make_effect(A: SymMat, tol: Tolerances = DEFAULT_TOL) -> Effect:
    """Certify 0 <= A <= I; OutOfInterval carries the offending eigenvalue.

    Two shifted Cholesky factorizations, one at each end, settle inputs
    clear of the gates without a spectrum (linalg._certified_within); the
    rest go to eigvalsh, which reaches the same verdict."""
    if linalg._certified_within(A.a, -tol.psd_tol, 1.0 + tol.psd_tol):
        return Effect(mat=A)
    lam = linalg.eigvalsh(A)
    low, high = float(lam[0]), float(lam[-1])
    if low < -tol.psd_tol:
        raise OutOfInterval(f"eigenvalue {low!r} below 0", offending_eigenvalue=low)
    if high > 1.0 + tol.psd_tol:
        raise OutOfInterval(f"eigenvalue {high!r} above 1", offending_eigenvalue=high)
    return Effect(mat=A)


def _require_psd(A: SymMat, tol: Tolerances, who: str) -> None:
    if not linalg.is_psd(A, tol):
        raise NotPSD(f"{who} must be positive semidefinite")


def strength(A: SymMat, P: RankOneProjection, tol: Tolerances = DEFAULT_TOL) -> float:
    """max { t : t P <= A } for PSD A and a rank-one projection P.

    Closed form: 0 when the direction x of P leaves the range of A, else
    1 / <A+ x, x>; NotPSD when A is not PSD at psd_tol. It takes at most
    one spectrum, and none where a factor proves that the spectral route
    decides alike (linalg._strength). An A near either end of the double
    range is answered at a power of two and scaled back, capped at
    lambda_max of A where the answer would overflow.
    """
    linalg._check_same_dim(A, P)
    return linalg._strength(A, P.x, tol)


def strength_witness(
    A: SymMat, B: SymMat, tol: Tolerances = DEFAULT_TOL
) -> Optional[Tuple[RankOneProjection, float]]:
    """A rank-one certificate that A <= B fails; NotPSD when A or B is not
    positive semidefinite.

    Returns None when A <= B. Otherwise picks a unit x with
    c = <(A - B)x, x> > 0, spans Q by Ax and sets t = ||Ax||^2 / <Ax, x>.
    For PSD A, Cauchy-Schwarz in the A inner product, (y^t A x)^2 <=
    (y^t A y)(x^t A x), is tQ = A x x^t A / <Ax, x> <= A, with (A - tQ)x = 0,
    while <(B - tQ)x, x> = <Bx, x> - <Ax, x> = -c, so tQ <= B fails by at
    least c: the strength of A along Q strictly exceeds that of B.

    The order certificate on M = B - A decides A <= B. The direction of
    negative curvature of its refuting factor is used when it clears

        fl(<(A - B)x, x>) > gamma ||x||^2,  gamma = sqrt(psd_tol) max(1, ||A||_F, ||B||_F),

    and otherwise the most negative eigenvector of M (linalg._witness_direction).

    The gate makes both parts of the witness robust, not only c > 0:
    - The gate's own rounding (forming M, Mx and <Mx, x>) is at most
      2 (n + 1) u (||A||_F + ||B||_F), under 1e-9 gamma at psd_tol = 1e-9
      and n <= 44, so c clears gamma = 3.2e-5 max(1, ||A||_F, ||B||_F):
      over 3000 times a slack of 1e-8 max(1, ||A||_2) on tQ <= B.
    - As B >= -tau_B with tau_B = psd_tol max(1, ||B||_F),
      q = <Ax, x> = <Bx, x> + c > gamma (1 - 2 sqrt(psd_tol)). fl(Ax),
      fl(q) and fl(||Ax||) carry errors of at most (n + 1) u ||A||_F, and
      ||Ax||^2 <= ||A||_2 q, so the computed tQ differs from the exact one
      by about (n + 2) u ||A||_F / sqrt(psd_tol) (6e-11 ||A||_F at n = 16),
      which is all that tQ <= A can miss by.
    The norms are taken by hypot and t as ||Ax|| (||Ax|| / q), so entries
    near 2^+-600 neither overflow nor underflow.
    """
    _require_psd(A, tol, "first argument")
    _require_psd(B, tol, "second argument")
    gamma = math.sqrt(tol.psd_tol) * max(1.0, _frobenius(A.a), _frobenius(B.a))
    x = linalg._witness_direction(A, B, gamma, tol)
    if x is None:
        return None
    ax = A.a @ x
    quad = float(ax @ x)
    if quad <= 0.0:
        raise NotPSD("degenerate witness direction; input not PSD at tolerance")
    norm = math.hypot(*ax.tolist())
    return RankOneProjection(ax / norm), norm * (norm / quad)


def _frobenius(m: np.ndarray) -> float:
    return math.hypot(*m.ravel().tolist())


def one_third_decompose(
    A: SymMat, P: RankOneProjection, tol: Tolerances = DEFAULT_TOL
) -> Optional[RankOneProjection]:
    """Recognize A = (1/3)Q + (I - Q) on a 2x2 matrix, with tr(PQ) = 1/2.

    Returns the projection Q when the form holds, None otherwise. Q is
    read off directly as (3/2)(I - A) and validated as a rank-one
    projection with the required trace pairing; the equivalent
    three-rank-one-factor characterization is exercised by the tests as
    an independent route.
    """
    if A.n != 2 or P.n != 2:
        raise DimensionMismatch("this decomposition is defined for 2x2 matrices")
    q_mat = 1.5 * (np.eye(2) - A.a)
    spec = linalg.eigh(SymMat(q_mat))
    lam = spec.eigenvalues
    gate = tol.equality_tol
    if abs(float(lam[0])) > gate or abs(float(lam[1]) - 1.0) > gate:
        return None
    if abs(float(np.trace(P.mat.a @ q_mat)) - 0.5) > gate:
        return None
    return RankOneProjection(spec.eigenvectors[:, -1])


def sharp(X: SymMat, tol: Tolerances = DEFAULT_TOL) -> Effect:
    """Rotate a diagonal 2x2 effect diag(s, t) into the Hadamard basis:
    s * BASIS_PLUS + t * BASIS_MINUS."""
    if X.n != 2:
        raise DimensionMismatch("sharp is defined for 2x2 matrices")
    if abs(float(X.a[0, 1])) > tol.equality_tol:
        raise NotDiagonal("input must be diagonal")
    s, t = float(X.a[0, 0]), float(X.a[1, 1])
    for value in (s, t):
        if value < -tol.psd_tol or value > 1.0 + tol.psd_tol:
            raise OutOfInterval(f"diagonal entry {value!r} outside [0, 1]",
                                offending_eigenvalue=value)
    return Effect(mat=SymMat(s * BASIS_PLUS.a + t * BASIS_MINUS.a))
