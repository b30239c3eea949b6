"""Dense symmetric-matrix kernel: spectral decomposition, Loewner-order
predicates, PSD square root, inverse/pseudoinverse, and scalar functional
calculus.

Every operation here is a pure function over immutable values. The
eigensolver is a hand-rolled cyclic Jacobi iteration, adequate for the
small dimensions this package targets. Order predicates that only need the
sign of lambda_min minus a gate are first decided by a shifted Cholesky
certificate (_certificate) and fall back to the Jacobi spectrum inside its
undecided band; the same certificate certifies a generator regular
(_certify_regular) and, without the max(1, .) floor of its gate, a matrix
positive definite within rank tolerance, which inv and the strength closed
form then factor LDL^t instead of diagonalizing (_definite_ldl). A
factorization that refutes an order gives a direction of negative
curvature (_negative_curvature), from which effects.strength_witness
builds its witness. A [lo, hi] check is two proving attempts, at
M - lo I and hi I - M (_certified_within), and a semidefinite pivoted
factorization answers strength along a direction off the range of a
singular matrix (0) or inside it (1 / |y|^2 from its factor) when the
spectral route provably decides alike (_pivoted_strength), both from the
gap of one factorization of its pivot block and a vector found by
back-substitution (_back_solve), which also gives _negative_curvature its
direction.

A factorization whose only output is "it ran to completion" (and its
pivots) runs on lists (_cholesky) below _LAPACK_ORDER, in LAPACK's potrf
from there (_cholesky_pivots), as the success side of Cholesky's
backward error bound holds for any order of the inner products. Every
factorization whose entries reach an answer or whose failure is the
proof (the refuting attempt, LDL^t, the pivoted factorization) stays on
lists, and so does Jacobi. Each certified matrix is scaled once
(_scaled_rows); from _LAPACK_ORDER on the scaling reads the array alone,
only those list paths build its rows as Python lists, and the refuting
attempt converts only the rows it reads, so a check that LAPACK decides
converts none. Below, the scaling's own list code forms and keeps them.

Every certificate charges Jacobi the error of the most sweeps it can run,
_MAX_SWEEPS (_jacobi_error). A spectrum whose eigenvalues do not fit in a
double, a sum or difference of SymMats whose entries overflow, and an
inverse that does not fit raise TooLarge.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    NonConvergence,
    NotPSD,
    PreconditionViolated,
    Singular,
    TooLarge,
)

# Jacobi's sweep cap, past which it raises NonConvergence: more than twice
# the most sweeps measured on random, graded 10^U(-12, 0), 0/1, clustered
# and repeated spectra up to n = 44 (17 at n = 44, 10 at n = 16). The error
# terms of the certificates charge this many sweeps (_rotations).
_MAX_SWEEPS = 40
_EIG_TOL = 1e-14  # eig_tol: Jacobi stops at off-diagonal mass _EIG_TOL * ||A||_F
_UNIT_ROUNDOFF = 2.0 ** -53
_SMALLEST_NORMAL = 2.0 ** -1022
# Backward error of one two-sided plane rotation, in units of
# u * ||A||_F (Higham, Accuracy and Stability, 2nd ed., ch. 19).
_ROTATION_ERROR = 16.0
# Least order at which a pass/fail Cholesky runs in LAPACK
# (_cholesky_pivots). On a 2-core x86-64 machine the list factorization
# takes 8, 29 and 112 us at n = 4, 8 and 16, numpy's call with its shift
# 12, 14 and 15 us; the two meet near n = 6.
_LAPACK_ORDER = 8


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by the whole package, read-only and
    all derived from one base value:

    psd_tol      base: slack below zero accepted when testing
                 semidefiniteness; applied relative to the spectral scale
                 max(1, |lambda|_max).
    rank_tol     base: relative cutoff for rank decisions and spectral
                 truncation.
    equality_tol 10 * base: relative threshold for treating two matrices
                 as equal.

    The base lies in [_EIG_TOL, 1): a finer gate would decide order and
    rank on the rounding noise of the Jacobi spectrum (about _EIG_TOL *
    ||A||_F), and at 1 the rank gate keeps no eigenvalue and the psd gate
    passes -I.
    """

    base: float = 1e-9

    def __post_init__(self):
        if not self.base > 0.0:
            raise ValueError("tolerance must be strictly positive")
        if self.base < _EIG_TOL:
            raise ValueError(f"tolerance must not be below eig_tol ({_EIG_TOL:g})")
        if not self.base < 1.0:
            raise ValueError("tolerance must be below 1")

    @property
    def psd_tol(self) -> float:
        return self.base

    @property
    def rank_tol(self) -> float:
        return self.base

    @property
    def equality_tol(self) -> float:
        return 10.0 * self.base


DEFAULT_TOL = Tolerances()


class SymMat:
    """Real symmetric matrix, symmetrized and frozen at construction.

    The stored array is (M + M^t)/2 of the input, formed only when M is
    not bitwise symmetric; writes are disabled and entries must be finite.
    """

    __slots__ = ("a", "n")

    def __init__(self, entries):
        m = np.array(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise DimensionMismatch("matrix dimension must be at least 1")
        if m.tobytes() != m.T.tobytes():
            # an average that overflows is refused below, with no warning
            with np.errstate(over="ignore", invalid="ignore"):
                m = (m + m.T) / 2.0
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        m.flags.writeable = False
        self.a = m
        self.n = int(m.shape[0])

    @classmethod
    def identity(cls, n: int) -> "SymMat":
        return cls(np.eye(n))

    @classmethod
    def zero(cls, n: int) -> "SymMat":
        return cls(np.zeros((n, n)))

    @classmethod
    def diagonal(cls, values) -> "SymMat":
        return cls(np.diag(np.asarray(values, dtype=float)))

    def __array__(self, dtype=None):
        return self.a if dtype is None else self.a.astype(dtype)

    def __add__(self, other: "SymMat") -> "SymMat":
        return _combined(np.add, self.a, other.a)

    def __sub__(self, other: "SymMat") -> "SymMat":
        return _combined(np.subtract, self.a, other.a)

    def __neg__(self) -> "SymMat":
        return SymMat(-self.a)

    def __mul__(self, scalar: float) -> "SymMat":
        scalar = float(scalar)
        if not math.isfinite(scalar):
            raise ValueError("the scalar must be finite")
        return _combined(np.multiply, self.a, scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"SymMat({self.a.tolist()!r})"


@np.errstate(over="ignore")
def _combined(op, first: np.ndarray, second) -> SymMat:
    """op(first, second) entrywise, on the entries of two SymMats or of one
    and a finite scalar: as bitwise symmetric as the operands, so it is
    frozen as it stands; TooLarge, with no warning, when an entry
    overflows (the operands are finite)."""
    m = op(first, second)
    if not np.isfinite(m).all():
        raise TooLarge("matrix entries overflow the double range")
    m.flags.writeable = False
    combined = object.__new__(SymMat)
    combined.a, combined.n = m, m.shape[0]
    return combined


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues (ascending) and an orthonormal eigenvector column set."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_same_dim(A: SymMat, B: SymMat):
    if A.n != B.n:
        raise DimensionMismatch(f"dimensions differ: {A.n} vs {B.n}")


class _Scaled(NamedTuple):
    """2^k m as an array, with D = max |m_ii| and F = ||m||_F in those
    units. Below _LAPACK_ORDER it also holds the same rows as Python lists
    (`lists`), which its list code forms on the way; from there `lists` is
    None, and `rows` builds them (array.tolist()) for the list paths that
    read them all: _ldl, _pivoted_cholesky and _jacobi. The refuting
    _cholesky of _certificate converts them one at a time instead."""

    array: np.ndarray
    k: int
    diag: float
    frob: float
    lists: Optional[list] = None

    @property
    def rows(self) -> list:
        """2^k m as rows of Python lists: `lists`, or a fresh copy of the
        array's rows when there are none (a caller that reads them twice
        keeps them)."""
        return self.array.tolist() if self.lists is None else self.lists


def _scaled_rows(m: np.ndarray) -> _Scaled:
    """m scaled by 2^k, with k chosen so that max |2^k m_ij| lies in
    [1, 2) (k = 0 for the zero matrix).

    Scaling by a power of two is exact, so every computation homogeneous
    in m gives the same bits on the scaled copy, while sums of squares of
    the entries can neither overflow nor underflow. The array is m itself
    when k = 0.

    From _LAPACK_ORDER on, max |m_ij|, D and F come from the array and no
    Python list is built: the maxima are exact (D is the ldexp of the one
    |m| pass's max |m_ii|: correctly rounded ldexp is monotone), and
    np.add.accumulate sums the squares one after another in row order, as
    the builtin sum of Python 3.11 does (a tier-1 test pins it). Below,
    where numpy's per-call cost exceeds the list code's, one flat list of
    the entries, in row order, feeds the rows, D and F; the rows are kept.
    """
    n = m.shape[0]
    if n >= _LAPACK_ORDER:
        size = abs(m)
        top = size.max().item()
        k = 1 - math.frexp(top)[1] if top else 0
        if k:
            m = np.ldexp(m, k)
        diag = math.ldexp(size.diagonal().max().item(), k)
        frob = math.sqrt(np.add.accumulate((m * m).ravel())[-1].item())
        return _Scaled(m, k, diag, frob)
    flat = m.ravel().tolist()
    top = max(max(flat), -min(flat))
    k = 1 - math.frexp(top)[1] if top else 0
    if k:
        m = np.ldexp(m, k)
        flat = m.ravel().tolist()
    rows = [flat[i:i + n] for i in range(0, n * n, n)]
    diag = max(map(abs, flat[::n + 1]))
    frob = math.sqrt(sum(map(operator.mul, flat, flat)))
    return _Scaled(m, k, diag, frob, rows)


def _jacobi(m: np.ndarray, want_vectors: bool):
    """Cyclic Jacobi sweeps; returns (eigenvalues ascending, V or None).

    Runs on plain Python lists: at the target dimensions this beats
    per-element numpy access by a wide margin. The sweeps run on the
    power-of-two scaled copy of _scaled_rows and the eigenvalues are
    scaled back, so the result is exact-scale equivariant; TooLarge when
    one does not fit in a double (entries near the top of the range).
    NonConvergence past _MAX_SWEEPS sweeps. A matrix with no off-diagonal
    mass (n = 1, the zero matrix) leaves at the first stopping test.
    """
    n = m.shape[0]
    scaled = _scaled_rows(m)
    a, power, scale = scaled.rows, scaled.k, scaled.frob
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)] if want_vectors else None

    stop = _EIG_TOL * scale
    skip = stop / (2.0 * n * n)
    for _ in range(_MAX_SWEEPS):
        off = math.sqrt(2.0 * sum(a[i][j] * a[i][j]
                                  for i in range(n - 1)
                                  for j in range(i + 1, n)))
        if off <= stop:
            break
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                apq = ap[q]
                if abs(apq) <= skip:
                    continue
                aq = a[q]
                app = ap[p]
                aqq = aq[q]
                tau = (aqq - app) / (2.0 * apq)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                ap[p] = app - t * apq
                aq[q] = aqq + t * apq
                ap[q] = 0.0
                aq[p] = 0.0
                for k in range(n):
                    if k == p or k == q:
                        continue
                    akp = ap[k]
                    akq = aq[k]
                    ap[k] = c * akp - s * akq
                    aq[k] = s * akp + c * akq
                    a[k][p] = ap[k]
                    a[k][q] = aq[k]
                if v is not None:
                    for row in v:
                        vp = row[p]
                        vq = row[q]
                        row[p] = c * vp - s * vq
                        row[q] = s * vp + c * vq
    else:
        raise NonConvergence(f"Jacobi iteration did not converge in {_MAX_SWEEPS} sweeps")
    values = [a[i][i] for i in range(n)]

    order = sorted(range(n), key=values.__getitem__)
    try:
        lam = np.array([math.ldexp(values[i], -power) for i in order])
    except OverflowError:
        raise TooLarge("an eigenvalue does not fit in a double") from None
    if not want_vectors:
        return lam, None
    return lam, np.array(v)[:, order]


def eigh(A: SymMat) -> Spectrum:
    """Full spectral decomposition A = V diag(lam) V^t, eigenvalues ascending."""
    lam, vec = _jacobi(A.a, want_vectors=True)
    lam.flags.writeable = False
    vec.flags.writeable = False
    return Spectrum(eigenvalues=lam, eigenvectors=vec)


def eigvalsh(A: SymMat) -> np.ndarray:
    """Eigenvalues only (ascending); skips eigenvector accumulation."""
    return _jacobi(A.a, want_vectors=False)[0]


def _cholesky(rows: list, shift: float) -> Tuple[list, list]:
    """Cholesky of rows - shift*I run in floating point: (L, pivots), row i
    of L holding l_i0 .. l_ii and the pivots being the l_ii^2. It stops at
    the first pivot that comes out not positive, which then ends `pivots`
    while its row of L holds only l_i0 .. l_i,i-1; so the factorization
    ran to completion exactly when pivots[-1] > 0."""
    factor = []
    pivots = []
    for i, row in enumerate(rows):
        li = []
        for j in range(i):
            lj = factor[j]
            li.append((row[j] - sum(map(operator.mul, li, lj))) / lj[j])
        pivot = (row[i] - shift) - sum(map(operator.mul, li, li))
        factor.append(li)
        pivots.append(pivot)
        if not pivot > 0.0:
            break
        li.append(math.sqrt(pivot))
    return factor, pivots


def _cholesky_pivots(shift: float, array: np.ndarray) -> Optional[list]:
    """The pivots l_ii^2 of the Cholesky factor L of H = fl(M - shift*I)
    when the factorization runs to completion, None when it does not, for
    M of order _LAPACK_ORDER or more as an array (only its lower triangle
    is read). Below that order the callers run _cholesky on rows
    themselves, whose pivots are its own.

    This is np.linalg.cholesky (LAPACK's potrf), and the pivots are the
    products l_ii * l_ii of its diagonal; a LinAlgError or a pivot that
    is not a positive normal number (whose product would lose its
    relative accuracy) fails, and so does a NaN input, which numpy turns
    into NaNs without raising (a NaN minimum fails the test). Only success
    is evidence on that path: the bound L L^t = H + E of Higham, Accuracy
    and Stability, 2nd ed., Thm 10.3, holds for any order of the inner
    products, LAPACK's blocked one included, with conventional (not
    Strassen-like) BLAS (sec. 10.1). A caller whose proof rests on a
    failure (Demmel's bound) or on the entries of L calls _cholesky."""
    h = array.copy()
    h.reshape(-1)[::len(h) + 1] -= shift
    try:
        diagonal = np.linalg.cholesky(h).diagonal()
    except np.linalg.LinAlgError:
        return None
    pivots = diagonal * diagonal
    return pivots.tolist() if pivots.min() >= _SMALLEST_NORMAL else None


def _back_solve(rows: list, b: list) -> list:
    """z with L^t z = b by back-substitution, for the lower triangular L
    whose row j is rows[j] (l_j0 .. l_jj; only the first len(b) rows, up
    to their diagonals, are read)."""
    i = len(b)
    z = [0.0] * i
    for j in range(i - 1, -1, -1):
        z[j] = (b[j] - sum(rows[t][j] * z[t] for t in range(j + 1, i))) / rows[j][j]
    return z


def _negative_curvature(factor: list, n: int) -> Optional[np.ndarray]:
    """x = (-L11^-t l, 1, 0, ..., 0) in R^n, normalized, from the L of a
    _cholesky that stopped at pivot i: L11 its first i rows, l the
    off-diagonal part of row i. None when the solve overflows.

    With H the shifted matrix that was factored, L11 L11^t = H11,
    L11 l = h (the column above h_ii) and pivot = h_ii - l^t l, so
    y = -L11^-t l gives x^t H x = |L11^t y|^2 + 2 y^t L11 l + h_ii =
    h_ii - l^t l, the failing pivot: a direction of negative curvature
    (Gill, Murray & Wright, Practical Optimization, sec. 4.4.2)."""
    *top, l = factor
    x = _back_solve(top, [-lj for lj in l]) + [1.0] + [0.0] * (n - len(top) - 1)
    size = math.hypot(*x)                       # at least 1, from x_i
    return np.array(x) / size if math.isfinite(size) else None


def _rotations(n: int) -> float:
    """R = _MAX_SWEEPS n (n - 1) / 2: the most rotations behind a spectrum
    that _jacobi returns, as a sweep is n (n - 1) / 2 of them and a run
    past _MAX_SWEEPS sweeps raises NonConvergence instead."""
    return _MAX_SWEEPS * n * (n - 1) / 2.0


def _jacobi_error(n: int, frob: float) -> float:
    """eps_j = (_EIG_TOL + 16 u R) F: how far each Jacobi eigenvalue of an
    n x n matrix with ||m||_F = F lies from the true one (_certificate).

    Jacobi runs on 2^k m and scales its eigenvalues back exactly, so take
    every quantity in those units. A plane rotation computed in floating
    point is an exact orthogonal similarity of its input plus a
    perturbation of norm at most 16 u times the input's Frobenius norm
    (Higham, Accuracy and Stability, 2nd ed., ch. 19; Demmel & Veselic,
    SIAM J. Matrix Anal. Appl. 13(4), 1992). Exact similarities keep that
    norm, so after the at most R rotations of _rotations (the sweep cap
    _MAX_SWEEPS, enforced by NonConvergence) the final matrix is
    Q^t (m + dm) Q with Q orthogonal and ||dm||_2 <= 16 u R F (the growth
    of the norm along the way, (1 + 16 u)^R < 1 + 1e-9 up to n = 100, is
    left to the slack in the callers' margins, a factor of 2 or 1.01).
    The stopping test leaves off-diagonal mass ||O||_F <= _EIG_TOL F, and
    the computed eigenvalues are the diagonal, so by Weyl's inequality
    each lies within ||dm||_2 + ||O||_F <= eps_j of the eigenvalue of m of
    the same rank.
    """
    return (_EIG_TOL + _ROTATION_ERROR * _UNIT_ROUNDOFF * _rotations(n)) * frob


def _certificate(scaled: _Scaled, relative: float = 0.0,
                 refute: bool = True, floor: bool = True) -> Tuple[Optional[bool], Optional[list]]:
    """(verdict, evidence): decide lambda_min(m) >= g by shifted Cholesky
    factorizations, where g = relative * max(1, |lambda|max), or
    g = relative * |lambda|max when `floor` is False; None when
    undecided.

    A True or False verdict is the one the Jacobi route (eigvalsh, then
    the same comparison on the computed spectrum) returns. Work is on the
    rows 2^k m of scaled = _scaled_rows(m); below, every quantity is in
    those units, with F = ||m||_F, D = max |m_ii| and u = 2^-53.

    - |lambda|max lies in [L, U], L = max(D, F / sqrt(n)), U = F, so g lies
      in [g_lo, g_hi] from those two ends.
    - Cholesky of H = fl(m - s I) is a two-sided definiteness test
      (Higham, Accuracy and Stability, 2nd ed., ch. 10), with
      eps_c = 2 n (n + 1) u W, where W = D + max(|g_lo|, |g_hi|) + F bounds
      every shifted diagonal. Success gives lambda_min(m) >= s - eps_c:
      the backward error of Thm 10.3 holds for any order of the inner
      products, so for LAPACK's blocked potrf with conventional BLAS as
      for the list factorization. Failure of the list factorization gives
      lambda_min(m) <= s + eps_c (Demmel's condition for success). The
      proving attempt below uses the success side only (_cholesky_pivots
      from _LAPACK_ORDER on); the refuting one rests on the failure side,
      and its factor becomes the witness, so it runs on lists (_cholesky)
      at every n, converting only the rows it reads (i + 1 to fail at i).
    - Jacobi's eigenvalues are within eps_j = (_EIG_TOL + 16 u R) F of the
      true ones: its stopping test leaves _EIG_TOL F of off-diagonal mass,
      and each of its at most R = _MAX_SWEEPS n (n - 1) / 2 rotations has
      backward error at most 16 u F. The computed gate moves by at most
      |relative| eps_j with them.

    The shifts are widened by delta = 2 (eps_c + (1 + |relative|) eps_j);
    the factor 2 absorbs the rounding in F, L, U, the gate and the shifts.
    Success at s = g_hi + delta proves the computed lambda_min clears the
    computed gate (True); failure at s = g_lo - delta proves it falls
    short (False; tried only when `refute`). Between the two, and for
    matrices that the exponent range would push past the Cholesky's
    normal-number arithmetic, the answer is None and the caller computes
    the spectrum.

    True is strict: it also proves computed lambda_min > computed gate,
    the test of the callers that keep eigenvalues above
    rank_tol * |lambda|max. Success at s = g_hi + delta gives computed
    lambda_min >= s - eps_c - eps_j, and the computed gate is at most
    g_hi + |relative| eps_j plus roundings, so the difference is at least
    delta - eps_c - (1 + |relative|) eps_j = delta / 2 less those
    roundings. The second half of delta covers them, and leaves a
    positive remainder as eps_c >= 4 u F > 0 for m != 0 (for m = 0 the
    factorization at s >= 0 fails on its first pivot).

    Without the floor the gate ends are relative * L and relative * U,
    so the band and the shifts are homogeneous in the scaled rows: the
    verdict for 2^j m is the verdict for m (k only enters through the
    exponent-range guard, |k| > 1000).

    Nothing overflows past the exponent-range guard: |relative| < 1 (a
    tolerance, or its square), 2^k <= 2^1000, D < 2 and F < 2 n.

    The evidence is the proving attempt's pivots l_ii^2 on True, the
    refuting factor L on False (_negative_curvature's input), else None.
    """
    array, k, diag, frob, _ = scaled
    if abs(k) > 1000:
        return None, None
    n = len(array)
    unit = math.ldexp(1.0, k) if floor else 0.0
    ends = (relative * max(unit, diag, frob / math.sqrt(n)),
            relative * max(unit, frob))
    g_lo, g_hi = min(ends), max(ends)
    eps_c = 2.0 * n * (n + 1) * _UNIT_ROUNDOFF * (diag + max(abs(g_lo), abs(g_hi)) + frob)
    delta = 2.0 * (eps_c + (1.0 + abs(relative)) * _jacobi_error(n, frob))
    pivots = (_cholesky(scaled.lists, g_hi + delta)[1] if n < _LAPACK_ORDER
              else _cholesky_pivots(g_hi + delta, array))
    if pivots is not None and pivots[-1] > 0.0:
        return True, pivots
    if refute:
        factor, pivots = _cholesky(scaled.lists or map(np.ndarray.tolist, array), g_lo - delta)
        if not pivots[-1] > 0.0:
            return False, factor
    return None, None


def _certify_regular(gram: np.ndarray, tol: Tolerances) -> bool:
    """True when a shifted Cholesky factorization proves that the Jacobi
    spectrum lam of the Gram matrix G = T^t T (eigvalsh, ascending) passes
    the generator test of EffectAutomorphism (_require_regular):

        sqrt(lam_0) > rank_tol * max(1, sqrt(lam_-1))  and
        fsum(log(lam_i)) / 2 > log(rank_tol),

    i.e. T is regular within rank tolerance. False means undecided: the
    caller computes the spectrum, which also supplies the Singular verdict.

    One factorization decides both halves: the proving attempt of
    _certificate at relative = rank_tol^2 (scaled units, G_s = 2^k G),
    whose Cholesky of G_s - s I at s = g_hi + delta runs to completion
    with pivots p_i.

    - First half: success is _certificate's True for lam_0 >= gate =
      relative * max(1, |lam|max), and leaves lam_0 above the gate by at
      least eps_c - 3 u gate. As W >= 2 gate (3 gate when n = 1),
      eps_c >= 12 u gate, which covers the square roots, the square
      rank_tol^2 and the products of the generator test: together they
      move its gate by under 7 u gate + 2^-1074 max(2^k, F).
    - Second half: the computed factor L satisfies L L^t = G_s - s I + E
      with ||E|| <= eps_c, and Jacobi's sorted eigenvalues lam_s are within
      eps_j of those of G_s. By Weyl's inequality, in sorted order,
      lam_s,i >= lambda_i(L L^t) + s - eps_c - eps_j >= lambda_i(L L^t),
      since s >= delta >= eps_c + eps_j. So prod(lam_s) >= det(L L^t) =
      prod(l_ii^2). Only the success side of the Cholesky bound enters,
      so either path of the proving attempt serves (_cholesky_pivots from
      _LAPACK_ORDER on), and either gives l_ii^2 >= p_i (1 - u)^2: the
      list factorization takes l_ii = fl(sqrt(p_i)), LAPACK's pivots are
      p_i = fl(l_ii * l_ii), which _cholesky_pivots keeps only when they
      are normal numbers. The same inequality gives lam_s,i >=
      s - eps_c - eps_j >= delta / 2 >= _EIG_TOL (delta >= 2 eps_j,
      F >= 1). The test below passes only when n (1 - k) + 93.02 > 0,
      k < 94.02, as the pivots lie below 2 and -2 log2(rank_tol) <= 93.02;
      there 2^-k delta / 2 is a normal number, so the unscaled lam_i =
      2^-k lam_s,i are exact and
      sum(log2 lam_i) >= B = sum(log2 p_i) - k n + 2 n log2(1 - u).
    - Rounding, in the log domain, where nothing can underflow: the test
      sum(log2 p_i) - k n - 2 log2(rank_tol) > (n + 2) 2^-39 is evaluated
      with an error below (n + 1) 2^-40 (each p_i lies in (0, 2) and
      |k| <= 1000: an ulp of a value below 2^11 per log2, half an ulp of
      a value below 2074 n + 2150 per sum), so B - 2 log2(rank_tol) >
      (n + 3) 2^-40 - 3 n u. In natural logs the Jacobi route's margin,
      fsum(log(lam_i)) / 2 - log(rank_tol), is then at least ln(2) / 2 of
      that, above 2.7 (n + 3) 2^-43, while its own rounding (an ulp of
      |log(lam_i)| < 2^10 per term, fsum, log(rank_tol)) stays below
      (0.9 n + 1) 2^-43.
    """
    scaled = _scaled_rows(gram)
    verdict, pivots = _certificate(scaled, tol.rank_tol ** 2, refute=False)
    if not verdict:
        return False
    n = len(pivots)
    log_det = math.fsum(map(math.log2, pivots)) - scaled.k * n
    return log_det - 2.0 * math.log2(tol.rank_tol) > (n + 2) * 2.0 ** -39


def _ldl(rows: list) -> Optional[Tuple[list, list]]:
    """(L, d) with rows = L diag(d) L^t, L unit lower triangular (row i
    holds l_i0 .. l_i,i-1), run in floating point without pivoting; None
    when a pivot comes out not positive. No square roots, so a diagonal
    input gives L = I and d its diagonal exactly."""
    low, pivots = [], []
    for i, row in enumerate(rows):
        w = []                                  # l_ij d_j
        for j, lj in enumerate(low):
            w.append(row[j] - sum(map(operator.mul, w, lj)))
        li = [wj / dj for wj, dj in zip(w, pivots)]
        pivot = row[i] - sum(map(operator.mul, w, li))
        if not pivot > 0.0:
            return None
        low.append(li)
        pivots.append(pivot)
    return low, pivots


def _definite_ldl(scaled: _Scaled, tol: Tolerances) -> Optional[Tuple[list, list, int]]:
    """(L, d, k) with 2^k m = L diag(d) L^t (scaled = _scaled_rows(m)),
    when the floor-free certificate proves that the Jacobi spectrum of m
    has lambda_min > rank_tol * |lambda|max: then the Jacobi route keeps
    every eigenvalue (pinv_and_range) and finds m regular (inv). None
    otherwise, and the caller takes the spectral route.

    The verdict and the factorization depend on the scaled rows only, so
    m and 2^j m get the same factor and k - j for k. The certificate
    proves lambda_min(2^k m) >= delta - eps_c >= eps_c at shift 0; LDL^t,
    Cholesky without the square roots, shares its backward error, so as on
    the refuting side of _certificate a pivot d_i <= 0 would put lambda_min
    at most eps_c: _ldl runs to completion."""
    if not _certificate(scaled, relative=tol.rank_tol, refute=False, floor=False)[0]:
        return None
    return (*_ldl(scaled.rows), scaled.k)


def _reciprocal_form(scaled: _Scaled, x: np.ndarray, tol: Tolerances) -> Optional[float]:
    """1 / (x^t m^-1 x) by an LDL^t solve when _definite_ldl certifies m
    (scaled = _scaled_rows(m)); None otherwise. With L y = x and
    2^k m = L D L^t, x^t m^-1 x = 2^k sum(y_i^2 / d_i)."""
    factor = _definite_ldl(scaled, tol)
    if factor is None:
        return None
    low, pivots, k = factor
    y = []
    for xi, li in zip(x.tolist(), low):
        y.append(xi - sum(map(operator.mul, li, y)))
    q = math.fsum(yi * yi / di for yi, di in zip(y, pivots))
    return math.ldexp(1.0 / q, -k)


def _pivoted_cholesky(rows: list, stop: float) -> Tuple[list, list, list]:
    """Semidefinite Cholesky with diagonal pivoting (Higham, Accuracy and
    Stability, 2nd ed., sec. 10.3), run in floating point until the
    largest Schur complement diagonal is at most `stop`: (pivots, rest,
    low). `pivots` are the r pivot indices in order, `rest` the other
    indices, and low[i] row i of the n x r factor L in pivot order (a
    pivot's row ends at its diagonal)."""
    n = len(rows)
    schur = [row[i] for i, row in enumerate(rows)]
    low = [[] for _ in range(n)]
    rest = list(range(n))
    pivots = []
    while rest:
        p = max(rest, key=schur.__getitem__)
        if not schur[p] > stop:
            break
        rest.remove(p)
        root = math.sqrt(schur[p])
        lp = low[p]
        for i in rest:
            li = low[i]
            value = (rows[i][p] - sum(map(operator.mul, li, lp))) / root
            li.append(value)
            schur[i] -= value * value
        lp.append(root)
        pivots.append(p)
    return pivots, rest, low


def _null_direction(pivots: list, rest: list, low: list, g: list) -> list:
    """w = K K^t x for K = [-L11^-t L21^t; I] (in pivot order), whose
    columns span the null space of L^t: the part of x off the factor's
    range, up to the shape of K. Given g = x2 - L21 y with L11 y = x1, one
    more triangular solve, no inverse: L11^t z = L21^t g, w = (-z, g)."""
    r = len(pivots)
    h = [sum(low[i][j] * gi for i, gi in zip(rest, g)) for j in range(r)]
    w = [0.0] * (r + len(rest))
    for p, zj in zip(pivots, _back_solve([low[p] for p in pivots], h)):
        w[p] = -zj
    for i, gi in zip(rest, g):
        w[i] = gi
    return w


def _pivoted_strength(scaled: _Scaled, x: np.ndarray, tol: Tolerances) -> Optional[float]:
    """strength(m, x x^t) for a unit x from a semidefinite pivoted Cholesky
    factorization of m (scaled = _scaled_rows(m)), when it proves that the
    spectral route (pinv_and_range, then its closed form) raises no
    NotPSD and decides alike: 0.0 when x is off the range; 2^-k / |y|^2,
    with y below, when x is in it; None when undecided.

    Work is on M = 2^k m, with D = max |M_ii|, F = ||M||_F, u = 2^-53,
    eps_j of _jacobi_error, eps_v = 16 u R with R of _rotations, and
    psd_tol = rank_tol.

    - Factor: the factorization stops after r pivots, 0 < r < n:
      M + E = L L^t + S, L the n x r factor, S the computed Schur
      complement on the other indices, sigma = ||S||_F, and ||E||_2 <=
      eps_f = 2 n (n + 1) u (2 D + sigma) (inner products and square roots
      of at most n terms, as for Cholesky; W = 2 D also bounds the shifted
      diagonals below).
    - Keep test: L L^t has rank r and L L^t >= 0, so by Weyl's inequality
      lambda_{r+1}(M) <= sigma + eps_f and lambda_min(M) >= -(sigma +
      eps_f), while lambda_max(M) >= top = max M_ii. The Jacobi
      eigenvalues mu are within eps_j of those, so when 2 (sigma + eps_f +
      eps_j) < rank_tol (top - 2 eps_j), the (r+1)-th largest mu is below
      the keep gate rank_tol * mu_max and mu_min clears the NotPSD gate
      -psd_tol * max(1, |mu|max): at most r eigenvectors are kept, all
      among the top r, and every other mu has |mu| <= sigma + eps_f +
      eps_j.
    - Gap: M11, the pivot rows and columns of M, has lambda_r(M) >=
      lambda_min(M11) by Cauchy interlacing, and a Cholesky of M11 at
      s = l^2 / (2 r), l the least l_jj, that runs to completion gives
      lambda_min(M11) >= s - eps_f (its own eps_c, 2 r (r + 1) u 2 D, is
      below eps_f; the success side only, so _cholesky_pivots's from
      _LAPACK_ORDER on).
      Each of the top r mu is then at least beta = s - 2 (eps_f + eps_j),
      which leaves room for the roundings. Both branches below need
      beta > 0 and that factorization.
    - Vectors: Jacobi's eigenvectors are V = Q + dV with Q orthogonal,
      Q^t (M + dM) Q = diag(mu) + O, ||dM|| + ||O|| <= eps_j, and ||dV||_2
      <= eps_v (each rotation moves V by at most 16 u). B = Q1 + dV1 are
      the kept columns and Q2 the columns of Q of the other mu.
    - Lean: for any w, |diag(mu) Q^t w| <= |M w| + eps_j |w|, and
      |Q2^t M w| <= (max over the other mu of |mu| + eps_j) |w|.

    With L11 the pivot rows of L, y solves L11 y = x1 and g = x2 - L21 y
    is the rest of x off the factor's range, in pivot order; the route is
    chosen by |g| against the Jacobi route's gate rank_tol * max(1, |x|).
    Either route picks a w and computes |w|, |x| and M w, the last with an
    error under (n + 1) u F |w|; the bounds hold for any w, so the rounding
    of w itself does not enter them. Each test doubles or multiplies by
    1.01 what it compares, which absorbs the relative roundings of every
    computed term (each under 100 u) and the norm growth of _jacobi_error
    (under 1e-9), and adds 4 (n + 1) sqrt(n) u |x| for the rounding of the
    Jacobi route's own residual and of the products with x.

    Off the range (2 |g| >= gate), the answer is 0.0 when the test below
    passes, with w of _null_direction.
    - Lean: |B^t w| <= (|M w| + eps_j |w|) / beta + eps_v |w|, the lean of
      the kept eigenvectors into w.
    - Residual: the Jacobi route's x - B B^t x has norm at least
      (|w^t x| - |B^t w| |B| |x|) / |w|, with |B| <= 1 + eps_v.

    In the range (2 |g| < gate), the answer is 2^-k / |y|^2 when beta >
    2 rank_tol (F + eps_j) and the test below passes, with w = L11^-t y on
    the pivots (_back_solve) and 0 off them: L^t w = y, so M w = L y - E w
    and x - M w is (x1 - L11 y, g) up to E w and the roundings.
    - Kept: mu_max <= lambda_max(M) + eps_j <= F + eps_j, so the bound on
      beta puts the top r mu above the keep gate: exactly r are kept.
    - Residual: |x - B B^t x| <= |Q2^t x| + (2 eps_v + eps_v^2) |x|, and
      Q2^t x = Q2^t (x - M w) + Q2^t M w, so by the lean |Q2^t x| <=
      |x - M w| + (sigma + eps_f + 2 eps_j) |w|: the lean of the
      discarded eigenvectors into the range. The sum of these, with the
      error of M w, must stay below the gate.
    - Answer: for x = L y, x^t (L L^t)^+ x = |y|^2, the closed form on the
      factor; in the units of m it is 2^k |y|^2. The spectral route's
      answer comes from the truncated spectrum instead: for an x in the
      range the two differ in the last bits, for one within the gate but
      off the range by about the angle off it.

    The exponent range guard of _certificate applies; anything undecided
    goes to the spectral route. Squares are taken as products, so a
    Schur complement or M w that overflows (a tiny pivot next to large
    off-diagonal entries) comes out inf or nan and fails the tests
    instead of raising; past the keep test every row of L has norm below
    sqrt(2 D + sigma + eps_f), so nothing after it overflows.
    """
    _, k, diag, frob, _ = scaled
    if abs(k) > 1000:
        return None
    rows = scaled.rows
    n = len(rows)
    top = max(row[i] for i, row in enumerate(rows))
    rank_tol = tol.rank_tol
    pivots, rest, low = _pivoted_cholesky(rows, rank_tol * top / n)
    r = len(pivots)
    if not 0 < r < n:
        return None
    u = _UNIT_ROUNDOFF
    schur = [rows[i][j] - sum(map(operator.mul, low[i], low[j])) for i in rest for j in rest]
    sigma = math.sqrt(sum(map(operator.mul, schur, schur)))
    eps_f = 2.0 * n * (n + 1) * u * (2.0 * diag + sigma)
    eps_j = _jacobi_error(n, frob)
    if not 2.0 * (sigma + eps_f + eps_j) < rank_tol * (top - 2.0 * eps_j):
        return None
    least = min(low[p][j] for j, p in enumerate(pivots))
    shift = least * least / (2.0 * r)
    beta = shift - 2.0 * (eps_f + eps_j)
    block = [[rows[i][j] for j in pivots] for i in pivots]
    if not (beta > 0.0 and (_cholesky(block, shift)[1][-1] > 0.0 if r < _LAPACK_ORDER
                            else _cholesky_pivots(shift, np.array(block)) is not None)):
        return None
    xs = x.tolist()
    y = []
    for j, p in enumerate(pivots):
        lp = low[p]
        y.append((xs[p] - sum(map(operator.mul, lp, y))) / lp[j])
    g = [xs[i] - sum(map(operator.mul, low[i], y)) for i in rest]
    gn = math.sqrt(sum(map(operator.mul, g, g)))
    xn = math.sqrt(sum(map(operator.mul, xs, xs)))
    gate = rank_tol * max(1.0, xn)
    eps_v = _ROTATION_ERROR * u * _rotations(n)
    rounding = 4.0 * (n + 1) * math.sqrt(n) * u * xn
    inside = 2.0 * gn < gate
    if inside:
        if not beta > 2.0 * rank_tol * (frob + eps_j):
            return None
        w = [0.0] * n
        for p, wj in zip(pivots, _back_solve([low[p] for p in pivots], y)):
            w[p] = wj
    else:
        w = _null_direction(pivots, rest, low, g)
    wn = math.sqrt(sum(map(operator.mul, w, w)))
    mws = [sum(map(operator.mul, row, w)) for row in rows]
    noise = ((n + 1) * u * frob + eps_j) * wn
    if inside:
        rs = [xi - mi for xi, mi in zip(xs, mws)]
        rn = math.sqrt(sum(map(operator.mul, rs, rs)))
        lean = (sigma + eps_f + eps_j) * wn + noise
        off = rn + (2.0 + eps_v) * eps_v * xn
        if not 1.01 * (lean + off) + rounding < gate:
            return None
        return math.ldexp(1.0 / sum(map(operator.mul, y, y)), -k)
    wx = abs(sum(map(operator.mul, w, xs)))
    mw = math.sqrt(sum(map(operator.mul, mws, mws)))
    lean = 2.0 * ((mw + noise) / beta + eps_v * wn)
    return 0.0 if (wx - lean * xn) / wn > 2.0 * gate + rounding else None


def _ldl_inverse(low: list, pivots: list, k: int) -> np.ndarray:
    """m^-1 = 2^k L^-t D^-1 L^-1 from the factor 2^k m = L D L^t."""
    n = len(pivots)
    w = np.eye(n)                               # rows of L^-1, built top down
    for i in range(1, n):
        w[i] -= np.array(low[i]) @ w[:i]
    return np.ldexp(w.T @ (w / np.array(pivots)[:, None]), k)


def _spectral_verdict(lam: np.ndarray, strict: bool, tol: Tolerances) -> bool:
    """The Jacobi route: lambda_min >= -tau, or > tau when strict, with
    tau = psd_tol * max(1, |lambda|max) on the computed spectrum."""
    gate = tol.psd_tol * max(1.0, float(np.max(np.abs(lam))))
    return float(lam[0]) > gate if strict else float(lam[0]) >= -gate


def _certified_within(m: np.ndarray, lo: float, hi: float) -> bool:
    """True when two shifted Cholesky factorizations prove that the Jacobi
    spectrum of m (eigvalsh) lies in [lo, hi]; False when that is
    undecided or untrue.

    Work is on M = 2^k m of _scaled_rows(m), with D, F, u and eps_j of
    _certificate (F >= 1 for m != 0). The callers' ends have |lo| < 1 and
    hi < 2 (the Tolerances base is below 1), so e' = 2^k e cannot overflow
    at either end e once |k| <= 1000. With S = 1 at lo and -1 at hi, the
    success side of _certificate's bound is applied to S M: a Cholesky of
    S M - s I at s = S e' + delta, delta = 2 (eps_c + eps_j), that runs to
    completion gives lambda_min(S M) >= s - eps_c, for eps_c =
    2 n (n + 1) u W with W = D + |e'| + F (its factor 2 also takes up the
    delta in the shifted diagonals). So S times each Jacobi eigenvalue of
    M is at least S e' + eps_c + eps_j less roundings: those of s and of
    e' (an end below the normal range moves by at most 2^-1075) stay
    below eps_c >= 4 u (|e'| + 1). Scaling the eigenvalues back by 2^-k
    is monotone, so they lie in [lo, hi]. For m = 0 (F = 0) Jacobi
    returns the diagonal and both factorizations are exact. Only the
    success side enters, so from _LAPACK_ORDER on they run in LAPACK.
    """
    array, k, diag, frob, rows = _scaled_rows(m)
    if abs(k) > 1000:
        return False
    n = len(array)
    eps_j = _jacobi_error(n, frob)
    for sign, end in ((1.0, lo), (-1.0, hi)):
        end = sign * math.ldexp(end, k)
        eps_c = 2.0 * n * (n + 1) * _UNIT_ROUNDOFF * (diag + abs(end) + frob)
        shift = end + 2.0 * (eps_c + eps_j)
        if n < _LAPACK_ORDER:
            factored = rows if sign > 0.0 else [[-x for x in row] for row in rows]
            if not _cholesky(factored, shift)[1][-1] > 0.0:
                return False
        elif _cholesky_pivots(shift, array if sign > 0.0 else -array) is None:
            return False
    return True


def _order_verdict(M: SymMat, strict: bool, tol: Tolerances) -> bool:
    verdict = _certificate(_scaled_rows(M.a), relative=tol.psd_tol if strict else -tol.psd_tol)[0]
    if verdict is None:
        verdict = _spectral_verdict(eigvalsh(M), strict, tol)
    return verdict


def loewner_le(A: SymMat, B: SymMat, tol: Tolerances = DEFAULT_TOL) -> bool:
    """A <= B in the Loewner order: lambda_min(B - A) >= -psd_tol (scaled)."""
    _check_same_dim(A, B)
    return _order_verdict(B - A, False, tol)


def loewner_lt(A: SymMat, B: SymMat, tol: Tolerances = DEFAULT_TOL) -> bool:
    """A < B in the Loewner order: lambda_min(B - A) > psd_tol (scaled)."""
    _check_same_dim(A, B)
    return _order_verdict(B - A, True, tol)


def is_psd(A: SymMat, tol: Tolerances = DEFAULT_TOL) -> bool:
    return _order_verdict(A, False, tol)


def sqrt_psd(A: SymMat, tol: Tolerances = DEFAULT_TOL) -> SymMat:
    """Unique PSD square root. Eigenvalues in [-psd_tol, 0) are clamped to 0."""
    spec = eigh(A)
    lam = spec.eigenvalues
    if not _spectral_verdict(lam, False, tol):
        raise NotPSD(f"matrix has eigenvalue {lam[0]:.3e} below -psd_tol")
    clamped = np.sqrt(np.clip(lam, 0.0, None))
    return SymMat((spec.eigenvectors * clamped) @ spec.eigenvectors.T)


def inv(A: SymMat, tol: Tolerances = DEFAULT_TOL) -> SymMat:
    """Inverse; Singular when the smallest |eigenvalue| falls at or below
    rank_tol * |lambda|_max.

    A matrix that _definite_ldl certifies positive definite is inverted
    through LDL^t; every other input, a negative definite one included,
    through the spectral decomposition, which also gives Singular its
    verdict. TooLarge, with no warning, when the inverse does not fit in
    a double."""
    factor = _definite_ldl(_scaled_rows(A.a), tol)
    if factor is None:
        spec = eigh(A)
        lam = spec.eigenvalues
        if float(np.min(np.abs(lam))) <= tol.rank_tol * float(np.max(np.abs(lam))):
            raise Singular("matrix is singular within rank tolerance")
    with np.errstate(over="ignore", invalid="ignore"):
        entries = (_ldl_inverse(*factor) if factor is not None
                   else (spec.eigenvectors / lam) @ spec.eigenvectors.T)
    if not np.isfinite(entries).all():
        raise TooLarge("the inverse does not fit in a double")
    return SymMat(entries)


def apply_fn(A: SymMat, f: Callable[[float], float]) -> SymMat:
    """Scalar functional calculus V diag(f(lam)) V^t.

    DomainError when f raises or produces a non-finite value at some
    eigenvalue.
    """
    spec = eigh(A)
    mapped = []
    for level in spec.eigenvalues.tolist():
        try:
            value = float(f(level))
        except (ArithmeticError, ValueError) as exc:
            raise DomainError(f"function undefined at eigenvalue {level!r}: {exc}") from exc
        if not math.isfinite(value):
            raise DomainError(f"function non-finite at eigenvalue {level!r}")
        mapped.append(value)
    return SymMat((spec.eigenvectors * np.array(mapped)) @ spec.eigenvectors.T)


def _scaled_pinv(A: SymMat, k: int, tol: Tolerances) -> Tuple[SymMat, Callable[[np.ndarray], bool], float]:
    """pinv_and_range with the pseudo-inverse of 2^k A in place of A's,
    and the largest kept eigenvalue of 2^k A (0.0 when none is kept): the
    kept eigenvalues are scaled by 2^k before they are inverted, so a k
    that brings A's entries near 1 keeps every entry of the result in
    range. It is 2^-k times A's pseudo-inverse, bit for bit, whenever
    nothing over- or underflows."""
    spec = eigh(A)
    lam = spec.eigenvalues
    if not _spectral_verdict(lam, False, tol):
        raise NotPSD(f"matrix has eigenvalue {lam[0]:.3e} below -psd_tol")
    clamped = np.clip(lam, 0.0, None)
    lam_max = float(np.max(clamped))
    keep = clamped > tol.rank_tol * lam_max
    basis = spec.eigenvectors[:, keep]
    kept = np.ldexp(clamped[keep], k)
    pinv = SymMat((basis / kept) @ basis.T)     # zero when nothing is kept
    top = float(kept[-1]) if kept.size else 0.0

    def in_range(x) -> bool:
        vec = np.asarray(x, dtype=float)
        if vec.shape != (A.n,):
            raise DimensionMismatch(f"expected a vector of length {A.n}, got shape {vec.shape}")
        residual = vec - basis @ (basis.T @ vec)
        return float(np.linalg.norm(residual)) <= tol.rank_tol * max(1.0, float(np.linalg.norm(vec)))

    return pinv, in_range, top


def pinv_and_range(A: SymMat, tol: Tolerances = DEFAULT_TOL) -> Tuple[SymMat, Callable[[np.ndarray], bool]]:
    """Moore-Penrose inverse of a PSD matrix plus a range-membership test.

    The spectrum is truncated at rank_tol * lambda_max; the predicate
    reports whether a vector's residual off the retained eigenspace is
    within rank_tol (relative to max(1, ||x||)). The inverse is formed at
    the power of two of _scaled_rows and scaled back; TooLarge when it
    does not fit in a double (a kept eigenvalue near the bottom of the
    range).
    """
    k = _scaled_rows(A.a).k
    pinv, in_range, _ = _scaled_pinv(A, k, tol)
    with np.errstate(over="ignore"):
        entries = np.ldexp(pinv.a, k)
    if not np.isfinite(entries).all():
        raise TooLarge("the pseudo-inverse does not fit in a double")
    return SymMat(entries), in_range


def spectral_norm(A: SymMat) -> float:
    return float(np.max(np.abs(eigvalsh(A))))


def principal_angle(U, W) -> float:
    """Largest principal angle (radians) between the column spans of U and W.

    Columns are orthonormalized internally; the subspaces must have equal
    dimension.
    """
    Un = _orthonormalize(_as_columns(U))
    Wn = _orthonormalize(_as_columns(W))
    if Un.shape != Wn.shape:
        raise DimensionMismatch("subspaces have different dimensions")
    G = Un.T @ Wn
    lam = eigvalsh(SymMat(G.T @ G))
    cos2 = float(np.clip(np.min(lam), 0.0, 1.0))
    return math.acos(math.sqrt(cos2))


def _as_columns(M) -> np.ndarray:
    arr = np.asarray(M, dtype=float)
    return arr[:, None] if arr.ndim == 1 else arr


def _orthonormalize(M: np.ndarray) -> np.ndarray:
    """Gram-Schmidt on columns, dropping nothing: Singular when a column is
    zero or within 1e-12 of the span of those before it, relative to its
    own norm. Each column is first scaled by the power of two that brings
    its largest entry into [1/2, 1), as RankOneProjection does, so its
    products neither overflow nor underflow, and a 2^j multiple of a column
    gives the same bits."""
    M = _as_columns(M)
    cols = []
    for j in range(M.shape[1]):
        top = float(np.abs(M[:, j]).max(initial=0.0))
        if top == 0.0:
            raise Singular("columns are numerically dependent")
        w = np.ldexp(M[:, j], -math.frexp(top)[1])
        size = float(np.linalg.norm(w))
        for c in cols:
            w -= c * float(c @ w)
        norm = float(np.linalg.norm(w))
        if norm <= 1e-12 * size:
            raise Singular("columns are numerically dependent")
        cols.append(w / norm)
    return np.column_stack(cols)


def complete_basis(cols: np.ndarray) -> np.ndarray:
    """Deterministically extend orthonormal columns to a full basis of R^n
    by sweeping the standard basis.

    Singular for more columns than rows; PreconditionViolated for columns
    that are not orthonormal, entrywise to 1e-8 in C^t C - I. For
    orthonormal columns the sweep completes: a unit vector it skips lies
    within 1e-8 of the span of the vectors already kept, and the squared
    distances of all n of them from an s-dimensional span sum to n - s."""
    n, r = cols.shape
    if r > n:
        raise Singular("failed to complete the basis")
    if not np.allclose(cols.T @ cols, np.eye(r), rtol=0.0, atol=1e-8):
        raise PreconditionViolated("columns must be orthonormal")
    out = [cols[:, j].copy() for j in range(r)]
    for i in range(n):
        if len(out) == n:
            break
        w = np.zeros(n)
        w[i] = 1.0
        for c in out:
            w -= c * float(c @ w)
        norm = float(np.linalg.norm(w))
        if norm > 1e-8:
            out.append(w / norm)
    return np.column_stack(out)
