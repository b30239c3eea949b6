"""Dense symmetric-matrix kernel: spectral decomposition, Loewner-order
predicates, PSD square root, inverse/pseudoinverse, and scalar functional
calculus.

Every operation here is a pure function over immutable values. The
eigensolver is a hand-rolled cyclic Jacobi iteration, adequate for the
small dimensions this package targets; nothing in this module calls into
LAPACK. Order predicates that only need the sign of lambda_min minus a
gate are first decided by a shifted Cholesky certificate (_certificate)
and fall back to the Jacobi spectrum inside its undecided band; the same
factorization certifies a generator regular (_certify_regular) and, without
the max(1, .) floor of its gate, a matrix definite within rank tolerance,
which inv and the strength closed form then factor LDL^t instead of
diagonalizing (_definite_ldl). A factorization that refutes an order gives
a direction of negative curvature (_negative_curvature), from which
effects.strength_witness builds its witness.
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
    Singular,
)

_MAX_SWEEPS = 100
_EIG_TOL = 1e-14  # eig_tol: Jacobi stops at off-diagonal mass _EIG_TOL * ||A||_F
_UNIT_ROUNDOFF = 2.0 ** -53
# Backward error of one two-sided plane rotation, in units of
# u * ||A||_F (Higham, Accuracy and Stability, 2nd ed., ch. 19).
_ROTATION_ERROR = 16.0


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by the whole package.

    psd_tol      slack below zero accepted when testing semidefiniteness;
                 applied relative to the spectral scale max(1, |lambda|_max).
    rank_tol     relative cutoff for rank decisions and spectral truncation.
    equality_tol relative threshold for treating two matrices as equal,
                 10 * rank_tol (read-only).

    psd_tol and rank_tol may not be below _EIG_TOL: the Jacobi spectrum
    resolves eigenvalues only to about _EIG_TOL * ||A||_F, so a finer gate
    would decide order and rank on rounding noise.
    """

    psd_tol: float = 1e-9
    rank_tol: float = 1e-9

    def __post_init__(self):
        for name in ("psd_tol", "rank_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if min(self.psd_tol, self.rank_tol) < _EIG_TOL:
            raise ValueError(f"psd_tol and rank_tol must not be below eig_tol ({_EIG_TOL:g})")

    @property
    def equality_tol(self) -> float:
        return 10.0 * self.rank_tol


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
        return SymMat(self.a + other.a)

    def __sub__(self, other: "SymMat") -> "SymMat":
        return SymMat(self.a - other.a)

    def __neg__(self) -> "SymMat":
        return SymMat(-self.a)

    def __mul__(self, scalar: float) -> "SymMat":
        return SymMat(self.a * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"SymMat({self.a.tolist()!r})"


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues (ascending) and an orthonormal eigenvector column set."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_same_dim(A: SymMat, B: SymMat):
    if A.n != B.n:
        raise DimensionMismatch(f"dimensions differ: {A.n} vs {B.n}")


class _Scaled(NamedTuple):
    """2^k m as rows of Python lists, with D = max |m_ii| and F = ||m||_F
    in those units."""

    rows: list
    k: int
    diag: float
    frob: float

    def negated(self) -> "_Scaled":
        """-m: the negated rows, with the same k, D and F."""
        return self._replace(rows=[[-x for x in row] for row in self.rows])


def _scaled_rows(m: np.ndarray) -> _Scaled:
    """m scaled by 2^k, with k chosen so that max |2^k m_ij| lies in
    [1, 2) (k = 0 for the zero matrix).

    Scaling by a power of two is exact, so every computation homogeneous
    in m gives the same bits on the scaled copy, while sums of squares of
    the entries can neither overflow nor underflow.
    """
    rows = m.tolist()
    top = max(map(abs, [x for row in rows for x in row]))
    k = 1 - math.frexp(top)[1] if top else 0
    if k:
        rows = np.ldexp(m, k).tolist()
    diag = max(abs(row[i]) for i, row in enumerate(rows))
    frob = math.sqrt(sum(x * x for row in rows for x in row))
    return _Scaled(rows, k, diag, frob)


def _jacobi(m: np.ndarray, want_vectors: bool):
    """Cyclic Jacobi sweeps; returns (eigenvalues ascending, V or None).

    Runs on plain Python lists: at the target dimensions this beats
    per-element numpy access by a wide margin. The sweeps run on the
    power-of-two scaled copy of _scaled_rows and the eigenvalues are
    scaled back, so the result is exact-scale equivariant.
    """
    n = m.shape[0]
    a, power, _, scale = _scaled_rows(m)
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)] if want_vectors else None

    if scale == 0.0 or n == 1:
        values = [a[i][i] for i in range(n)]
    else:
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
    lam = np.ldexp([values[i] for i in order], -power)
    if not want_vectors:
        return lam, None
    vec = np.array(v)[:, order]
    return lam, vec


def eigh(A: SymMat) -> Spectrum:
    """Full spectral decomposition A = V diag(lam) V^t, eigenvalues ascending."""
    lam, vec = _jacobi(A.a, want_vectors=True)
    lam.flags.writeable = False
    vec.flags.writeable = False
    return Spectrum(eigenvalues=lam, eigenvectors=vec)


def eigvalsh(A: SymMat) -> np.ndarray:
    """Eigenvalues only (ascending); skips eigenvector accumulation."""
    return _jacobi(A.a, want_vectors=False)[0]


def _psd_threshold(lam: np.ndarray, tol: Tolerances) -> float:
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    return tol.psd_tol * max(1.0, scale)


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
    i = len(top)
    y = [0.0] * i
    for j in range(i - 1, -1, -1):
        y[j] = (-l[j] - sum(top[r][j] * y[r] for r in range(j + 1, i))) / top[j][j]
    x = y + [1.0] + [0.0] * (n - i - 1)
    size = math.hypot(*x)                       # at least 1, from x_i
    return np.array(x) / size if math.isfinite(size) else None


def _gate_band(scaled: _Scaled, fixed: float, relative: float,
               floor: bool = True) -> Optional[Tuple[float, float, float]]:
    """(g_lo, g_hi, delta) of _certificate for the scaled matrix, or None
    when the exponent range rules the certificate out."""
    rows, k, diag, frob = scaled
    if abs(k) > 1000:
        return None
    n = len(rows)
    one = math.ldexp(1.0, k)
    base = fixed * one
    unit = one if floor else 0.0
    ends = (base + relative * max(unit, diag, frob / math.sqrt(n)),
            base + relative * max(unit, frob))
    g_lo, g_hi = min(ends), max(ends)
    u = _UNIT_ROUNDOFF
    eps_c = 2.0 * n * (n + 1) * u * (diag + max(abs(g_lo), abs(g_hi)) + frob)
    rotations = _MAX_SWEEPS * n * (n - 1) / 2.0
    eps_j = (_EIG_TOL + _ROTATION_ERROR * u * rotations) * frob
    delta = 2.0 * (eps_c + (1.0 + abs(relative)) * eps_j)
    if not math.isfinite(g_lo - g_hi - delta):
        return None
    return g_lo, g_hi, delta


def _certificate(scaled: _Scaled, fixed: float = 0.0, relative: float = 0.0,
                 refute: bool = True, floor: bool = True) -> Tuple[Optional[bool], Optional[list]]:
    """(verdict, L): decide lambda_min(m) >= g by shifted Cholesky
    factorizations, where g = fixed + relative * max(1, |lambda|max), or
    g = fixed + relative * |lambda|max when `floor` is False; None when
    undecided.

    A True or False verdict is the one the Jacobi route (eigvalsh, then
    the same comparison on the computed spectrum) returns. Work is on the
    rows 2^k m of scaled = _scaled_rows(m); below, every quantity is in
    those units, with F = ||m||_F, D = max |m_ii| and u = 2^-53.

    - |lambda|max lies in [L, U], L = max(D, F / sqrt(n)), U = F, so g lies
      in [g_lo, g_hi] from those two ends.
    - Cholesky of H = fl(m - s I) is a two-sided definiteness test
      (Higham, Accuracy and Stability, 2nd ed., ch. 10: its backward error
      and Demmel's condition for success): success gives
      lambda_min(m) >= s - eps_c, failure gives lambda_min(m) <= s + eps_c,
      eps_c = 2 n (n + 1) u W, where W = D + max(|g_lo|, |g_hi|) + F bounds
      every shifted diagonal.
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

    L is the factor of the refuting factorization when the verdict is
    False (_negative_curvature turns it into a direction), else None.
    """
    band = _gate_band(scaled, fixed, relative, floor)
    if band is None:
        return None, None
    g_lo, g_hi, delta = band
    if _cholesky(scaled.rows, g_hi + delta)[1][-1] > 0.0:
        return True, None
    if refute:
        factor, pivots = _cholesky(scaled.rows, g_lo - delta)
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

    One factorization decides both halves. With relative = rank_tol^2 and
    the band of _certificate (scaled units, G_s = 2^k G), Cholesky of
    G_s - s I at s = g_hi + delta runs to completion with pivots p_i.

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
      prod(l_ii^2), and l_ii = fl(sqrt(p_i)) gives l_ii^2 >= p_i (1 - u)^2.
      The same inequality gives lam_s,i >= s - eps_c - eps_j >= delta / 2
      >= _EIG_TOL (delta >= 2 eps_j, F >= 1). The test below passes only
      when n (1 - k) + 93.02 > 0, k < 94.02, as the pivots lie below 2 and
      -2 log2(rank_tol) <= 93.02; there 2^-k delta / 2 is a normal number,
      so the unscaled lam_i = 2^-k lam_s,i are exact and
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
    band = _gate_band(scaled, 0.0, tol.rank_tol ** 2)
    if band is None:
        return False
    _, g_hi, delta = band
    pivots = _cholesky(scaled.rows, g_hi + delta)[1]
    if not pivots[-1] > 0.0:
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
    proves lambda_min(2^k m) > eps_c at shift 0, the condition under
    which the unshifted factorization runs to completion."""
    if not _certificate(scaled, relative=tol.rank_tol, refute=False, floor=False)[0]:
        return None
    factor = _ldl(scaled.rows)
    return None if factor is None else (*factor, scaled.k)


def _reciprocal_form(m: np.ndarray, x: np.ndarray, tol: Tolerances) -> Optional[float]:
    """1 / (x^t m^-1 x) by an LDL^t solve when _definite_ldl certifies m;
    None otherwise. With L y = x and 2^k m = L D L^t,
    x^t m^-1 x = 2^k sum(y_i^2 / d_i)."""
    factor = _definite_ldl(_scaled_rows(m), tol)
    if factor is None:
        return None
    low, pivots, k = factor
    y = []
    for xi, li in zip(x.tolist(), low):
        y.append(xi - sum(map(operator.mul, li, y)))
    q = math.fsum(yi * yi / di for yi, di in zip(y, pivots))
    return math.ldexp(1.0 / q, -k)


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
    gate = _psd_threshold(lam, tol)
    return float(lam[0]) > gate if strict else float(lam[0]) >= -gate


def _certified_within(m: np.ndarray, lo: float, hi: float) -> bool:
    """True when the certificate proves the computed spectrum of m lies in
    [lo, hi]; False when that is undecided or untrue."""
    scaled = _scaled_rows(m)
    return bool(_certificate(scaled, fixed=lo, refute=False)[0]
                and _certificate(scaled.negated(), fixed=-hi, refute=False)[0])


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
    if float(lam[0]) < -_psd_threshold(lam, tol):
        raise NotPSD(f"matrix has eigenvalue {lam[0]:.3e} below -psd_tol")
    clamped = np.sqrt(np.clip(lam, 0.0, None))
    return SymMat((spec.eigenvectors * clamped) @ spec.eigenvectors.T)


def inv(A: SymMat, tol: Tolerances = DEFAULT_TOL) -> SymMat:
    """Inverse; Singular when the smallest |eigenvalue| falls at or below
    rank_tol * |lambda|_max.

    A matrix that _definite_ldl certifies, or whose negative it
    certifies, is inverted through LDL^t (as -inv(-A) when negative
    definite); every other input through the spectral decomposition,
    which also gives Singular its verdict."""
    scaled = _scaled_rows(A.a)
    for sign in (1.0, -1.0):
        factor = _definite_ldl(scaled, tol)
        if factor is not None:
            return SymMat(sign * _ldl_inverse(*factor))
        scaled = scaled.negated()
    spec = eigh(A)
    lam = spec.eigenvalues
    maxabs = float(np.max(np.abs(lam)))
    if maxabs == 0.0 or float(np.min(np.abs(lam))) <= tol.rank_tol * maxabs:
        raise Singular("matrix is singular within rank tolerance")
    return SymMat((spec.eigenvectors / lam) @ spec.eigenvectors.T)


def apply_fn(A: SymMat, f: Callable[[float], float]) -> SymMat:
    """Scalar functional calculus V diag(f(lam)) V^t.

    DomainError when f raises or produces a non-finite value at some
    eigenvalue.
    """
    spec = eigh(A)
    mapped = []
    for level in spec.eigenvalues:
        try:
            value = float(f(float(level)))
        except (ArithmeticError, ValueError) as exc:
            raise DomainError(f"function undefined at eigenvalue {level!r}: {exc}") from exc
        if not math.isfinite(value):
            raise DomainError(f"function non-finite at eigenvalue {level!r}")
        mapped.append(value)
    return SymMat((spec.eigenvectors * np.array(mapped)) @ spec.eigenvectors.T)


def pinv_and_range(A: SymMat, tol: Tolerances = DEFAULT_TOL) -> Tuple[SymMat, Callable[[np.ndarray], bool]]:
    """Moore-Penrose inverse of a PSD matrix plus a range-membership test.

    The spectrum is truncated at rank_tol * lambda_max; the predicate
    reports whether a vector's residual off the retained eigenspace is
    within rank_tol (relative to max(1, ||x||)).
    """
    spec = eigh(A)
    lam = spec.eigenvalues
    if float(lam[0]) < -_psd_threshold(lam, tol):
        raise NotPSD(f"matrix has eigenvalue {lam[0]:.3e} below -psd_tol")
    clamped = np.clip(lam, 0.0, None)
    lam_max = float(np.max(clamped)) if clamped.size else 0.0
    keep = clamped > tol.rank_tol * lam_max if lam_max > 0.0 else np.zeros_like(clamped, dtype=bool)
    basis = spec.eigenvectors[:, keep]
    if basis.shape[1] > 0:
        pinv = SymMat((basis / clamped[keep]) @ basis.T)
    else:
        pinv = SymMat.zero(A.n)
    n = A.n
    rank_tol = tol.rank_tol

    def in_range(x) -> bool:
        vec = np.asarray(x, dtype=float)
        if vec.shape != (n,):
            raise DimensionMismatch(f"expected a vector of length {n}, got shape {vec.shape}")
        residual = vec - basis @ (basis.T @ vec)
        return float(np.linalg.norm(residual)) <= rank_tol * max(1.0, float(np.linalg.norm(vec)))

    return pinv, in_range


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
    """Gram-Schmidt on columns, dropping nothing (raises if rank-deficient)."""
    M = _as_columns(M)
    cols = []
    for j in range(M.shape[1]):
        w = M[:, j].copy()
        for c in cols:
            w -= c * float(c @ w)
        norm = float(np.linalg.norm(w))
        if norm <= 1e-12:
            raise Singular("columns are numerically dependent")
        cols.append(w / norm)
    return np.column_stack(cols)


def complete_basis(cols: np.ndarray) -> np.ndarray:
    """Deterministically extend orthonormal columns to a full basis of R^n
    by sweeping the standard basis."""
    n = cols.shape[0]
    out = [cols[:, j].copy() for j in range(cols.shape[1])]
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
    if len(out) != n:
        raise Singular("failed to complete the basis")
    return np.column_stack(out)
