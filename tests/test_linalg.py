"""Kernel tests: spectral decomposition, order predicates, and spectral
calculus, cross-checked against numpy.linalg as the independent oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loewner import linalg
from loewner.automorphisms import EffectAutomorphism
from loewner.errors import (
    DimensionMismatch,
    DomainError,
    NonConvergence,
    NotPSD,
    Singular,
    TooLarge,
)
from loewner.intervals import Congruence, Translate
from loewner.linalg import DEFAULT_TOL, SymMat, Tolerances


def random_symmetric(rng, n):
    return SymMat(rng.standard_normal((n, n)))


class TestSymMat:
    def test_symmetrizes_on_construction(self):
        m = SymMat([[1.0, 2.0], [0.0, 3.0]])
        assert np.allclose(m.a, [[1.0, 1.0], [1.0, 3.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            SymMat([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SymMat([[1.0, np.nan], [np.nan, 1.0]])

    def test_entries_frozen(self):
        m = SymMat.identity(2)
        with pytest.raises(ValueError):
            m.a[0, 0] = 5.0

    def test_converts_to_an_array_with_no_warning(self):
        m = SymMat([[1.0, 2.0], [2.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            view = np.asarray(m)
            copy = np.array(m)
            assert np.array(m, copy=False) is m.a
            assert np.asarray(m, dtype=np.float32).dtype == np.float32
        assert view is m.a
        assert copy is not m.a and np.array_equal(copy, m.a)
        copy[0, 0] = 5.0
        assert m.a[0, 0] == 1.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_always_exactly_symmetric(self, values):
        m = SymMat(np.array(values).reshape(2, 2))
        assert np.array_equal(m.a, m.a.T)

    def test_arithmetic_results(self):
        a = SymMat([[1.0, 0.5], [0.5, 2.0]])
        b = SymMat([[0.25, -1.0], [-1.0, 3.0]])
        assert np.array_equal((a + b).a, a.a + b.a)
        assert np.array_equal((a - b).a, a.a - b.a)
        assert np.array_equal((-a).a, -a.a)
        assert np.array_equal((a * 3.0).a, 3.0 * a.a)
        assert np.array_equal((3.0 * a).a, 3.0 * a.a)

    def test_symmetric_input_at_the_top_of_the_range_is_stored_exactly(self):
        # (M + M^t) / 2 would overflow: 2 * 1.7e308 is above the double range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = SymMat(np.diag([1.7e308, 1.0]))
        assert np.array_equal(m.a, np.diag([1.7e308, 1.0]))

    def test_asymmetric_input_whose_average_overflows_is_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                SymMat([[1.0, 1.7e308], [1e308, 1.0]])

    def test_sum_and_difference_that_overflow_are_too_large(self):
        big, small = SymMat([[1e308]]), SymMat([[-1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TooLarge):
                big + big
            with pytest.raises(TooLarge):
                big - small
            assert (big + small).a[0, 0] == 0.0

    def test_a_sum_or_difference_across_dimensions_is_a_mismatch(self):
        one, two, three = SymMat([[1.0]]), SymMat(np.eye(2)), SymMat(np.eye(3))
        # numpy would broadcast the 1 x 1 operand into [[2, 1], [1, 2]]
        with pytest.raises(DimensionMismatch, match="^dimensions differ: 1 vs 2$"):
            one + two
        with pytest.raises(DimensionMismatch, match="^dimensions differ: 2 vs 1$"):
            Translate(shift=one).apply(two)
        # numpy would raise its own ValueError
        with pytest.raises(DimensionMismatch, match="^dimensions differ: 2 vs 3$"):
            two + three
        with pytest.raises(DimensionMismatch, match="^dimensions differ: 2 vs 3$"):
            two - three

    def test_a_product_that_overflows_is_too_large(self):
        m = SymMat([[1e300, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TooLarge):
                m * 1e10
            with pytest.raises(TooLarge):
                1e10 * m
            assert (m * 1e-10).a[0, 0] == 1e290

    @pytest.mark.parametrize("scalar", [np.nan, np.inf, -np.inf])
    def test_a_product_with_a_scalar_that_is_not_finite_is_refused(self, scalar):
        m = SymMat([[1.0, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                m * scalar
            with pytest.raises(ValueError, match="finite"):
                scalar * m

    def test_doubling_keeps_the_bits_of_the_entrywise_product(self):
        rng = np.random.default_rng(53)
        for n in (1, 3, 12):
            g = np.ldexp(rng.standard_normal((n, n)), rng.integers(-1070, 1020, (n, n)))
            m = SymMat((g + g.T) / 2.0)
            for doubled in (m * 2.0, 2.0 * m):
                assert doubled.a.tobytes() == SymMat(m.a * 2.0).a.tobytes()
                assert not doubled.a.flags.writeable


class TestOverflowRule:
    """A matrix the package computes that does not fit in a double raises
    TooLarge, with no warning (pyproject.toml turns a RuntimeWarning into
    an error): never numpy's broadcast, its overflow or SymMat's
    ValueError."""

    @staticmethod
    def scaled(rng, g, low=-1000, high=1023):
        """g at a power of two 2^j, j in [low, high], half the draws at
        high: its largest entry first brought into [1, 2), so that every j
        keeps it finite."""
        j = int(rng.integers(low, high + 1)) if rng.random() < 0.5 else high
        return np.ldexp(g, j - math.frexp(float(np.abs(g).max()))[1] + 1)

    @staticmethod
    def outcome(call) -> str:
        try:
            out = call()
        except TooLarge:
            return "too large"
        assert isinstance(out, SymMat) and np.isfinite(out.a).all()
        return "finite"

    @pytest.mark.parametrize("n", [2, 3, 8, 12])
    def test_every_computed_matrix_is_finite_or_too_large(self, n):
        rng = np.random.default_rng(1000 + n)
        seen = {}
        for _ in range(32):
            g, h, c = (rng.standard_normal((n, n)) for _ in range(3))
            # y is near +-x up to scale, so a sum or a difference at the
            # top of the range overflows
            sign = rng.choice([-1.0, 1.0])
            x = SymMat(self.scaled(rng, g + g.T))
            y = SymMat(self.scaled(rng, sign * (g + g.T) + 0.01 * (h + h.T)))
            psd = SymMat(self.scaled(rng, g @ g.T))
            # Congruence's SVD gate refuses a generator whose least
            # singular value is below 1e-12 (out of this rule's scope)
            t = self.scaled(rng, c + 3.0 * np.eye(n), -30, 500)
            scalar = float(self.scaled(rng, rng.uniform(1.0, 2.0, 1))[0])
            level = float(self.scaled(rng, rng.uniform(1.0, 2.0, 1))[0])
            calls = {
                "+": lambda: x + y,
                "-": lambda: x - y,
                "*": lambda: x * scalar,
                "inv": lambda: linalg.inv(x),
                "pinv_and_range": lambda: linalg.pinv_and_range(psd)[0],
                "apply_fn": lambda: linalg.apply_fn(x, lambda lam: level * math.tanh(lam)),
                "Congruence.apply": lambda: Congruence(generator=t).apply(x),
                "Translate.apply": lambda: Translate(shift=y).apply(x),
            }
            for name, call in calls.items():
                seen.setdefault(name, set()).add(self.outcome(call))
        # the draws reach past the top of the range wherever a sum or a
        # congruence can take them
        for name in ("+", "-", "*", "Congruence.apply", "Translate.apply"):
            assert seen[name] == {"finite", "too large"}, name

    def test_a_congruence_past_the_range_is_too_large(self):
        with pytest.raises(TooLarge):
            Congruence(generator=1e200 * np.eye(2)).apply(SymMat.identity(2))

    def test_the_identity_affine_map_returns_its_input_at_the_top_of_the_range(self):
        # X -> T X T^t + S with T = I, S = 0: a Congruence, then a Translate
        x = SymMat(np.diag([1.7e308, 1.0]))
        image = Translate(shift=SymMat.zero(2)).apply(Congruence(generator=np.eye(2)).apply(x))
        assert image.a.tobytes() == x.a.tobytes()

    @pytest.mark.parametrize("value", [1.7976931348623157e308, -1.7976931348623157e308])
    def test_a_function_at_the_largest_double_is_finite_or_too_large(self, value):
        rng = np.random.default_rng(97)
        for _ in range(300):
            g = rng.standard_normal((5, 5))
            self.outcome(lambda: linalg.apply_fn(SymMat(g + g.T), lambda lam: value))

    @pytest.mark.parametrize("n", [3, 12])
    @pytest.mark.parametrize("predicate", [linalg.loewner_le, linalg.loewner_lt])
    def test_an_order_whose_difference_overflows_is_too_large(self, predicate, n):
        # B - A = -2 a holds -3.4e308 off the diagonal, past the double
        # range, on the list scaling (n = 3) and the array one (n = 12)
        a = np.eye(n)
        a[0, 1] = a[1, 0] = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TooLarge, match="^matrix entries overflow the double range$"):
                predicate(SymMat(a), SymMat(-a))


class TestFinite:
    """linalg._finite, the finiteness test of SymMat() and _computed,
    answers as np.isfinite(m).all(): by a builtin sum below
    _LAPACK_ORDER, by numpy from there and wherever the sum is not
    finite."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_agrees_with_numpy(self, n):
        rng = np.random.default_rng(400 + n)
        spread = np.ldexp(rng.standard_normal((n, n)), rng.integers(-1074, 1020, (n, n)))
        # finite entries whose sum overflows (to inf, or to nan past an
        # opposite inf) take numpy's test and pass it
        bases = [spread, np.full((n, n), -0.0), np.full((n, n), 1.7e308),
                 np.full((n, n), -1.7e308)]
        cases = list(bases)
        for base in bases:
            for i in range(n * n):
                for bad in (np.inf, -np.inf, np.nan):
                    m = base.copy()
                    m.flat[i] = bad
                    cases.append(m)
        for m in cases:
            assert linalg._finite(m) is bool(np.isfinite(m).all())
        assert sum(linalg._finite(m) for m in cases) == len(bases)

    def test_finite_entries_whose_sum_overflows_are_accepted(self):
        m = SymMat([[1.7e308] * 2] * 2)
        assert np.array_equal(m.a, np.full((2, 2), 1.7e308))
        assert SymMat([[-0.0]]).a.tobytes() == np.array([[-0.0]]).tobytes()


class TestSweepCap:
    @staticmethod
    def spectra(rng, n):
        """Random, graded 10^U(-12, 0), 0/1 and clustered spectra in a
        random frame, and a Gaussian symmetric matrix."""
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        for lam in (10.0 ** rng.uniform(-12.0, 0.0, n), rng.integers(0, 2, n).astype(float),
                    1.0 + 1e-8 * rng.standard_normal(n)):
            m = (q * lam) @ q.T
            yield SymMat((m + m.T) / 2.0)
        yield random_symmetric(rng, n)

    def test_spectra_converge_in_half_the_cap(self, monkeypatch):
        # The error terms of the certificates charge _MAX_SWEEPS sweeps; a
        # kernel change that needs more than half of them fails here.
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", linalg._MAX_SWEEPS // 2)
        rng = np.random.default_rng(43)
        for n in (2, 4, 8, 16, 32, 44):
            for m in self.spectra(rng, n):
                linalg.eigvalsh(m)
                if n <= 16:
                    linalg.eigh(m)

    def test_past_the_cap_is_non_convergence(self, monkeypatch):
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        m = random_symmetric(np.random.default_rng(47), 4)
        with pytest.raises(NonConvergence, match="did not converge in 1 sweeps"):
            linalg.eigvalsh(m)
        assert linalg.eigvalsh(SymMat.diagonal([2.0, 1.0])).tolist() == [1.0, 2.0]


class TestEigh:
    def test_identity(self):
        spec = linalg.eigh(SymMat.identity(3))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0])
        assert np.allclose(spec.eigenvectors, np.eye(3))

    def test_diagonal(self):
        spec = linalg.eigh(SymMat.diagonal([1.0 / 3.0, 1.0]))
        assert np.allclose(spec.eigenvalues, [1.0 / 3.0, 1.0])

    def test_two_by_two_hand_values(self):
        # roots of (1 - lam)^2 - 1/4
        spec = linalg.eigh(SymMat([[1.0, 0.5], [0.5, 1.0]]))
        assert np.allclose(spec.eigenvalues, [0.5, 1.5], atol=1e-14)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(11)
        cases = [random_symmetric(rng, n) for n in range(1, 9) for _ in range(10)]
        cases += [m for n in (12, 16, 32) for m in TestSweepCap.spectra(rng, n)]
        for m in cases:
            spec = linalg.eigh(m)
            rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
            norm = np.linalg.norm(m.a)
            assert np.linalg.norm(rebuilt - m.a) <= 1e-10 * (1.0 + norm)
            assert np.linalg.norm(spec.eigenvectors.T @ spec.eigenvectors - np.eye(m.n)) <= 1e-12

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
               st.floats(-1e6, 1e6).filter(lambda v: v == 0.0 or abs(v) >= 1e-6),
               min_size=n * n, max_size=n * n)),
           st.integers(-600, 600))
    @settings(max_examples=60, deadline=None)
    def test_power_of_two_scaling_is_exact(self, values, k):
        n = math.isqrt(len(values))
        m = SymMat(np.array(values).reshape(n, n))
        c = 2.0 ** k
        assert np.array_equal(linalg.eigvalsh(SymMat(c * m.a)), c * linalg.eigvalsh(m))

    def test_a_spectrum_past_the_range_is_too_large(self):
        # the eigenvalue 2e308 does not fit in a double
        m = SymMat(np.full((2, 2), 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (linalg.eigvalsh, linalg.eigh, linalg.is_psd):
                with pytest.raises(TooLarge, match="does not fit"):
                    call(-m)

    def test_extreme_scales_keep_the_spectrum(self):
        for scale in (1e200, 1e-200):
            lam = linalg.eigvalsh(SymMat([[0.0, scale], [scale, 0.0]]))
            assert np.array_equal(lam, [-scale, scale])

    def test_matches_lapack(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 7):
            for _ in range(25):
                m = random_symmetric(rng, n)
                ours = linalg.eigvalsh(m)
                theirs = np.linalg.eigvalsh(m.a)
                assert np.allclose(ours, theirs, atol=1e-11)
        # at the api-large sizes and past them, within the _jacobi_error
        # that every certificate charges, plus 4 n u F for LAPACK's own
        for n in (12, 16, 32):
            for m in TestSweepCap.spectra(rng, n):
                frob = float(np.linalg.norm(m.a))
                bound = linalg._jacobi_error(n, frob) + 4.0 * n * linalg._UNIT_ROUNDOFF * frob
                ours = linalg.eigvalsh(m)
                assert np.max(np.abs(ours - np.linalg.eigvalsh(m.a))) <= bound
                assert np.array_equal(linalg.eigh(m).eigenvalues, ours)


def row_wise_scaled_rows(m):
    """_scaled_rows computed row by row, as (array, k, D, F, rows): max
    |m_ij| from abs, and the squares added one after another in row
    order, spelled out as a loop (the builtin sum is compensated from
    Python 3.12 on). The bits both of its paths must keep."""
    rows = m.tolist()
    top = max(abs(x) for row in rows for x in row)
    k = 1 - math.frexp(top)[1] if top else 0
    if k:
        rows = np.ldexp(m, k).tolist()
    diag = max(abs(row[i]) for i, row in enumerate(rows))
    total = 0.0
    for row in rows:
        for x in row:
            total += x * x
    return np.array(rows), k, diag, math.sqrt(total), rows


def float_bits(value):
    """Every float in a nested structure (arrays as lists) as its hex form,
    ints as they are."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [float_bits(v) for v in value]
    return value.hex() if isinstance(value, float) else value


class TestScaledRows:
    @staticmethod
    def check(m):
        """array, k, D, F and the rows as read against the row-wise
        reference; Python lists held only below _LAPACK_ORDER."""
        scaled = linalg._scaled_rows(m)
        array, k, diag, frob, rows = row_wise_scaled_rows(m)
        held = m.shape[0] < linalg._LAPACK_ORDER
        assert type(scaled.diag) is type(scaled.frob) is float
        assert float_bits(scaled[:4]) == float_bits((array, k, diag, frob))
        assert (scaled.lists is not None) == held
        assert float_bits(scaled.rows) == float_bits(rows)

    @given(st.integers(1, 16).flatmap(lambda n: st.lists(
               st.floats(-1e6, 1e6), min_size=n * n, max_size=n * n)),
           st.integers(-600, 600))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_the_row_wise_scaling(self, values, k):
        n = math.isqrt(len(values))
        self.check(np.ldexp(np.array(values).reshape(n, n), k))

    @pytest.mark.parametrize("n", [linalg._LAPACK_ORDER - 1, linalg._LAPACK_ORDER, 16])
    def test_on_both_sides_of_the_lapack_order(self, n):
        rng = np.random.default_rng(43)
        for k in (-1070, -600, 0, 600, 1020):
            self.check(np.ldexp(rng.standard_normal((n, n)), k))

    def test_zero_matrix(self):
        for m in (np.zeros((3, 3)), -np.zeros((2, 2)), np.zeros((8, 8)), -np.zeros((12, 12))):
            self.check(m)
            assert linalg._scaled_rows(m).k == 0


class TestLeftToRightSquares:
    """What _scaled_rows relies on in the installed numpy from
    _LAPACK_ORDER on: np.add.accumulate adds its input one element after
    another, as the list path's builtin sum does on Python 3.11, so F
    keeps its bits across the crossover. A numpy that sums in another
    order fails here."""

    @staticmethod
    def loop(squares):
        total = 0.0
        for x in squares.tolist():
            total += x
        return total

    @pytest.mark.parametrize("family", ["normal", "subnormal", "near overflow", "wide"])
    def test_accumulate_is_a_left_to_right_loop(self, family):
        rng = np.random.default_rng(47)
        for n in range(1, 45):
            size = n * n
            sign = rng.choice([-1.0, 1.0], size)
            mantissa = sign * rng.uniform(1.0, 2.0, size)
            entries = {
                "normal": rng.standard_normal(size),
                "subnormal": np.ldexp(mantissa, rng.integers(-1074, -1000, size)),
                "near overflow": np.ldexp(mantissa, rng.integers(500, 512, size)),
                "wide": np.ldexp(mantissa, rng.integers(-1074, 1024, size)),
            }[family]
            with np.errstate(over="ignore", under="ignore"):
                squares = entries * entries
                total = np.add.accumulate(squares)[-1].item()
            assert total.hex() == self.loop(squares).hex()

    def test_a_pairwise_sum_would_differ(self):
        # each 2^-53 rounds away against 1 when added in turn; a pairwise
        # or blocked sum would add them up first
        squares = np.array([1.0] + [2.0 ** -53] * 1935)
        assert np.add.accumulate(squares)[-1] == self.loop(squares) == 1.0
        assert math.fsum(squares.tolist()) > 1.0


class TestLeftToRightSum:
    """What every list path relies on in the interpreter: the builtin sum
    of floats adds them one after another, uncompensated, as CPython up
    to 3.11 does. _scaled_rows' F below _LAPACK_ORDER, _jacobi's
    off-diagonal mass, _cholesky and _ldl sum that way, and the n >= 8
    np.add.accumulate is pinned to the same order
    (TestLeftToRightSquares). CPython 3.12 made float sum compensated,
    which moves those bits: such an interpreter fails here, and
    pyproject.toml requires Python below 3.12."""

    def test_builtin_float_sum_adds_left_to_right(self):
        values = [1.0, 1e100, 1.0, -1e100]
        total = 0.0
        for x in values:
            total += x
        assert sum(values) == total == 0.0
        assert math.fsum(values) == 2.0


class TestLapackCholesky:
    """What _cholesky_pivots relies on in the installed numpy from
    _LAPACK_ORDER on. A numpy that changes any of it fails here instead of
    certifying wrongly."""

    @staticmethod
    def definite(rng, n):
        g = rng.standard_normal((n, n))
        return g @ g.T + n * np.eye(n)

    def test_reads_only_the_lower_triangle(self):
        # the strict upper triangle is never read, as the docstring states
        rng = np.random.default_rng(31)
        for n in (8, 12, 16):
            h = self.definite(rng, n)
            for above in (1e3 * rng.standard_normal((n, n)), np.full((n, n), np.nan)):
                lower = np.tril(h) + np.triu(above, 1)
                assert np.array_equal(np.linalg.cholesky(lower), np.linalg.cholesky(h))
                diagonal = np.linalg.cholesky(h).diagonal().tolist()
                assert linalg._cholesky_pivots(0.0, array=lower) == [d * d for d in diagonal]

    def test_raises_on_an_indefinite_input(self):
        h = np.eye(8)
        h[5, 5] = -1e-3
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(h)
        assert linalg._cholesky_pivots(0.0, array=h) is None
        assert linalg._cholesky_pivots(0.0, array=np.eye(8) - h) is None     # a zero pivot

    def test_a_nan_input_is_not_proved(self):
        h = 2.0 * np.eye(8)
        h[3, 3] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(np.linalg.cholesky(h).diagonal()).any()
            assert linalg._cholesky_pivots(0.0, array=h) is None

    def test_both_paths_give_the_same_verdicts(self):
        # the list and LAPACK factorizations of one matrix, at shifts well
        # inside and outside its spectrum, and their diagonals to rounding
        rng = np.random.default_rng(37)
        for n in (8, 12, 16):
            h = self.definite(rng, n)
            lam = np.linalg.eigvalsh(h)
            for shift in (0.0, 0.5 * lam[0], 2.0 * lam[0], 0.5 * (lam[0] + lam[-1])):
                pivots = linalg._cholesky(h.tolist(), shift)[1]
                got = linalg._cholesky_pivots(shift, h)
                assert (got is not None) == (pivots[-1] > 0.0) == (shift < lam[0])
                if got is not None:
                    assert np.allclose(got, pivots, rtol=1e-13, atol=0.0)


class TestLoewnerPredicates:
    def test_reflexive(self):
        m = SymMat([[1.0, 0.5], [0.5, 1.0]])
        assert linalg.loewner_le(m, m)

    def test_zero_below_identity(self):
        assert linalg.loewner_le(SymMat.zero(2), SymMat.identity(2))
        assert linalg.loewner_lt(SymMat.zero(2), SymMat.identity(2))

    def test_indefinite_difference(self):
        a = SymMat([[1.0, 0.5], [0.5, 1.0]])
        b = SymMat.identity(2)
        # b - a has eigenvalues +-1/2
        assert not linalg.loewner_le(a, b)

    def test_lt_rejects_singular_difference(self):
        rank_one = SymMat([[1.0, 0.0], [0.0, 0.0]])
        assert not linalg.loewner_lt(SymMat.zero(2), rank_one)
        assert linalg.loewner_le(SymMat.zero(2), rank_one)

    def test_lt_positive_diagonal(self):
        assert linalg.loewner_lt(SymMat.zero(2), SymMat.diagonal([1.0, 2.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.loewner_le(SymMat.identity(2), SymMat.identity(3))

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
               st.lists(st.floats(-8.0, 8.0, allow_subnormal=False), min_size=n * n, max_size=n * n),
               st.lists(st.floats(-8.0, 8.0, allow_subnormal=False), min_size=n, max_size=n),
               st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=n, max_size=n))),
           st.one_of(st.none(), st.floats(-4e-9, 4e-9)), st.integers(0, 17), st.integers(1001, 1018))
    @settings(max_examples=200, deadline=None)
    def test_verdicts_survive_scaling_past_the_certificate(self, drawn, edge, low, k):
        """(A, B) at 2^low and at 2^(low + k), |k| > 1000, with |lambda|max
        of B - A at least 1 at both: the certificate (or its Jacobi
        fallback) decides the first, Jacobi alone the second, and above
        the max(1, .) floor the gate is homogeneous, so the verdicts agree.
        B - A = H diag(lam) H for a Householder H; `edge` puts its least
        eigenvalue near the gate +-psd_tol |lambda|max, where the two
        routes part. TooLarge only when the larger spectrum overflows."""
        entries, lam, v = drawn
        n = len(lam)
        if edge is not None:
            lam[0] = edge * max(map(abs, lam))
        v = np.array(v) + 3.0 * np.eye(n)[0]
        h = np.eye(n) - 2.0 * np.outer(v, v) / float(v @ v)
        a0 = np.reshape(entries, (n, n))
        a0 = (a0 + a0.T) / 2.0
        b0 = a0 + (h * lam) @ h.T
        b0 = (b0 + b0.T) / 2.0
        big = min(low + k, 1018)
        top = float(np.max(np.abs(linalg.eigvalsh(SymMat(b0) - SymMat(a0)))))
        assume(math.ldexp(top, low) >= 1.0)
        overflows = math.frexp(top)[1] + big > 1024
        pairs = [(SymMat(np.ldexp(a0, e)), SymMat(np.ldexp(b0, e))) for e in (low, big)]
        for predicate in (linalg.loewner_le, linalg.loewner_lt):
            small = predicate(*pairs[0])
            try:
                assert predicate(*pairs[1]) == small
            except TooLarge:
                assert overflows

    def test_partial_order_on_sampled_triples(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            base = random_symmetric(rng, n)
            g1 = rng.standard_normal((n, n))
            g2 = rng.standard_normal((n, n))
            mid = SymMat(base.a + g1 @ g1.T)
            top = SymMat(mid.a + g2 @ g2.T)
            # reflexivity, transitivity
            assert linalg.loewner_le(base, base)
            assert linalg.loewner_le(base, mid) and linalg.loewner_le(mid, top)
            assert linalg.loewner_le(base, top)
            # antisymmetry within equality_tol
            if linalg.loewner_le(mid, base):
                scale = max(1.0, np.linalg.norm(base.a), np.linalg.norm(mid.a))
                assert np.linalg.norm(base.a - mid.a) <= DEFAULT_TOL.equality_tol * scale


class TestSqrtPsd:
    def test_identity(self):
        assert np.allclose(linalg.sqrt_psd(SymMat.identity(3)).a, np.eye(3))

    def test_diagonal(self):
        root = linalg.sqrt_psd(SymMat.diagonal([4.0, 9.0]))
        assert np.allclose(root.a, np.diag([2.0, 3.0]), atol=1e-14)

    def test_square_reproduces_input(self):
        m = SymMat([[2.0, 1.0], [1.0, 2.0]])
        root = linalg.sqrt_psd(m)
        assert np.allclose(root.a @ root.a, m.a, atol=1e-14)
        assert np.allclose(linalg.eigvalsh(root), [1.0, math.sqrt(3.0)], atol=1e-14)

    def test_commutes_with_input(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, 4))
        m = SymMat(g @ g.T)
        root = linalg.sqrt_psd(m)
        assert np.allclose(root.a @ m.a, m.a @ root.a, atol=1e-10)

    def test_round_trip_random_psd(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            # condition number capped at 1e6 through the singular values
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            lam = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=n))
            m = SymMat((q * lam) @ q.T)
            root = linalg.sqrt_psd(m)
            norm = np.linalg.norm(m.a)
            assert np.linalg.norm(root.a @ root.a - m.a) <= 1e-9 * (1.0 + norm)

    def test_clamps_tiny_negative(self):
        m = SymMat.diagonal([-1e-10, 1.0])
        root = linalg.sqrt_psd(m)
        assert root.a[0, 0] == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            linalg.sqrt_psd(SymMat.diagonal([-1.0, 1.0]))


class TestDefiniteRootPair:
    """linalg._definite_root_pair: the Jacobi route R = sqrt_psd(A), inv(R)
    below _LAPACK_ORDER and for every input its iteration does not take;
    from there, for a certified A, the scaled Denman-Beavers pair that
    passes the residual bound of its docstring."""

    @pytest.fixture
    def spectra(self, monkeypatch):
        calls = []
        jacobi = linalg._jacobi

        def counting(m, want_vectors):
            calls.append(want_vectors)
            return jacobi(m, want_vectors)

        monkeypatch.setattr(linalg, "_jacobi", counting)
        return calls

    @staticmethod
    def conditioned(rng, n, cond):
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lam = np.exp(rng.uniform(0.0, np.log(cond), n))
        lam[:2] = 1.0, cond                     # both ends of the spectrum
        m = (q / lam) @ q.T
        return SymMat((m + m.T) / 2.0)

    @staticmethod
    def jacobi_route(A, tol=DEFAULT_TOL):
        root = linalg.sqrt_psd(A, tol)
        return root, linalg.inv(root, tol)

    @staticmethod
    def rounding(A, z):
        """2 n u ||A||_F ||Z||_F^2, the first term of the residual bound."""
        return 2.0 * A.n * 2.0 ** -53 * np.linalg.norm(A.a) * np.linalg.norm(z) ** 2

    @pytest.mark.parametrize("n", [*range(8, 17), 24, 44])
    def test_the_iteration_meets_its_bound_and_the_jacobi_route(self, spectra, n):
        # Seeded property: condition numbers 10^U(0, 8), scales 2^-500,
        # 1 and 2^500. The residual stays under the docstring's bound, and
        # each matrix of the pair agrees with the Jacobi route's within
        # twice the bound's rounding term, relative: either route's error
        # is at most half its residual times ||A^{-1/2}||_2 <= ||Z||_F to
        # first order, and both residuals stay below that term.
        rng = np.random.default_rng(4000 + n)
        for exponent in (-500, 0, 500):
            A = SymMat(np.ldexp(self.conditioned(rng, n, 10.0 ** rng.uniform(0.0, 8.0)).a, exponent))
            spectra.clear()
            root, z = linalg._definite_root_pair(A, DEFAULT_TOL)
            assert spectra == []                # the iteration answered
            residual = np.linalg.norm(z.a @ A.a @ z.a - np.eye(n))
            bound = self.rounding(A, z.a)
            assert residual <= min(bound, DEFAULT_TOL.equality_tol * math.sqrt(n))
            ref_root, ref_z = self.jacobi_route(A)
            assert np.linalg.norm(z.a - ref_z.a) <= 2.0 * bound * np.linalg.norm(ref_z.a)
            assert np.linalg.norm(root.a - ref_root.a) <= 2.0 * bound * np.linalg.norm(ref_root.a)

    def test_a_power_of_four_scales_the_pair_exactly(self):
        A = self.conditioned(np.random.default_rng(5), 12, 1e3)
        root, z = linalg._definite_root_pair(A, DEFAULT_TOL)
        big_root, big_z = linalg._definite_root_pair(SymMat(np.ldexp(A.a, 600)), DEFAULT_TOL)
        assert np.array_equal(big_root.a, np.ldexp(root.a, 300))
        assert np.array_equal(big_z.a, np.ldexp(z.a, -300))

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_below_the_lapack_order_it_is_the_jacobi_route(self, spectra, n):
        A = self.conditioned(np.random.default_rng(n), n, 10.0)
        pair = linalg._definite_root_pair(A, DEFAULT_TOL)
        assert spectra == [True]
        for mine, ref in zip(pair, self.jacobi_route(A)):
            assert np.array_equal(mine.a, ref.a)

    def test_a_gap_past_rank_tol_takes_the_jacobi_route(self, spectra):
        # lambda_min / lambda_max = 1e-10 < rank_tol: the certificate
        # cannot prove definiteness, and the Jacobi route answers
        A = self.conditioned(np.random.default_rng(6), 8, 1e10)
        pair = linalg._definite_root_pair(A, DEFAULT_TOL)
        assert spectra == [True]
        for mine, ref in zip(pair, self.jacobi_route(A)):
            assert np.array_equal(mine.a, ref.a)

    def test_a_residual_past_the_bound_takes_the_jacobi_route(self, spectra):
        # At base 1e-14 the certificate proves a condition number of 1e6
        # definite, but equality_tol sqrt(n) = 2.8e-13 is below the
        # iteration's residual (about 1e-11 here): the check refuses it
        tol = Tolerances(1e-14)
        A = self.conditioned(np.random.default_rng(7), 8, 1e6)
        assert linalg._certificate(linalg._scaled_rows(A.a), tol.rank_tol,
                                   refute=False, floor=False)[0]
        pair = linalg._definite_root_pair(A, tol)
        assert spectra == [True]
        for mine, ref in zip(pair, self.jacobi_route(A, tol)):
            assert np.array_equal(mine.a, ref.a)

    def test_an_indefinite_input_is_not_psd(self):
        A = SymMat.diagonal([-1.0] + [1.0] * 7)
        with pytest.raises(NotPSD, match="below -psd_tol"):
            linalg._definite_root_pair(A, DEFAULT_TOL)

    def test_a_singular_root_is_singular(self):
        # lambda = 0 passes sqrt_psd; its root is singular for inv
        A = SymMat.diagonal([0.0] + [1.0] * 7)
        with pytest.raises(Singular, match="singular within rank tolerance"):
            linalg._definite_root_pair(A, DEFAULT_TOL)


class TestRegularityGate:
    """linalg._require_regular, the one gate on a generator T: sigma_min >
    relative * sigma_max and, for EffectAutomorphism (relative =
    rank_tol), |det T| > rank_tol, both read from one SVD of T."""

    @staticmethod
    def regular(t, tol):
        """EffectAutomorphism's verdict on t at tol: False on Singular."""
        try:
            EffectAutomorphism(t, tol)
        except Singular as exc:
            assert str(exc) == "generator is singular within rank tolerance"
            return False
        return True

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerances(1e-12), Tolerances(1e-3)])
    def test_a_diagonal_on_either_gate_gets_the_exact_verdict(self, tol):
        # The SVD of a diagonal is exact: 1e-6 (relative) inside a gate is
        # regular, 1e-6 past it singular.
        r = tol.rank_tol
        for wobble in (-1e-6, 1e-6):
            for n in (2, 8, 12, 16):
                t = np.diag([1.0] * (n - 1) + [r * (1.0 + wobble)])       # sigma_min on the gate
                assert self.regular(t, tol) == (wobble > 0.0)
            for n in (9, 12, 16):
                t = (r * (1.0 + wobble)) ** (1.0 / n) * np.eye(n)          # |det| on the gate
                assert self.regular(t, tol) == (wobble > 0.0)

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerances(1e-12), Tolerances(1e-3)])
    def test_scaled_and_rank_deficient_generators(self, tol):
        # 2^k T moves only the determinant half, by n k log 2; LU's
        # determinant (slogdet) and the condition number are the reference.
        # A zero, rank-one or repeated-column T is singular at any tol.
        rng = np.random.default_rng(11)
        r = tol.rank_tol
        for n in (2, 3, 5, 8, 12, 16):
            base = rng.standard_normal((n, n))
            conditioned = 1.0 / np.linalg.cond(base) > r
            log_det = float(np.linalg.slogdet(base)[1])
            for k in range(-300, 301, 10):
                expected = conditioned and log_det + n * k * math.log(2.0) > math.log(r)
                assert self.regular(np.ldexp(base, k), tol) == expected
            repeated = rng.standard_normal((n, n))
            repeated[:, -1] = repeated[:, 0]
            for t in (np.zeros((n, n)), np.outer(rng.standard_normal(n), rng.standard_normal(n)),
                      repeated):
                assert not self.regular(t, tol)

    def test_a_rank_deficient_generator_is_refused_by_the_constructor(self):
        # T = 2^e A B, A n x k and B k x n with k < n: Singular from the
        # constructor at every scale. Forming T^t T would leave
        # sqrt(lambda_min) near 1e-8 sigma_max, above rank_tol, on 131 of
        # these 1800.
        rng = np.random.default_rng(32)
        for n in range(2, 17):
            for e in (-500, 0, 500):
                for _ in range(40):
                    k = int(rng.integers(1, n))
                    t = np.ldexp(rng.standard_normal((n, k)) @ rng.standard_normal((k, n)), e)
                    assert not self.regular(t, DEFAULT_TOL)
        # LU meets an exact zero pivot in T: accepted, its inverse() would
        # raise numpy's LinAlgError
        t = 1e93 * np.outer([-2.0, -1.0, -1.0, -3.0, -2.0, 3.0], [-3.0, -1.0, 1.0, -1.0, -1.0, 2.0])
        assert not self.regular(t, DEFAULT_TOL)

    def test_the_determinant_gate_at_n_9(self):
        tol = DEFAULT_TOL
        above = (tol.rank_tol * (1.0 + 1e-6)) ** (1.0 / 9.0) * np.eye(9)
        below = (tol.rank_tol * (1.0 - 1e-6)) ** (1.0 / 9.0) * np.eye(9)
        assert self.regular(above, tol)
        assert not self.regular(below, tol)

    @pytest.mark.parametrize("t", [np.ldexp(np.eye(2), -520), 1e-5 * np.eye(2)],
                             ids=["2^-520", "1e-5"])
    def test_a_small_multiple_of_the_identity_is_singular(self, t):
        # sigma_min / sigma_max = 1 passes; |det T| = 2^-1040 and 1e-10 fall
        # below rank_tol, so the determinant half refuses them
        assert not self.regular(t, DEFAULT_TOL)

    def test_a_determinant_that_underflows_is_regular(self):
        # T = diag(2^-23 x 24, 2^23 x 23): |det T| = 2^-23 clears rank_tol
        # and sigma_min / sigma_max = 2^-46 clears it too, though the
        # product of the ascending squares sigma_i^2 (the eigenvalues of
        # T^t T) underflows to 0 after 24 factors: the test is in the log
        # domain
        tol = Tolerances(1e-14)
        diagonal = np.ldexp(1.0, [-23] * 24 + [23] * 23)
        t = np.diag(diagonal)
        sigma = linalg._require_regular(t, tol.rank_tol, "singular", math.log(tol.rank_tol))
        assert sigma == sorted(diagonal.tolist(), reverse=True)
        assert np.prod(np.square(sigma[::-1])) == 0.0
        assert self.regular(t, tol)


class TestInv:
    def test_identity(self):
        assert np.allclose(linalg.inv(SymMat.identity(2)).a, np.eye(2))

    def test_diagonal(self):
        # exact: the definite route factors without square roots, and
        # Jacobi leaves a diagonal negative as it is
        for values in ([2.0, 1.0], [0.5, 0.5], [3.0, 0.7, 1e-5, 2.0 ** 10]):
            expected = np.diag([1.0 / v for v in values])
            assert np.array_equal(linalg.inv(SymMat.diagonal(values)).a, expected)
            assert np.array_equal(linalg.inv(SymMat.diagonal([-v for v in values])).a, -expected)

    def test_adjugate_hand_value(self):
        got = linalg.inv(SymMat([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(got.a, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0, atol=1e-14)

    def test_product_is_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = SymMat(rng.standard_normal((n, n)) + 3.0 * np.eye(n))
            got = linalg.inv(m)
            assert np.linalg.norm(m.a @ got.a - np.eye(n)) <= 1e-9 * (1.0 + np.linalg.norm(m.a))

    def test_negative_definite_is_the_negated_inverse(self):
        # A goes through LDL^t and -A through the spectrum: bit for bit
        # on diagonal matrices, to 1e-12 of the largest entry otherwise
        for values in ([2.0, 1.0], [3.0, 0.7, 1e-5, 2.0 ** 10]):
            a = SymMat.diagonal(values)
            got, want = linalg.inv(-a).a, -linalg.inv(a).a
            assert float_bits(np.diag(got)) == float_bits(np.diag(want))
            assert np.array_equal(got, want)
        rng = np.random.default_rng(37)
        for n in (2, 3, 5, 8, 12):
            b = rng.standard_normal((n, n))
            a = SymMat(b @ b.T + np.eye(n))
            want = linalg.inv(a).a
            assert np.abs(linalg.inv(-a).a + want).max() <= 1e-12 * np.abs(want).max()

    def test_singular(self):
        with pytest.raises(Singular):
            linalg.inv(SymMat.diagonal([1.0, 0.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_inverse_past_the_range_on_the_spectral_route_is_too_large(self):
        # |k| > 1000 leaves the certificate undecided; 1 / 1e-310 overflows
        a = SymMat(np.diag([1e-310, 1e-310]))
        assert linalg._definite_ldl(linalg._scaled_rows(a.a), DEFAULT_TOL) is None
        with pytest.raises(TooLarge):
            linalg.inv(a)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_inverse_past_the_range_on_the_ldl_route_is_too_large(self):
        # the factor's inverse fits at scale 2^k, and scaling it back overflows
        a = SymMat(np.diag([1e-301, 5e-309]))
        assert linalg._definite_ldl(linalg._scaled_rows(a.a), DEFAULT_TOL) is not None
        with pytest.raises(TooLarge):
            linalg.inv(a)

    @given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1), st.booleans(),
           st.integers(-600, 600))
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_scaling_is_exact(self, n, seed, negative, k):
        # A = +-(B B^t + I/10): the positive one is inverted through
        # LDL^t, the negative one through the spectrum
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((n, n))
        a = SymMat((-1.0 if negative else 1.0) * (b @ b.T + 0.1 * np.eye(n)))
        assert linalg._definite_ldl(linalg._scaled_rows(-a.a if negative else a.a), DEFAULT_TOL) is not None
        c = 2.0 ** k
        assert np.array_equal(linalg.inv(SymMat(c * a.a)).a, linalg.inv(a).a / c)


class TestApplyFn:
    def test_identity_function(self):
        rng = np.random.default_rng(31)
        m = random_symmetric(rng, 4)
        assert np.linalg.norm(linalg.apply_fn(m, lambda x: x).a - m.a) <= 1e-10

    def test_diagonal_square(self):
        got = linalg.apply_fn(SymMat.diagonal([0.25, 1.0]), lambda x: x * x)
        assert np.allclose(got.a, np.diag([0.0625, 1.0]), atol=1e-15)

    def test_composition(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            g = rng.standard_normal((n, n))
            m = SymMat(g @ g.T + 0.5 * np.eye(n))
            f = lambda x: 0.5 * x + 0.1
            g_fn = math.sqrt
            staged = linalg.apply_fn(linalg.apply_fn(m, f), g_fn)
            fused = linalg.apply_fn(m, lambda x: g_fn(f(x)))
            assert np.linalg.norm(staged.a - fused.a) <= 1e-9

    def test_domain_error(self):
        # the message names the eigenvalue as a plain float
        with pytest.raises(DomainError, match=r"^function undefined at eigenvalue -1\.0: "):
            linalg.apply_fn(SymMat.diagonal([-1.0, 1.0]), math.sqrt)
        with pytest.raises(DomainError):
            linalg.apply_fn(SymMat.diagonal([0.0, 1.0]), lambda x: 1.0 / x)
        with pytest.raises(DomainError, match=r"^function non-finite at eigenvalue 1\.0$"):
            linalg.apply_fn(SymMat.identity(2), lambda x: math.inf)

    def test_unit_mobius_fixes_identity_matrix(self):
        from loewner.automorphisms import unit_mobius

        got = linalg.apply_fn(SymMat.identity(3), lambda x: unit_mobius(0.5, x))
        assert np.allclose(got.a, np.eye(3), atol=1e-12)


class TestPinvAndRange:
    def test_identity(self):
        pinv, in_range = linalg.pinv_and_range(SymMat.identity(2))
        assert np.allclose(pinv.a, np.eye(2))
        assert in_range([1.0, 0.0]) and in_range([0.3, -2.0])

    def test_rank_one(self):
        pinv, in_range = linalg.pinv_and_range(SymMat([[1.0, 0.0], [0.0, 0.0]]))
        assert np.allclose(pinv.a, [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)
        assert in_range([1.0, 0.0])
        assert not in_range([0.0, 1.0])

    def test_diagonal(self):
        pinv, in_range = linalg.pinv_and_range(SymMat.diagonal([2.0, 0.0]))
        assert np.allclose(pinv.a, np.diag([0.5, 0.0]), atol=1e-14)
        assert in_range([1.0, 0.0])

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            linalg.pinv_and_range(SymMat.diagonal([-1.0, 1.0]))

    def test_a_pseudo_inverse_past_the_range_is_too_large(self):
        # 1 / 1e-310 does not fit in a double; 1 / 1e-300 does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TooLarge, match="pseudo-inverse does not fit"):
                linalg.pinv_and_range(SymMat.diagonal([1e-310, 0.0]))
            pinv, in_range = linalg.pinv_and_range(SymMat.diagonal([1e-300, 0.0]))
        assert pinv.a.tolist() == [[1.0 / 1e-300, 0.0], [0.0, 0.0]]
        assert in_range([1.0, 0.0]) and not in_range([0.0, 1.0])

    def test_penrose_identities(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            g = rng.standard_normal((n, max(1, n - 1)))
            m = SymMat(g @ g.T)
            pinv, _ = linalg.pinv_and_range(m)
            assert np.linalg.norm(m.a @ pinv.a @ m.a - m.a) <= 1e-9 * (1.0 + np.linalg.norm(m.a))
            assert np.linalg.norm(pinv.a @ m.a @ pinv.a - pinv.a) <= 1e-9 * (1.0 + np.linalg.norm(pinv.a))


class TestTolerances:
    def test_defaults(self):
        assert DEFAULT_TOL.base == 1e-9
        assert DEFAULT_TOL.psd_tol == 1e-9
        assert DEFAULT_TOL.rank_tol == 1e-9
        assert DEFAULT_TOL.equality_tol == 1e-8

    def test_equality_derives_from_rank(self):
        for base in (1e-14, 1e-12, 1e-3, 0.1):
            tol = Tolerances(base)
            assert tol.psd_tol == tol.rank_tol == base
            assert tol.equality_tol == 10.0 * tol.rank_tol
        for field in ("psd_tol", "rank_tol", "eig_tol", "equality_tol"):
            with pytest.raises(TypeError):
                Tolerances(**{field: 1e-8})

    def test_rejects_non_positive(self):
        for base in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="strictly positive"):
                Tolerances(base)

    def test_rejects_a_base_of_one_or_more(self):
        # at 1 the rank gate keeps no eigenvalue and the psd gate passes -I
        for base in (1.0, 10.0, 1e308, math.inf):
            with pytest.raises(ValueError, match="below 1"):
                Tolerances(base)
        Tolerances(math.nextafter(1.0, 0.0))

    def test_rejects_gates_below_the_eigensolver_resolution(self):
        for base in (1e-15, 1e-16):
            with pytest.raises(ValueError, match="eig_tol"):
                Tolerances(base)
        Tolerances(1e-14)


def test_principal_angle_between_lines():
    u = np.array([1.0, 0.0])
    w = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert abs(linalg.principal_angle(u, w) - math.pi / 4.0) <= 1e-12
    assert linalg.principal_angle(u, u) <= 1e-8


class TestPrincipalAngleScale:
    """The span of a column does not change under 2^j scaling, and neither
    does the angle: each column is scaled by a power of two before it is
    orthonormalized, so no norm or product overflows or underflows."""

    def test_equal_lines_at_the_ends_of_the_range(self):
        for column in ([[1e160], [0.0]], [[1e-13], [0.0]], [[1e-170], [0.0]], [[0.0], [-1e300]]):
            line = np.array(column) / abs(np.array(column)).max()
            assert linalg.principal_angle(column, line) == 0.0

    def test_the_angle_is_unchanged_under_power_of_two_column_scaling(self):
        rng = np.random.default_rng(41)
        for n, r in ((2, 1), (3, 2), (5, 2), (6, 3)):
            u = rng.uniform(0.5, 2.0, (n, r)) * rng.choice([-1.0, 1.0], (n, r))
            w = rng.uniform(0.5, 2.0, (n, r)) * rng.choice([-1.0, 1.0], (n, r))
            want = linalg.principal_angle(u, w)
            assert 0.0 < want < math.pi / 2.0
            for j in (-1000, -600, -53, -1, 1, 53, 600, 1000):
                powers = rng.integers(-abs(j), abs(j) + 1, r)
                powers[0] = j
                assert linalg.principal_angle(np.ldexp(u, powers), w) == want
                assert linalg.principal_angle(u, np.ldexp(w, powers[::-1])) == want

    @pytest.mark.parametrize("u", [np.zeros((3, 1)), np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]])])
    def test_a_zero_column_is_singular(self, u):
        with pytest.raises(Singular, match="numerically dependent"):
            linalg.principal_angle(u, np.eye(3)[:, :u.shape[1]])


@pytest.mark.parametrize("call", [
    lambda: SymMat(np.zeros((0, 0))),
    lambda: linalg.pinv_and_range(SymMat.identity(2))[1](np.ones(3)),
    lambda: linalg.principal_angle(np.eye(3)[:, :1], np.eye(3)[:, :2]),
], ids=["empty_matrix", "range_test_vector_length", "principal_angle_subspace_dimensions"])
def test_dimension_mismatch_is_raised(call):
    with pytest.raises(DimensionMismatch):
        call()
