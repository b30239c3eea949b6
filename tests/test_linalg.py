"""Kernel tests: spectral decomposition, order predicates, and spectral
calculus, cross-checked against numpy.linalg as the independent oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner import linalg
from loewner.errors import (
    DimensionMismatch,
    DomainError,
    NotPSD,
    Singular,
)
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
        for n in range(1, 9):
            for _ in range(10):
                m = random_symmetric(rng, n)
                spec = linalg.eigh(m)
                rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
                norm = np.linalg.norm(m.a)
                assert np.linalg.norm(rebuilt - m.a) <= 1e-10 * (1.0 + norm)
                assert np.linalg.norm(spec.eigenvectors.T @ spec.eigenvectors - np.eye(n)) <= 1e-12

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


class TestInv:
    def test_identity(self):
        assert np.allclose(linalg.inv(SymMat.identity(2)).a, np.eye(2))

    def test_diagonal(self):
        # exact: the definite route factors without square roots
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

    def test_singular(self):
        with pytest.raises(Singular):
            linalg.inv(SymMat.diagonal([1.0, 0.0]))

    @given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1), st.booleans(),
           st.integers(-600, 600))
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_scaling_is_exact(self, n, seed, negative, k):
        # A = +-(B B^t + I/10): definite, inverted through LDL^t
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


@pytest.mark.parametrize("call", [
    lambda: SymMat(np.zeros((0, 0))),
    lambda: linalg.pinv_and_range(SymMat.identity(2))[1](np.ones(3)),
    lambda: linalg.principal_angle(np.eye(3)[:, :1], np.eye(3)[:, :2]),
], ids=["empty_matrix", "range_test_vector_length", "principal_angle_subspace_dimensions"])
def test_dimension_mismatch_is_raised(call):
    with pytest.raises(DimensionMismatch):
        call()
