"""Effect-algebra tests: strength closed form vs the bisection oracle,
order witnesses, and the 2x2 constructions with their exact fixtures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner import effects, linalg, oracle
from loewner.effects import (
    BASIS_MINUS,
    BASIS_PLUS,
    DiagonalCurve,
    RankOneProjection,
    SingletonDiagonal,
    ZeroOnly,
    make_effect,
    maximal_diagonals,
    one_third_decompose,
    rank_one_segment,
    sharp,
    standard_projection,
    strength,
    strength_witness,
)
from loewner.errors import (
    BadParameter,
    DimensionMismatch,
    NotComparable,
    NotDiagonal,
    NotPSD,
    OutOfInterval,
    PreconditionViolated,
)
from loewner.linalg import DEFAULT_TOL, SymMat, Tolerances

E1 = standard_projection(0, 2)


def psd(rng, n, scale=1.0):
    g = rng.standard_normal((n, n))
    return SymMat(scale * g @ g.T / n)


class TestFrames:
    def test_hadamard_basis_resolution(self):
        assert np.allclose(BASIS_PLUS.a + BASIS_MINUS.a, np.eye(2))
        assert np.allclose(BASIS_PLUS.a @ BASIS_MINUS.a, np.zeros((2, 2)))


class TestMakeEffect:
    def test_identity(self):
        make_effect(SymMat.identity(3))

    def test_paper_diagonal(self):
        make_effect(SymMat.diagonal([1.0 / 3.0, 1.0]))

    def test_rejects_and_reports_eigenvalue(self):
        with pytest.raises(OutOfInterval) as info:
            make_effect(SymMat.diagonal([2.0, 0.0]))
        assert info.value.offending_eigenvalue == pytest.approx(2.0)
        assert str(info.value) == "eigenvalue 2.0 above 1"

    def test_rejects_negative(self):
        with pytest.raises(OutOfInterval) as info:
            make_effect(SymMat.diagonal([-0.5, 0.5]))
        assert str(info.value) == "eigenvalue -0.5 below 0"

    @pytest.mark.parametrize("diagonal", [
        [-DEFAULT_TOL.psd_tol * (1.0 - 1e-12), 0.5],
        [0.5, 1.0 + DEFAULT_TOL.psd_tol * (1.0 - 1e-12)],
    ])
    def test_accepts_on_the_jacobi_route_at_the_gate(self, diagonal):
        # inside the certificate's undecided band; the spectrum is within the gate
        a = SymMat.diagonal(diagonal)
        tol = DEFAULT_TOL
        assert not linalg._certified_within(a.a, -tol.psd_tol, 1.0 + tol.psd_tol)
        assert make_effect(a).mat is a


class TestRankOneProjection:
    def test_stores_only_the_unit_vector(self):
        assert RankOneProjection.__slots__ == ("x",)
        with pytest.raises(AttributeError):
            RankOneProjection([1.0, 2.0]).cached = None

    @given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.integers(-600, 600))
    @settings(max_examples=100, deadline=None)
    def test_matrix_is_the_outer_product_of_x(self, n, seed, k):
        proj = RankOneProjection(np.ldexp(np.random.default_rng(seed).standard_normal(n), k))
        expected = SymMat(np.outer(proj.x, proj.x))
        assert proj.mat.a.tobytes() == expected.a.tobytes()
        assert proj.mat.a.tobytes() == proj.mat.a.T.tobytes()


class TestStrength:
    def test_identity_gives_one(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 5):
            proj = RankOneProjection(rng.standard_normal(n))
            assert strength(SymMat.identity(n), proj) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_projection(self):
        for t in (0.25, 1.0, 3.5):
            assert strength(SymMat(t * E1.mat.a), E1) == pytest.approx(t, abs=1e-12)

    def test_prescribed_fixture(self):
        # strength 3/4 along the direction with first component 1/sqrt(3)
        direction = np.array([math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0)])
        proj = RankOneProjection(direction)
        assert proj.mat.a[0, 1] == pytest.approx(math.sqrt(2.0) / 3.0)
        assert strength(SymMat.diagonal([0.5, 1.0]), proj) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("c", [1e8, 1e12])
    def test_closed_form_at_large_scale(self, c):
        e1 = standard_projection(0, 3)
        assert strength(SymMat.diagonal([c, 2.0 * c, 3.0 * c]), e1) == pytest.approx(c, rel=1e-14)

    @given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 2 ** 32 - 1),
           st.booleans(), st.integers(-600, 600))
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_scaling_is_exact(self, n, drop, seed, in_range, k):
        # A = B B^t has rank n - drop (singular, even zero, when drop > 0);
        # the direction lies in its range or is drawn freely.
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((n, max(n - drop, 0)))
        a = b @ b.T
        x = b @ rng.standard_normal(b.shape[1]) if in_range and b.size else rng.standard_normal(n)
        proj = RankOneProjection(x)
        c = 2.0 ** k
        assert strength(SymMat(c * a), proj) == c * strength(SymMat(a), proj)

    @given(st.integers(1, 5), st.integers(0, 5), st.integers(0, 2 ** 32 - 1),
           st.booleans(), st.integers(-1000, 1000))
    @settings(max_examples=200, deadline=None)
    def test_scaling_the_direction_is_exact(self, n, drop, seed, in_range, j):
        # strength depends on the span of x only; entries of x are 0 or at
        # least 2^-20, so 2^j x stays in the normal range
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((n, max(n - drop, 0)))
        x = b @ rng.standard_normal(b.shape[1]) if in_range and b.size else rng.standard_normal(n)
        x[np.abs(x) < 2.0 ** -20] = 0.0
        x[0] = x[0] or 1.0
        a = SymMat(b @ b.T)
        scaled = RankOneProjection(np.ldexp(x, j))
        assert np.array_equal(scaled.x, RankOneProjection(x).x)
        assert strength(a, scaled) == strength(a, RankOneProjection(x))

    def test_direction_must_be_finite_and_nonzero(self):
        for direction in ([0.0, 0.0], [], [1.0, math.inf], [math.nan, 1.0]):
            with pytest.raises(BadParameter):
                RankOneProjection(direction)
        assert np.array_equal(RankOneProjection([5e-324, 0.0]).x, [1.0, 0.0])

    def test_unbounded_direction_vs_bisection(self):
        # [DERIVED] expected value 2 frozen from the bisection oracle
        mat = SymMat.diagonal([2.0, 1.0])
        brute = oracle.strength_bisection(mat, E1)
        assert brute == pytest.approx(2.0, abs=1e-7)
        assert strength(mat, E1) == pytest.approx(2.0, abs=1e-12)

    def test_out_of_range_is_zero(self):
        assert strength(SymMat([[1.0, 0.0], [0.0, 0.0]]), standard_projection(1, 2)) == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            strength(SymMat.diagonal([-1.0, 1.0]), E1)

    def test_agrees_with_bisection_oracle(self):
        from loewner.selftest import check_strength_oracle

        result = check_strength_oracle(404, 500)
        assert result.ok, result.detail


class TestStrengthMonotone:
    def test_order_implies_strength_order(self):
        s = oracle.Sampler(77)
        for _ in range(20):
            low, high = oracle.sample_comparable_pair(s, 3)
            for _ in range(50):
                proj = RankOneProjection(s.rng.standard_normal(3))
                assert (strength(low.mat, proj)
                        <= strength(high.mat, proj) + 1e-8)


class TestStrengthWitness:
    def test_none_when_comparable(self):
        s = oracle.Sampler(13)
        low, high = oracle.sample_comparable_pair(s, 3)
        assert strength_witness(low.mat, high.mat) is None

    def test_identity_vs_half(self):
        witness = strength_witness(SymMat.identity(2), SymMat(0.5 * np.eye(2)))
        assert witness is not None
        proj, t = witness
        assert t == pytest.approx(1.0, abs=1e-12)
        scaled = SymMat(t * proj.mat.a)
        assert linalg.loewner_le(scaled, SymMat.identity(2))
        assert not linalg.loewner_le(scaled, SymMat(0.5 * np.eye(2)))

    def test_none_when_the_spectrum_decides_le(self):
        # B - A = diag(0.4, -psd_tol (1 - 1e-12)): the certificate is
        # undecided, and the eigh that would give the direction finds A <= B
        first = SymMat.diagonal([0.0, DEFAULT_TOL.psd_tol * (1.0 - 1e-12)])
        second = SymMat.diagonal([0.4, 0.0])
        assert linalg._certificate(linalg._scaled_rows((second - first).a),
                                   relative=-DEFAULT_TOL.psd_tol)[0] is None
        assert linalg.loewner_le(first, second)
        assert strength_witness(first, second) is None

    def test_crossing_diagonals(self):
        a, b = SymMat.diagonal([1.0, 0.0]), SymMat.diagonal([0.0, 1.0])
        proj, t = strength_witness(a, b)
        assert np.allclose(proj.mat.a, E1.mat.a, atol=1e-12)
        assert t == pytest.approx(1.0, abs=1e-12)
        assert linalg.loewner_le(SymMat(t * proj.mat.a), a)
        assert not linalg.loewner_le(SymMat(t * proj.mat.a), b)

    def test_biconditional_on_random_pairs(self):
        s = oracle.Sampler(99)
        for i in range(120):
            n = 2 + i % 4
            a, b = psd(s.rng, n), psd(s.rng, n)
            witness = strength_witness(a, b)
            assert (witness is None) == linalg.loewner_le(a, b)
            if witness is not None:
                proj, t = witness
                scaled = SymMat(t * proj.mat.a)
                assert linalg.loewner_le(scaled, a)
                assert not linalg.loewner_le(scaled, b)


def witness_holds(a: SymMat, b: SymMat, witness) -> bool:
    """t Q <= A and not t Q <= B, by the library's own predicates."""
    proj, t = witness
    scaled = SymMat(t * proj.mat.a)
    return linalg.loewner_le(scaled, a) and not linalg.loewner_le(scaled, b)


def frame(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def with_spectrum(rng, lam):
    q = frame(rng, len(lam))
    return SymMat((q * lam) @ q.T)


class TestWitnessDirections:
    """Witnesses from the refuting factorization's direction, and the eigh
    fallback for directions that miss the gate."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        """Spectra with eigenvectors, counted at the kernel: the witness
        takes its fallback from _jacobi on the bare array B - A."""
        calls = []
        jacobi = linalg._jacobi

        def counting(m, want_vectors):
            if want_vectors:
                calls.append(m)
            return jacobi(m, want_vectors)

        monkeypatch.setattr(linalg, "_jacobi", counting)
        return calls

    def test_seeded_corpus(self, eigh_calls):
        rng = np.random.default_rng(2026)
        found = 0
        for i in range(240):
            n = (2, 3, 5, 8, 12, 16)[i % 6]
            scale = 10.0 ** rng.uniform(-2.0, 2.0)
            a = with_spectrum(rng, scale * rng.uniform(0.0, 1.0, n))
            b = with_spectrum(rng, scale * rng.uniform(0.0, 1.0, n) * (i % 3 != 0))
            witness = strength_witness(a, b)
            assert (witness is None) == linalg.loewner_le(a, b)
            if witness is not None:
                found += 1
                assert witness_holds(a, b, witness)
        assert found > 200
        # clear pairs take the factorization's direction
        assert len(eigh_calls) < found / 10

    @given(st.integers(1, 6), st.integers(0, 2), st.integers(0, 2 ** 32 - 1),
           st.integers(-600, 600))
    @settings(max_examples=200, deadline=None)
    def test_witness_under_power_of_two_scaling(self, n, drop, seed, k):
        # A and B have rank n - drop (B may be zero); both are scaled by 2^k.
        # tQ <= A is tight: A - tQ vanishes on x and, for a rank-one A,
        # everywhere, so it is read at the scale of A. loewner_le's own gate
        # scales with A - tQ, so for a rank-one A of scale 2^29 or more it
        # reads the rounding left in A - tQ as "tQ is not below A", on the
        # eigenvector route as well.
        rng = np.random.default_rng(seed)
        c = 2.0 ** k
        factors = [rng.standard_normal((n, max(n - drop, 0))) for _ in range(2)]
        a, b = (SymMat(c * (f @ f.T)) for f in factors)
        witness = strength_witness(a, b)
        assert (witness is None) == linalg.loewner_le(a, b)
        if witness is not None:
            proj, t = witness
            scaled = SymMat(t * proj.mat.a)
            slack = DEFAULT_TOL.psd_tol * max(1.0, linalg.spectral_norm(a))
            assert linalg.loewner_le(scaled, SymMat(a.a + slack * np.eye(n)))
            assert not linalg.loewner_le(scaled, b)

    def test_near_gate_and_rank_deficient_pairs_reach_the_fallback(self, eigh_calls):
        # Odd i: lambda_min(B - A) = -eps between the order gate and the
        # witness gate sqrt(psd_tol), so the direction is refuted too weakly
        # to be used. Even i: A and B of rank n - n // 2.
        rng = np.random.default_rng(7)
        fallbacks = found = 0
        for i in range(60):
            n = 2 + i % 7
            if i % 2:
                a = with_spectrum(rng, rng.uniform(0.5, 1.0, n))
                lam = rng.uniform(0.05, 1.0, n)
                lam[0] = -10.0 ** rng.uniform(-8.0, -5.0)
                b = SymMat(a.a + with_spectrum(rng, lam).a)
            else:
                a, b = (with_spectrum(rng, np.where(np.arange(n) < n // 2, 0.0,
                                                    rng.uniform(0.1, 1.0, n)))
                        for _ in range(2))
            eigh_calls.clear()
            witness = strength_witness(a, b)
            assert (witness is None) == linalg.loewner_le(a, b)
            if witness is not None:
                found += 1
                assert witness_holds(a, b, witness)
                fallbacks += bool(eigh_calls)
        assert found > 50 and fallbacks > 0

    def test_pair_beyond_double_range_squares(self):
        # ||Ax||^2 overflows at this scale; t and Q are taken without it
        a, b = SymMat.diagonal([2.0 ** 600, 0.0]), SymMat.diagonal([0.0, 2.0 ** 600])
        proj, t = strength_witness(a, b)
        assert np.array_equal(proj.x, [1.0, 0.0]) and t == 2.0 ** 600


class TestRankOneSegment:
    def test_zero_difference(self):
        eff = make_effect(SymMat(0.5 * np.eye(2)))
        t, proj = rank_one_segment(eff, eff)
        assert t == 0.0
        assert proj.n == 2

    def test_single_direction(self):
        zero = make_effect(SymMat.zero(2))
        upper = make_effect(SymMat(0.5 * E1.mat.a))
        t, proj = rank_one_segment(zero, upper)
        assert t == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(proj.mat.a, E1.mat.a, atol=1e-10)

    def test_rank_two_difference(self):
        zero = make_effect(SymMat.zero(2))
        upper = make_effect(SymMat.diagonal([0.5, 0.5]))
        assert rank_one_segment(zero, upper) is None

    def test_not_comparable(self):
        a = make_effect(SymMat.diagonal([1.0, 0.0]))
        b = make_effect(SymMat.diagonal([0.0, 1.0]))
        with pytest.raises(NotComparable):
            rank_one_segment(a, b)

    def test_segment_pairs_always_comparable(self):
        s = oracle.Sampler(55)
        for _ in range(10):
            n = int(s.rng.integers(2, 5))
            base = oracle.sample_effect(s, n)
            direction = RankOneProjection(s.rng.standard_normal(n))
            room = 1.0 - float(linalg.eigvalsh(base.mat)[-1])
            t = 0.9 * room
            top = make_effect(SymMat(base.mat.a + t * direction.mat.a))
            got = rank_one_segment(base, top)
            assert got is not None
            for _ in range(30):
                p, q = s.rng.uniform(0.0, t, size=2)
                c = SymMat(base.mat.a + p * direction.mat.a)
                d = SymMat(base.mat.a + q * direction.mat.a)
                assert linalg.loewner_le(c, d) or linalg.loewner_le(d, c)

    def test_rank_two_gap_has_incomparable_pair(self):
        # two distinct rank-one lower bounds built from the dominant
        # eigenpairs of the gap
        s = oracle.Sampler(56)
        for _ in range(10):
            n = int(s.rng.integers(2, 5))
            low, high = oracle.sample_comparable_pair(s, n)
            gap = high.mat - low.mat
            spec = linalg.eigh(gap)
            if float(spec.eigenvalues[-2]) < 1e-6:
                continue
            assert rank_one_segment(low, high) is None
            c = SymMat(low.mat.a + float(spec.eigenvalues[-1])
                       * np.outer(spec.eigenvectors[:, -1], spec.eigenvectors[:, -1]))
            d = SymMat(low.mat.a + float(spec.eigenvalues[-2])
                       * np.outer(spec.eigenvectors[:, -2], spec.eigenvectors[:, -2]))
            assert linalg.loewner_le(low.mat, c) and linalg.loewner_le(c, high.mat)
            assert linalg.loewner_le(low.mat, d) and linalg.loewner_le(d, high.mat)
            assert not linalg.loewner_le(c, d)
            assert not linalg.loewner_le(d, c)


class TestIdentityBlock:
    def test_identity_input(self):
        eff = make_effect(SymMat.identity(3))
        basis, block = effects.identity_block(eff, standard_projection(0, 3),
                                              standard_projection(1, 3))
        assert basis.shape == (3, 2)
        assert block.n == 1
        assert block.a[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_block_read_off(self):
        eff = make_effect(SymMat.diagonal([1.0, 1.0, 0.5]))
        basis, block = effects.identity_block(eff, standard_projection(0, 3),
                                              standard_projection(1, 3))
        assert np.allclose(np.abs(basis), np.eye(3)[:, :2], atol=1e-12)
        assert block.a[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_two_dimensional_block_is_empty(self):
        eff = make_effect(SymMat.identity(2))
        _, block = effects.identity_block(eff, standard_projection(0, 2),
                                          standard_projection(1, 2))
        assert block is None

    def test_precondition_violation(self):
        eff = make_effect(SymMat.diagonal([1.0, 0.5, 0.5]))
        with pytest.raises(PreconditionViolated, match="Q <= A"):
            effects.identity_block(eff, standard_projection(0, 3),
                                   standard_projection(1, 3))

    def test_rotated_inputs(self):
        s = oracle.Sampler(70)
        for _ in range(10):
            n = int(s.rng.integers(3, 6))
            frame = oracle.sample_orthogonal(s, n)
            rest = s.rng.uniform(0.0, 1.0, size=n - 2)
            lam = np.concatenate([[1.0, 1.0], rest])
            mat = SymMat((frame * lam) @ frame.T)
            eff = make_effect(mat)
            p = RankOneProjection(frame[:, 0])
            q = RankOneProjection(frame[:, 1])
            basis, block = effects.identity_block(eff, p, q)
            assert linalg.principal_angle(basis, frame[:, :2]) <= 1e-6
            got = np.sort(linalg.eigvalsh(block))
            assert np.allclose(got, np.sort(rest), atol=1e-9)


def three_condition_route(a: SymMat, p: RankOneProjection) -> bool:
    """Independent check: a - p/2, a - (I-p)/2, I - a all PSD of rank <= 1."""
    eye = np.eye(2)
    for m in (a.a - 0.5 * p.mat.a, a.a - 0.5 * (eye - p.mat.a), eye - a.a):
        lam = linalg.eigvalsh(SymMat(m))
        if float(lam[0]) < -DEFAULT_TOL.psd_tol:
            return False
        if float(lam[0]) > 10.0 * DEFAULT_TOL.rank_tol:
            return False
    return True


class TestOneThirdDecompose:
    def test_paper_fixture_symmetric(self):
        a = SymMat([[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]])
        q = one_third_decompose(a, RankOneProjection([1.0, 0.0]))
        assert q is not None
        assert np.allclose(q.mat.a, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    def test_paper_fixture_diagonal(self):
        a = SymMat.diagonal([1.0 / 3.0, 1.0])
        p = RankOneProjection([1.0, 1.0])
        gap = a.a - 0.5 * p.mat.a
        assert np.allclose(gap, [[1.0 / 12.0, -0.25], [-0.25, 0.75]], atol=1e-15)
        q = one_third_decompose(a, p)
        assert q is not None
        assert np.allclose(q.mat.a, np.diag([1.0, 0.0]), atol=1e-12)

    def test_identity_has_no_decomposition(self):
        assert one_third_decompose(SymMat.identity(2), E1) is None

    def test_biconditional_against_three_conditions(self):
        s = oracle.Sampler(101)
        for i in range(200):
            p = RankOneProjection(s.rng.standard_normal(2))
            if i % 3 == 0:
                # genuine instances: rotate diag(1/3, 1) and pick P with
                # tr(PQ) = 1/2
                frame = oracle.sample_orthogonal(s, 2)
                q_dir = frame[:, 0]
                a = SymMat(np.eye(2) - (2.0 / 3.0) * np.outer(q_dir, q_dir))
                angle = math.pi / 4.0
                rot = np.array([[math.cos(angle), -math.sin(angle)],
                                [math.sin(angle), math.cos(angle)]])
                p = RankOneProjection(rot @ q_dir)
            elif i % 3 == 1:
                a = oracle.sample_effect(s, 2).mat
            else:
                a = SymMat(np.eye(2) - (2.0 / 3.0) * E1.mat.a + 1e-4 * s.rng.standard_normal((2, 2)))
                try:
                    make_effect(a)
                except OutOfInterval:
                    continue
            got = one_third_decompose(a, p)
            assert (got is not None) == three_condition_route(a, p)
            if got is not None:
                rebuilt = (1.0 / 3.0) * got.mat.a + (np.eye(2) - got.mat.a)
                assert np.allclose(rebuilt, a.a, atol=1e-7)
                assert float(np.trace(p.mat.a @ got.mat.a)) == pytest.approx(0.5, abs=1e-7)


class TestMaximalDiagonals:
    def test_diagonal_is_singleton(self):
        eff = make_effect(SymMat.diagonal([0.5, 1.0 / 3.0]))
        got = maximal_diagonals(eff)
        assert isinstance(got, SingletonDiagonal)
        assert got.effect is eff

    def test_rank_one_off_diagonal(self):
        eff = make_effect(SymMat([[0.5, 0.5], [0.5, 0.5]]))
        assert isinstance(maximal_diagonals(eff), ZeroOnly)

    def test_rank_two_curve(self):
        # unit-bounded diagonal, though the matrix norm exceeds one
        got = maximal_diagonals(SymMat([[1.0, 0.5], [0.5, 1.0]]))
        assert isinstance(got, DiagonalCurve)
        assert (got.t, got.s, got.u) == (1.0, 1.0, 0.5)
        # (1 - 1/2)(1 - 1/2) = 1/4 = u^2
        assert got.contains(0.5, 0.5)
        assert not got.contains(1.0, 1.0)

    def test_takes_the_relative_psd_gate_of_is_psd(self):
        # lambda_min = -1.5e-9 clears -psd_tol * max(1, |lambda|max) =
        # -2.0000000015e-9, but not the absolute gate -psd_tol: is_psd and
        # strength accept the matrix, and so does maximal_diagonals
        u = 1.0 + 1.5e-9
        a = SymMat([[1.0, u], [u, 1.0]])
        assert linalg.is_psd(a)
        assert strength(a, RankOneProjection([1.0, 1.0])) == pytest.approx(2.0 + 1.5e-9, rel=1e-12)
        assert isinstance(maximal_diagonals(a), ZeroOnly)

    def test_curve_rejects_points_outside_its_box(self):
        # both points satisfy (t - p)(s - q) = u^2 with t = s = 1/2, u = 1/4
        a = SymMat([[0.5, 0.25], [0.25, 0.5]])
        curve = maximal_diagonals(a)
        assert not curve.contains(-0.25, 0.5 - 1.0 / 12.0)          # p < 0
        assert not curve.contains(0.75, 0.75)                       # p > t
        # the curve tests at the tolerances it was built with: p = -5e-4
        # lies inside the box at 1e-3, outside it at the default
        p, q = -5e-4, 0.5 - 0.0625 / 0.5005
        assert not curve.contains(p, q)
        assert maximal_diagonals(a, Tolerances(1e-3)).contains(p, q)

    def test_curve_points_are_maximal(self):
        eff = make_effect(SymMat([[0.7, 0.25], [0.25, 0.5]]))
        curve = maximal_diagonals(eff)
        assert isinstance(curve, DiagonalCurve)
        for p in np.linspace(0.0, curve.t - curve.u ** 2 / curve.s, 7):
            q = curve.s - curve.u ** 2 / (curve.t - p)
            assert curve.contains(p, q)
            assert linalg.loewner_le(SymMat.diagonal([p, q]), eff.mat)
            bumped = SymMat.diagonal([p + 1e-4, q])
            assert not linalg.loewner_le(bumped, eff.mat)


class TestSharp:
    def test_identity_and_zero(self):
        assert np.allclose(sharp(SymMat.identity(2)).mat.a, np.eye(2))
        assert np.allclose(sharp(SymMat.zero(2)).mat.a, np.zeros((2, 2)))

    def test_basis_image_exact(self):
        got = sharp(SymMat.diagonal([1.0, 0.0]))
        assert np.array_equal(got.mat.a, np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_rejects_off_diagonal(self):
        with pytest.raises(NotDiagonal):
            sharp(SymMat([[0.5, 0.1], [0.1, 0.5]]))


class TestDiagonalCorner:
    def test_strength_above_half_except_corner(self):
        s = oracle.Sampler(61)
        for _ in range(60):
            level = float(s.rng.uniform(0.5 + 1e-6, 1.0))
            proj = RankOneProjection(s.rng.standard_normal(2))
            assert strength(SymMat.diagonal([level, 1.0]), proj) > 0.5

    def test_exact_corner(self):
        assert strength(SymMat.diagonal([0.5, 1.0]), E1) == 0.5


_P2 = RankOneProjection([1.0, 0.0])
_M3 = SymMat.identity(3)


@pytest.mark.parametrize("call,error", [
    (lambda: RankOneProjection([0.0, 0.0]), BadParameter),
    (lambda: strength(SymMat.identity(2), RankOneProjection([1.0, 0.0, 0.0])), DimensionMismatch),
    (lambda: effects.identity_block(make_effect(SymMat.identity(2)), _P2, _P2), PreconditionViolated),
    (lambda: maximal_diagonals(_M3), DimensionMismatch),
    (lambda: sharp(_M3), DimensionMismatch),
    (lambda: one_third_decompose(_M3, _P2), DimensionMismatch),
    (lambda: maximal_diagonals(SymMat.diagonal([-1.0, 1.0])), NotPSD),
    (lambda: maximal_diagonals(SymMat([[2.0, 0.5], [0.5, 1.0]])), OutOfInterval),
    (lambda: sharp(SymMat.diagonal([2.0, 0.0])), OutOfInterval),
], ids=["zero_direction", "strength_dimensions", "identity_block_p_equals_q",
        "maximal_diagonals_3x3", "sharp_3x3", "one_third_decompose_3x3",
        "maximal_diagonals_not_psd", "maximal_diagonals_entry_above_one",
        "sharp_entry_above_one"])
def test_typed_errors(call, error):
    with pytest.raises(error):
        call()
