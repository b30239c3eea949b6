"""The Cholesky certificates behind the order predicates, the generator
test of EffectAutomorphism and the LDL^t route of strength and inv: their
verdicts agree with the Jacobi route wherever they give one, they hand
near-gate inputs to the Jacobi fallback, and they take the spectra out of
the public calls."""

import importlib
import pathlib

import numpy as np
import pytest

from loewner import automorphisms, linalg, selftest
from loewner.automorphisms import EffectAutomorphism, MobiusParams, mobius_apply, recover_generator
from loewner.effects import (
    RankOneProjection,
    make_effect,
    one_third_decompose,
    rank_one_segment,
    strength,
    strength_witness,
)
from loewner.errors import Singular
from loewner.linalg import DEFAULT_TOL, SymMat, Tolerances

ACCEPTANCE_SEED = 20260811  # tests/test_acceptance.py
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def jacobi_verdict(m, fixed, relative, floor=True):
    """lambda_min(m) >= fixed + relative * max(1, |lambda|max) on the Jacobi
    spectrum (without the max(1, .) when not `floor`), strict for the
    positive-definite gate (relative > 0), as the public callers compare
    it."""
    lam = linalg.eigvalsh(SymMat(m))
    top = float(np.max(np.abs(lam)))
    gate = fixed + relative * (max(1.0, top) if floor else top)
    return float(lam[0]) > gate if relative > 0.0 else float(lam[0]) >= gate


def disagreements(calls):
    return [(m, fixed, relative, floor, verdict)
            for m, fixed, relative, floor, verdict in calls
            if verdict is not None
            and verdict != jacobi_verdict(m, fixed, relative, floor)]


def certify(m, **gate):
    """The verdict of linalg._certificate on the matrix m."""
    return linalg._certificate(linalg._scaled_rows(m), **gate)[0]


def order_recorder(calls):
    """linalg._certificate (behind the order predicates, the [0, I] checks,
    the LDL^t route and strength_witness) wrapped to append
    (m, fixed, relative, floor, verdict), with m = 2^-k times the scaled
    rows that it decided on."""
    certificate = linalg._certificate

    def recording(scaled, fixed=0.0, relative=0.0, refute=True, floor=True):
        result = certificate(scaled, fixed, relative, refute, floor)
        m = np.ldexp(np.array(scaled.rows), -scaled.k)
        calls.append((m, fixed, relative, floor, result[0]))
        return result

    return recording


def generator_recorder(calls):
    """linalg._certify_regular wrapped to append (gram, tol, verdict)."""
    certify_regular = linalg._certify_regular

    def recording(gram, tol):
        verdict = certify_regular(gram, tol)
        calls.append((np.array(gram), tol, verdict))
        return verdict

    return recording


@pytest.fixture
def recorded(monkeypatch):
    """Every order-certificate call made while the fixture is active."""
    calls = []
    monkeypatch.setattr(linalg, "_certificate", order_recorder(calls))
    return calls


@pytest.fixture(scope="module")
def corpus_calls():
    """Every certificate call made by run_selftest(0, 200) and by every
    acceptance criterion's property call: (order calls, generator calls)."""
    order, generator = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_certificate", order_recorder(order))
        patch.setattr(linalg, "_certify_regular", generator_recorder(generator))
        selftest.run_selftest(0, 200)
        s = ACCEPTANCE_SEED
        selftest.check_order_preservation(s, 1000, dims=(2, 3, 4, 5, 6))
        selftest.check_group_law(s + 1, 200)
        selftest.check_fixed_points(s + 2, 100)
        selftest.check_projection_law(s + 3, 200)
        selftest.check_strength_oracle(s + 4, 500)
        selftest.check_witness_biconditional(s + 5, 200)
        selftest.check_recovery_round_trip(s + 6, 50, count=50, dims=(2, 3, 4, 5))
        selftest.check_mobius_bridge(s + 7, 30, count=30)
        selftest.check_two_by_two_fixtures(s + 8, 1)
        selftest.check_interval_atlas(s + 9, 200, per_shape=5)
        selftest.check_conjugation_identity(s + 10, 100, count=100)
    return order, generator


def test_agrees_with_jacobi_on_selftest_and_acceptance_inputs(corpus_calls):
    recorded = corpus_calls[0]
    undecided = sum(call[-1] is None for call in recorded)
    print(f"certificate: {len(recorded)} calls, {undecided} undecided "
          f"({undecided / len(recorded):.2%})")
    assert len(recorded) > 10000
    assert disagreements(recorded) == []


def _near_gate_inputs():
    """Differences M = B - A on and around the gates, as (A, B) pairs."""
    rng = np.random.default_rng(7)
    tau = DEFAULT_TOL.psd_tol
    pairs = []
    for n in (2, 3, 5):
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a = SymMat(rng.standard_normal((n, n)))
        pairs.append((a, a))                                    # A == B
        rank = q[:, :1] @ q[:, :1].T
        pairs.append((a, SymMat(a.a + rank)))                   # rank-deficient B - A
        pairs.append((SymMat(a.a + rank), a))
        for sign in (-1.0, 1.0):
            for wobble in (-1e-12, 0.0, 1e-12):
                lam = np.linspace(0.25, 1.0, n)
                lam[0] = sign * tau * (1.0 + wobble)            # lambda_min at +-tau(1 +- 1e-12)
                pairs.append((SymMat.zero(n), SymMat.diagonal(lam)))
                pairs.append((SymMat.zero(n), SymMat((q * lam) @ q.T)))
    return pairs


def test_agrees_with_jacobi_at_the_gates(recorded):
    for a, b in _near_gate_inputs():
        lam = linalg.eigvalsh(b - a)
        assert linalg.loewner_le(a, b) == linalg._spectral_verdict(lam, False, DEFAULT_TOL)
        assert linalg.loewner_lt(a, b) == linalg._spectral_verdict(lam, True, DEFAULT_TOL)
        assert linalg.is_psd(b - a) == linalg.loewner_le(a, b)
    assert disagreements(recorded) == []
    # The exact diagonal cases sit on the gate to 1e-12: the certificate
    # leaves them to the Jacobi fallback.
    assert sum(call[-1] is None for call in recorded) >= 12


def test_certificate_is_decided_away_from_the_gates():
    rng = np.random.default_rng(3)
    for n in (2, 4, 8, 16):
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        for lam_min, le, lt in ((-0.1, False, False), (0.0, True, False), (0.1, True, True)):
            lam = np.linspace(lam_min, 1.0, n)
            m = (q * lam) @ q.T
            m = (m + m.T) / 2.0
            assert certify(m, relative=-DEFAULT_TOL.psd_tol) is le
            if lam_min != 0.0:
                assert certify(m, relative=DEFAULT_TOL.psd_tol) is lt


def test_extreme_scales_fall_back():
    tiny = np.array([[0.0, 5e-324], [5e-324, 0.0]])
    assert certify(tiny, relative=-1e-9) is None
    assert linalg.is_psd(SymMat(tiny))
    huge = SymMat([[0.0, 1e200], [1e200, 0.0]])
    assert not linalg.is_psd(huge)
    assert linalg.is_psd(SymMat(1e200 * np.eye(2)))


def test_a_gate_that_overflows_falls_back():
    # psd_tol * 2^k overflows in the scaled units of a matrix near 1e-290
    tol = Tolerances(1e30)
    m = SymMat([[1e-290, 3e-291], [3e-291, -2e-290]])
    scaled = linalg._scaled_rows(m.a)
    for relative in (-tol.psd_tol, tol.psd_tol):
        assert linalg._gate_band(scaled, 0.0, relative) is None
    lam = linalg.eigvalsh(m)                          # -2.0e-290, 1.0e-290
    assert linalg.is_psd(m, tol) and linalg._spectral_verdict(lam, False, tol)
    assert not linalg.loewner_lt(SymMat.zero(2), m, tol)


def test_generator_beyond_the_exponent_range_falls_back():
    t = np.ldexp(np.eye(2), -520)                     # T^t T = 2^-1040 I
    assert not linalg._certify_regular(t.T @ t, DEFAULT_TOL)
    with pytest.raises(Singular):
        EffectAutomorphism(t)


def test_generator_whose_determinant_underflows_is_regular_on_both_routes():
    # T = diag(2^-23 x 24, 2^23 x 23): |det T| = 2^-23 clears rank_tol and
    # sigma_min / sigma_max = 2^-46 clears it too, though the product of
    # the ascending eigenvalues of T^t T underflows to 0 after 24 factors.
    # The certificate leaves it to Jacobi, whose test is in the log domain.
    tol = Tolerances(1e-14)
    t = np.diag(np.ldexp(1.0, [-23] * 24 + [23] * 23))
    lam = linalg.eigvalsh(SymMat(t.T @ t))
    assert np.prod(lam) == 0.0
    assert not linalg._certify_regular(t.T @ t, tol)
    assert jacobi_regular(t.T @ t, tol)
    EffectAutomorphism(t, tol)


def jacobi_regular(gram, tol):
    """The Jacobi route of the generator test: no Singular from the spectrum."""
    try:
        automorphisms._require_regular(linalg.eigvalsh(SymMat(gram)), tol)
    except Singular:
        return False
    return True


def wrong_regular_verdicts(calls):
    """Grams the certificate called regular while the Jacobi route does not."""
    return [gram for gram, tol, verdict in calls if verdict and not jacobi_regular(gram, tol)]


def test_generator_certificate_agrees_with_jacobi_on_the_corpus(corpus_calls, monkeypatch):
    calls = list(corpus_calls[1])
    monkeypatch.syspath_prepend(str(BENCH))
    ops = importlib.import_module("ops")
    monkeypatch.setattr(linalg, "_certify_regular", generator_recorder(calls))
    for op in ops.stream(7, ops.DIMS["api-large"], 600):
        if op.kind in ("apply", "compose", "invert"):
            ops.run_library(op)
    for name, part in (("corpus", calls[:len(corpus_calls[1])]),
                       ("api-large", calls[len(corpus_calls[1]):])):
        fallback = sum(not verdict for _, _, verdict in part)
        print(f"generator certificate, {name}: {len(part)} calls, {fallback} undecided")
    assert len(calls) > 1000
    assert wrong_regular_verdicts(calls) == []


def _generator_gate_cases(tol):
    """Generators on and around the two gates of the generator test, scaled
    by powers of two, and rank-deficient."""
    rng = np.random.default_rng(11)
    r = tol.rank_tol
    cases = []
    for wobble in (-1e-6, 1e-6):
        cases.append(np.diag([1.0, r * (1.0 + wobble)]))                 # sigma_min on the gate
        cases.append((r * (1.0 + wobble)) ** (1.0 / 9.0) * np.eye(9))     # |det| on the gate
    base = [rng.standard_normal((n, n)) for n in (2, 3, 5, 8)]
    for k in range(-300, 301, 10):
        cases.extend(np.ldexp(t, k) for t in base)
    for n in (2, 3, 5):
        cases.append(np.zeros((n, n)))
        cases.append(np.outer(rng.standard_normal(n), rng.standard_normal(n)))
        t = rng.standard_normal((n, n))
        t[:, -1] = t[:, 0]
        cases.append(t)
    return cases


@pytest.mark.parametrize("tol", [
    DEFAULT_TOL,
    Tolerances(1e-12),
    Tolerances(1e-3),
])
def test_generator_certificate_agrees_with_jacobi_at_the_gates(tol, monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "_certify_regular", generator_recorder(calls))
    for t in _generator_gate_cases(tol):
        try:
            with np.errstate(over="ignore"):
                EffectAutomorphism(t, tol)
            regular = True
        except Singular:
            regular = False
        assert regular == jacobi_regular(t.T @ t, tol)
    assert wrong_regular_verdicts(calls) == []
    verdicts = [verdict for _, _, verdict in calls]
    # The gate cases and the rank-deficient ones reach the Jacobi fallback.
    assert 0 < verdicts.count(False) < len(verdicts)


def test_generator_certificate_decides_the_det_gate():
    tol = DEFAULT_TOL
    above = (tol.rank_tol * (1.0 + 1e-6)) ** (1.0 / 9.0) * np.eye(9)
    below = (tol.rank_tol * (1.0 - 1e-6)) ** (1.0 / 9.0) * np.eye(9)
    assert linalg._certify_regular(above.T @ above, tol)
    assert not linalg._certify_regular(below.T @ below, tol)
    with pytest.raises(Singular):
        EffectAutomorphism(below)


def jacobi_keeps_and_inverts(m, tol):
    """The Jacobi routes' decisions on m: pinv_and_range keeps every
    eigenvalue (strength's closed form on the full range), and inv finds
    m regular (no Singular)."""
    lam = linalg.eigvalsh(SymMat(m))
    top = float(np.max(np.abs(lam)))
    clamped = np.clip(lam, 0.0, None)
    keeps = (float(lam[0]) >= -linalg._psd_threshold(lam, tol) and top > 0.0
             and bool(np.all(clamped > tol.rank_tol * float(np.max(clamped)))))
    inverts = top > 0.0 and float(np.min(np.abs(lam))) > tol.rank_tol * top
    return keeps, inverts


def definite_route_calls(calls):
    """The floor-free certificate calls, those of linalg._definite_ldl, as
    (m, tol, verdict): their gate is relative = rank_tol, the base of tol."""
    return [(m, Tolerances(relative), verdict)
            for m, fixed, relative, floor, verdict in calls if not floor]


def wrong_definite_verdicts(calls):
    return [m for m, tol, verdict in definite_route_calls(calls)
            if verdict and jacobi_keeps_and_inverts(m, tol) != (True, True)]


def test_definite_route_agrees_with_jacobi_on_the_corpus(corpus_calls, monkeypatch):
    calls = list(corpus_calls[0])
    monkeypatch.syspath_prepend(str(BENCH))
    ops = importlib.import_module("ops")
    monkeypatch.setattr(linalg, "_certificate", order_recorder(calls))
    for op in ops.stream(7, ops.DIMS["api-large"], 600):
        if op.kind in ("strength", "interval", "recover"):
            ops.run_library(op)
    for name, part in (("corpus", calls[:len(corpus_calls[0])]),
                       ("api-large", calls[len(corpus_calls[0]):])):
        part = definite_route_calls(part)
        undecided = sum(verdict is None for _, _, verdict in part)
        print(f"definite route, {name}: {len(part)} calls, {undecided} undecided "
              f"({undecided / len(part):.2%})")
    assert len(definite_route_calls(calls)) > 1000
    assert wrong_definite_verdicts(calls) == []


def _definite_gate_cases(tol):
    """Symmetric matrices with lambda_min = rank_tol * lambda_max (1 +- 1e-6),
    rank-deficient ones, and definite ones away from the gate; each also
    negated and scaled by 2^k."""
    rng = np.random.default_rng(13)
    r = tol.rank_tol
    cases = []
    for n in (2, 3, 5):
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        spectra = [np.linspace(r * (1.0 + wobble), 1.0, n) for wobble in (-1e-6, 1e-6)]
        spectra += [np.linspace(0.0, 1.0, n), np.linspace(0.25, 1.0, n)]
        for lam in spectra:
            for m in (np.diag(lam), (q * lam) @ q.T):
                for k in (-300, 0, 300):
                    cases.extend([SymMat(np.ldexp(m, k)), SymMat(-np.ldexp(m, k))])
    return cases


@pytest.mark.parametrize("tol", [
    DEFAULT_TOL,
    Tolerances(1e-12),
    Tolerances(1e-3),
])
def test_definite_route_agrees_with_jacobi_at_the_gate(tol, monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "_certificate", order_recorder(calls))
    kept = 0
    for m in _definite_gate_cases(tol):
        keeps, inverts = jacobi_keeps_and_inverts(m.a, tol)
        try:
            linalg.inv(m, tol)
            assert inverts
        except Singular:
            assert not inverts
        if keeps:
            kept += 1
            assert strength(m, RankOneProjection(np.arange(1.0, m.n + 1.0)), tol) > 0.0
    assert wrong_definite_verdicts(calls) == []
    verdicts = [verdict for _, _, verdict in definite_route_calls(calls)]
    undecided = verdicts.count(None)
    print(f"definite route at the gate, rank_tol {tol.rank_tol:g}: {len(verdicts)} calls, "
          f"{undecided} undecided")
    # The gate cases and the rank-deficient ones reach the Jacobi fallback.
    assert kept > 0 and 0 < undecided < len(verdicts)


def test_ldl_refuses_a_matrix_that_is_not_definite():
    assert linalg._ldl([[1.0, 2.0], [2.0, 1.0]]) is None
    assert linalg._ldl([[0.0]]) is None
    assert linalg._ldl([[4.0, 2.0], [2.0, 5.0]]) == ([[], [0.5]], [4.0, 4.0])


def test_failed_factorization_gives_a_direction_of_negative_curvature():
    # the Cholesky of h stops at pivot 1, -3 - 1^2 = -4; x = (-1/2, 1, 0)
    h = [[4.0, 2.0, 0.0], [2.0, -3.0, 1.0], [0.0, 1.0, 5.0]]
    factor, pivots = linalg._cholesky(h, 0.0)
    assert pivots == [4.0, -4.0] and factor == [[2.0], [1.0]]
    x = linalg._negative_curvature(factor, 3)
    assert np.allclose(x * np.sqrt(1.25), [-0.5, 1.0, 0.0], rtol=0, atol=1e-15)
    assert float(x @ np.array(h) @ x) == pytest.approx(-4.0 / 1.25, rel=1e-15)
    # a solve through diagonal entries of 1e-200 overflows
    assert linalg._negative_curvature([[1e-200], [1.0, 1e-200], [1.0, 1.0]], 3) is None


class TestSpectraPerCall:
    """Spectral decompositions per public call, counted at the kernel."""

    @pytest.fixture
    def count(self, monkeypatch):
        kinds = []
        jacobi = linalg._jacobi

        def counting(m, want_vectors):
            kinds.append("eigh" if want_vectors else "eigvalsh")
            return jacobi(m, want_vectors)

        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            kinds.append("svd")
            return svd(*args, **kwargs)

        monkeypatch.setattr(linalg, "_jacobi", counting)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)

        def run(fn, *args):
            kinds.clear()
            fn(*args)
            return sorted(kinds)

        return run

    def test_predicates_away_from_the_gate(self, count):
        low = SymMat([[0.5, 0.1, 0.0], [0.1, 0.4, 0.0], [0.0, 0.0, 0.3]])
        high = SymMat(low.a + np.eye(3))
        assert count(linalg.loewner_le, low, high) == []
        assert count(linalg.loewner_le, high, low) == []
        assert count(linalg.loewner_lt, low, high) == []
        assert count(linalg.is_psd, low) == []
        assert count(make_effect, low) == []

    def test_strength_on_full_rank_takes_no_spectrum(self, count):
        a = SymMat([[2.0, 0.5], [0.5, 1.0]])
        assert count(strength, a, RankOneProjection([1.0, 1.0])) == []

    def test_strength_on_singular_is_one_eigh(self, count):
        a = SymMat([[1.0, 1.0], [1.0, 1.0]])
        assert count(strength, a, RankOneProjection([1.0, 1.0])) == ["eigh"]
        assert count(strength, a, RankOneProjection([1.0, 0.0])) == ["eigh"]

    def test_inv_of_definite_takes_no_spectrum(self, count):
        a = SymMat([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 0.7]])
        assert count(linalg.inv, a) == []
        assert count(linalg.inv, -a) == []

    def test_inv_of_indefinite_is_one_eigh(self, count):
        assert count(linalg.inv, SymMat([[1.0, 2.0], [2.0, 1.0]])) == ["eigh"]

    def test_witness_on_incomparable_pair_takes_no_spectrum(self, count):
        first, second = SymMat.diagonal([1.0, 0.0]), SymMat.diagonal([0.0, 1.0])
        assert count(strength_witness, first, second) == []

    def test_witness_on_an_undecided_pair_is_one_eigh(self, count):
        # B - A = diag(0.4, -psd_tol (1 + 1e-6)) sits just past the order
        # gate, where the certificate is undecided: one eigh decides A <= B
        # and gives the direction
        first = SymMat.diagonal([0.3, 0.3])
        second = SymMat.diagonal([0.7, 0.3 - 1e-9 * (1.0 + 1e-6)])
        assert certify((second - first).a, relative=-DEFAULT_TOL.psd_tol) is None
        assert count(strength_witness, first, second) == ["eigh"]
        proj, t = strength_witness(first, second)
        assert np.array_equal(np.abs(proj.x), [0.0, 1.0]) and t == 0.3

    def test_recover_on_an_exact_black_box(self, count, monkeypatch):
        # sqrt_psd's eigh and the residual probes' eigvalsh; every probe
        # image is a projection to rounding, so no direction takes eigh
        monkeypatch.syspath_prepend(str(BENCH))
        ops = importlib.import_module("ops")
        t = np.array([[2.0, 0.3, 0.0, 0.1], [0.1, 1.0, 0.2, 0.0],
                      [0.0, 0.4, 0.7, 0.3], [0.2, 0.0, 0.1, 1.5]])
        assert count(recover_generator, ops.black_box(t), 4) == ["eigh"] + ["eigvalsh"] * 10

    def test_project_image_is_the_spectrum_of_apply(self, count):
        phi = EffectAutomorphism(np.array([[2.0, 0.3, 0.0], [0.1, 1.0, 0.2], [0.0, 0.4, 0.7]]))
        assert count(phi.project_image, RankOneProjection([1.0, 2.0, 3.0])) == ["eigh"]

    def test_construction_takes_no_spectrum(self, count):
        t = np.array([[2.0, 0.3, 0.0], [0.1, 1.0, 0.2], [0.0, 0.4, 0.7]])
        assert count(EffectAutomorphism, t) == []

    def test_compose_and_inverse_take_no_spectrum(self, count):
        phi = EffectAutomorphism(np.array([[2.0, 0.3, 0.0], [0.1, 1.0, 0.2], [0.0, 0.4, 0.7]]))
        psi = EffectAutomorphism(np.array([[1.0, 0.0, 0.5], [0.2, 0.8, 0.0], [0.0, 0.3, 1.5]]))
        assert count(phi.compose, psi) == []
        assert count(phi.inverse) == []

    def test_extension_bound_is_one_eigvalsh_when_read(self, count):
        phi = EffectAutomorphism(np.array([[0.5, 0.1], [0.0, 0.8]]))
        assert count(lambda: phi.extension_bound) == ["eigvalsh"]

    def test_apply_on_interior_input_takes_no_spectrum(self, count):
        phi = EffectAutomorphism(np.array([[2.0, 0.3], [0.1, 1.0]]))
        assert count(phi.apply, SymMat([[0.5, 0.1], [0.1, 0.4]])) == []

    def test_rank_one_segment_is_one_eigh(self, count):
        # B - A = diag(0.4, -psd_tol (1 - 1e-6)) sits on the order gate,
        # where loewner_le's certificate is undecided
        low = make_effect(SymMat.diagonal([0.3, 0.3]))
        high = make_effect(SymMat.diagonal([0.7, 0.3 - 1e-9 * (1.0 - 1e-6)]))
        assert certify((high.mat - low.mat).a, relative=-DEFAULT_TOL.psd_tol) is None
        assert count(rank_one_segment, low, high) == ["eigh"]
        assert count(rank_one_segment, low, low) == ["eigh"]

    def test_one_third_decompose_is_one_eigh(self, count):
        a = SymMat([[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]])
        assert count(one_third_decompose, a, RankOneProjection([1.0, 0.0])) == ["eigh"]
        assert count(one_third_decompose, SymMat.identity(2), RankOneProjection([1.0, 0.0])) == ["eigh"]

    def test_apply_on_a_projection_is_one_eigh(self, count):
        # The image is a projection too, on the boundary of [0, I]: the
        # certificate leaves it to eigh, and its spectrum stays inside the
        # psd_tol band, so the noise gate takes no spectrum of its own.
        phi = EffectAutomorphism(np.array([[2.0, 0.3, 0.0], [0.1, 1.0, 0.2], [0.0, 0.4, 0.7]]))
        projection = RankOneProjection([1.0, 2.0, 3.0])
        assert count(phi.apply, projection.mat) == ["eigh"]

    def test_mobius_apply_is_four_eigh(self, count):
        # f_p of T X T^t and of T T^t, the normalizer, and f_q of the
        # middle term, whose [0, I] check reads the same spectrum; the
        # interior result is certified without one
        params = MobiusParams(0.3, -0.5, np.array([[0.8, 0.1], [0.0, 0.6]]))
        x = SymMat([[0.5, 0.1], [0.1, 0.4]])
        assert count(mobius_apply, params, x) == ["eigh"] * 4


class TestScalingsPerCall:
    """Power-of-two scalings (_scaled_rows) per public call: the certificate
    and the LDL^t factor share one scaling of each matrix, and its negation
    reuses it. A Jacobi fallback would add a scaling of its own."""

    @pytest.fixture
    def count(self, monkeypatch):
        calls = []
        scaled_rows = linalg._scaled_rows

        def counting(m):
            calls.append(m)
            return scaled_rows(m)

        monkeypatch.setattr(linalg, "_scaled_rows", counting)

        def run(fn, *args):
            calls.clear()
            fn(*args)
            return len(calls)

        return run

    def test_make_effect_on_a_certified_effect(self, count):
        assert count(make_effect, SymMat([[0.5, 0.1], [0.1, 0.4]])) == 1

    def test_apply_on_an_effect_with_a_certified_image(self, count):
        phi = EffectAutomorphism(np.array([[2.0, 0.3], [0.1, 1.0]]))
        x = make_effect(SymMat([[0.5, 0.1], [0.1, 0.4]]))
        assert count(phi.apply, x) == 1

    def test_inv_of_a_definite_matrix(self, count):
        a = SymMat([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 0.7]])
        assert count(linalg.inv, a) == 1
        assert count(linalg.inv, -a) == 1

    def test_strength_on_full_rank(self, count):
        a = SymMat([[2.0, 0.5], [0.5, 1.0]])
        assert count(strength, a, RankOneProjection([1.0, 1.0])) == 1
