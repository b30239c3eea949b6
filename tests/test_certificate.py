"""The Cholesky certificates behind the order predicates, the generator
test of EffectAutomorphism and the LDL^t route of strength and inv: their
verdicts agree with the Jacobi route wherever they give one, they hand
near-gate inputs to the Jacobi fallback, and they take the spectra out of
the public calls."""

import importlib
import math
import pathlib
import warnings
from fractions import Fraction

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
from loewner.errors import NotPSD, Singular
from loewner.linalg import DEFAULT_TOL, SymMat, Tolerances

ACCEPTANCE_SEED = 20260811  # tests/test_acceptance.py
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def jacobi_verdict(m, relative, floor=True):
    """lambda_min(m) >= relative * max(1, |lambda|max) on the Jacobi
    spectrum (without the max(1, .) when not `floor`), strict for the
    positive-definite gate (relative > 0), as the public callers compare
    it."""
    lam = linalg.eigvalsh(SymMat(m))
    top = float(np.max(np.abs(lam)))
    gate = relative * (max(1.0, top) if floor else top)
    return float(lam[0]) > gate if relative > 0.0 else float(lam[0]) >= gate


def disagreements(calls):
    return [(m, relative, floor, verdict)
            for m, relative, floor, verdict in calls
            if verdict is not None
            and verdict != jacobi_verdict(m, relative, floor)]


def by_side(calls, undecided):
    """'n < 8: u of c, n >= 8: u of c' for calls whose first item is the
    matrix: the undecided count on each side of the crossover to LAPACK
    factorizations (linalg._LAPACK_ORDER)."""
    sides = []
    for name, side in (("n < 8", lambda n: n < linalg._LAPACK_ORDER),
                       ("n >= 8", lambda n: n >= linalg._LAPACK_ORDER)):
        part = [call for call in calls if side(np.shape(call[0])[0])]
        sides.append(f"{name}: {sum(map(undecided, part))} of {len(part)}")
    return ", ".join(sides)


def certify(m, **gate):
    """The verdict of linalg._certificate on the matrix m."""
    return linalg._certificate(linalg._scaled_rows(m), **gate)[0]


def order_recorder(calls):
    """linalg._certificate (behind the order predicates, the LDL^t route
    and strength_witness) wrapped to append (m, relative, floor, verdict),
    with m = 2^-k times the scaled rows that it decided on."""
    certificate = linalg._certificate

    def recording(scaled, relative=0.0, refute=True, floor=True):
        result = certificate(scaled, relative, refute, floor)
        m = np.ldexp(np.array(scaled.rows), -scaled.k)
        calls.append((m, relative, floor, result[0]))
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


def within_recorder(calls):
    """linalg._certified_within (the [lo, hi] checks of make_effect and
    EffectAutomorphism.apply) wrapped to append (m, lo, hi, verdict)."""
    certified_within = linalg._certified_within

    def recording(m, lo, hi):
        verdict = certified_within(m, lo, hi)
        calls.append((np.array(m), lo, hi, verdict))
        return verdict

    return recording


def pivoted_recorder(calls):
    """linalg._pivoted_strength (strength on an A that the LDL^t route
    leaves) wrapped to append (m, x, tol, answer)."""
    pivoted_strength = linalg._pivoted_strength

    def recording(scaled, x, tol):
        answer = pivoted_strength(scaled, x, tol)
        calls.append((np.ldexp(np.array(scaled.rows), -scaled.k), np.array(x), tol, answer))
        return answer

    return recording


@pytest.fixture(scope="module")
def corpus_calls():
    """Every certificate call made by run_selftest(0, 200) and by every
    acceptance criterion's property call: (order calls, generator calls,
    [lo, hi] checks, pivoted strength answers)."""
    order, generator, within, pivoted = [], [], [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_certificate", order_recorder(order))
        patch.setattr(linalg, "_certify_regular", generator_recorder(generator))
        patch.setattr(linalg, "_certified_within", within_recorder(within))
        patch.setattr(linalg, "_pivoted_strength", pivoted_recorder(pivoted))
        selftest.run_selftest(0, 200)
        s = ACCEPTANCE_SEED
        selftest.check_order_preservation(s, 1000)
        selftest.check_group_law(s + 1, 200)
        selftest.check_fixed_points(s + 2, 100)
        selftest.check_projection_law(s + 3, 200)
        selftest.check_strength_oracle(s + 4, 500)
        selftest.check_witness_biconditional(s + 5, 200)
        selftest.check_recovery_round_trip(s + 6, 50, count=50)
        selftest.check_mobius_bridge(s + 7, 30, count=30)
        selftest.check_two_by_two_fixtures(s + 8, 1)
        selftest.check_interval_atlas(s + 9, 200, per_shape=5)
        selftest.check_conjugation_identity(s + 10, 100)
    return order, generator, within, pivoted


def test_agrees_with_jacobi_on_selftest_and_acceptance_inputs(corpus_calls):
    recorded = corpus_calls[0]
    undecided = sum(call[-1] is None for call in recorded)
    print(f"certificate: {len(recorded)} calls, {undecided} undecided "
          f"({undecided / len(recorded):.2%})")
    assert len(recorded) > 10000
    assert disagreements(recorded) == []


def jacobi_within(m, lo, hi):
    """The Jacobi route of a [lo, hi] check: the eigvalsh spectrum of m
    lies in [lo, hi]."""
    lam = linalg.eigvalsh(SymMat(m))
    return lo <= float(lam[0]) and float(lam[-1]) <= hi


def wrong_within_verdicts(calls):
    """[lo, hi] checks that the certificate passed while Jacobi does not."""
    return [(m, lo, hi) for m, lo, hi, verdict in calls if verdict and not jacobi_within(m, lo, hi)]


def test_within_agrees_with_jacobi_on_selftest_and_acceptance_inputs(corpus_calls):
    calls = corpus_calls[2]
    undecided = sum(not verdict for *_, verdict in calls)
    print(f"[lo, hi] check: {len(calls)} calls, {undecided} undecided "
          f"({undecided / len(calls):.2%})")
    assert len(calls) > 10000
    assert wrong_within_verdicts(calls) == []


def spectral_route(m, tol):
    """The spectral route of strength on m: pinv_and_range and the number
    of eigenvalues it keeps, or None when it raises NotPSD."""
    a = SymMat(m)
    try:
        pinv, in_range = linalg.pinv_and_range(a, tol)
    except NotPSD:
        return None
    lam = linalg.eigvalsh(a)
    return pinv, in_range, int(np.sum(lam > tol.rank_tol * float(lam[-1])))


def pivoted_rank(m, tol):
    """The number of pivots of the factorization behind _pivoted_strength."""
    scaled = linalg._scaled_rows(m)
    top = max(row[i] for i, row in enumerate(scaled.rows))
    return len(linalg._pivoted_cholesky(scaled.rows, tol.rank_tol * top / m.shape[0])[0])


def wrong_pivoted_answers(calls, rel=1e-12):
    """Decided pivoted answers that the spectral route does not share: it
    raises NotPSD, decides the range the other way, keeps another number
    of eigenvalues than the factor's rank along a direction in the range,
    or answers more than `rel` (relative) away. One spectral route per
    matrix."""
    routes, wrong = {}, []
    for m, x, tol, answer in calls:
        if answer is None:
            continue
        if (id(m), tol) not in routes:
            routes[id(m), tol] = spectral_route(m, tol)
        route = routes[id(m), tol]
        if route is None or not route[1](x):
            if route is None or answer != 0.0:
                wrong.append((m, x, answer, route))
            continue
        pinv, _, kept = route
        spectral = 1.0 / float(x @ pinv.a @ x)
        if not (answer and kept == pivoted_rank(m, tol) and abs(answer - spectral) <= rel * spectral):
            wrong.append((m, x, answer, spectral))
    return wrong


def test_off_range_agrees_with_jacobi_on_selftest_and_acceptance_inputs(corpus_calls):
    calls = corpus_calls[3]
    off = sum(answer == 0.0 for *_, answer in calls)
    inside = sum(bool(answer) for *_, answer in calls)
    print(f"pivoted strength: {len(calls)} calls, {off} decided off the range, "
          f"{inside} decided in it")
    assert off > 100 and inside > 0
    assert wrong_pivoted_answers(calls) == []


def _within_gate_cases():
    """(m, lo, hi) on and around the ends of make_effect's [-tau, 1 + tau]
    and apply's [0, 1]: spectra at lo and hi +- tau (1 +- 1e-12), rank-k
    projections, and both scaled by 2^j with the ends; on both sides of
    the crossover to LAPACK factorizations (n = 8)."""
    rng = np.random.default_rng(17)
    tau = DEFAULT_TOL.psd_tol
    cases = []
    for n in (2, 3, 5, 8, 12, 16):
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        spectra = [np.linspace(0.0, 1.0, k + 2)[1:-1].tolist() + [0.0] * (n - k - 1) + [1.0]
                   for k in range(n - 1)]                        # touching both ends
        spectra += [[0.0] * k + [1.0] * (n - k) for k in range(n + 1)]   # projections
        for end in (0.0, 1.0):
            for sign in (-1.0, 1.0):
                for wobble in (-1e-12, 0.0, 1e-12):
                    lam = np.linspace(0.25, 0.75, n)
                    lam[0 if end == 0.0 else -1] = end + sign * tau * (1.0 + wobble)
                    spectra.append(lam)
        for lam in spectra:
            for m in (np.diag(lam), (q * lam) @ q.T):
                m = (m + m.T) / 2.0
                for lo, hi in ((-tau, 1.0 + tau), (0.0, 1.0)):
                    for j in (-600, 0, 600):
                        cases.append((np.ldexp(m, j), math.ldexp(lo, j), math.ldexp(hi, j)))
    return cases


def test_within_agrees_with_jacobi_at_the_ends():
    calls = [(m, lo, hi, linalg._certified_within(m, lo, hi)) for m, lo, hi in _within_gate_cases()]
    assert wrong_within_verdicts(calls) == []
    verdicts = [verdict for *_, verdict in calls]
    # each 2^j scaling of a nonzero m, the ends scaled alike, gets the
    # verdict of the unscaled check (m = 0 does not scale, its ends do)
    for i in range(0, len(calls), 3):
        if np.any(calls[i][0]):
            assert verdicts[i] == verdicts[i + 1] == verdicts[i + 2]
    undecided = verdicts.count(False)
    print(f"[lo, hi] check at the ends: {len(verdicts)} calls, {undecided} undecided "
          f"({by_side(calls, lambda call: not call[-1])})")
    assert 0 < undecided < len(verdicts)


@pytest.mark.parametrize("j", [-1010, 1010])
def test_within_is_undecided_past_the_exponent_range(j):
    # |k| > 1000 is the exponent guard of every certificate
    m = np.ldexp(np.array([[0.5, 0.1], [0.1, 0.4]]), j)
    ends = (-DEFAULT_TOL.psd_tol, 1.0 + DEFAULT_TOL.psd_tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not linalg._certified_within(m, *ends)
    assert jacobi_within(m, *ends) == (j < 0)


@pytest.mark.parametrize("j", [-600, -990])
def test_within_certifies_a_tiny_m_against_wide_ends(j):
    # 2^j m against [-tau, 1 + tau]: the ends scaled by 2^k of m are large
    # next to m's entries, and neither overflows
    m = np.ldexp(np.array([[0.5, 0.1], [0.1, 0.4]]), j)
    ends = (-DEFAULT_TOL.psd_tol, 1.0 + DEFAULT_TOL.psd_tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert linalg._certified_within(m, *ends)
    assert jacobi_within(m, *ends)


def test_within_is_certified_for_a_tiny_m_against_an_end_at_zero():
    # 2^-700 m against [0, 1]: each end is checked on its own at m's
    # scale, so nothing is formed that could fall below the normal range,
    # and the spectral route agrees that it is inside
    m = np.ldexp(np.array([[0.5, 0.1], [0.1, 0.4]]), -700)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert linalg._certified_within(m, 0.0, 1.0)
    assert jacobi_within(m, 0.0, 1.0)


def within_shift(m, lo, hi):
    """[(s, e, k) at lo, (s, e, k) at hi]: the Cholesky shift of each of
    the two proving attempts of the [lo, hi] check, s = e + 2 (eps_c +
    eps_j), with e = 2^k lo at lo and -2^k hi at hi (the attempt at hi
    factors -2^k m), from the margins its proof names."""
    scaled = linalg._scaled_rows(m)
    n, k = m.shape[0], scaled.k
    eps_j = linalg._jacobi_error(n, scaled.frob)
    shifts = []
    for e in (math.ldexp(lo, k), -math.ldexp(hi, k)):
        eps_c = 2.0 * n * (n + 1) * 2.0 ** -53 * (scaled.diag + abs(e) + scaled.frob)
        shifts.append((e + 2.0 * (eps_c + eps_j), e, k))
    return shifts


@pytest.mark.parametrize("rest, lo, hi", [
    ([], -1.0, 1.0),                                    # n = 1
    ([1.0, 1.0], 0.0, 2.0 ** 10),                       # hi - lo = 2^10
    ([0.25], -DEFAULT_TOL.psd_tol, 1.0 + DEFAULT_TOL.psd_tol),   # make_effect's ends
])
def test_within_band_is_as_wide_as_its_proof(rest, lo, hi):
    # A diagonal m has an exact Jacobi spectrum and pivots exact to
    # rounding, so the attempt at an end passes exactly when the entry
    # next to it lies inside by more than that end's margin s - e (in
    # scaled units): 2% short of it is undecided, 2% past it is
    # certified, at each end in turn while every entry is far from the
    # other.
    for at_hi, end, sign in ((0, lo, 1.0), (1, hi, -1.0)):
        for factor, certified in ((0.98, False), (1.02, True)):
            shift, e, k = within_shift(np.diag([end] + rest), lo, hi)[at_hi]
            m = np.diag([end + sign * factor * math.ldexp(shift - e, -k)] + rest)
            shift, e, k = within_shift(m, lo, hi)[at_hi]
            inside = sign * math.ldexp(m[0, 0], k) - e
            assert abs(inside / (shift - e) - factor) < 0.005
            assert linalg._certified_within(m, lo, hi) is certified
            assert jacobi_within(m, lo, hi)


@pytest.mark.parametrize("n", [2, 3, 8, 12])
def test_within_never_passes_what_jacobi_refuses_at_any_scale(n):
    # spectra with an eigenvalue within 1e-15 .. 1e-8 of the low end of
    # make_effect's or apply's interval, of the high end, or one at each,
    # inside it (3 in 4) or outside, the rest in its interior; scaled with
    # the ends by 2^j for j in [-1000, 1000], where a j that puts the
    # scaled rows past the exponent-range guard (|k| > 1000, tested above)
    # is skipped
    rng = np.random.default_rng(41 + n)
    tau = DEFAULT_TOL.psd_tol
    seen = set()
    for trial in range(32):
        lo, hi = ((-tau, 1.0 + tau), (0.0, 1.0))[int(rng.integers(2))]
        lam = np.sort(rng.uniform(0.1, 0.9, n))
        inward = 10.0 ** rng.uniform(-15.0, -8.0, 2) * rng.choice([-1.0, 1.0, 1.0, 1.0], 2)
        if trial % 3 != 1:
            lam[0] = lo + inward[0]
        if trial % 3 != 0:
            lam[-1] = hi - inward[1]
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        m = (q * lam) @ q.T
        m = (m + m.T) / 2.0
        k = linalg._scaled_rows(m).k
        verdicts = set()
        for j in [-1000, 0, 1000] + rng.integers(-1000, 1001, 3).tolist():
            if abs(k - j) > 1000:
                continue
            mj, ends = np.ldexp(m, j), (math.ldexp(lo, j), math.ldexp(hi, j))
            verdict = linalg._certified_within(mj, *ends)
            assert not verdict or jacobi_within(mj, *ends)
            verdicts.add(verdict)
        assert len(verdicts) == 1
        seen |= verdicts
    assert seen == {False, True}


def _singular_corpus(seed):
    """(m, directions) for every rank r at n = 2..16: m = Q diag(0, lam) Q^t
    with r eigenvalues log-uniform in [1e-2, 1] (the condition cap of the
    samplers), and unit directions at angles 0 (in the range) and 1e-6 ..
    pi/2 off it; plus the zero matrix."""
    rng = np.random.default_rng(seed)
    corpus = [(np.zeros((3, 3)), [np.ones(3) / math.sqrt(3.0)])]
    for n in range(2, 17):
        for r in range(1, n):
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            lam = np.zeros(n)
            lam[n - r:] = np.exp(rng.uniform(math.log(1e-2), 0.0, r))
            m = (q * lam) @ q.T
            inside = q[:, n - r:] @ rng.standard_normal(r)
            out = q[:, :n - r] @ rng.standard_normal(n - r)
            inside, out = inside / np.linalg.norm(inside), out / np.linalg.norm(out)
            corpus.append(((m + m.T) / 2.0, [math.cos(theta) * inside + math.sin(theta) * out
                                             for theta in (0.0, 1e-6, 1e-4, 1e-2, 0.1, 0.5, math.pi / 2)]))
    return corpus


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerances(1e-12), Tolerances(1e-3)])
def test_off_range_agrees_with_jacobi_on_singular_matrices(tol):
    calls = []
    for m, directions in _singular_corpus(19):
        scaled = linalg._scaled_rows(m)
        calls += [(m, x, tol, linalg._pivoted_strength(scaled, x, tol))
                  for x in (RankOneProjection(d).x for d in directions)]
    # a direction within the gate of the range but not in it: the factor's
    # closed form and the truncated spectrum's part by about that much
    assert wrong_pivoted_answers(calls, rel=max(1e-12, 10.0 * tol.rank_tol)) == []
    off = sum(answer == 0.0 for *_, answer in calls)
    inside = sum(bool(answer) for *_, answer in calls)
    print(f"pivoted strength, singular corpus, rank_tol {tol.rank_tol:g}: {len(calls)} directions, "
          f"{off} decided off the range, {inside} in it")
    # at the default even the directions 1e-6 off the range are decided
    assert off + inside > 0.95 * len(calls) if tol is DEFAULT_TOL else inside > 0 and off > 0


def test_in_range_strength_on_the_singular_corpus_takes_no_spectrum(monkeypatch):
    # the in-range direction of every matrix at n = 8..16: at least 90%
    # are answered from the factor
    spectra = []
    jacobi = linalg._jacobi
    monkeypatch.setattr(linalg, "_jacobi", lambda m, want_vectors: spectra.append(m.shape[0]) or jacobi(m, want_vectors))
    cases = [(m, directions[0]) for m, directions in _singular_corpus(19) if 8 <= m.shape[0] <= 16]
    for m, x in cases:
        assert strength(SymMat(m), RankOneProjection(x)) > 0.0
    print(f"in-range strength, singular corpus at n = 8..16: {len(spectra)} of {len(cases)} "
          f"took a spectrum")
    assert len(cases) == 99 and len(spectra) <= 9


def _solve_exactly(g, b):
    """g w = b by Gaussian elimination over the rationals (g nonsingular)."""
    n = len(b)
    rows = [row + [bi] for row, bi in zip(g, b)]
    for i in range(n):
        pivot = next(j for j in range(i, n) if rows[j][i])
        rows[i], rows[pivot] = rows[pivot], rows[i]
        for j in range(i + 1, n):
            f = rows[j][i] / rows[i][i]
            rows[j] = [a - f * c for a, c in zip(rows[j], rows[i])]
    w = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        w[i] = (rows[i][n] - sum(rows[i][j] * w[j] for j in range(i + 1, n))) / rows[i][i]
    return w


def exact_strength(v, x):
    """1 / <A+ x, x> for A = V V^t in rational arithmetic: with V of full
    column rank, A+ = V (V^t V)^-2 V^t, so <A+ x, x> = |(V^t V)^-1 V^t x|^2."""
    n, r = v.shape
    vs = [[Fraction(int(e)) for e in row] for row in v]
    xs = [Fraction(float(e)) for e in x]
    gram = [[sum(vs[k][i] * vs[k][j] for k in range(n)) for j in range(r)] for i in range(r)]
    w = _solve_exactly(gram, [sum(vs[k][i] * xs[k] for k in range(n)) for i in range(r)])
    return 1 / sum(wi * wi for wi in w)


def test_factor_answer_is_as_close_as_eigh_to_the_exact_one():
    # A = V V^t for small integer V is exact in floating point and of rank
    # r; x = V c is in its range up to the rounding of its normalization
    rng = np.random.default_rng(53)
    factor, spectral = [], []
    for n in range(8, 17):
        for r in range(1, n, 2):
            v = rng.integers(-3, 4, (n, r)).astype(float)
            if np.linalg.matrix_rank(v) < r:
                continue
            c = rng.integers(-3, 4, r).astype(float)
            c[0] = c[0] or 1.0
            a, x = v @ v.T, RankOneProjection(v @ c).x
            want = exact_strength(v, x)
            got = linalg._pivoted_strength(linalg._scaled_rows(a), x, DEFAULT_TOL)
            pinv, in_range = linalg.pinv_and_range(SymMat(a), DEFAULT_TOL)
            assert got is not None and in_range(x)
            factor.append(float(abs(Fraction(got) - want) / want))
            spectral.append(float(abs(Fraction(1.0 / float(x @ pinv.a @ x)) - want) / want))
    closer = sum(f <= s for f, s in zip(factor, spectral))
    print(f"relative error against the exact answer, {len(factor)} cases: factor median "
          f"{np.median(factor):.2e} max {max(factor):.2e}, eigh median {np.median(spectral):.2e} "
          f"max {max(spectral):.2e}; factor at least as close in {closer}")
    assert len(factor) > 40
    assert sum(factor) <= sum(spectral) and np.median(factor) <= np.median(spectral)
    assert 2 * closer > len(factor) and max(factor) < 1e-14


@pytest.mark.parametrize("diagonal", [[1.0, -1.0, 0.0], [1.0, 0.5, -1e-3, 0.0]])
def test_off_range_of_an_indefinite_a_is_not_psd(diagonal):
    # x spans the null space of the factor, and of A: only the Schur
    # complement's norm shows the negative eigenvalue that the keep test
    # must see, so the spectral route raises NotPSD
    q = np.linalg.qr(np.random.default_rng(23).standard_normal((len(diagonal),) * 2))[0]
    for frame in (np.eye(len(diagonal)), q):
        m = (frame * diagonal) @ frame.T
        a, x = SymMat((m + m.T) / 2.0), RankOneProjection(frame[:, -1])
        assert linalg._pivoted_strength(linalg._scaled_rows(a.a), x.x, DEFAULT_TOL) is None
        with pytest.raises(NotPSD):
            strength(a, x)


def test_off_range_of_an_indefinite_a_with_a_tiny_pivot_is_not_psd():
    # the pivot 1e-160 next to unit off-diagonal entries puts about 1e160
    # in the Schur complement, whose square overflows: the keep test must
    # fail on it, not raise, so the spectral route gives NotPSD
    a = SymMat([[1e-160, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    x = RankOneProjection([0.0, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert linalg._pivoted_strength(linalg._scaled_rows(a.a), x.x, DEFAULT_TOL) is None
        with pytest.raises(NotPSD):
            strength(a, x)


@pytest.mark.parametrize("j", [-1010, 1010])
def test_off_range_past_the_exponent_range_falls_back(j):
    m = np.ldexp(np.diag([1.0, 0.5, 0.0]), j)
    x = RankOneProjection([0.0, 1.0, 1.0])
    assert linalg._pivoted_strength(linalg._scaled_rows(m), x.x, DEFAULT_TOL) is None
    assert strength(SymMat(m), x) == 0.0


def _near_gate_inputs():
    """Differences M = B - A on and around the gates, as (A, B) pairs."""
    rng = np.random.default_rng(7)
    tau = DEFAULT_TOL.psd_tol
    pairs = []
    for n in (2, 3, 5, 8, 12, 16):
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
    print(f"order certificate at the gates: {len(recorded)} calls, undecided "
          f"{by_side(recorded, lambda call: call[-1] is None)}")
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


def test_a_tolerance_whose_gate_would_overflow_is_refused():
    # psd_tol * 2^k would overflow in the scaled units of a matrix near
    # 1e-290 only for a tolerance far above 1, which Tolerances refuses;
    # below 1 the band is finite and the verdict agrees with Jacobi
    with pytest.raises(ValueError, match="below 1"):
        Tolerances(1e30)
    tol = Tolerances(0.5)
    m = SymMat([[1e-290, 3e-291], [3e-291, -2e-290]])
    for relative in (-tol.psd_tol, tol.psd_tol):
        verdict = certify(m.a, relative=relative)
        assert verdict is not None and verdict == jacobi_verdict(m.a, relative)
    assert linalg.is_psd(m, tol) and not linalg.loewner_lt(SymMat.zero(2), m, tol)


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
        for n in (2, 8, 12, 16):
            cases.append(np.diag([1.0] * (n - 1) + [r * (1.0 + wobble)]))  # sigma_min on the gate
        for n in (9, 12, 16):
            cases.append((r * (1.0 + wobble)) ** (1.0 / n) * np.eye(n))     # |det| on the gate
    base = [rng.standard_normal((n, n)) for n in (2, 3, 5, 8, 12, 16)]
    for k in range(-300, 301, 10):
        cases.extend(np.ldexp(t, k) for t in base)
    for n in (2, 3, 5, 8, 12, 16):
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
    print(f"generator certificate at the gates, rank_tol {tol.rank_tol:g}: {len(calls)} calls, "
          f"undecided {by_side(calls, lambda call: not call[-1])}")
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
    keeps = (float(lam[0]) >= -tol.psd_tol * max(1.0, top) and top > 0.0
             and bool(np.all(clamped > tol.rank_tol * float(np.max(clamped)))))
    inverts = top > 0.0 and float(np.min(np.abs(lam))) > tol.rank_tol * top
    return keeps, inverts


def definite_route_calls(calls):
    """The floor-free certificate calls, those of linalg._definite_ldl, as
    (m, tol, verdict): their gate is relative = rank_tol, the base of tol."""
    return [(m, Tolerances(relative), verdict)
            for m, relative, floor, verdict in calls if not floor]


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
    for n in (2, 3, 5, 8, 12, 16):
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
          f"{undecided} undecided ({by_side(definite_route_calls(calls), lambda call: call[-1] is None)})")
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

    def test_strength_in_the_range_of_a_singular_a_takes_no_spectrum(self, count):
        a = SymMat([[1.0, 1.0], [1.0, 1.0]])
        assert count(strength, a, RankOneProjection([1.0, 1.0])) == []
        assert strength(a, RankOneProjection([1.0, 1.0])) == pytest.approx(2.0, rel=1e-15)

    def test_strength_in_the_range_of_a_singular_a_is_one_eigh(self, count):
        # the kept eigenvalue 1e-7 is so small that the bound on how far
        # the discarded eigenvectors lean into the range (about 4e-6)
        # swamps the gate 1e-9: eigh decides
        a = SymMat.diagonal([1.0, 1e-7, 0.0])
        x = RankOneProjection([0.0, 1.0, 0.0])
        assert linalg._pivoted_strength(linalg._scaled_rows(a.a), x.x, DEFAULT_TOL) is None
        assert count(strength, a, x) == ["eigh"]
        assert strength(a, x) == pytest.approx(1e-7, rel=1e-15)

    def test_strength_off_the_range_of_a_singular_a_takes_no_spectrum(self, count):
        a = SymMat([[1.0, 1.0], [1.0, 1.0]])
        assert count(strength, a, RankOneProjection([1.0, 0.0])) == []

    @pytest.mark.parametrize("diagonal, direction", [
        # the eigenvalue 1e-8 is kept, but so small that the bound on the
        # lean of its eigenvector (about 8e-5) swamps the 1e-5 off the range
        ([1.0, 1e-8, 0.0], [0.0, 1.0, 1e-5]),
        # 1e-10 is a pivot (above rank_tol / n) that Jacobi drops: the
        # leading block's certificate cannot bound the gap below 2 eps_j
        ([1.0] * 14 + [1e-10, 0.0], [0.0] * 14 + [1.0, 1.0]),
    ])
    def test_strength_on_a_kernel_direction_inside_the_band_is_one_eigh(self, count, diagonal, direction):
        # the factorization leaves these to eigh, which answers 0
        a = SymMat.diagonal(diagonal)
        x = RankOneProjection(direction)
        assert linalg._pivoted_strength(linalg._scaled_rows(a.a), x.x, DEFAULT_TOL) is None
        assert count(strength, a, x) == ["eigh"]
        assert strength(a, x) == 0.0

    @pytest.mark.parametrize("n", [40, 48])
    def test_make_effect_on_a_large_projection_takes_no_spectrum(self, count, n):
        # a rank-n/2 projection touches both ends of [0, I]
        q = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))[0][:, :n // 2]
        p = q @ q.T
        assert count(make_effect, SymMat((p + p.T) / 2.0)) == []

    def test_inv_of_definite_takes_no_spectrum(self, count):
        a = SymMat([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 0.7]])
        assert count(linalg.inv, a) == []
        # only a positive definite matrix is factored; its negative takes
        # the spectral route
        assert count(linalg.inv, -a) == ["eigh"]

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

    def test_mobius_apply_is_three_eigh(self, count):
        # f_p of T X T^t, the normalizer f_p(T T^t)^{-1/2} from one
        # spectrum of T T^t, and f_q of the middle term, whose [0, I]
        # check reads the same spectrum; the interior result is certified
        # without one
        params = MobiusParams(0.3, -0.5, np.array([[0.8, 0.1], [0.0, 0.6]]))
        x = SymMat([[0.5, 0.1], [0.1, 0.4]])
        assert count(mobius_apply, params, x) == ["eigh"] * 3


def lapack_sized_case():
    """(low, high, t) at n = 12: effects low < high, with high = low +
    I/2, and a generator t near I."""
    rng = np.random.default_rng(29)
    q = np.linalg.qr(rng.standard_normal((12, 12)))[0]
    low = (q * np.linspace(0.1, 0.4, 12)) @ q.T
    low = SymMat((low + low.T) / 2.0)
    high = SymMat(low.a + 0.5 * np.eye(12))
    t = np.eye(12) + 0.05 * rng.standard_normal((12, 12))
    return low, high, t


class TestFactorizationsPerCall:
    """Cholesky factorizations per public call, as (pass/fail checks in
    LAPACK (_cholesky_pivots), factorizations on lists (_cholesky)): a
    [lo, hi] check is two proving attempts, of M - s I near lo and of
    s' I - M near hi, on lists below _LAPACK_ORDER and in LAPACK from
    there, and a refuting attempt stays on lists at every n. Below
    _LAPACK_ORDER the callers run the pass/fail check as _cholesky
    itself, so it counts as a list one."""

    @pytest.fixture
    def count(self, monkeypatch):
        calls = []
        cholesky_pivots, cholesky = linalg._cholesky_pivots, linalg._cholesky

        def counting_check(*args, **kwargs):
            calls.append("check")
            return cholesky_pivots(*args, **kwargs)

        def counting_list(rows, shift):
            calls.append("list")
            return cholesky(rows, shift)

        monkeypatch.setattr(linalg, "_cholesky_pivots", counting_check)
        monkeypatch.setattr(linalg, "_cholesky", counting_list)

        def run(fn, *args):
            calls.clear()
            fn(*args)
            return calls.count("check"), calls.count("list")

        return run

    def test_make_effect_on_a_certified_effect(self, count):
        assert count(make_effect, SymMat([[0.5, 0.1], [0.1, 0.4]])) == (0, 2)
        assert count(make_effect, SymMat(0.1 * np.eye(12) + 0.01)) == (2, 0)

    def test_apply_with_an_interior_image(self, count):
        phi = EffectAutomorphism(np.array([[2.0, 0.3], [0.1, 1.0]]))
        x = SymMat([[0.5, 0.1], [0.1, 0.4]])
        assert count(phi.apply, make_effect(x)) == (0, 2)      # the image's check
        assert count(phi.apply, x) == (0, 4)                   # and the input's

    def test_at_n_12_every_check_runs_in_lapack(self, count):
        low, high, t = lapack_sized_case()
        assert count(linalg.loewner_le, low, high) == (1, 0)
        # the proving attempt fails in LAPACK, the refuting one runs in lists
        assert count(linalg.loewner_le, high, low) == (1, 1)
        assert count(EffectAutomorphism, t) == (1, 0)
        assert count(make_effect, low) == (2, 0)
        assert count(EffectAutomorphism(t).apply, make_effect(low)) == (2, 0)

    @pytest.mark.parametrize("n", [2, 12])
    def test_strength_on_a_singular_a_checks_the_pivot_block_once(self, count, n):
        # the definite certificate's failed attempt, then one check of the
        # r x r pivot block, which gives both branches their gap (on lists,
        # as r < _LAPACK_ORDER)
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((n, n)))[0]
        r = n // 2
        a = (q[:, :r] * np.linspace(0.5, 1.0, r)) @ q[:, :r].T
        a = SymMat((a + a.T) / 2.0)
        checks = (0, 2) if n < linalg._LAPACK_ORDER else (1, 1)
        assert count(strength, a, RankOneProjection(q[:, 0])) == checks              # in the range
        assert count(strength, a, RankOneProjection(q[:, 0] + q[:, r])) == checks    # off it


class TestRowListsPerCall:
    """Python row lists per public call at n = 12, as (row sets that
    _Scaled.rows builds, single rows that the refuting factorization
    converts): the scaled array alone serves every check that runs in
    LAPACK, and the refuting _cholesky, whose factor is the witness,
    converts a row of the array only when it reaches it, so a failure at
    pivot i converts i + 1 rows."""

    @pytest.fixture
    def count(self, monkeypatch):
        built, converted = [], []
        rows, cholesky = linalg._Scaled.rows, linalg._cholesky

        def counting_rows(scaled):
            assert scaled.lists is None             # n >= _LAPACK_ORDER holds none
            built.append(scaled.array.shape[0])
            return rows.fget(scaled)

        def counting_cholesky(source, shift):
            if isinstance(source, list):            # rows built as a whole
                return cholesky(source, shift)

            def pulled():
                for row in source:
                    converted.append(row)
                    yield row

            return cholesky(pulled(), shift)

        monkeypatch.setattr(linalg._Scaled, "rows", property(counting_rows))
        monkeypatch.setattr(linalg, "_cholesky", counting_cholesky)

        def run(fn, *args):
            built.clear()
            converted.clear()
            fn(*args)
            assert all(type(row) is list for row in converted)
            return len(built), len(converted)

        return run

    def test_decided_calls_build_none(self, count):
        low, high, t = lapack_sized_case()
        assert count(linalg.loewner_le, low, high) == (0, 0)
        assert count(EffectAutomorphism, t) == (0, 0)
        assert count(make_effect, low) == (0, 0)
        assert count(EffectAutomorphism(t).apply, make_effect(low)) == (0, 0)

    def test_a_refuted_order_converts_rows_to_the_failing_pivot(self, count):
        # high - low = I/2: the refuting factorization of low - high fails
        # at its first pivot
        low, high, _ = lapack_sized_case()
        assert count(linalg.loewner_le, high, low) == (0, 1)
        assert count(strength_witness, high, low) == (0, 1)
        # b - a holds a definite 9 x 9 block and -1/4 at index 9, with no
        # coupling between them: it fails at pivot 9 of 12
        rng = np.random.default_rng(59)
        g = rng.standard_normal((9, 9))
        d = np.diag([0.5] * 9 + [-0.25, 0.5, 0.5])
        d[:9, :9] += 0.02 * (g + g.T)
        a, b = SymMat(np.eye(12)), SymMat(np.eye(12) + d)
        pivots = linalg._cholesky((b - a).a.tolist(), 0.0)[1]
        assert len(pivots) == 10 and pivots[-1] < 0.0
        assert count(linalg.loewner_le, a, b) == (0, 10)
        assert count(strength_witness, a, b) == (0, 10)


class TestScalingsPerCall:
    """Power-of-two scalings (_scaled_rows) per public call: the certificate
    and the LDL^t factor share one scaling of each matrix. A Jacobi
    fallback adds a scaling of its own."""

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
        # the negative fails the certificate and falls back to eigh
        assert count(linalg.inv, -a) == 2

    def test_strength_on_full_rank(self, count):
        a = SymMat([[2.0, 0.5], [0.5, 1.0]])
        assert count(strength, a, RankOneProjection([1.0, 1.0])) == 1
