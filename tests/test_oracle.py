"""Sampler determinism and brute-force oracle tests."""

import numpy as np
import pytest

from loewner import linalg, oracle
from loewner.automorphisms import EffectAutomorphism
from loewner.effects import RankOneProjection, make_effect, prescribed_strength_pair, standard_projection
from loewner.errors import NotPSD
from loewner.intervals import CanonicalClass, canonical_interval
from loewner.linalg import SymMat

# Frozen stream values for seed 42, n = 2 (verified on first run: the
# spectrum sits exactly on the sampler's interior margins).
FROZEN_EFFECT_42 = np.array([
    [0.04495560467082293, -0.20720424291144132],
    [-0.20720424291144132, 0.9550443953291773],
])


class TestStrengthBisection:
    def test_identity(self):
        proj = RankOneProjection([0.6, -0.8])
        assert oracle.strength_bisection(SymMat.identity(2), proj) == pytest.approx(1.0, abs=1e-8)

    def test_scaled_projection(self):
        proj = standard_projection(0, 2)
        assert oracle.strength_bisection(SymMat(2.0 * proj.mat.a), proj) == pytest.approx(2.0, abs=1e-8)

    def test_prescribed_pair_threshold(self):
        r = standard_projection(0, 2)
        p, q = prescribed_strength_pair(r, 0.75)
        combined = SymMat(0.5 * p.mat.a + q.mat.a)
        assert oracle.strength_bisection(combined, r) == pytest.approx(0.75, abs=1e-8)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            oracle.strength_bisection(SymMat.diagonal([-1.0, 1.0]), standard_projection(0, 2))


class TestSamplerDeterminism:
    def test_effect_stream_frozen(self):
        eff = oracle.sample_effect(oracle.Sampler(42), 2)
        assert np.array_equal(eff.mat.a, FROZEN_EFFECT_42)

    def test_identical_seeds_identical_streams(self):
        a, b = oracle.Sampler(7), oracle.Sampler(7)
        for n in range(2, 7):
            ea = oracle.sample_effect(a, n)
            eb = oracle.sample_effect(b, n)
            assert ea.n == eb.n
            assert np.array_equal(ea.mat.a, eb.mat.a)

    def test_derived_seeds_differ(self):
        base = oracle.Sampler(7)
        assert not np.array_equal(oracle.sample_effect(base.derive(1), 3).mat.a,
                                  oracle.sample_effect(base.derive(2), 3).mat.a)

    def test_derive_is_deterministic(self):
        assert np.array_equal(oracle.sample_effect(oracle.Sampler(7).derive(3), 2).mat.a,
                              oracle.sample_effect(oracle.Sampler(7).derive(3), 2).mat.a)


class TestSamplerContracts:
    def test_comparable_pair_is_comparable(self):
        s = oracle.Sampler(50)
        for k in range(40):
            low, high = oracle.sample_comparable_pair(s, 2 + k % 5)
            assert linalg.loewner_le(low.mat, high.mat)

    def test_orthogonal_is_orthogonal(self):
        s = oracle.Sampler(51)
        for k in range(20):
            n = 2 + k % 5
            o = oracle.sample_orthogonal(s, n)
            assert np.linalg.norm(o.T @ o - np.eye(n)) <= 1e-12

    def test_invertible_within_condition_cap(self):
        s = oracle.Sampler(52)
        for k in range(20):
            t = oracle.sample_invertible(s, 2 + k % 5)
            sv = np.linalg.svd(t, compute_uv=False)
            assert float(sv[0]) / float(sv[-1]) <= oracle._COND_CAP * (1.0 + 1e-9)

    def test_effects_are_effects(self):
        s = oracle.Sampler(53)
        for k in range(20):
            eff = oracle.sample_effect(s, 2 + k % 5)
            lam = linalg.eigvalsh(eff.mat)
            assert float(lam[0]) >= 0.0
            assert float(lam[-1]) <= 1.0


class TestMonotonicityReport:
    def test_identity_map(self):
        report = oracle.monotonicity_report(
            lambda m: m, canonical_interval(CanonicalClass.UNIT_INTERVAL, 3),
            trials=30, s=oracle.Sampler(60))
        assert report.violated == 0
        assert report.reversed == 0
        assert report.preserved == 30

    def test_negation_reverses_everything(self):
        report = oracle.monotonicity_report(
            lambda m: SymMat(-m.a), canonical_interval(CanonicalClass.UNIT_INTERVAL, 3),
            trials=30, s=oracle.Sampler(61))
        assert report.violated == 0
        assert report.reversed == 30

    def test_automorphism_has_zero_violations(self):
        s = oracle.Sampler(62)
        phi = EffectAutomorphism(oracle.sample_invertible(s, 3))
        report = oracle.monotonicity_report(
            lambda m: phi.apply(make_effect(m)).mat,
            canonical_interval(CanonicalClass.UNIT_INTERVAL, 3),
            trials=200, s=s)
        assert report.violated == 0
        assert report.ok

    def test_report_is_reproducible(self):
        def run():
            return oracle.monotonicity_report(
                lambda m: m, canonical_interval(CanonicalClass.POSITIVE_CLOSED, 2),
                trials=25, s=oracle.Sampler(63))
        assert run() == run()

    def test_covers_every_canonical_domain(self):
        for k, cls in enumerate(CanonicalClass):
            report = oracle.monotonicity_report(
                lambda m: m, canonical_interval(cls, 2),
                trials=10, s=oracle.Sampler(64 + k))
            assert report.violated == 0
            assert report.preserved == 10


def test_agreement_with_closed_form():
    from loewner.effects import strength

    s = oracle.Sampler(65)
    for k in range(60):
        mat = oracle.sample_psd(s, 2 + k % 5)
        proj = RankOneProjection(s.rng.standard_normal(mat.n))
        assert abs(strength(mat, proj) - oracle.strength_bisection(mat, proj)) <= 1e-6
