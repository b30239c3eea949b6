"""Automorphism-group tests: the defining formula, group laws, generator
recovery, and the fractional-linear parametrization bridge."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner import automorphisms, linalg, oracle
from loewner.automorphisms import (
    EffectAutomorphism,
    MobiusParams,
    identity_automorphism,
    mobius_apply,
    mobius_to_canonical,
    recover_generator,
    recovery_probe_effects,
    unit_mobius,
)
from loewner.effects import Effect, RankOneProjection, make_effect
from loewner.errors import (
    BadParameter,
    DimensionMismatch,
    NotAnEffect,
    NotAutomorphism,
    Singular,
)
from loewner.linalg import DEFAULT_TOL, SymMat, Tolerances


def half_identity(n):
    return make_effect(SymMat(0.5 * np.eye(n)))


class TestConstruction:
    def test_identity(self):
        phi = identity_automorphism(3)
        assert np.allclose(phi.t, np.eye(3))
        assert phi.extension_bound is None

    def test_sign_canonicalization(self):
        phi = EffectAutomorphism(-np.eye(2))
        assert np.allclose(phi.t, np.eye(2))

    def test_extension_bound_unbounded_at_expanding_generator(self):
        phi = EffectAutomorphism(np.diag([2.0, 1.0]))
        assert phi.extension_bound is None

    def test_extension_bound_for_contraction(self):
        phi = EffectAutomorphism(0.5 * np.eye(2))
        # delta = 1/4, eps = delta / (1 - delta) = 1/3
        assert phi.extension_bound == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_rejects_singular(self):
        with pytest.raises(Singular):
            EffectAutomorphism(np.diag([1.0, 0.0]))

    @staticmethod
    def spectral_norm_sign(t, tol):
        """The sign rule decided against the spectral norm itself."""
        scale = float(np.linalg.svd(t, compute_uv=False)[0])
        for value in t.ravel():
            if abs(float(value)) > tol.equality_tol * scale:
                return -1.0 if float(value) < 0.0 else 1.0

    @pytest.mark.parametrize("tol", [DEFAULT_TOL,
                                     Tolerances(1e-3)])
    def test_sign_agrees_with_the_spectral_norm_rule_inside_the_band(self, tol):
        # The first entry sits between ||T||_F / sqrt(n) and ||T||_F times
        # equality_tol, where no bound on ||T||_2 by ||T||_F decides it:
        # once just above equality_tol * ||T||_2, once just below (then
        # the next entry, of the other sign, decides).
        rng = np.random.default_rng(19)
        cases = 0
        for n in (2, 3, 5):
            for _ in range(20):
                t = rng.standard_normal((n, n))
                t[0, 0] = 0.0
                t[0, 1] = -np.sign(rng.standard_normal()) * abs(t[0, 1])
                gate = tol.equality_tol * float(np.linalg.svd(t, compute_uv=False)[0])
                for side in (1.0 + 1e-6, 1.0 - 1e-6):
                    t[0, 0] = np.sign(rng.standard_normal()) * gate * side
                    band = tol.equality_tol * math.hypot(*t.ravel())
                    if not band / math.sqrt(n) < abs(t[0, 0]) < band:
                        continue
                    cases += 1
                    phi = EffectAutomorphism(t, tol)
                    assert np.array_equal(phi.t, self.spectral_norm_sign(t, tol) * t)
        assert cases > 50

    def test_sign_needs_no_svd_outside_the_band(self):
        # nor inside it: the sign reads sigma_max from the regularity
        # gate's SVD, the one a construction takes
        # (TestSpectraPerCall.test_construction_takes_no_spectrum)
        rng = np.random.default_rng(23)
        for n in (2, 4, 8):
            t = rng.standard_normal((n, n))
            t[0, :2] = [1e-12, -1.0]          # below the band, then above it
            phi = EffectAutomorphism(t)
            assert np.array_equal(phi.t, -t)
            assert np.array_equal(phi.t, self.spectral_norm_sign(t, DEFAULT_TOL) * t)


class TestApply:
    def test_identity_map(self):
        s = oracle.Sampler(1)
        x = oracle.sample_effect(s, 3)
        got = identity_automorphism(3).apply(x)
        assert np.allclose(got.mat.a, x.mat.a, atol=1e-12)

    def test_roundoff_inside_the_noise_gate_is_clamped(self):
        # phi_T(I) = I exactly. With cond(T) ~ 1e8 the computed image leaves
        # [0, I] by more than psd_tol but stays inside the noise gate of
        # T^t T, so it is clamped back instead of rejected.
        phi = EffectAutomorphism(np.array([[1e4, 1.0], [0.0, 1e-4]]))
        gate = phi._noise_gate()
        assert DEFAULT_TOL.psd_tol < gate
        image = phi.apply(SymMat.identity(2)).mat
        lam = linalg.eigvalsh(image)
        assert 0.0 <= float(lam[0]) and float(lam[-1]) <= 1.0
        assert np.allclose(image.a, np.eye(2), atol=gate)

    def test_orthogonal_collapses_to_conjugation(self):
        s = oracle.Sampler(2)
        o = oracle.sample_orthogonal(s, 4)
        x = oracle.sample_effect(s, 4)
        got = EffectAutomorphism(o).apply(x)
        assert np.allclose(got.mat.a, o @ x.mat.a @ o.T, atol=1e-10)

    def test_fixed_points(self):
        s = oracle.Sampler(3)
        for _ in range(10):
            phi = EffectAutomorphism(oracle.sample_invertible(s, 3))
            at_zero = phi.apply(make_effect(SymMat.zero(3)))
            at_one = phi.apply(make_effect(SymMat.identity(3)))
            assert np.linalg.norm(at_zero.mat.a) <= 1e-10
            assert np.linalg.norm(at_one.mat.a - np.eye(3)) <= 1e-10

    def test_midpoint_hand_value(self):
        # (I + S)^{-1} with S = (T T^t)^{-1} = diag(1/4, 1)
        phi = EffectAutomorphism(np.diag([2.0, 1.0]))
        got = phi.apply(half_identity(2))
        assert np.allclose(got.mat.a, np.diag([0.8, 0.5]), atol=1e-12)

    def test_rejects_non_effect(self):
        phi = identity_automorphism(2)
        with pytest.raises(NotAnEffect):
            phi.apply(SymMat.diagonal([2.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            identity_automorphism(2).apply(half_identity(3))

    def test_conjugation_route_for_invertible_inputs(self):
        # alternative evaluation (I + (T^t)^{-1} (X^{-1} - I) T^{-1})^{-1}
        s = oracle.Sampler(4)
        for _ in range(10):
            n = int(s.rng.integers(2, 5))
            t = oracle.sample_invertible(s, n)
            phi = EffectAutomorphism(t)
            x = SymMat(0.1 * np.eye(n) + 0.8 * oracle.sample_effect(s, n).mat.a)
            direct = phi.apply(make_effect(x)).mat.a
            t_inv = np.linalg.inv(phi.t)
            inner = np.eye(n) + t_inv.T @ (np.linalg.inv(x.a) - np.eye(n)) @ t_inv
            assert np.allclose(direct, np.linalg.inv(inner), atol=1e-9)


class TestGroupStructure:
    def test_compose_with_identity(self):
        phi = EffectAutomorphism(np.diag([2.0, 1.0]))
        assert phi.compose(identity_automorphism(2)).equals(phi)

    def test_compose_with_inverse_is_identity(self):
        s = oracle.Sampler(5)
        phi = EffectAutomorphism(oracle.sample_invertible(s, 3))
        assert phi.compose(phi.inverse()).equals(identity_automorphism(3))

    def test_pointwise_composition(self):
        s = oracle.Sampler(6)
        for _ in range(20):
            n = int(s.rng.integers(2, 5))
            first = EffectAutomorphism(oracle.sample_invertible(s, n))
            second = EffectAutomorphism(oracle.sample_invertible(s, n))
            x = oracle.sample_effect(s, n)
            fused = first.compose(second).apply(x).mat.a
            staged = first.apply(second.apply(x)).mat.a
            assert np.linalg.norm(fused - staged) <= 1e-8

    def test_generator_associativity_exact(self):
        s = oracle.Sampler(7)
        a, b, c = (oracle.sample_invertible(s, 3) for _ in range(3))
        left = EffectAutomorphism(a).compose(EffectAutomorphism(b)).compose(EffectAutomorphism(c))
        right = EffectAutomorphism(a).compose(EffectAutomorphism(b).compose(EffectAutomorphism(c)))
        assert left.equals(right)

    def test_inverse_involution(self):
        s = oracle.Sampler(8)
        phi = EffectAutomorphism(oracle.sample_invertible(s, 4))
        assert phi.inverse().inverse().equals(phi)

    def test_equals_up_to_sign(self):
        s = oracle.Sampler(9)
        t = oracle.sample_invertible(s, 3)
        assert EffectAutomorphism(t).equals(EffectAutomorphism(-t))
        assert not identity_automorphism(2).equals(EffectAutomorphism(np.diag([2.0, 1.0])))


class TestConstructionTolerance:
    """Every method works at the tolerances the map was built with."""

    FINE = Tolerances(1e-12)

    def test_compose_and_inverse_build_at_the_same_tolerance(self):
        phi = EffectAutomorphism(np.diag([1.0, 1e-5]), self.FINE)
        # sigma_min 1e-10 of the product clears rank_tol 1e-12, not 1e-9;
        # its inverse diag(1, 1e10) fails sigma_min > 1e-9 sigma_max too
        assert np.allclose(phi.compose(phi).t, np.diag([1.0, 1e-10]), rtol=1e-15, atol=0.0)
        assert np.allclose(phi.compose(phi).inverse().t, np.diag([1.0, 1e10]), rtol=1e-15, atol=0.0)
        for t in (np.diag([1.0, 1e-10]), np.diag([1.0, 1e10])):
            with pytest.raises(Singular):
                EffectAutomorphism(t)

    def test_apply_checks_the_input_at_the_same_tolerance(self):
        x = SymMat.diagonal([0.5, 1.0 + 5e-10])        # above 1 by 5e-10
        with pytest.raises(NotAnEffect):
            EffectAutomorphism(np.diag([1.0, 1e5]), self.FINE).apply(x)
        EffectAutomorphism(np.diag([1.0, 1e5])).apply(x)

    def test_equals_at_the_same_tolerance(self):
        t = np.diag([1.0, 1.0 + 1e-9])
        assert EffectAutomorphism(t).equals(identity_automorphism(2))
        assert not EffectAutomorphism(t, self.FINE).equals(identity_automorphism(2))


class TestProjectImage:
    def test_identity(self):
        p = RankOneProjection([0.6, 0.8])
        got = identity_automorphism(2).project_image(p)
        assert np.allclose(got.mat.a, p.mat.a, atol=1e-12)

    def test_eigenvector_preserved(self):
        phi = EffectAutomorphism(np.diag([2.0, 1.0]))
        got = phi.project_image(RankOneProjection([1.0, 0.0]))
        assert np.allclose(got.mat.a, RankOneProjection([1.0, 0.0]).mat.a, atol=1e-12)

    def test_skew_direction(self):
        phi = EffectAutomorphism(np.diag([2.0, 1.0]))
        got = phi.project_image(RankOneProjection([1.0, 1.0]))
        expected = np.array([2.0, 1.0]) / math.sqrt(5.0)
        assert abs(abs(float(got.x @ expected)) - 1.0) <= 1e-12

    def test_image_law_random(self):
        s = oracle.Sampler(10)
        for _ in range(25):
            n = int(s.rng.integers(2, 6))
            phi = EffectAutomorphism(oracle.sample_invertible(s, n))
            p = RankOneProjection(s.rng.standard_normal(n))
            got = phi.project_image(p)
            assert linalg.principal_angle(got.x, phi.t @ p.x) <= 1e-6


class TestInvariants:
    def test_order_preservation(self):
        s = oracle.Sampler(11)
        gate = Tolerances(1e-8)
        for _ in range(60):
            n = int(s.rng.integers(2, 6))
            phi = EffectAutomorphism(oracle.sample_invertible(s, n))
            low, high = oracle.sample_comparable_pair(s, n)
            assert linalg.loewner_le(phi.apply(low).mat, phi.apply(high).mat, gate)

    def test_projection_idempotence(self):
        s = oracle.Sampler(12)
        for rank in (1, 2):
            for _ in range(15):
                n = int(s.rng.integers(max(2, rank), 6))
                phi = EffectAutomorphism(oracle.sample_invertible(s, n))
                frame = oracle.sample_orthogonal(s, n)[:, :rank]
                image = phi.apply(make_effect(SymMat(frame @ frame.T))).mat.a
                assert np.linalg.norm(image @ image - image) <= 1e-8

    def test_self_adjointness_identity(self):
        s = oracle.Sampler(13)
        for _ in range(25):
            n = int(s.rng.integers(2, 6))
            phi = EffectAutomorphism(oracle.sample_invertible(s, n))
            x = oracle.sample_effect(s, n).mat.a
            core = np.linalg.solve(x @ (phi.gram.a - np.eye(n)) + np.eye(n), x)
            assert np.linalg.norm(core - core.T) <= 1e-9

    def test_interior_preservation(self):
        s = oracle.Sampler(14)
        for _ in range(25):
            n = int(s.rng.integers(2, 5))
            phi = EffectAutomorphism(oracle.sample_invertible(s, n))
            x = SymMat(0.05 * np.eye(n) + 0.9 * oracle.sample_effect(s, n).mat.a)
            image = phi.apply(make_effect(x)).mat
            assert linalg.loewner_lt(SymMat.zero(n), image)
            assert linalg.loewner_lt(image, SymMat.identity(n))

    def test_the_sign_of_the_generator_gives_the_same_bits(self):
        # phi_T = phi_-T, and negation is exact: every product that apply
        # forms from -T is that of T, or its negation. Every third input
        # is a projection, whose image apply takes by a spectrum.
        s = oracle.Sampler(16)
        for i in range(300):
            n = 2 + i % 11
            t = oracle.sample_invertible(s, n)
            if i % 3 == 0:
                x = make_effect(RankOneProjection(s.rng.standard_normal(n)).mat)
            else:
                x = oracle.sample_effect(s, n)
            plus = EffectAutomorphism(t).apply(x).mat.a
            minus = EffectAutomorphism(-t).apply(x).mat.a
            assert plus.tobytes() == minus.tobytes()

    def test_extended_domain_invertibility(self):
        s = oracle.Sampler(15)
        for _ in range(25):
            n = int(s.rng.integers(2, 5))
            phi = EffectAutomorphism(oracle.sample_invertible(s, n))
            eps = phi.extension_bound
            factor = 1.0 + (0.5 * eps if eps is not None else 1.0)
            x = factor * oracle.sample_effect(s, n).mat.a
            m = x @ (phi.gram.a - np.eye(n)) + np.eye(n)
            sv = np.linalg.svd(m, compute_uv=False)
            assert float(sv[-1]) > 1e-12
            assert np.isfinite(float(sv[0]) / float(sv[-1]))


class TestRecoverGenerator:
    def test_identity_oracle(self):
        got = recover_generator(identity_automorphism(3).apply, 3)
        assert got.equals(identity_automorphism(3))

    def test_diagonal_round_trip(self):
        phi = EffectAutomorphism(np.diag([2.0, 1.0]))
        assert recover_generator(phi.apply, 2).equals(phi)

    def test_rotation_round_trip(self):
        s = oracle.Sampler(16)
        o = oracle.sample_orthogonal(s, 3)
        got = recover_generator(lambda e: Effect(mat=SymMat(o @ e.mat.a @ o.T)), 3)
        assert (np.allclose(got.t, o, atol=1e-6)
                or np.allclose(got.t, -o, atol=1e-6))

    def test_random_round_trips(self):
        s = oracle.Sampler(17)
        for _ in range(10):
            n = int(s.rng.integers(2, 6))
            phi = EffectAutomorphism(oracle.sample_invertible(s, n))
            assert recover_generator(phi.apply, n).equals(phi)

    def test_inexact_oracle_takes_the_eigh_directions(self, monkeypatch):
        # Images shrunk by 1e-7 are no projections at rank_tol = 1e-9: each
        # of the 2n - 1 = 5 column directions fails its rank-one residual
        # test and comes from eigh, while the 1e-6 residual check passes.
        # Exact images take only the root pair's eigh (below _LAPACK_ORDER).
        phi = EffectAutomorphism(np.array([[2.0, 0.3, 0.0], [0.1, 1.0, 0.2], [0.0, 0.4, 0.7]]))
        images = {p.mat.a.tobytes(): phi.apply(p).mat.a for p in recovery_probe_effects(3)}
        calls = []
        eigh = linalg.eigh

        def counting(a):
            calls.append(a)
            return eigh(a)

        monkeypatch.setattr(linalg, "eigh", counting)
        for shrink, spectra in ((1.0, 1), (1.0 - 1e-7, 1 + 5)):
            calls.clear()
            got = recover_generator(
                lambda e: Effect(mat=SymMat(shrink * images[e.mat.a.tobytes()])), 3)
            assert float(np.linalg.norm(got.t - phi.t)) <= 1e-6
            assert len(calls) == spectra

    def test_rejects_non_automorphism(self):
        def squared(e: Effect) -> Effect:
            return make_effect(SymMat(e.mat.a @ e.mat.a))

        with pytest.raises(NotAutomorphism):
            recover_generator(squared, 3)

    def test_rejects_boundary_midpoint(self):
        def collapse(e: Effect) -> Effect:
            return make_effect(SymMat.zero(e.n))

        with pytest.raises(NotAutomorphism):
            recover_generator(collapse, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 44])
    def test_every_seeded_probe_is_an_effect(self, n):
        # recovery_probe_effects and the conversion check build these with
        # no certificate, on _random_effects' proof; make_effect agrees
        conversion = automorphisms._random_effects(n, 20, automorphisms._CONVERSION_CHECK_SEED)
        for probe in recovery_probe_effects(n) + conversion:
            assert make_effect(probe.mat).mat.a.tobytes() == probe.mat.a.tobytes()

    def test_probe_list_layout(self):
        probes = recovery_probe_effects(3)
        assert len(probes) == 1 + 3 + 2 + 10
        assert np.allclose(probes[0].mat.a, 0.5 * np.eye(3))
        assert np.allclose(probes[1].mat.a, np.diag([1.0, 0.0, 0.0]))
        mixed = probes[4].mat.a
        assert mixed[0, 1] == pytest.approx(0.5)

    def test_probe_protocol_keeps_its_bits(self):
        # `phi recover` finds each probe image by the exact bits of its
        # input, so the probes are pinned at every n the CLI takes a
        # payload for, and the conversion check's effects with them
        digest = hashlib.sha256()
        for n in [*range(2, 17), 24, 44]:
            for probe in recovery_probe_effects(n):
                digest.update(probe.mat.a.tobytes())
        for n in range(2, 7):
            for probe in automorphisms._random_effects(n, 20, automorphisms._CONVERSION_CHECK_SEED):
                digest.update(probe.mat.a.tobytes())
        assert digest.hexdigest() == (
            "f53ae28737ac2461d6024270edade73714fba096f00b0aa6d2b1671ff8a269c2")

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 12, 16, 44])
    def test_stacked_images_keep_the_bits_of_one_at_a_time(self, n):
        phi = EffectAutomorphism(oracle.sample_invertible(oracle.Sampler(n), n))
        probes = [probe.mat.a for probe in recovery_probe_effects(n)]
        stacked = phi._images(np.array(probes))
        eye = np.eye(n)
        for x, image in zip(probes, stacked):
            # the defining formula on one matrix, as a loop would form it
            one = SymMat(phi.t @ np.linalg.solve(x @ (phi.gram.a - eye) + eye, x) @ phi.t.T)
            assert image.tobytes() == one.a.tobytes() == phi._image(x).a.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_oracle_sees_the_probes_in_order(self, n):
        phi = EffectAutomorphism(oracle.sample_invertible(oracle.Sampler(n), n))
        seen = []

        def recording(e: Effect) -> Effect:
            seen.append(e.mat.a.tobytes())
            return phi.apply(e)

        assert recover_generator(recording, n).equals(phi)
        assert seen == [probe.mat.a.tobytes() for probe in recovery_probe_effects(n)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_first_failed_residual_stops_the_oracle(self, n):
        # 1 + n + (n - 1) probes come before the ten residual ones; the
        # third of those gets a wrong image, and no probe after it is asked
        phi = EffectAutomorphism(oracle.sample_invertible(oracle.Sampler(n), n))
        calls = []

        def wrong_third_residual(e: Effect) -> Effect:
            calls.append(e)
            if len(calls) == 2 * n + 3:
                return half_identity(n)
            return phi.apply(e)

        with pytest.raises(NotAutomorphism, match="residual check"):
            recover_generator(wrong_third_residual, n)
        assert len(calls) == 2 * n + 3


class TestUnitMobius:
    def test_zero_parameter_is_identity(self):
        for x in (0.0, 0.3, 1.0):
            assert unit_mobius(0.0, x) == x

    def test_fixed_endpoints(self):
        for p in (-3.0, 0.0, 0.5, 0.99):
            assert unit_mobius(p, 0.0) == 0.0
            assert unit_mobius(p, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_hand_value(self):
        assert unit_mobius(0.5, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_rejects_bad_parameters(self):
        with pytest.raises(BadParameter):
            unit_mobius(1.0, 0.5)
        with pytest.raises(BadParameter):
            unit_mobius(0.0, 1.5)

    @given(p=st.floats(-50.0, 1.0, exclude_max=True),
           x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_increasing_bijection_into_unit_interval(self, p, x, y):
        fx, fy = unit_mobius(p, x), unit_mobius(p, y)
        assert 0.0 <= fx <= 1.0 + 1e-12
        if x < y:
            assert fx < fy + 1e-15


class TestMobiusForm:
    def test_trivial_parameters_echo(self):
        s = oracle.Sampler(18)
        x = oracle.sample_effect(s, 2)
        params = MobiusParams(p=0.0, q=0.0, t=np.eye(2))
        assert np.allclose(mobius_apply(params, x).mat.a, x.mat.a, atol=1e-10)

    def test_orthogonal_parameters_conjugate(self):
        s = oracle.Sampler(19)
        o = oracle.sample_orthogonal(s, 3)
        x = oracle.sample_effect(s, 3)
        params = MobiusParams(p=0.0, q=0.0, t=o)
        assert np.allclose(mobius_apply(params, x).mat.a, o @ x.mat.a @ o.T, atol=1e-10)

    def test_scalar_regression(self):
        # every matrix is a multiple of I, so the evaluation is scalar:
        # f_0(f_{1/2}(1/4) / f_{1/2}(1/4)) = 1
        params = MobiusParams(p=0.5, q=0.0, t=0.5 * np.eye(2))
        got = mobius_apply(params, make_effect(SymMat.identity(2)))
        assert np.allclose(got.mat.a, np.eye(2), atol=1e-12)

    def test_rejects_expanding_generator(self):
        with pytest.raises(BadParameter):
            MobiusParams(p=0.0, q=0.0, t=np.diag([2.0, 1.0]))

    def test_rejects_bad_scalars(self):
        with pytest.raises(BadParameter):
            MobiusParams(p=1.0, q=0.0, t=np.eye(2))

    @pytest.mark.parametrize("t, message", [
        (1e200 * np.eye(2), "contraction"),
        (np.array([[1e200, 1e200], [1e200, -1e200]]), "contraction"),   # inf - inf
        (np.array([[np.nan, 0.0], [0.0, 0.5]]), "finite"),
        (np.array([[np.inf, 0.0], [0.0, 0.5]]), "finite"),
    ], ids=["huge", "huge_cancelling", "nan", "inf"])
    def test_rejects_a_huge_or_non_finite_generator_without_a_warning(self, t, message):
        # T^t T past the double range is no contraction's
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadParameter, match=message):
                MobiusParams(p=0.5, q=0.5, t=t)

    def test_stays_inside_unit_interval(self):
        s = oracle.Sampler(20)
        for _ in range(10):
            n = int(s.rng.integers(2, 5))
            g = oracle.sample_invertible(s, n)
            g = g / (np.linalg.svd(g, compute_uv=False)[0] * 1.001)
            params = MobiusParams(p=float(s.rng.uniform(-2.0, 0.9)),
                                  q=float(s.rng.uniform(-2.0, 0.9)), t=g)
            image = mobius_apply(params, oracle.sample_effect(s, n))
            lam = linalg.eigvalsh(image.mat)
            assert float(lam[0]) >= -1e-9 and float(lam[-1]) <= 1.0 + 1e-9


class TestMobiusToCanonical:
    def test_trivial(self):
        params = MobiusParams(p=0.0, q=0.0, t=np.eye(2))
        assert mobius_to_canonical(params).equals(identity_automorphism(2))

    def test_orthogonal(self):
        s = oracle.Sampler(21)
        o = oracle.sample_orthogonal(s, 3)
        params = MobiusParams(p=0.0, q=0.0, t=o)
        got = mobius_to_canonical(params)
        assert got.equals(EffectAutomorphism(o))

    def test_random_params_residual(self):
        s = oracle.Sampler(22)
        for _ in range(4):
            n = int(s.rng.integers(2, 4))
            g = oracle.sample_invertible(s, n)
            g = g / (np.linalg.svd(g, compute_uv=False)[0] * 1.001)
            params = MobiusParams(p=float(s.rng.uniform(-1.5, 0.8)),
                                  q=float(s.rng.uniform(-1.5, 0.8)), t=g)
            phi = mobius_to_canonical(params)
            for _ in range(5):
                x = oracle.sample_effect(s, n)
                delta = np.linalg.norm(phi.apply(x).mat.a - mobius_apply(params, x).mat.a)
                assert delta <= 1e-6


_PHI2 = identity_automorphism(2)
_PHI3 = identity_automorphism(3)


@pytest.mark.parametrize("call,error", [
    (lambda: EffectAutomorphism(np.ones((2, 3))), DimensionMismatch),
    (lambda: EffectAutomorphism([[math.nan, 0.0], [0.0, 1.0]]), Singular),
    (lambda: _PHI2.compose(_PHI3), DimensionMismatch),
    (lambda: _PHI2.equals(_PHI3), DimensionMismatch),
    (lambda: _PHI2.project_image(RankOneProjection([1.0, 0.0, 0.0])), DimensionMismatch),
    (lambda: _PHI2.apply(0.5 * np.eye(2)), NotAnEffect),
    (lambda: MobiusParams(p=0.0, q=0.0, t=np.ones((2, 3))), BadParameter),
    (lambda: MobiusParams(p=0.0, q=0.0, t=np.diag([1.0, 0.0])), BadParameter),
    (lambda: mobius_apply(MobiusParams(p=0.0, q=0.0, t=0.5 * np.eye(2)), half_identity(3)),
     DimensionMismatch),
    (lambda: recover_generator(lambda eff: eff, 1), DimensionMismatch),
    (lambda: recover_generator(lambda eff: eff.mat, 2), NotAutomorphism),
], ids=["generator_not_square", "generator_nan", "compose_dimensions", "equals_dimensions",
        "project_image_dimensions", "apply_ndarray", "mobius_t_not_square", "mobius_t_singular",
        "mobius_apply_dimensions", "recover_n1", "recover_oracle_not_effect"])
def test_typed_errors(call, error):
    with pytest.raises(error):
        call()
