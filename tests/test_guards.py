"""Every raise and fallback of the package reached by a test.

Lines reachable through the public API are reached with the inputs that
reach them. Safety code, which no genuine input reaches (a handler for an
error a numpy call can return, or a post-condition on a computed value),
is reached by fault injection: the numpy call or the helper is
monkeypatched, and the test asserts the typed error, with exit 6 where a
CLI command gets there. `python tests/reach.py` lists the lines no test
reaches."""

import json

import numpy as np
import pytest

from loewner import automorphisms, linalg, oracle
from loewner.automorphisms import (
    EffectAutomorphism,
    MobiusParams,
    mobius_apply,
    mobius_to_canonical,
    recover_generator,
    recovery_probe_effects,
)
from loewner.cli import main
from loewner.effects import (
    Effect,
    RankOneProjection,
    make_effect,
    one_third_decompose,
    strength,
    strength_witness,
)
from loewner.errors import (
    DimensionMismatch,
    DomainError,
    InternalInversionFailure,
    NotAutomorphism,
    NotIsomorphic,
    NotPSD,
    Singular,
)
from loewner.intervals import CanonicalClass, canonical_interval, iso_between
from loewner.linalg import SymMat, Tolerances

GEN_21 = '{"n":2,"data":[2,0,0,1]}'
HALF = '{"n":2,"data":[0.5,0,0,0.5]}'


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def spectra(monkeypatch):
    """For each Jacobi run since set-up, whether it took eigenvectors."""
    kinds = []
    jacobi = linalg._jacobi

    def counting(m, want_vectors):
        kinds.append(want_vectors)
        return jacobi(m, want_vectors)

    monkeypatch.setattr(linalg, "_jacobi", counting)
    return kinds


class TestStrengthFallbacks:
    def test_a_gap_below_the_gate_takes_the_spectrum(self, spectra):
        # in the range of diag(1, 3e-9, 0), but the pivot block's gap,
        # 3e-9 / 4 less the error terms, is below 2 rank_tol (F + eps_j)
        alpha = strength(SymMat.diagonal([1.0, 3e-9, 0.0]), RankOneProjection([1.0, 1.0, 0.0]))
        assert alpha == pytest.approx(6e-9 / (1.0 + 3e-9), rel=1e-12)
        assert spectra == [True]

    def test_a_pivot_that_jacobi_drops_takes_the_spectrum(self, spectra):
        # 5e-4 is a pivot (above rank_tol / n) but not above the keep gate
        # rank_tol * 1, so the spectral route keeps one eigenvector and x
        # is off its range; the lean of w = L11^-t y is tiny at this
        # tolerance, so only the keep test (beta > 2 rank_tol (F + eps_j))
        # stops the factor from answering 1 / |y|^2
        alpha = strength(SymMat.diagonal([1.0, 5e-4, 0.0]), RankOneProjection([1.0, 1.0, 0.0]),
                         Tolerances(1e-3))
        assert alpha == 0.0 and spectra == [True]

    def test_a_weak_direction_pivoted_first_takes_no_spectrum(self, spectra):
        # L = [e_0, (0, 0.9, 0.9, 0.9, 0.9)] in pivot order, so L^t L =
        # diag(1, 3.24) has its weak direction first; the pivot block
        # diag(1, 0.81) gives the gap and w = L11^-t y the preimage
        a = np.zeros((5, 5))
        a[0, 0] = 1.0
        a[1:, 1:] = 0.81
        alpha = strength(SymMat(a), RankOneProjection([1.0, 0.5, 0.5, 0.5, 0.5]))
        assert alpha == pytest.approx(2.0 * 3.24 / 4.24, rel=1e-15)
        assert spectra == []

    def test_a_direction_given_as_an_object_in_process(self, capsys):
        code, out, _ = run(capsys, ["strength", '{"n":2,"data":[1,0,0,1]}', '{"x":[1,0]}'])
        assert code == 0 and out == '{"alpha":1}\n'


class TestBasisHelpers:
    def test_dependent_columns_have_no_principal_angle(self):
        with pytest.raises(Singular, match="numerically dependent"):
            linalg.principal_angle(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]), np.eye(3)[:, :2])


class TestTwoByTwoConstructions:
    def test_one_third_form_with_the_wrong_trace_pairing(self):
        a = SymMat.diagonal([1.0 / 3.0, 1.0])       # (1/3) Q + (I - Q), Q = e_0 e_0^t
        assert one_third_decompose(a, RankOneProjection([1.0, 0.0])) is None      # tr(PQ) = 1
        q = one_third_decompose(a, RankOneProjection([1.0, 1.0]))             # tr(PQ) = 1/2
        assert np.allclose(np.abs(q.x), [1.0, 0.0])

    def test_a_witness_direction_in_the_kernel_of_the_first_argument(self):
        # both PSD at psd_tol max(1, 1000); B - A = diag(0, -2e-9) refutes
        # A <= B along e_1, where <A e_1, e_1> = -4.98e-7
        a = SymMat.diagonal([1000.0, -5e-7 + 2e-9])
        with pytest.raises(NotPSD, match="degenerate witness direction"):
            strength_witness(a, SymMat.diagonal([1000.0, -5e-7]))


class TestRecovery:
    def test_a_midpoint_image_whose_shifted_inverse_is_singular(self):
        # strictly inside (0, I) at psd_tol, but C^-1 - I = diag(999, 1.5e-9)
        image = make_effect(SymMat.diagonal([1e-3, 1.0 - 1.5e-9]))
        with pytest.raises(NotAutomorphism, match="midpoint image is inconsistent"):
            recover_generator(lambda _: image, 2)

    def test_basis_images_along_one_line_are_not_a_frame(self):
        # every basis probe goes to e_0 e_0^t, so both columns are M^-1 e_0
        # and the sign candidate u_1 - u_2 vanishes
        phi = EffectAutomorphism(np.array([[2.0, 0.3], [0.1, 1.0]]))
        half = 0.5 * np.eye(2)
        midpoint, line = phi.apply(SymMat(half)), Effect(mat=SymMat.diagonal([1.0, 0.0]))
        with pytest.raises(NotAutomorphism, match="not orthogonal"):
            recover_generator(lambda e: midpoint if np.array_equal(e.mat.a, half) else line, 2)

    def test_a_first_column_that_starts_with_zero(self):
        # the first column starts with a zero entry, and its sign is left
        # to the generator's canonical sign (read past that zero)
        swap = EffectAutomorphism(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert recover_generator(swap.apply, 2).equals(swap)

    def test_a_degenerate_basis_image(self, monkeypatch, capsys):
        # fault injection: the direction read off every probe image is zero
        phi = EffectAutomorphism(np.array([[2.0, 0.0], [0.0, 1.0]]))
        _, out, _ = run(capsys, ["phi", "probes", "2"])
        pairs = [{"input": p, "output": {"n": 2, "data": phi.apply(SymMat(np.reshape(p["data"], (2, 2))))
                                         .mat.a.ravel().tolist()}} for p in json.loads(out)["probes"]]
        monkeypatch.setattr(automorphisms, "_dominant_direction", lambda e, tol: np.zeros(e.n))
        with pytest.raises(NotAutomorphism, match="degenerate image"):
            recover_generator(phi.apply, 2)
        code, out, err = run(capsys, ["phi", "recover", json.dumps({"n": 2, "pairs": pairs})])
        assert (code, out) == (4, "") and "degenerate image" in err

    def test_degenerate_residual_probes(self, monkeypatch):
        # fault injection: every random symmetric draw has a flat spectrum
        monkeypatch.setattr(linalg, "eigvalsh", lambda a: np.zeros(a.n))
        for probe in recovery_probe_effects(2)[-10:]:
            assert np.array_equal(probe.mat.a, 0.5 * np.eye(2))


class TestApplyFaults:
    """EffectAutomorphism.apply solves with a matrix proved invertible for
    every effect and certifies the image back into [0, I]."""

    def test_a_solve_that_fails(self, monkeypatch, capsys):
        def singular(m, x):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(InternalInversionFailure, match="numerically intractable"):
            EffectAutomorphism(np.diag([2.0, 1.0])).apply(make_effect(SymMat(0.5 * np.eye(2))))
        code, out, err = run(capsys, ["phi", "apply", GEN_21, HALF])
        assert (code, out) == (6, "")
        assert err == ("error: internal numerical failure: "
                       "certified-invertible matrix was numerically intractable\n")

    def test_an_image_past_the_noise_gate(self, monkeypatch, capsys):
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda m, x: 4.0 * solve(m, x))
        with pytest.raises(InternalInversionFailure, match="beyond the noise gate"):
            EffectAutomorphism(np.diag([2.0, 1.0])).apply(make_effect(SymMat(0.5 * np.eye(2))))
        code, out, err = run(capsys, ["phi", "apply", GEN_21, HALF])
        assert (code, out) == (6, "") and "beyond the noise gate" in err

    def test_an_image_direction_off_the_mapped_projection(self, monkeypatch):
        monkeypatch.setattr(automorphisms, "_dominant_direction", lambda e, tol: np.array([0.0, 1.0]))
        with pytest.raises(InternalInversionFailure, match="image direction certificate failed"):
            EffectAutomorphism(np.eye(2)).project_image(RankOneProjection([1.0, 0.0]))


class TestMobiusFaults:
    PARAMS = MobiusParams(0.3, -0.5, np.array([[0.8, 0.1], [0.0, 0.6]]))

    def test_an_inner_eigenvalue_past_the_slack(self):
        # lambda_min(X) = -psd_tol, and sigma_max(T) = 1 + 1e-8 scales it past
        params = MobiusParams(0.3, 0.2, np.diag([1.0 + 1e-8, 1.0]))
        with pytest.raises(DomainError, match="outside"):
            mobius_apply(params, make_effect(SymMat.diagonal([-1e-9, 0.5])))

    def test_a_middle_term_outside_the_unit_interval(self, monkeypatch):
        # fault injection: every spectral function comes back doubled, so
        # the normalized middle term is eight times its value
        apply_fn = linalg.apply_fn
        monkeypatch.setattr(linalg, "apply_fn", lambda a, f: SymMat(2.0 * apply_fn(a, f).a))
        with pytest.raises(InternalInversionFailure, match="left"):
            mobius_apply(self.PARAMS, make_effect(SymMat(0.5 * np.eye(2))))

    def test_a_conversion_that_does_not_reproduce_the_map(self, monkeypatch):
        # fault injection: the map drifts once the recovery's 2n + 10
        # probes are answered
        answers = []

        def drifting(params, x):
            answers.append(x)
            image = mobius_apply(params, x)
            return image if len(answers) <= 14 else Effect(mat=SymMat(0.5 * image.mat.a))

        assert mobius_to_canonical(self.PARAMS) is not None
        monkeypatch.setattr(automorphisms, "mobius_apply", drifting)
        with pytest.raises(NotAutomorphism, match="does not reproduce"):
            mobius_to_canonical(self.PARAMS)


class TestIntervalGuards:
    def test_contains_refuses_another_dimension(self):
        with pytest.raises(DimensionMismatch):
            canonical_interval(CanonicalClass.UNIT_INTERVAL, 2).contains(SymMat.identity(3))

    def test_classes_apart_name_both(self):
        with pytest.raises(NotIsomorphic, match="^intervals are not order isomorphic: "
                                                "unit_interval vs whole$"):
            iso_between(canonical_interval(CanonicalClass.UNIT_INTERVAL, 2),
                        canonical_interval(CanonicalClass.WHOLE, 2))


class TestSamplerFallback:
    def test_a_flat_draw_gives_a_multiple_of_the_identity(self):
        class Flat:
            def standard_normal(self, shape):
                return np.eye(shape[0])

            def uniform(self):
                return 0.25

        s = oracle.Sampler(0)
        s.rng = Flat()
        assert np.array_equal(oracle.sample_effect(s, 3).mat.a, 0.25 * np.eye(3))
