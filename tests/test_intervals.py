"""Interval classification, chain construction, and isomorphism tests."""

import numpy as np
import pytest

from loewner import linalg, oracle
from loewner.automorphisms import EffectAutomorphism
from loewner.effects import make_effect
from loewner.errors import (
    DimensionMismatch,
    IntermediateSingular,
    InvalidSpec,
    NotIsomorphic,
    OutOfDomain,
    Singular,
    TooLarge,
)
from loewner.intervals import (
    AffineAutomorphism,
    CanonicalClass,
    Congruence,
    Endpoint,
    IntervalSpec,
    Invert,
    Negate,
    Translate,
    affine_automorphism_apply,
    apply_chain,
    build_chain,
    canonical_interval,
    chain_of,
    classify,
    compose_chains,
    cone_automorphism_apply,
    invert_chain,
    iso_between,
)
from loewner.linalg import SymMat, Tolerances
from loewner.selftest import (
    conjugation_chain,
    open_unit_interval,
    random_interval_spec,
    sample_in_interval_pair,
)

ZERO2 = SymMat.zero(2)
EYE2 = SymMat.identity(2)


def closed(m):
    return Endpoint.finite(m, closed=True)


def open_(m):
    return Endpoint.finite(m, closed=False)


class TestSpecValidation:
    def test_infinite_endpoints_are_open(self):
        with pytest.raises(InvalidSpec):
            Endpoint(kind="plus_infinity", closed=True)

    def test_finite_needs_matrix(self):
        with pytest.raises(InvalidSpec):
            Endpoint(kind="finite")

    def test_ordering_required(self):
        with pytest.raises(InvalidSpec):
            IntervalSpec(closed(EYE2), closed(ZERO2), 2)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(InvalidSpec):
            IntervalSpec(closed(ZERO2), closed(ZERO2), 2)

    def test_ordering_at_the_callers_tolerance(self):
        tiny = SymMat(1e-10 * np.eye(2))
        fine = Tolerances(1e-12)
        spec = IntervalSpec(closed(ZERO2), closed(tiny), 2, tol=fine)
        assert classify(spec) is CanonicalClass.UNIT_INTERVAL
        with pytest.raises(InvalidSpec):
            IntervalSpec(closed(ZERO2), closed(tiny), 2)

    def test_lower_plus_infinity_rejected(self):
        with pytest.raises(InvalidSpec):
            IntervalSpec(Endpoint.plus_infinity(), Endpoint.plus_infinity(), 2)


class TestClassify:
    def test_all_nine_shapes(self):
        a, b = ZERO2, EYE2
        cases = [
            (IntervalSpec(closed(a), closed(b), 2), CanonicalClass.UNIT_INTERVAL),
            (IntervalSpec(closed(a), open_(b), 2), CanonicalClass.POSITIVE_CLOSED),
            (IntervalSpec(open_(a), closed(b), 2), CanonicalClass.NEGATIVE_CLOSED),
            (IntervalSpec(open_(a), open_(b), 2), CanonicalClass.POSITIVE_OPEN),
            (IntervalSpec(closed(a), Endpoint.plus_infinity(), 2), CanonicalClass.POSITIVE_CLOSED),
            (IntervalSpec(open_(a), Endpoint.plus_infinity(), 2), CanonicalClass.POSITIVE_OPEN),
            (IntervalSpec(Endpoint.minus_infinity(), closed(a), 2), CanonicalClass.NEGATIVE_CLOSED),
            (IntervalSpec(Endpoint.minus_infinity(), open_(a), 2), CanonicalClass.POSITIVE_OPEN),
            (IntervalSpec(Endpoint.minus_infinity(), Endpoint.plus_infinity(), 2), CanonicalClass.WHOLE),
        ]
        for spec, expected in cases:
            assert classify(spec) is expected

    def test_totality_random(self):
        s = oracle.Sampler(31)
        for shape in range(9):
            for _ in range(3):
                spec = random_interval_spec(s, shape, 3)
                assert classify(spec) in CanonicalClass


class TestBuildChain:
    def test_canonical_unit_interval_is_empty(self):
        spec = IntervalSpec(closed(ZERO2), closed(EYE2), 2)
        assert build_chain(spec).steps == ()

    def test_bounded_closed_normalization(self):
        s = oracle.Sampler(32)
        low = SymMat(s.rng.standard_normal((3, 3)))
        high = SymMat(low.a + oracle._sample_psd(s, 3) + 0.5 * np.eye(3))
        spec = IntervalSpec(closed(low), closed(high), 3)
        chain = build_chain(spec)
        kinds = [type(step).__name__ for step in chain.steps]
        assert kinds == ["Translate", "Congruence"]
        assert not chain.parity
        assert np.linalg.norm(apply_chain(chain, low, spec).a) <= 1e-10
        assert np.linalg.norm(apply_chain(chain, high, spec).a - np.eye(3)) <= 1e-10

    def test_half_open_chain_shape(self):
        spec = IntervalSpec(closed(ZERO2), open_(EYE2), 2)
        chain = build_chain(spec)
        kinds = [type(step).__name__ for step in chain.steps]
        assert kinds == ["Negate", "Translate", "Invert", "Translate"]
        assert not chain.parity

    def test_translation_only_for_cones(self):
        shift = SymMat([[1.0, 0.25], [0.25, 2.0]])
        spec = IntervalSpec(closed(shift), Endpoint.plus_infinity(), 2)
        chain = build_chain(spec)
        assert len(chain.steps) == 1
        assert np.allclose(chain.steps[0].shift.a, -shift.a)


class TestApplyChain:
    def test_empty_chain_echo(self):
        spec = IntervalSpec(Endpoint.minus_infinity(), Endpoint.plus_infinity(), 2)
        x = SymMat([[3.0, 1.0], [1.0, -2.0]])
        assert np.allclose(apply_chain(build_chain(spec), x, spec).a, x.a)

    def test_endpoint_to_endpoint(self):
        spec = IntervalSpec(closed(ZERO2), open_(EYE2), 2)
        got = apply_chain(build_chain(spec), ZERO2, spec)
        assert np.linalg.norm(got.a) <= 1e-12

    def test_half_identity_lands_on_identity(self):
        # (I - X)^{-1} - I at X = I/2 is I
        spec = IntervalSpec(closed(ZERO2), open_(EYE2), 2)
        got = apply_chain(build_chain(spec), SymMat(0.5 * np.eye(2)), spec)
        assert np.allclose(got.a, np.eye(2), atol=1e-12)

    def test_out_of_domain(self):
        spec = IntervalSpec(closed(ZERO2), open_(EYE2), 2)
        with pytest.raises(OutOfDomain):
            apply_chain(build_chain(spec), EYE2, spec)
        with pytest.raises(OutOfDomain):
            apply_chain(build_chain(spec), SymMat.diagonal([-0.5, 0.5]), spec)

    def test_chain_inverts_at_the_domain_tolerance(self):
        fine = Tolerances(1e-12)
        spec = IntervalSpec(Endpoint.minus_infinity(), open_(ZERO2), 2, tol=fine)
        x = SymMat.diagonal([-1.0, -1e-10])           # inside at psd_tol 1e-12
        got = apply_chain(build_chain(spec), x, spec)  # Negate, Invert
        assert np.allclose(got.a, np.diag([1.0, 1e10]), rtol=1e-15, atol=0.0)
        coarse = IntervalSpec(Endpoint.minus_infinity(), open_(ZERO2), 2)
        with pytest.raises(OutOfDomain):
            apply_chain(build_chain(coarse), x, coarse)
        with pytest.raises(IntermediateSingular):
            Invert(coarse.tol).apply(SymMat.diagonal([1.0, 1e-10]))

    def test_chain_is_built_at_the_spec_tolerance(self):
        # every shape whose chain inverts: (-inf, 0), [0, I), (0, I], (0, I)
        fine = Tolerances(1e-12)
        ends = [(Endpoint.minus_infinity(), open_(ZERO2)), (closed(ZERO2), open_(EYE2)),
                (open_(ZERO2), closed(EYE2)), (open_(ZERO2), open_(EYE2))]
        for lower, upper in ends:
            chain = build_chain(IntervalSpec(lower, upper, 2, tol=fine))
            for steps in (chain.steps, invert_chain(chain).steps):
                inverts = [step for step in steps if isinstance(step, Invert)]
                assert len(inverts) == 1 and inverts[0].tol is fine
        # and inverts at it: diag(1, 1e-10) is singular at the default only
        got = inverts[0].apply(SymMat.diagonal([1.0, 1e-10]))
        assert np.allclose(got.a, np.diag([1.0, 1e10]), rtol=1e-15, atol=0.0)
        with pytest.raises(IntermediateSingular):
            Invert().apply(SymMat.diagonal([1.0, 1e-10]))

    def test_foreign_chain_hits_singular_intermediate(self):
        whole = IntervalSpec(Endpoint.minus_infinity(), Endpoint.plus_infinity(), 2)
        with pytest.raises(IntermediateSingular):
            apply_chain(chain_of(Invert()), ZERO2, whole)


class TestChainAlgebra:
    def test_invert_empty(self):
        assert invert_chain(chain_of()).steps == ()

    def test_round_trip_random(self):
        s = oracle.Sampler(33)
        for shape in range(9):
            spec = random_interval_spec(s, shape, 2)
            chain = build_chain(spec)
            back = invert_chain(chain)
            low, high = sample_in_interval_pair(s, spec)
            canon = canonical_interval(classify(spec), 2)
            for x in (low, high):
                mapped = apply_chain(chain, x, spec)
                returned = apply_chain(back, mapped, canon)
                assert np.linalg.norm(returned.a - x.a) <= 1e-8

    def test_compose_parity_xor(self):
        reversing = chain_of(Negate())
        assert compose_chains(reversing, reversing).parity is False
        assert compose_chains(reversing, chain_of()).parity is True

    def test_anti_chain_reverses_order(self):
        # (0, inf) -> (0, I) through X -> (I + X)^{-1}; odd parity
        anti = chain_of(Translate(shift=EYE2), Invert())
        assert anti.parity
        s = oracle.Sampler(34)
        cone = canonical_interval(CanonicalClass.POSITIVE_OPEN, 2)
        low, high = oracle._sample_canonical_pair(s, CanonicalClass.POSITIVE_OPEN, 2)
        mapped_low = apply_chain(anti, low, cone)
        mapped_high = apply_chain(anti, high, cone)
        assert linalg.loewner_le(mapped_high, mapped_low)


class TestIsoBetween:
    def test_unit_interval_to_random_box(self):
        s = oracle.Sampler(35)
        low = SymMat(s.rng.standard_normal((2, 2)))
        high = SymMat(low.a + oracle._sample_psd(s, 2) + 0.5 * np.eye(2))
        source = IntervalSpec(closed(ZERO2), closed(EYE2), 2)
        target = IntervalSpec(closed(low), closed(high), 2)
        iso = iso_between(source, target)
        assert not iso.parity
        assert np.linalg.norm(apply_chain(iso, ZERO2, source).a - low.a) <= 1e-10
        assert np.linalg.norm(apply_chain(iso, EYE2, source).a - high.a) <= 1e-10

    def test_open_unit_to_open_cone(self):
        source = open_unit_interval(2)
        target = canonical_interval(CanonicalClass.POSITIVE_OPEN, 2)
        iso = iso_between(source, target)
        got = apply_chain(iso, SymMat(0.5 * np.eye(2)), source)
        assert np.allclose(got.a, np.eye(2), atol=1e-12)

    def test_cones_not_isomorphic(self):
        with pytest.raises(NotIsomorphic) as info:
            iso_between(canonical_interval(CanonicalClass.POSITIVE_CLOSED, 2),
                        canonical_interval(CanonicalClass.NEGATIVE_CLOSED, 2))
        assert info.value.class_a is CanonicalClass.POSITIVE_CLOSED
        assert info.value.class_b is CanonicalClass.NEGATIVE_CLOSED
        assert "anti-isomorphism" in str(info.value)


class TestConeAutomorphism:
    def test_identity(self):
        x = SymMat([[1.0, 0.2], [0.2, 0.7]])
        assert np.allclose(cone_automorphism_apply(np.eye(2), x).a, x.a)

    def test_rank_one_scaling(self):
        e11 = SymMat([[1.0, 0.0], [0.0, 0.0]])
        got = cone_automorphism_apply(np.diag([2.0, 1.0]), e11)
        assert np.allclose(got.a, 4.0 * e11.a)

    def test_openness_preserved(self):
        s = oracle.Sampler(36)
        for _ in range(10):
            t = oracle.sample_invertible(s, 3)
            x = SymMat(oracle._sample_psd(s, 3) + 0.2 * np.eye(3))
            got = cone_automorphism_apply(t, x, open_cone=True)
            assert linalg.loewner_lt(SymMat.zero(3), got)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            cone_automorphism_apply(np.eye(2), SymMat.diagonal([-1.0, 1.0]))
        with pytest.raises(OutOfDomain):
            cone_automorphism_apply(np.eye(2), SymMat.diagonal([0.0, 1.0]), open_cone=True)


class TestAffineAutomorphism:
    def test_identity(self):
        auto = AffineAutomorphism(t=np.eye(2), s=ZERO2)
        x = SymMat([[1.0, -0.3], [-0.3, 2.0]])
        assert np.allclose(affine_automorphism_apply(auto, x).a, x.a)

    def test_pure_shift(self):
        auto = AffineAutomorphism(t=np.eye(2), s=EYE2)
        assert np.allclose(affine_automorphism_apply(auto, ZERO2).a, np.eye(2))

    def test_order_preservation(self):
        s = oracle.Sampler(37)
        for _ in range(15):
            n = int(s.rng.integers(2, 5))
            auto = AffineAutomorphism(t=oracle.sample_invertible(s, n),
                                      s=SymMat(s.rng.standard_normal((n, n))))
            low = SymMat(s.rng.standard_normal((n, n)))
            high = SymMat(low.a + oracle._sample_psd(s, n))
            assert linalg.loewner_le(affine_automorphism_apply(auto, low),
                                     affine_automorphism_apply(auto, high))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_image_past_the_range_is_too_large(self):
        auto = AffineAutomorphism(t=1e200 * np.eye(2), s=ZERO2)
        with pytest.raises(TooLarge):
            affine_automorphism_apply(auto, SymMat([[1e200, 0.0], [0.0, 1.0]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_translate_past_the_range_is_too_large():
    # a translate is the SymMat sum, with its bits and its TooLarge
    x = SymMat([[1e308, 0.0], [0.0, 1.0]])
    with pytest.raises(TooLarge):
        Translate(shift=x).apply(x)
    y = SymMat([[0.5, 0.25], [0.25, -1.0]])
    assert np.array_equal(Translate(shift=y).apply(x).a, x.a + y.a)


class TestChainSoundness:
    def test_all_shapes_even_parity_order_preserving(self):
        s = oracle.Sampler(38)
        for shape in range(9):
            for _ in range(3):
                n = 2 + shape % 2
                spec = random_interval_spec(s, shape, n)
                chain = build_chain(spec)
                assert not chain.parity
                low, high = sample_in_interval_pair(s, spec)
                assert linalg.loewner_le(apply_chain(chain, low, spec),
                                         apply_chain(chain, high, spec))

    def test_closed_endpoints_exact(self):
        s = oracle.Sampler(39)
        canon_zero = {CanonicalClass.POSITIVE_CLOSED, CanonicalClass.NEGATIVE_CLOSED}
        for shape in (0, 1, 2, 4, 6):
            spec = random_interval_spec(s, shape, 3)
            chain = build_chain(spec)
            cls = classify(spec)
            if spec.lower.is_finite and spec.lower.closed:
                got = apply_chain(chain, spec.lower.matrix, spec)
                assert np.linalg.norm(got.a) <= 1e-10
            if spec.upper.is_finite and spec.upper.closed:
                got = apply_chain(chain, spec.upper.matrix, spec)
                target = np.eye(3) if cls is CanonicalClass.UNIT_INTERVAL else np.zeros((3, 3))
                assert cls is CanonicalClass.UNIT_INTERVAL or cls in canon_zero
                assert np.linalg.norm(got.a - target) <= 1e-10


class TestConjugationBridge:
    def test_matches_automorphism_formula(self):
        s = oracle.Sampler(40)
        for _ in range(25):
            n = int(s.rng.integers(2, 6))
            phi = EffectAutomorphism(oracle.sample_invertible(s, n))
            x = SymMat(0.05 * np.eye(n) + 0.9 * oracle.sample_effect(s, n).mat.a)
            direct = phi.apply(make_effect(x)).mat.a
            routed = apply_chain(conjugation_chain(phi.t), x, open_unit_interval(n)).a
            assert np.linalg.norm(direct - routed) <= 1e-8


@pytest.mark.parametrize("call,error", [
    (lambda: IntervalSpec(Endpoint.minus_infinity(), Endpoint.plus_infinity(), 0), InvalidSpec),
    (lambda: IntervalSpec(closed(ZERO2), Endpoint.minus_infinity(), 2), InvalidSpec),
    (lambda: IntervalSpec(closed(SymMat.zero(3)), Endpoint.plus_infinity(), 2), InvalidSpec),
    (lambda: Endpoint(kind="plus_infinity", matrix=ZERO2), InvalidSpec),
    (lambda: Congruence(generator=np.ones((2, 3))), InvalidSpec),
    (lambda: Congruence(generator=np.diag([1.0, 0.0])), Singular),
    (lambda: cone_automorphism_apply(np.eye(3), ZERO2), DimensionMismatch),
    (lambda: AffineAutomorphism(np.eye(3), ZERO2), DimensionMismatch),
    (lambda: affine_automorphism_apply(AffineAutomorphism(np.eye(2), ZERO2), SymMat.zero(3)),
     DimensionMismatch),
], ids=["dimension_zero", "upper_minus_infinity", "endpoint_dimension",
        "infinite_endpoint_with_matrix", "congruence_not_square", "congruence_singular",
        "cone_automorphism_dimensions", "affine_shift_dimension", "affine_apply_dimensions"])
def test_typed_errors(call, error):
    with pytest.raises(error):
        call()
