"""Seeded invariant suite behind the `selftest` CLI command.

Each property runs against the public API with brute-force oracles from
loewner.oracle and reports one line. Counts scale with the --trials flag
but expensive properties are capped so a default run stays fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from . import effects, linalg, oracle
from .automorphisms import (
    EffectAutomorphism,
    MobiusParams,
    mobius_apply,
    mobius_to_canonical,
    recover_generator,
)
from .effects import RankOneProjection, make_effect
from .errors import LoewnerError, NotIsomorphic
from .intervals import (
    CanonicalClass,
    Congruence,
    Endpoint,
    IntervalSpec,
    Invert,
    Translate,
    apply_chain,
    build_chain,
    canonical_interval,
    chain_of,
    classify,
    invert_chain,
    iso_between,
)
from .linalg import DEFAULT_TOL, SymMat, Tolerances


@dataclass(frozen=True)
class PropertyResult:
    name: str
    ok: bool
    detail: str


def _violations_detail(bad: int, total: int, worst: float = None) -> str:
    base = f"{bad} violations in {total} trials"
    if worst is not None:
        base += f", worst residual {worst:.3e}"
    return base


def check_order_preservation(seed: int, trials: int) -> PropertyResult:
    s = oracle.Sampler(seed)
    gate = Tolerances(1e-8)
    bad = 0
    for i in range(trials):
        n = 2 + i % 5
        phi = EffectAutomorphism(oracle.sample_invertible(s, n))
        low, high = oracle.sample_comparable_pair(s, n)
        if not linalg.loewner_le(phi.apply(low).mat, phi.apply(high).mat, gate):
            bad += 1
    return PropertyResult("order_preservation", bad == 0, _violations_detail(bad, trials))


def check_group_law(seed: int, trials: int) -> PropertyResult:
    s = oracle.Sampler(seed)
    worst = 0.0
    for i in range(trials):
        n = 2 + i % 4
        first = EffectAutomorphism(oracle.sample_invertible(s, n))
        second = EffectAutomorphism(oracle.sample_invertible(s, n))
        x = oracle.sample_effect(s, n)
        combined = first.compose(second).apply(x).mat.a
        staged = first.apply(second.apply(x)).mat.a
        worst = max(worst, float(np.linalg.norm(combined - staged)))
    return PropertyResult("group_law", worst <= 1e-8,
                          _violations_detail(int(worst > 1e-8), trials, worst))


def check_fixed_points(seed: int, trials: int) -> PropertyResult:
    s = oracle.Sampler(seed)
    count = min(trials, 100)
    worst = 0.0
    for i in range(count):
        n = 2 + i % 4
        phi = EffectAutomorphism(oracle.sample_invertible(s, n))
        at_zero = phi.apply(make_effect(SymMat.zero(n))).mat.a
        at_one = phi.apply(make_effect(SymMat.identity(n))).mat.a
        worst = max(worst,
                    float(np.linalg.norm(at_zero)),
                    float(np.linalg.norm(at_one - np.eye(n))))
    return PropertyResult("fixed_points", worst <= 1e-10,
                          _violations_detail(int(worst > 1e-10), count, worst))


def _random_rank_two_projection(s: oracle.Sampler, n: int) -> SymMat:
    frame = oracle.sample_orthogonal(s, n)[:, :2]
    return SymMat(frame @ frame.T)


def check_projection_law(seed: int, trials: int) -> PropertyResult:
    s = oracle.Sampler(seed)
    worst_idem, worst_angle = 0.0, 0.0
    for i in range(trials):
        n = 3 + i % 3
        t = oracle.sample_invertible(s, n)
        phi = EffectAutomorphism(t)
        rank = 1 + i % 2
        if rank == 1:
            proj = RankOneProjection(s.rng.standard_normal(n))
            basis = proj.x[:, None]
            mat = proj.mat
        else:
            mat = _random_rank_two_projection(s, n)
            spec = linalg.eigh(mat)
            basis = spec.eigenvectors[:, -2:]
        image = phi.apply(make_effect(mat)).mat
        worst_idem = max(worst_idem, float(np.linalg.norm(image.a @ image.a - image.a)))
        spec_image = linalg.eigh(image)
        span = spec_image.eigenvectors[:, -rank:]
        worst_angle = max(worst_angle, linalg.principal_angle(span, t @ basis))
    ok = worst_idem <= 1e-8 and worst_angle <= 1e-6
    return PropertyResult(
        "projection_law", ok,
        f"worst idempotence {worst_idem:.3e}, worst angle {worst_angle:.3e} over {trials} trials")


def check_strength_oracle(seed: int, trials: int) -> PropertyResult:
    """Closed form vs bisection on full-rank and singular inputs.

    Directions against singular matrices are kept clearly inside or
    clearly outside the range: the strength jumps discontinuously at the
    range boundary, so directions within ~1e-2 of it are resolvable by
    neither route (the documented two-tier gray zone).
    """
    s = oracle.Sampler(seed)
    worst = 0.0
    for i in range(trials):
        n = 2 + i % 5
        singular = i % 2 == 1
        mat = oracle.sample_psd(s, n, singular=singular)
        if not singular:
            proj = RankOneProjection(s.rng.standard_normal(n))
        else:
            spec = linalg.eigh(mat)
            kernel = spec.eigenvectors[:, spec.eigenvalues
                                       <= DEFAULT_TOL.rank_tol * float(spec.eigenvalues[-1])]
            mode = i % 3
            if mode == 0:
                for _ in range(64):
                    direction = s.rng.standard_normal(n)
                    direction /= float(np.linalg.norm(direction))
                    if float(np.linalg.norm(kernel.T @ direction)) >= 0.05:
                        break
                proj = RankOneProjection(direction)  # clearly off the range
            elif mode == 1:
                proj = RankOneProjection(kernel[:, 0])  # exact kernel direction
            else:
                proj = RankOneProjection(mat.a @ s.rng.standard_normal(n))  # in-range direction
        direct = effects.strength(mat, proj)
        brute = oracle.strength_bisection(mat, proj)
        worst = max(worst, abs(direct - brute))
    return PropertyResult("strength_vs_bisection", worst <= 1e-6,
                          _violations_detail(int(worst > 1e-6), trials, worst))


def check_witness_biconditional(seed: int, trials: int) -> PropertyResult:
    s = oracle.Sampler(seed)
    bad = 0
    for i in range(trials):
        n = 2 + i % 4
        if i % 2 == 0:
            low, high = oracle.sample_comparable_pair(s, n)
            first, second = low.mat, high.mat
        else:
            first, second = oracle.sample_psd(s, n), oracle.sample_psd(s, n)
        comparable = linalg.loewner_le(first, second)
        witness = effects.strength_witness(first, second)
        if comparable != (witness is None):
            bad += 1
            continue
        if witness is not None:
            proj, t = witness
            scaled = SymMat(t * proj.mat.a)
            if not linalg.loewner_le(scaled, first):
                bad += 1
            elif linalg.loewner_le(scaled, second):
                bad += 1
    return PropertyResult("witness_biconditional", bad == 0, _violations_detail(bad, trials))


def check_recovery_round_trip(seed: int, trials: int, count: int = None) -> PropertyResult:
    s = oracle.Sampler(seed)
    if count is None:
        count = max(5, min(trials, 20))
    bad = 0
    for i in range(count):
        n = 2 + i % 4
        phi = EffectAutomorphism(oracle.sample_invertible(s, n))
        try:
            rebuilt = recover_generator(phi.apply, n)
        except LoewnerError:
            bad += 1
            continue
        if not rebuilt.equals(phi):
            bad += 1
    return PropertyResult("recovery_round_trip", bad == 0, _violations_detail(bad, count))


def _random_mobius_params(s: oracle.Sampler, n: int) -> MobiusParams:
    p = float(s.rng.uniform(-2.0, 0.9))
    q = float(s.rng.uniform(-2.0, 0.9))
    g = oracle.sample_invertible(s, n)
    top = float(np.linalg.svd(g, compute_uv=False)[0])
    return MobiusParams(p=p, q=q, t=g / (top * (1.0 + 1e-3)))


def check_mobius_bridge(seed: int, trials: int, count: int = None) -> PropertyResult:
    s = oracle.Sampler(seed)
    if count is None:
        count = max(3, min(trials, 10))
    bad = 0
    for i in range(count):
        n = 2 + i % 3
        params = _random_mobius_params(s, n)
        try:
            for _ in range(5):
                mobius_apply(params, oracle.sample_effect(s, n))
            report = oracle.monotonicity_report(
                lambda m: mobius_apply(params, make_effect(m)).mat,
                canonical_interval(CanonicalClass.UNIT_INTERVAL, n),
                trials=10, s=s.derive(i))
            if report.violated:
                bad += 1
                continue
            mobius_to_canonical(params)
        except LoewnerError:
            bad += 1
    return PropertyResult("mobius_bridge", bad == 0, _violations_detail(bad, count))


def _random_sym(s: oracle.Sampler, n: int) -> SymMat:
    return SymMat(s.rng.standard_normal((n, n)))


def random_interval_spec(s: oracle.Sampler, shape: int, n: int) -> IntervalSpec:
    """One of the nine endpoint shapes with random endpoints."""
    low = _random_sym(s, n)
    high = SymMat(low.a + oracle._sample_psd(s, n) + 0.5 * np.eye(n))
    finite = lambda m, closed: Endpoint.finite(m, closed=closed)
    shapes = (
        lambda: IntervalSpec(finite(low, True), finite(high, True), n),
        lambda: IntervalSpec(finite(low, True), finite(high, False), n),
        lambda: IntervalSpec(finite(low, False), finite(high, True), n),
        lambda: IntervalSpec(finite(low, False), finite(high, False), n),
        lambda: IntervalSpec(finite(low, True), Endpoint.plus_infinity(), n),
        lambda: IntervalSpec(finite(low, False), Endpoint.plus_infinity(), n),
        lambda: IntervalSpec(Endpoint.minus_infinity(), finite(high, True), n),
        lambda: IntervalSpec(Endpoint.minus_infinity(), finite(high, False), n),
        lambda: IntervalSpec(Endpoint.minus_infinity(), Endpoint.plus_infinity(), n),
    )
    return shapes[shape]()


def _closed_endpoint_images(spec: IntervalSpec):
    """(endpoint matrix, expected canonical image) for each closed end."""
    cls = classify(spec)
    canon = canonical_interval(cls, spec.n)
    out = []
    if spec.lower.is_finite and spec.lower.closed:
        out.append((spec.lower.matrix, canon.lower.matrix))
    if spec.upper.is_finite and spec.upper.closed:
        out.append((spec.upper.matrix, canon.upper.matrix))
    return out


def sample_in_interval_pair(s: oracle.Sampler, spec: IntervalSpec):
    """Comparable pair inside the interval, transported from the canonical
    representative through the inverted normalization chain."""
    cls = classify(spec)
    canon = canonical_interval(cls, spec.n)
    back = invert_chain(build_chain(spec))
    low_c, high_c = oracle._sample_canonical_pair(s, cls, spec.n)
    return apply_chain(back, low_c, canon), apply_chain(back, high_c, canon)


def check_interval_atlas(seed: int, trials: int, per_shape: int = None) -> PropertyResult:
    s = oracle.Sampler(seed)
    if per_shape is None:
        per_shape = max(2, min(trials // 20, 10))
    bad = 0
    total = 0
    for shape in range(9):
        for k in range(per_shape):
            total += 1
            n = 2 + (shape + k) % 3
            spec = random_interval_spec(s, shape, n)
            chain = build_chain(spec)
            if chain.parity:
                bad += 1
                continue
            canon = canonical_interval(classify(spec), n)
            endpoint_fail = False
            for source, target in _closed_endpoint_images(spec):
                image = apply_chain(chain, source, spec)
                if float(np.linalg.norm(image.a - target.a)) > 1e-10:
                    endpoint_fail = True
            if endpoint_fail:
                bad += 1
                continue
            low, high = sample_in_interval_pair(s, spec)
            if not linalg.loewner_le(apply_chain(chain, low, spec),
                                     apply_chain(chain, high, spec)):
                bad += 1
                continue
            other = random_interval_spec(s, shape, n)
            iso = iso_between(spec, other)
            back = iso_between(other, spec)
            mapped = apply_chain(iso, low, spec)
            if not other.contains(mapped):
                bad += 1
                continue
            returned = apply_chain(back, mapped, other)
            if float(np.linalg.norm(returned.a - low.a)) > 1e-8:
                bad += 1
    try:
        iso_between(canonical_interval(CanonicalClass.POSITIVE_CLOSED, 2),
                    canonical_interval(CanonicalClass.NEGATIVE_CLOSED, 2))
        bad += 1
    except NotIsomorphic:
        pass
    total += 1
    return PropertyResult("interval_atlas", bad == 0, _violations_detail(bad, total))


def conjugation_chain(t: np.ndarray) -> "MapChain":
    """Route (0, I) -> (0, inf) -> (0, inf) -> (0, I): invert and shift
    down, congruence by the inverse transpose, shift up and invert."""
    eye = SymMat.identity(t.shape[0])
    t_prime = np.linalg.inv(t.T)
    return chain_of(Invert(), Translate(shift=SymMat(-eye.a)),
                    Congruence(generator=t_prime),
                    Translate(shift=eye), Invert())


def open_unit_interval(n: int) -> IntervalSpec:
    return IntervalSpec(Endpoint.finite(SymMat.zero(n), closed=False),
                        Endpoint.finite(SymMat.identity(n), closed=False), n)


def check_conjugation_identity(seed: int, trials: int) -> PropertyResult:
    s = oracle.Sampler(seed)
    count = min(trials, 100)
    worst = 0.0
    for i in range(count):
        n = 2 + i % 4
        t = oracle.sample_invertible(s, n)
        phi = EffectAutomorphism(t)
        interior = SymMat(0.05 * np.eye(n) + 0.9 * oracle.sample_effect(s, n).mat.a)
        direct = phi.apply(make_effect(interior)).mat.a
        chained = apply_chain(conjugation_chain(phi.t), interior, open_unit_interval(n)).a
        worst = max(worst, float(np.linalg.norm(direct - chained)))
    return PropertyResult("conjugation_identity", worst <= 1e-8,
                          _violations_detail(int(worst > 1e-8), count, worst))


def check_two_by_two_fixtures(seed: int, trials: int) -> PropertyResult:
    third_form = SymMat([[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]])
    p_diag = RankOneProjection([1.0, 0.0])
    q = effects.one_third_decompose(third_form, p_diag)
    ok = q is not None and np.allclose(
        q.mat.a, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    diag_form = SymMat([[1.0 / 3.0, 0.0], [0.0, 1.0]])
    p_hadamard = RankOneProjection([1.0, 1.0])
    gap = diag_form.a - 0.5 * p_hadamard.mat.a
    expected = np.array([[1.0 / 12.0, -0.25], [-0.25, 0.75]])
    lam = linalg.eigvalsh(SymMat(gap))
    ok = ok and np.allclose(gap, expected, atol=1e-15)
    ok = ok and abs(float(lam[0])) <= 1e-15 and float(lam[1]) > 0.5

    sharped = effects.sharp(SymMat.diagonal([1.0, 0.0]))
    ok = ok and bool(np.all(sharped.mat.a == np.array([[0.5, 0.5], [0.5, 0.5]])))
    return PropertyResult("two_by_two_fixtures", ok, "exact fixture checks")


_PROPERTIES: List[Callable[[int, int], PropertyResult]] = [
    check_order_preservation,
    check_group_law,
    check_fixed_points,
    check_projection_law,
    check_strength_oracle,
    check_witness_biconditional,
    check_recovery_round_trip,
    check_mobius_bridge,
    check_interval_atlas,
    check_conjugation_identity,
    check_two_by_two_fixtures,
]


def run_selftest(seed: int, trials: int) -> List[PropertyResult]:
    return [prop(seed + k, trials) for k, prop in enumerate(_PROPERTIES)]
