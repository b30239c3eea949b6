"""Order structure of real symmetric matrices under the Loewner order:
the effect algebra [0, I] and its automorphism group, the strength
function along rank-one projections, and the classification of matrix
intervals with explicit isomorphism chains."""

from .linalg import (
    DEFAULT_TOL,
    SymMat,
    Spectrum,
    Tolerances,
    apply_fn,
    eigh,
    eigvalsh,
    inv,
    loewner_le,
    loewner_lt,
    sqrt_psd,
)
from .effects import (
    Effect,
    RankOneProjection,
    make_effect,
    one_third_decompose,
    sharp,
    strength,
    strength_witness,
)
from .automorphisms import (
    EffectAutomorphism,
    MobiusParams,
    identity_automorphism,
    mobius_apply,
    mobius_to_canonical,
    recover_generator,
    unit_mobius,
)
from .intervals import (
    CanonicalClass,
    Congruence,
    Endpoint,
    IntervalSpec,
    Invert,
    MapChain,
    Negate,
    Translate,
    apply_chain,
    build_chain,
    canonical_interval,
    chain_of,
    classify,
    invert_chain,
    iso_between,
)

__version__ = "0.1.0"
