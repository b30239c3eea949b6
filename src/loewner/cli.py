"""JSON command-line front end.

Commands read matrix documents {"n": int, "data": [row-major numbers]}
from files, inline JSON, or stdin ('-'), and write one JSON document to
stdout with sorted keys, 17-significant-digit numbers, and a trailing
newline, so every emitted value re-parses exactly. Only the `selftest`
command loads the `selftest` and `oracle` modules, so the other commands
neither compile nor run them.

Dimensions above _MAX_N = 44 are refused before any computation, since the
pure-Python Jacobi kernel grows as n^3 per sweep. At n = 44, on a 2-core
x86-64 machine (best of 3 cold runs of the whole command), `phi probes 44`
took 0.61 s and a valid `phi recover` payload 0.73 s.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from . import effects, linalg
from .automorphisms import EffectAutomorphism, recover_generator, recovery_probe_effects
from .effects import Effect, RankOneProjection, make_effect
from .errors import (
    DimensionMismatch,
    InternalInversionFailure,
    LoewnerError,
    NonConvergence,
    NotAutomorphism,
    NotPSD,
    OutOfInterval,
    TooLarge,
)
from .intervals import (
    Congruence,
    Endpoint,
    IntervalSpec,
    Invert,
    MapChain,
    Negate,
    Translate,
    apply_chain,
    build_chain,
    classify,
)
from .linalg import SymMat, Tolerances

_ASYMMETRY_WARN = 1e-9
_MAX_N = 44


def dumps_stable(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, dict):
        parts = (json.dumps(str(k)) + ":" + dumps_stable(v)
                 for k, v in sorted(obj.items()))
        return "{" + ",".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_stable(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _read_source(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    if source.lstrip().startswith(("{", "[")):
        return source
    with open(source, "r", encoding="utf-8") as handle:
        return handle.read()


def load_json(source: str):
    try:
        return json.loads(_read_source(source))
    except RecursionError:      # json decodes nested arrays and objects recursively
        raise ValueError("JSON input is nested too deeply") from None


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def _field(doc, key: str, name: str):
    """doc[key] from the JSON object `doc`, called `name` in messages;
    ValueError naming the document and the key when `doc` is not an object
    or has no `key`."""
    if type(doc) is not dict:
        raise ValueError(f'{name} must be a JSON object with "{key}", '
                         f"got {_JSON_TYPES[type(doc)]}")
    if key not in doc:
        raise ValueError(f'{name} has no "{key}"')
    return doc[key]


def _array(value, name: str) -> list:
    """`value` if it is a JSON array; ValueError naming it otherwise."""
    if type(value) is not list:
        raise ValueError(f"{name} must be a JSON array, got {_JSON_TYPES[type(value)]}")
    return value


def _parse_dimension(value) -> int:
    """A document's dimension n, a JSON number with a whole value; TooLarge
    above _MAX_N, naming the value as given (1e+308 for a float), and an
    integer of more than 40 digits by its first 20 and its length."""
    if type(value) not in (int, float) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"dimension {value!r} is not a whole number")
    if value > _MAX_N:
        shown = repr(value)
        if len(shown) > 40:
            shown = f"{shown[:20]}... ({len(shown)} digits)"
        raise TooLarge(f"dimension {shown} is above the cap of {_MAX_N}")
    return int(value)


def _number(value, name: str, index: int) -> float:
    """A JSON number that is not a boolean, as a finite double; ValueError
    naming the entry, name[index], for anything else. The message is
    formed only on refusal."""
    if type(value) not in (int, float):
        raise ValueError(f"{name}[{index}] must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:   # exact for an int of any size
        raise ValueError(f"{name}[{index}] must be finite" if type(value) is float
                         else f"{name}[{index}] must fit in a double")
    return float(value)


def parse_square(doc: dict, name: str = "matrix") -> np.ndarray:
    n = _parse_dimension(_field(doc, "n", name))
    entries = f'{name} "data"'
    data = [_number(v, entries, i)
            for i, v in enumerate(_array(_field(doc, "data", name), entries))]
    if n < 1 or len(data) != n * n:
        raise ValueError(f'{name} "data" length {len(data)} does not match n={n}')
    return np.array(data, dtype=float).reshape(n, n)


def parse_symmetric(doc: dict, name: str = "matrix") -> SymMat:
    raw = parse_square(doc, name)
    with np.errstate(over="ignore"):            # an asymmetry past the range reads inf
        asymmetry = float(np.max(np.abs(raw - raw.T)))
    if asymmetry > _ASYMMETRY_WARN:
        print(f"warning: {name} symmetrized on load (asymmetry {asymmetry:.3g})",
              file=sys.stderr)
    return SymMat(raw)


def matrix_doc(matrix) -> dict:
    arr = matrix.a if isinstance(matrix, SymMat) else np.asarray(matrix, dtype=float)
    return {"n": int(arr.shape[0]), "data": [float(v) for v in arr.ravel()]}


def _order(args) -> dict:
    first = parse_symmetric(load_json(args.a), "first input")
    second = parse_symmetric(load_json(args.b), "second input")
    le = linalg.loewner_le(first, second, args.tol)
    lt = linalg.loewner_lt(first, second, args.tol)
    out = {"le": le, "lt": lt}
    if not le:
        try:
            witness = effects.strength_witness(first, second, args.tol)
        except NotPSD:      # the rank-one witness needs PSD inputs; le and lt do not
            witness = None
        if witness is not None:
            proj, t = witness
            out["witness"] = {"q": [float(v) for v in proj.x], "t": float(t)}
    return out


def _strength(args) -> dict:
    mat = parse_symmetric(load_json(args.a), "input matrix")
    payload = load_json(args.x)
    vector = _field(payload, "x", "direction") if type(payload) is dict else payload
    proj = RankOneProjection([_number(v, "direction", i)
                              for i, v in enumerate(_array(vector, "direction"))])
    return {"alpha": effects.strength(mat, proj, args.tol)}


def _phi_apply(args) -> dict:
    phi = EffectAutomorphism(parse_square(load_json(args.t), "generator"), args.tol)
    return matrix_doc(phi.apply(parse_symmetric(load_json(args.x), "effect")).mat)


def _phi_compose(args) -> dict:
    first = EffectAutomorphism(parse_square(load_json(args.s), "first generator"), args.tol)
    second = EffectAutomorphism(parse_square(load_json(args.r), "second generator"), args.tol)
    return matrix_doc(first.compose(second).t)


def _phi_invert(args) -> dict:
    phi = EffectAutomorphism(parse_square(load_json(args.t), "generator"), args.tol)
    return matrix_doc(phi.inverse().t)


def _phi_probes(args) -> dict:
    n = _parse_dimension(args.n)
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return {"n": n, "probes": [matrix_doc(p.mat) for p in recovery_probe_effects(n)]}


def _phi_recover(args) -> dict:
    payload = load_json(args.pairs)
    n = _parse_dimension(_field(payload, "n", "recover payload"))
    if n < 2:           # malformed input, as for `phi probes`, not a mismatch (exit 3)
        raise ValueError("dimension must be at least 2")
    table = {}
    for pair in _array(_field(payload, "pairs", "recover payload"), 'recover payload "pairs"'):
        key = _probe_key(parse_symmetric(_field(pair, "input", "probe pair"), "probe input"))
        image = parse_symmetric(_field(pair, "output", "probe pair"), "probe output")
        try:
            table[key] = make_effect(image, args.tol)
        except OutOfInterval as exc:
            raise NotAutomorphism(f"probe image is not an effect: {exc}") from exc

    def oracle_fn(eff: Effect) -> Effect:
        key = _probe_key(eff.mat)
        if key not in table:
            raise ValueError("probe image missing; supply every pair emitted by `phi probes`")
        return table[key]

    return matrix_doc(recover_generator(oracle_fn, n, args.tol).t)


def _probe_key(mat: SymMat) -> bytes:
    with np.errstate(over="ignore"):    # an entry past 1e296 rounds to inf, matching no probe
        return np.round(mat.a, 12).tobytes()


def parse_interval_spec(doc: dict, tol: Tolerances) -> IntervalSpec:
    n = _parse_dimension(_field(doc, "n", "interval"))
    ends = []
    for side in ("lower", "upper"):
        spec = _field(doc, side, "interval")
        name = f"{side} endpoint"
        kind = _field(spec, "kind", name)
        if kind == "finite":
            matrix = parse_symmetric(_field(spec, "matrix", name), name)
        elif "matrix" in spec:
            raise ValueError(f"{name} is {kind!r}: only a finite endpoint carries a matrix")
        else:
            matrix = None
        closed = spec.get("closed", False)
        if type(closed) is not bool:
            raise ValueError(f"{side} \"closed\" must be true or false, got {closed!r}")
        ends.append(Endpoint(kind=kind, closed=closed, matrix=matrix))
    return IntervalSpec(lower=ends[0], upper=ends[1], n=n, tol=tol)


def chain_doc(chain: MapChain) -> dict:
    steps = []
    for step in chain.steps:
        if isinstance(step, Translate):
            steps.append({"kind": "translate", "s": matrix_doc(step.shift)})
        elif isinstance(step, Congruence):
            steps.append({"kind": "congruence", "t": matrix_doc(step.generator)})
        elif isinstance(step, Invert):
            steps.append({"kind": "invert"})
        elif isinstance(step, Negate):
            steps.append({"kind": "negate"})
    return {"parity": "odd" if chain.parity else "even", "steps": steps}


def _interval_classify(args) -> dict:
    return {"class": classify(parse_interval_spec(load_json(args.spec), args.tol)).value}


def _interval_chain(args) -> dict:
    return chain_doc(build_chain(parse_interval_spec(load_json(args.spec), args.tol)))


def _interval_map(args) -> dict:
    payload = load_json(args.payload)
    spec = parse_interval_spec(_field(payload, "interval", "map payload"), args.tol)
    x = parse_symmetric(_field(payload, "x", "map payload"), "input matrix")
    return matrix_doc(apply_chain(build_chain(spec), x, spec))


def _selftest(args) -> int:
    if args.trials < 1:
        raise ValueError("trials must be at least 1")
    from .selftest import run_selftest   # only this command uses selftest and oracle
    results = run_selftest(args.seed, args.trials)
    all_ok = True
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        all_ok = all_ok and result.ok
        print(f"{status} {result.name}: {result.detail}")
    return 0 if all_ok else 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loewner",
        description="Loewner-order toolkit: order checks, strength, effect-algebra "
                    "automorphisms, and matrix-interval classification over JSON.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument("--tol", type=float, default=1e-9,
                       help="base tolerance, in [1e-14, 1) (default 1e-9)")

    order = sub.add_parser("order", help="compare two symmetric matrices")
    order.add_argument("a", help="matrix document (file, inline JSON, or -)")
    order.add_argument("b", help="matrix document")
    add_tol(order)
    order.set_defaults(run=_order)

    strength = sub.add_parser("strength", help="strength along a direction")
    strength.add_argument("a", help="PSD matrix document")
    strength.add_argument("x", help="direction vector (JSON array or {\"x\": [...]})")
    add_tol(strength)
    strength.set_defaults(run=_strength)

    phi = sub.add_parser("phi", help="effect-algebra automorphisms")
    phi_sub = phi.add_subparsers(dest="phi_command", required=True)
    p_apply = phi_sub.add_parser("apply", help="evaluate the automorphism")
    p_apply.add_argument("t", help="generator document")
    p_apply.add_argument("x", help="effect document")
    add_tol(p_apply)
    p_apply.set_defaults(run=_phi_apply)
    p_compose = phi_sub.add_parser("compose", help="compose two generators")
    p_compose.add_argument("s")
    p_compose.add_argument("r")
    add_tol(p_compose)
    p_compose.set_defaults(run=_phi_compose)
    p_invert = phi_sub.add_parser("invert", help="invert a generator")
    p_invert.add_argument("t")
    add_tol(p_invert)
    p_invert.set_defaults(run=_phi_invert)
    p_probes = phi_sub.add_parser("probes", help="emit the recovery probe set")
    p_probes.add_argument("n", type=int)
    p_probes.set_defaults(run=_phi_probes)
    p_recover = phi_sub.add_parser("recover", help="recover a generator from probe images")
    p_recover.add_argument("pairs", help='{"n": int, "pairs": [{"input": doc, "output": doc}]}')
    add_tol(p_recover)
    p_recover.set_defaults(run=_phi_recover)

    interval = sub.add_parser("interval", help="matrix-interval classification and maps")
    interval_sub = interval.add_subparsers(dest="interval_command", required=True)
    i_classify = interval_sub.add_parser("classify")
    i_classify.add_argument("spec", help="interval specification document")
    add_tol(i_classify)
    i_classify.set_defaults(run=_interval_classify)
    i_chain = interval_sub.add_parser("chain")
    i_chain.add_argument("spec")
    add_tol(i_chain)
    i_chain.set_defaults(run=_interval_chain)
    i_map = interval_sub.add_parser("map")
    i_map.add_argument("payload", help='{"interval": spec, "x": matrix doc}')
    add_tol(i_map)
    i_map.set_defaults(run=_interval_map)

    selftest = sub.add_parser("selftest", help="run the seeded invariant suite")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--trials", type=int, default=200)
    selftest.set_defaults(run=_selftest)
    return parser


# The exit code and message prefix of each exception that ends a command;
# the first row whose classes match wins. Exit 0 is success and 5 a failed
# selftest property; any other exception is a bug, left as a traceback.
_EXIT_CODES = (
    # operands of different dimensions: the two `order` inputs, a `strength`
    # direction and its matrix, the effect and generator of `phi apply`, the
    # generators of `phi compose`, an `interval map` input and its interval
    (DimensionMismatch, 3, ""),
    # `phi recover`'s probe images are not those of an automorphism: an image
    # outside [0, I], or a recovered generator that fails its checks
    (NotAutomorphism, 4, ""),
    # the eigensolver did not converge in 40 sweeps, evaluating an
    # automorphism (`phi apply`, `phi recover`'s residual check) failed to
    # solve with the matrix proved invertible, or a `phi apply` image left
    # [0, I] past its noise gate
    ((NonConvergence, InternalInversionFailure), 6, "internal numerical failure: "),
    # malformed input: an unreadable file, invalid JSON (json.JSONDecodeError
    # is a ValueError), a field the readers above refuse, a tolerance outside
    # [1e-14, 1), a missing probe pair or no selftest trials; and every other
    # package error, such as TooLarge (a dimension above _MAX_N, a generator
    # whose T^t T overflows, a computed matrix past the double range), NotPSD
    # from `strength` or an interval that is not well formed
    ((LoewnerError, ValueError, OSError), 2, ""),
)


# The parser, built by the first main call: it depends on nothing but this
# module's constants, and building it at import would slow every start.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if "tol" in args:
            args.tol = Tolerances(args.tol)
        out = args.run(args)
    except Exception as exc:
        for classes, code, prefix in _EXIT_CODES:
            if isinstance(exc, classes):
                print(f"error: {prefix}{exc}", file=sys.stderr)
                return code
        raise
    if type(out) is int:    # selftest printed its own lines
        return out
    sys.stdout.write(dumps_stable(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
