"""JSON command-line front end.

Commands read matrix documents {"n": int, "data": [row-major numbers]}
from files, inline JSON, or stdin ('-'), and write one JSON document to
stdout with sorted keys, 17-significant-digit numbers, and a trailing
newline, so every emitted value re-parses exactly. Only the `selftest`
command loads the `selftest` and `oracle` modules, so the other commands
neither compile nor run them.

Exit codes: 0 ok, 2 parse/malformed input (a tolerance outside [1e-14, 1), a
dimension that is not a whole JSON number or, for probes, below 2, a matrix
entry or direction component that is a string, a boolean, JSON's Infinity or
NaN or an integer past the double range, a "closed" that is not a JSON boolean,
a document that is not a JSON object or lacks a key the command reads, a
"data", "pairs" or direction that is not an array, an infinite interval
endpoint that carries a "matrix", JSON nested too deeply, no selftest trials;
also TooLarge: a dimension above 44, a generator whose T^t T overflows, or a
matrix the package computes that does not fit in a double, with no warning;
`order` answers every square symmetric pair, leaving out the witness when an
input is not PSD), 3 dimension mismatch, 4 not an automorphism, 5 selftest
property failure, 6 internal numerical failure (the eigensolver did not
converge in 40 sweeps, or evaluating an automorphism, in `phi apply` or `phi
recover`'s residual check, failed to solve with the matrix proved invertible or
left [0, I] past its noise gate).

Dimensions above _MAX_N = 44 are refused before any computation. The
pure-Python Jacobi kernel grows as n^3 per sweep, and the slowest input
found, a `phi recover` payload whose probe images are boundary projections
(one spectrum per image, twice), took 35 s at n = 44 and 51 s at n = 48 on
a 2-core x86-64 machine whose speed drifts by up to 35%.
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
    """A document's dimension n, a JSON number with a whole value; TooLarge above _MAX_N."""
    if type(value) not in (int, float) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"dimension {value!r} is not a whole number")
    n = int(value)
    if n > _MAX_N:
        raise TooLarge(f"dimension {n} is above the cap of {_MAX_N}")
    return n


def _number(value, field: str) -> float:
    """A JSON number that is not a boolean, as a finite double; ValueError
    naming the field (plural) for anything else."""
    if type(value) not in (int, float):
        raise ValueError(f"{field} must be numbers, got {value!r}")
    if not abs(value) <= sys.float_info.max:   # exact for an int of any size
        raise ValueError(f"{field} must be finite" if type(value) is float
                         else f"{field} must fit in a double")
    return float(value)


def parse_square(doc: dict, name: str = "matrix") -> np.ndarray:
    n = _parse_dimension(_field(doc, "n", name))
    data = [_number(v, "matrix entries")
            for v in _array(_field(doc, "data", name), f'{name} "data"')]
    if n < 1 or len(data) != n * n:
        raise ValueError(f'{name} "data" length {len(data)} does not match n={n}')
    return np.array(data, dtype=float).reshape(n, n)


def parse_symmetric(doc: dict, warn_label: str = "matrix") -> SymMat:
    raw = parse_square(doc, warn_label)
    with np.errstate(over="ignore"):            # an asymmetry past the range reads inf
        asymmetry = float(np.max(np.abs(raw - raw.T)))
    if asymmetry > _ASYMMETRY_WARN:
        name = doc.get("name", warn_label)
        print(f"warning: {name} symmetrized on load (asymmetry {asymmetry:.3g})",
              file=sys.stderr)
    return SymMat(raw)


def matrix_doc(matrix) -> dict:
    arr = matrix.a if isinstance(matrix, SymMat) else np.asarray(matrix, dtype=float)
    return {"n": int(arr.shape[0]), "data": [float(v) for v in arr.ravel()]}


def _emit(obj) -> None:
    sys.stdout.write(dumps_stable(obj) + "\n")


def _cmd_order(args) -> int:
    tol = Tolerances(args.tol)
    first = parse_symmetric(load_json(args.a), "first input")
    second = parse_symmetric(load_json(args.b), "second input")
    le = linalg.loewner_le(first, second, tol)
    lt = linalg.loewner_lt(first, second, tol)
    out = {"le": le, "lt": lt}
    if not le:
        try:
            witness = effects.strength_witness(first, second, tol)
        except NotPSD:      # the rank-one witness needs PSD inputs; le and lt do not
            witness = None
        if witness is not None:
            proj, t = witness
            out["witness"] = {"q": [float(v) for v in proj.x], "t": float(t)}
    _emit(out)
    return 0


def _cmd_strength(args) -> int:
    tol = Tolerances(args.tol)
    mat = parse_symmetric(load_json(args.a), "input matrix")
    payload = load_json(args.x)
    vector = _field(payload, "x", "direction") if type(payload) is dict else payload
    proj = RankOneProjection([_number(v, "direction components")
                              for v in _array(vector, "direction")])
    if proj.n != mat.n:
        raise DimensionMismatch(f"vector length {proj.n} vs matrix dimension {mat.n}")
    _emit({"alpha": effects.strength(mat, proj, tol)})
    return 0


def _cmd_phi(args) -> int:
    sub = args.phi_command
    if sub == "probes":
        n = _parse_dimension(args.n)
        if n < 2:
            raise ValueError("dimension must be at least 2")
        probes = recovery_probe_effects(n)
        _emit({"n": n, "probes": [matrix_doc(p.mat) for p in probes]})
        return 0
    tol = Tolerances(args.tol)
    if sub == "apply":
        phi = EffectAutomorphism(parse_square(load_json(args.t), "generator"), tol)
        x = parse_symmetric(load_json(args.x), "effect")
        _emit(matrix_doc(phi.apply(x).mat))
    elif sub == "compose":
        first = EffectAutomorphism(parse_square(load_json(args.s), "first generator"), tol)
        second = EffectAutomorphism(parse_square(load_json(args.r), "second generator"), tol)
        _emit(matrix_doc(first.compose(second).t))
    elif sub == "invert":
        phi = EffectAutomorphism(parse_square(load_json(args.t), "generator"), tol)
        _emit(matrix_doc(phi.inverse().t))
    else:  # recover
        payload = load_json(args.pairs)
        n = _parse_dimension(_field(payload, "n", "recover payload"))
        if n < 2:           # malformed input, as for `phi probes`, not a mismatch (exit 3)
            raise ValueError("dimension must be at least 2")
        table = {}
        for pair in _array(_field(payload, "pairs", "recover payload"),
                           'recover payload "pairs"'):
            key = _probe_key(parse_symmetric(_field(pair, "input", "probe pair"), "probe input"))
            image = parse_symmetric(_field(pair, "output", "probe pair"), "probe output")
            try:
                table[key] = make_effect(image, tol)
            except OutOfInterval as exc:
                raise NotAutomorphism(f"probe image is not an effect: {exc}") from exc

        def oracle_fn(eff: Effect) -> Effect:
            key = _probe_key(eff.mat)
            if key not in table:
                raise ValueError("probe image missing; supply every pair "
                                 "emitted by `phi probes`")
            return table[key]

        phi = recover_generator(oracle_fn, n, tol)
        _emit(matrix_doc(phi.t))
    return 0


def _probe_key(mat: SymMat) -> bytes:
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


def _cmd_interval(args) -> int:
    tol = Tolerances(args.tol)
    sub = args.interval_command
    if sub == "classify":
        spec = parse_interval_spec(load_json(args.spec), tol)
        _emit({"class": classify(spec).value})
    elif sub == "chain":
        spec = parse_interval_spec(load_json(args.spec), tol)
        _emit(chain_doc(build_chain(spec)))
    else:  # map
        payload = load_json(args.payload)
        spec = parse_interval_spec(_field(payload, "interval", "map payload"), tol)
        x = parse_symmetric(_field(payload, "x", "map payload"), "input matrix")
        image = apply_chain(build_chain(spec), x, spec)
        _emit(matrix_doc(image))
    return 0


def _cmd_selftest(args) -> int:
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

    strength = sub.add_parser("strength", help="strength along a direction")
    strength.add_argument("a", help="PSD matrix document")
    strength.add_argument("x", help="direction vector (JSON array or {\"x\": [...]})")
    add_tol(strength)

    phi = sub.add_parser("phi", help="effect-algebra automorphisms")
    phi_sub = phi.add_subparsers(dest="phi_command", required=True)
    p_apply = phi_sub.add_parser("apply", help="evaluate the automorphism")
    p_apply.add_argument("t", help="generator document")
    p_apply.add_argument("x", help="effect document")
    add_tol(p_apply)
    p_compose = phi_sub.add_parser("compose", help="compose two generators")
    p_compose.add_argument("s")
    p_compose.add_argument("r")
    add_tol(p_compose)
    p_invert = phi_sub.add_parser("invert", help="invert a generator")
    p_invert.add_argument("t")
    add_tol(p_invert)
    p_probes = phi_sub.add_parser("probes", help="emit the recovery probe set")
    p_probes.add_argument("n", type=int)
    p_recover = phi_sub.add_parser("recover", help="recover a generator from probe images")
    p_recover.add_argument("pairs", help='{"n": int, "pairs": [{"input": doc, "output": doc}]}')
    add_tol(p_recover)

    interval = sub.add_parser("interval", help="matrix-interval classification and maps")
    interval_sub = interval.add_subparsers(dest="interval_command", required=True)
    i_classify = interval_sub.add_parser("classify")
    i_classify.add_argument("spec", help="interval specification document")
    add_tol(i_classify)
    i_chain = interval_sub.add_parser("chain")
    i_chain.add_argument("spec")
    add_tol(i_chain)
    i_map = interval_sub.add_parser("map")
    i_map.add_argument("payload", help='{"interval": spec, "x": matrix doc}')
    add_tol(i_map)

    selftest = sub.add_parser("selftest", help="run the seeded invariant suite")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--trials", type=int, default=200)
    return parser


_HANDLERS = {
    "order": _cmd_order,
    "strength": _cmd_strength,
    "phi": _cmd_phi,
    "interval": _cmd_interval,
    "selftest": _cmd_selftest,
}


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except DimensionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NotAutomorphism as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (NonConvergence, InternalInversionFailure) as exc:
        print(f"error: internal numerical failure: {exc}", file=sys.stderr)
        return 6
    except (LoewnerError, ValueError, KeyError, TypeError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
