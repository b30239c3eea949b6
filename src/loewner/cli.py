"""JSON command-line front end.

Commands read matrix documents {"n": int, "data": [row-major numbers]}
from files, inline JSON, or stdin ('-'), and write one JSON document to
stdout with sorted keys, 17-significant-digit numbers, and a trailing
newline, so every emitted value re-parses exactly. Only the `selftest`
command loads the `selftest` and `oracle` modules, so the other commands
neither compile nor run them. Every document is read against its key
table, _KEYS.
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
    shown,
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
_MAX_N = 44     # refused above: Jacobi costs n^3 per sweep (README gives the times at 44)


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


def _array(value, name: str) -> list:
    """`value` if it is a JSON array; ValueError naming it otherwise."""
    if type(value) is not list:
        raise ValueError(f"{name} must be a JSON array, got {_JSON_TYPES[type(value)]}")
    return value


def _parse_dimension(value) -> int:
    """A document's dimension n, a JSON number with a whole value; TooLarge
    above _MAX_N. Both refusals show the value as given (errors.shown)."""
    if type(value) not in (int, float) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"dimension {shown(value)} is not a whole number")
    if value > _MAX_N:
        raise TooLarge(f"dimension {shown(value)} is above the cap of {_MAX_N}")
    return int(value)


def _numbers(value, name: str) -> list:
    """The JSON array `value`, called `name`, as doubles: each entry a JSON
    number, not a boolean, that fits in a double; else ValueError naming it."""
    numbers = []
    for index, entry in enumerate(_array(value, name)):
        if type(entry) not in (int, float):
            raise ValueError(f"{name}[{index}] must be a number, got {shown(entry)}")
        if not abs(entry) <= sys.float_info.max:   # exact for an int of any size
            raise ValueError(f"{name}[{index}] must be finite" if type(entry) is float
                             else f"{name}[{index}] must fit in a double")
        numbers.append(float(entry))
    return numbers


def _as_is(value, label: str):
    """A value its document's reader checks after the walk (_endpoint, _interval_map)."""
    return value


_REQUIRED = object()
_DIMENSION = (lambda value, _: _parse_dimension(value), _REQUIRED)

# The keys of each JSON document a command reads, in reading order: {document:
# {key: (reader, default or _REQUIRED)}}, a reader taking the value and its label
# (`first input "data"`). _read refuses any other key, as JSON Schema's
# "additionalProperties": false. README's key table and the CLI fuzzer read these.
_KEYS = {
    "matrix": {"n": _DIMENSION, "data": (_numbers, _REQUIRED)},
    "direction": {"x": (lambda value, _: _numbers(value, "direction"), _REQUIRED)},
    "interval": {"n": _DIMENSION, "lower": (lambda value, _: _endpoint(value, "lower"), _REQUIRED),
                 "upper": (lambda value, _: _endpoint(value, "upper"), _REQUIRED)},
    "endpoint": {"kind": (_as_is, _REQUIRED), "closed": (_as_is, False), "matrix": (_as_is, None)},
    "recover payload": {"n": _DIMENSION, "pairs": (
        lambda value, label: [_read(pair, "probe pair") for pair in _array(value, label)], _REQUIRED)},
    "probe pair": {"input": (lambda value, _: parse_symmetric(value, "probe input"), _REQUIRED),
                   "output": (lambda value, _: parse_symmetric(value, "probe output"), _REQUIRED)},
    "map payload": {"interval": (_as_is, _REQUIRED),
                    "x": (lambda value, _: parse_symmetric(value, "input matrix"), _REQUIRED)},
}


def _read(doc, document: str, name: Optional[str] = None) -> list:
    """The values of the `document` doc (called `name`, by default `document`)
    in the order of _KEYS[document], read or defaulted. ValueError if doc is not
    an object, lacks a required key, or has a key the table lacks, in that order."""
    table = _KEYS[document]
    name = name or document
    if type(doc) is not dict:
        raise ValueError(f'{name} must be a JSON object with "{next(iter(table))}", '
                         f"got {_JSON_TYPES[type(doc)]}")
    for key, (_, default) in table.items():
        if default is _REQUIRED and key not in doc:
            raise ValueError(f'{name} has no "{key}"')
    for key in doc:
        if key not in table:
            raise ValueError(f"{name} has an unknown key {shown(key, json.dumps)}")
    return [reader(doc[key], f'{name} "{key}"') if key in doc else default
            for key, (reader, default) in table.items()]


def parse_square(doc: dict, name: str = "matrix") -> np.ndarray:
    n, data = _read(doc, "matrix", name)
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
    doc = load_json(args.x)     # a bare array, or a direction document
    vector = _read(doc, "direction")[0] if type(doc) is dict else _numbers(doc, "direction")
    return {"alpha": effects.strength(mat, RankOneProjection(vector), args.tol)}


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
    n, pairs = _read(load_json(args.pairs), "recover payload")
    if n < 2:           # malformed input, as for `phi probes`, not a mismatch (exit 3)
        raise ValueError("dimension must be at least 2")
    table = {}
    for probe, image in pairs:
        try:
            table[_probe_key(probe)] = make_effect(image, args.tol)
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
    n, lower, upper = _read(doc, "interval")
    return IntervalSpec(lower=lower, upper=upper, n=n, tol=tol)


def _endpoint(doc, side: str) -> Endpoint:
    """An interval's `side` endpoint: "closed" is a JSON boolean, and only
    a finite endpoint carries a "matrix", which it must; Endpoint checks the kind."""
    name = f"{side} endpoint"
    kind, closed, matrix = _read(doc, "endpoint", name)
    if type(closed) is not bool:
        raise ValueError(f'{side} "closed" must be true or false, got {shown(closed)}')
    if (matrix is None) == (kind == "finite"):
        raise ValueError(f'{name} has no "matrix"' if matrix is None else
                         f"{name} is {shown(kind)}: only a finite endpoint carries a matrix")
    return Endpoint(kind, closed, matrix if matrix is None else parse_symmetric(matrix, name))


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
    interval, x = _read(load_json(args.payload), "map payload")
    spec = parse_interval_spec(interval, args.tol)
    return matrix_doc(apply_chain(build_chain(spec), x, spec))


def _selftest(args) -> int:
    if args.trials < 1:
        raise ValueError("trials must be at least 1")
    from .selftest import run_selftest   # only this command uses selftest and oracle
    results = run_selftest(args.seed, args.trials)
    for result in results:
        print(f"{'PASS' if result.ok else 'FAIL'} {result.name}: {result.detail}")
    return 0 if all(result.ok for result in results) else 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loewner",
        description="Loewner-order toolkit: order checks, strength, effect-algebra "
                    "automorphisms, and matrix-interval classification over JSON.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name, run, operands, tol=True, **kwargs):
        """Subcommand `name` of `group`: `run`, operands {name: help}, --tol if `tol`."""
        p = group.add_parser(name, **kwargs)
        for operand, text in operands.items():
            p.add_argument(operand, help=text)
        if tol:
            p.add_argument("--tol", type=float, default=1e-9,
                           help="base tolerance, in [1e-14, 1) (default 1e-9)")
        p.set_defaults(run=run)
        return p

    command(sub, "order", _order, {"a": "matrix document (file, inline JSON, or -)",
                                   "b": "matrix document"}, help="compare two symmetric matrices")
    command(sub, "strength", _strength, {"a": "PSD matrix document",
                                         "x": "direction vector (JSON array or {\"x\": [...]})"},
            help="strength along a direction")

    phi = sub.add_parser("phi", help="effect-algebra automorphisms")
    phi_sub = phi.add_subparsers(dest="phi_command", required=True)
    command(phi_sub, "apply", _phi_apply, {"t": "generator document", "x": "effect document"},
            help="evaluate the automorphism")
    command(phi_sub, "compose", _phi_compose, {"s": None, "r": None}, help="compose two generators")
    command(phi_sub, "invert", _phi_invert, {"t": None}, help="invert a generator")
    command(phi_sub, "probes", _phi_probes, {}, tol=False,
            help="emit the recovery probe set").add_argument("n", type=int)
    command(phi_sub, "recover", _phi_recover,
            {"pairs": '{"n": int, "pairs": [{"input": doc, "output": doc}]}'},
            help="recover a generator from probe images")

    interval = sub.add_parser("interval", help="matrix-interval classification and maps")
    interval_sub = interval.add_subparsers(dest="interval_command", required=True)
    command(interval_sub, "classify", _interval_classify, {"spec": "interval specification document"})
    command(interval_sub, "chain", _interval_chain, {"spec": None})
    command(interval_sub, "map", _interval_map, {"payload": '{"interval": spec, "x": matrix doc}'})

    selftest = command(sub, "selftest", _selftest, {}, tol=False,
                       help="run the seeded invariant suite")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--trials", type=int, default=200)
    return parser


# The exit code and message prefix of each exception that ends a command;
# the first row whose classes match wins. Exit 0 is success and 5 a failed
# selftest property; any other exception is a bug, left as a traceback.
_EXIT_CODES = (
    # operands of different dimensions (`order`, `strength`, `phi apply|compose`, `interval map`)
    (DimensionMismatch, 3, ""),
    # `phi recover`'s probe images are not those of an automorphism: an image
    # outside [0, I], or a recovered generator that fails its checks
    (NotAutomorphism, 4, ""),
    # the eigensolver did not converge in 40 sweeps, a solve with the matrix proved
    # invertible failed, or a `phi apply` image left [0, I] past its noise gate
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
