"""Seeded operation stream of the api-* workloads, and the ways of running
an operation: a library call, or CLI arguments (for the cli layer metrics).

Operations come in blocks. A block holds, for every dimension of the
workload, exactly the MIX count of each kind, shuffled; the primary
choice inside a kind (order case, strength scale, interval shape) is
stratified over the block. So every block has the same mix, and seeds
differ only in the matrices drawn.

Margins (the reference checker relies on them):
- every Loewner decision is at least 5% of the scale away from its gate
  (the library's gate is psd_tol * max(1, |lambda|max) = 1e-9 * that);
- generators have singular values in [10^-1/2, 10^1/2] with |det| = 1;
- effects and interval interiors keep their spectra 0.02 to 0.05 inside
  the unit interval;
- strength directions against singular matrices lie in the range (residual
  ~1e-16) or at least 0.1 outside it (the library's gate is 1e-9).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from loewner import automorphisms, effects, intervals, linalg

MIX = {"order": 30, "strength": 20, "apply": 20, "compose": 10,
       "invert": 10, "interval": 9, "recover": 1}
KINDS = tuple(MIX)
DIMS = {"api-small": (2, 3, 4), "api-large": (8, 12, 16)}
CLI_COMMANDS = {"order": "order", "strength": "strength", "apply": "phi_apply",
                "compose": "phi_compose", "invert": "phi_invert",
                "recover": "phi_recover", "interval": "interval_map"}

# Interval shapes, in the order of loewner.selftest.random_interval_spec:
# (lower kind, lower closed, upper kind, upper closed).
SHAPES = (
    ("finite", True, "finite", True), ("finite", True, "finite", False),
    ("finite", False, "finite", True), ("finite", False, "finite", False),
    ("finite", True, "plus_infinity", False), ("finite", False, "plus_infinity", False),
    ("minus_infinity", False, "finite", True), ("minus_infinity", False, "finite", False),
    ("minus_infinity", False, "plus_infinity", False),
)


@dataclass
class Op:
    kind: str
    n: int
    args: dict
    case: str = ""
    index: int = 0


# ---------------------------------------------------------------- drawing

def _frame(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _sym(rng, lam):
    """Q diag(lam) Q^t, exactly symmetric in floating point."""
    q = _frame(rng, len(lam))
    m = (q * lam) @ q.T
    return (m + m.T) / 2.0


def _signed(rng, n, lo, hi):
    """n magnitudes in [lo, hi] with at least one of each sign (n >= 2)."""
    mag = rng.uniform(lo, hi, n)
    sign = rng.choice([-1.0, 1.0], n)
    sign[0], sign[1] = -1.0, 1.0
    return rng.permutation(mag * sign)


def _generator(rng, n):
    u = rng.uniform(-0.5 * np.log(10.0), 0.5 * np.log(10.0), n)
    sigma = np.exp(u - u.mean())
    return (_frame(rng, n) * sigma) @ _frame(rng, n).T


def _effect(rng, n, margin=0.02):
    return _sym(rng, rng.uniform(margin, 1.0 - margin, n))


def _draw_order(rng, n, strat):
    s = 10.0 ** rng.uniform(-2.0, 2.0)
    if strat < 0.5:
        case = "comparable"
        a = _sym(rng, s * rng.uniform(-1.0, 1.0, n))
        d = _sym(rng, s * rng.uniform(0.05, 1.0, n))
    elif strat < 0.75:
        case = "incomparable"
        a = _sym(rng, s * rng.uniform(0.5, 1.0, n))
        d = _sym(rng, s * _signed(rng, n, 0.05, 0.4))
    else:
        case = "reversed"
        a = _sym(rng, s * rng.uniform(0.5, 1.0, n))
        d = -_sym(rng, s * rng.uniform(0.05, 0.4, n))
    b = a + d
    return case, {"A": a, "B": (b + b.T) / 2.0}


def _draw_indefinite(rng, n):
    """A general symmetric pair: A indefinite, B - A of both signs."""
    s = 10.0 ** rng.uniform(-2.0, 2.0)
    a = _sym(rng, s * _signed(rng, n, 0.05, 1.0))
    b = a + _sym(rng, s * _signed(rng, n, 0.05, 1.0))
    return {"A": a, "B": (b + b.T) / 2.0}


def _draw_strength(rng, n, strat):
    s = 10.0 ** (-3.0 + 12.0 * strat)
    lam = s * 10.0 ** rng.uniform(-2.0, 0.0, n)
    q = _frame(rng, n)
    case = "regular"
    x = rng.standard_normal(n)
    if rng.uniform() < 0.25:
        drop = int(rng.integers(1, n))
        lam[:drop] = 0.0
        inside = q[:, drop:] @ rng.standard_normal(n - drop)
        inside /= np.linalg.norm(inside)
        if rng.uniform() < 0.5:
            case, x = "range", inside
        else:
            out = q[:, :drop] @ rng.standard_normal(drop)
            theta = rng.uniform(np.arcsin(0.1), 0.5 * np.pi)
            case, x = "kernel", np.cos(theta) * inside + np.sin(theta) * out / np.linalg.norm(out)
    m = (q * lam) @ q.T
    return case, {"A": (m + m.T) / 2.0, "x": x / np.linalg.norm(x)}


def _draw_interval(rng, n, strat):
    shape = min(int(9 * strat), 8)
    lower = _sym(rng, rng.uniform(-1.0, 1.0, n))
    gap = _sym(rng, rng.uniform(0.5, 2.0, n))
    upper = (lower + gap + (lower + gap).T) / 2.0
    lk, _, uk, _ = SHAPES[shape]
    if lk == "finite" and uk == "finite":
        w, v = np.linalg.eigh(gap)
        root = (v * np.sqrt(w)) @ v.T
        x = lower + root @ _effect(rng, n, 0.05) @ root
    elif lk == "finite":
        x = lower + _sym(rng, rng.uniform(0.05, 2.0, n))
    elif uk == "finite":
        x = upper - _sym(rng, rng.uniform(0.05, 2.0, n))
    else:
        x = _sym(rng, rng.uniform(-1.0, 1.0, n))
    return str(shape), {"shape": shape, "L": lower, "U": upper, "X": (x + x.T) / 2.0}


def draw_op(rng, kind, n, strat):
    if kind == "order":
        case, args = _draw_order(rng, n, strat)
    elif kind == "strength":
        case, args = _draw_strength(rng, n, strat)
    elif kind == "interval":
        case, args = _draw_interval(rng, n, strat)
    elif kind == "apply":
        case, args = "", {"T": _generator(rng, n), "X": _effect(rng, n)}
    elif kind == "compose":
        case, args = "", {"S": _generator(rng, n), "R": _generator(rng, n)}
    else:  # invert, recover
        case, args = "", {"T": _generator(rng, n)}
    return Op(kind, n, args, case)


def block(seed, index, dims):
    """Block `index` of the stream for `seed`: sum(MIX) ops per dimension."""
    rng = np.random.default_rng([seed, index])
    plan = []
    for n in dims:
        for kind, count in MIX.items():
            order = rng.permutation(count)
            plan.extend((kind, n, (order[k] + rng.uniform()) / count) for k in range(count))
    drawn = [draw_op(rng, kind, n, strat) for kind, n, strat in plan]
    ops = [drawn[i] for i in rng.permutation(len(drawn))]
    for i, op in enumerate(ops):
        op.index = index * len(ops) + i
    return ops


def indefinite_pairs(seed, dims, count):
    """`count` indefinite `order` pairs, cycling through `dims`: the
    known-defect probe, kept out of the timed mix because `order` raises
    NotPSD on them while strength_witness requires PSD input
    (reference.is_known_failure)."""
    rng = np.random.default_rng([seed, 1 << 31])
    return [Op("order", n, _draw_indefinite(rng, n), "indefinite", i)
            for i, n in zip(range(count), itertools.cycle(dims))]


def stream(seed, dims, count):
    """The first `count` ops of the stream."""
    out, index = [], 0
    while len(out) < count:
        out.extend(block(seed, index, dims))
        index += 1
    return out[:count]


# ---------------------------------------------------------------- running

def reference_image(t, x):
    """phi_T(X) = T (X (T^t T - I) + I)^{-1} X T^t, through LAPACK."""
    n = t.shape[0]
    y = t @ np.linalg.solve(x @ (t.T @ t - np.eye(n)) + np.eye(n), x) @ t.T
    return (y + y.T) / 2.0


def black_box(t):
    """The recover op's oracle: the reference formula, as a library Effect."""
    return lambda eff: effects.Effect(mat=linalg.SymMat(reference_image(t, eff.mat.a)))


def _spec(a):
    sym = linalg.SymMat
    lk, lc, uk, uc = SHAPES[a["shape"]]
    ep = intervals.Endpoint
    lower = ep.finite(sym(a["L"]), closed=lc) if lk == "finite" else ep.minus_infinity()
    upper = ep.finite(sym(a["U"]), closed=uc) if uk == "finite" else ep.plus_infinity()
    return intervals.IntervalSpec(lower, upper, a["X"].shape[0])


def run_library(op):
    """One operation through the public API, starting from raw arrays.

    Returns the answer as plain numbers: order -> (le, lt, (q, t) or None),
    strength -> float, everything else -> ndarray.
    """
    a, sym, auto = op.args, linalg.SymMat, automorphisms.EffectAutomorphism
    kind = op.kind
    if kind == "order":
        first, second = sym(a["A"]), sym(a["B"])
        le = linalg.loewner_le(first, second)
        lt = linalg.loewner_lt(first, second)
        witness = None
        if not le:
            found = effects.strength_witness(first, second)
            if found is not None:
                witness = (found[0].x, found[1])
        return le, lt, witness
    if kind == "strength":
        return effects.strength(sym(a["A"]), effects.RankOneProjection(a["x"]))
    if kind == "apply":
        return auto(a["T"]).apply(sym(a["X"])).mat.a
    if kind == "compose":
        return auto(a["S"]).compose(auto(a["R"])).t
    if kind == "invert":
        return auto(a["T"]).inverse().t
    if kind == "recover":
        return automorphisms.recover_generator(black_box(a["T"]), op.n).t
    spec = _spec(a)
    return intervals.apply_chain(intervals.build_chain(spec), sym(a["X"]), spec).a


def _doc(m):
    return {"n": int(m.shape[0]), "data": [float(v) for v in np.ravel(m)]}


def _js(obj):
    return json.dumps(obj, separators=(",", ":"))


def probe_inputs(n):
    """The probe set printed by `loewner phi probes n`, as arrays."""
    return [p.mat.a for p in automorphisms.recovery_probe_effects(n)]


def cli_argv(op, probes):
    """The CLI arguments for one op; `probes(n)` gives the recover probe set."""
    a = op.args
    kind = op.kind
    if kind == "order":
        return ["order", _js(_doc(a["A"])), _js(_doc(a["B"]))]
    if kind == "strength":
        return ["strength", _js(_doc(a["A"])), _js([float(v) for v in a["x"]])]
    if kind == "apply":
        return ["phi", "apply", _js(_doc(a["T"])), _js(_doc(a["X"]))]
    if kind == "compose":
        return ["phi", "compose", _js(_doc(a["S"])), _js(_doc(a["R"]))]
    if kind == "invert":
        return ["phi", "invert", _js(_doc(a["T"]))]
    if kind == "recover":
        pairs = [{"input": _doc(p), "output": _doc(reference_image(a["T"], p))}
                 for p in probes(op.n)]
        return ["phi", "recover", _js({"n": op.n, "pairs": pairs})]
    lk, lc, uk, uc = SHAPES[a["shape"]]
    spec = {"n": op.n,
            "lower": {"kind": lk, "closed": lc, **({"matrix": _doc(a["L"])} if lk == "finite" else {})},
            "upper": {"kind": uk, "closed": uc, **({"matrix": _doc(a["U"])} if uk == "finite" else {})}}
    return ["interval", "map", _js({"interval": spec, "x": _doc(a["X"])})]


def parse_cli(op, stdout):
    """Turn the CLI's JSON document into run_library's answer format."""
    doc = json.loads(stdout)
    if op.kind == "order":
        w = doc.get("witness")
        return doc["le"], doc["lt"], None if w is None else (np.array(w["q"]), w["t"])
    if op.kind == "strength":
        return float(doc["alpha"])
    return np.array(doc["data"], dtype=float).reshape(doc["n"], doc["n"])
