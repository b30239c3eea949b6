"""Span recorder for the traced run, installed from outside the package.

Tracer.install() replaces each wrapped function in every loewner.* module
namespace that binds it, and patches methods on their classes; uninstall()
puts the originals back. A span is (name, start, end, parent, op); spans
stay in memory until write().
Recursive functions get a span only at their outermost call.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from loewner import automorphisms, cli, effects, intervals, linalg, oracle

# Span name -> metric group. Groups with several members are summed.
GROUPS = {
    "linalg.eigh": "linalg.eigh",
    "linalg.eigvalsh": "linalg.eigvalsh",
    "linalg.loewner_le": "linalg.predicates",
    "linalg.loewner_lt": "linalg.predicates",
    "linalg.is_psd": "linalg.predicates",
    "linalg.SymMat.__init__": "linalg.symmat",
    "effects.strength": "effects.strength",
    "effects.strength_witness": "effects.strength_witness",
    "effects.make_effect": "effects.make_effect",
    "automorphisms.EffectAutomorphism.__init__": "automorphisms.construct",
    "automorphisms.EffectAutomorphism.apply": "automorphisms.apply",
    "automorphisms.recover_generator": "automorphisms.recover",
    "intervals.build_chain": "intervals.build_chain",
    "intervals.apply_chain": "intervals.apply_chain",
    "oracle.sample_effect": "oracle.sample",
    "oracle.sample_orthogonal": "oracle.sample",
    "oracle.sample_invertible": "oracle.sample",
    "oracle.sample_comparable_pair": "oracle.sample",
    "oracle.sample_psd": "oracle.sample",
    "oracle.strength_bisection": "oracle.strength_bisection",
    "oracle.monotonicity_report": "oracle.monotonicity_report",
    "cli.main": "cli.main",
    "cli.build_parser": "cli.build_parser",
    "cli.dumps_stable": "cli.dumps_stable",
}
_MODULES = {"linalg": linalg, "effects": effects, "automorphisms": automorphisms,
            "intervals": intervals, "oracle": oracle, "cli": cli}
_METHODS = {"linalg.SymMat.__init__": (linalg.SymMat, "__init__"),
            "automorphisms.EffectAutomorphism.__init__": (automorphisms.EffectAutomorphism, "__init__"),
            "automorphisms.EffectAutomorphism.apply": (automorphisms.EffectAutomorphism, "apply")}


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent index or -1, op)
        self.child_time = []   # per span: seconds covered by its child spans
        self.op = -1
        self._stack = []
        self._saved = []

    # ------------------------------------------------------------ spans

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self.child_time.append(0.0)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)
            if parent >= 0:
                self.child_time[parent] += end - start

    def _wrap(self, name, fn):
        active = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] += 1
            try:
                return self.span(name, fn, *args, **kwargs)
            finally:
                active[0] -= 1

        return wrapper

    # ------------------------------------------------------------ install

    def install(self):
        namespaces = [vars(m) for name, m in sys.modules.items()
                      if name == "loewner" or name.startswith("loewner.")]
        for name in GROUPS:
            if name in _METHODS:
                owner, attr = _METHODS[name]
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
                continue
            module, attr = name.split(".")
            original = getattr(_MODULES[module], attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._saved.append((ns, key, original))
                        ns[key] = wrapper

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            if isinstance(owner, type):
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------ results

    def totals(self):
        """{span name: [calls, self seconds]}."""
        out = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _, _), covered in zip(self.spans, self.child_time):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start - covered
        return dict(out)

    def write(self, path):
        """One span per line: index, parent, op, name, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tparent\top\tname\tstart\tend\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{i}\t{parent}\t{op}\t{name}\t{start:.9f}\t{end:.9f}\n")
