"""The three workloads and the metrics they report.

Each run_* function takes (seed, seconds, trace, root) and returns
(tally, metrics). With trace=0 it measures the end-to-end metrics with no
spans recorded; with trace=1 it measures the per-layer metrics, part of
them from a traced pass over a fixed op list.

Every op time measured in this process (api-*, selftest) is scaled to
the reference machine speed by a calibration kernel, and setup_s by
reference children (calibration.py). The cli.*_ms child times, the traced
pass's self times and trace.overhead_ratio are not scaled.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import subprocess
import sys
import time
import traceback
from array import array

import numpy as np

from loewner import cli, selftest
from loewner.errors import LoewnerError

import ops
import reference
import tracer as tracing
from calibration import IMPORT_REFERENCE_CODE, IMPORT_REFERENCE_S, KernelSampler

SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 60
CLI_COLD_REPEATS = 5       # cold children per cli probe
CLI_TRACED_OPS = 150       # in-process cli.main calls in the traced pass
TRACED_OPS = {"api-small": 600, "api-large": 300}
SELFTEST_TRIALS = 200
INDEFINITE_PAIRS = 30      # known-defect probe, in the traced run
SELFTEST_PROPERTIES = tuple(fn.__name__[len("check_"):] for fn in selftest._PROPERTIES)

END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_COUNTED = (("linalg.eigh", "calls"), ("linalg.eigvalsh", "calls"),
            ("linalg.predicates", "calls"), ("linalg.symmat", "count"),
            ("effects.strength", "calls"), ("effects.strength_witness", "calls"),
            ("effects.make_effect", "calls"), ("automorphisms.construct", "calls"),
            ("automorphisms.apply", "calls"), ("automorphisms.recover", "calls"),
            ("intervals.build_chain", "calls"), ("intervals.apply_chain", "calls"),
            ("oracle.sample", "calls"), ("oracle.strength_bisection", "calls"),
            ("oracle.monotonicity_report", "calls"), ("cli.main", "calls"),
            ("cli.build_parser", "calls"), ("cli.dumps_stable", "calls"))

PER_LAYER = {"linalg.spectra_per_op": ("1/op", "lower")}
for _group, _counter in _COUNTED:
    PER_LAYER[f"{_group}.{_counter}"] = ("count", "lower")
    PER_LAYER[f"{_group}.self_s"] = ("s", "lower")
for _prop in SELFTEST_PROPERTIES:
    PER_LAYER[f"selftest.{_prop}_s"] = ("s", "lower")
for _name in ("interpreter", "import_numpy", "import_loewner"):
    PER_LAYER[f"cli.{_name}_ms"] = ("ms", "lower")
for _command in ops.CLI_COMMANDS.values():
    PER_LAYER[f"cli.{_command}.p50_ms"] = ("ms", "lower")
for _kind in ops.KINDS:
    PER_LAYER[f"op.{_kind}.p50_ms"] = ("ms", "lower")
    PER_LAYER[f"op.{_kind}.p90_ms"] = ("ms", "lower")
PER_LAYER["machine.kernel_ms"] = ("ms", "lower")
PER_LAYER["trace.overhead_ratio"] = ("ratio", "lower")
PER_LAYER["failed_ratio"] = ("fraction", "lower")
PER_LAYER["order.indefinite_notpsd"] = ("count", "lower")


def p50(xs):
    return float(np.median(xs))


def p90(xs):
    """The inclusive (linear) 90th percentile."""
    return float(np.percentile(xs, 90))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- outcomes

def problem(op, answer, error):
    """None for a correct answer, else a one-line reason."""
    return f"raised {error}" if error is not None else reference.check(op, answer)


class Tally:
    """Outcome counts. The workloads are drawn so that no op fails, so
    any failure, or any problem found by a probe, makes the run incorrect."""

    def __init__(self):
        self.attempted = self.failed = self.problems = 0

    def record(self, op, answer, error):
        self.attempted += 1
        why = problem(op, answer, error)
        if why is not None:
            self.failed += 1
            self.report(f"op {op.index} {op.kind} n={op.n} {op.case}: {why}")

    def report(self, line):
        self.problems += 1
        if self.problems <= 10:
            print(f"# {line}", file=sys.stderr)

    @property
    def correct(self):
        return self.problems == 0


def attempt(op):
    """(answer, None) or (None, exception class name) for one library op."""
    try:
        return ops.run_library(op), None
    except Exception as exc:  # counted, never fatal: the loop must go on
        if not isinstance(exc, LoewnerError):
            traceback.print_exc(limit=3, file=sys.stderr)
        return None, type(exc).__name__


def digest(outcomes):
    """sha256 over the exact bytes of (answer, error) pairs."""
    def plain(value):
        if isinstance(value, tuple):
            return tuple(plain(v) for v in value)
        return value.tobytes().hex() if hasattr(value, "tobytes") else value
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(repr(plain(outcome)).encode())
    return h.hexdigest()


# ---------------------------------------------------------------- children

def child_env(root):
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def run_child(argv, env):
    """Run one child to completion: (seconds, exit code, stdout, stderr).
    A child that hangs is killed after CHILD_TIMEOUT_S and fails the run."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def setup_seconds(env):
    """Median over SETUP_REPEATS pairs of a fresh `python -c "import
    loewner.cli"` child, scaled by IMPORT_REFERENCE_S over the wall time of
    a reference child run next to it; the pair's order alternates. The
    first pair, which may write bytecode caches, is not timed."""
    target = "import loewner.cli"
    ratios, target_s, reference_s = [], [], []
    for i in range(SETUP_REPEATS + 1):
        seconds = {}
        for code in (target, IMPORT_REFERENCE_CODE)[::1 if i % 2 else -1]:
            seconds[code], status, _, err = run_child(["-c", code], env)
            if status != 0:
                raise RuntimeError(f"{code} failed: {err.strip()}")
        if i:
            ratios.append(seconds[target] / seconds[IMPORT_REFERENCE_CODE])
            target_s.append(seconds[target])
            reference_s.append(seconds[IMPORT_REFERENCE_CODE])
    print(f"# setup: unscaled p50 {p50(target_s):.4f} s, reference child "
          f"p50 {p50(reference_s):.4f} s")
    return p50(ratios) * IMPORT_REFERENCE_S


def latency_metrics(times, raw, kernel_times):
    """ops_per_s, p50 and p90 from scaled op times; the raw times and the
    kernel times are printed alongside."""
    print(f"# {len(times)} ops; unscaled p50 {p50(raw) * 1e3:.4f} ms, "
          f"p90 {p90(raw) * 1e3:.4f} ms; calibration kernel median "
          f"{p50(kernel_times) * 1e3:.4f} ms")
    return {"ops_per_s": len(times) / float(np.sum(times)),
            "latency_p50_ms": p50(times) * 1e3,
            "latency_p90_ms": p90(times) * 1e3}


def op_metrics(by_kind):
    """p50 and p90 (ms) of the scaled times of each op kind."""
    out = {}
    for kind in ops.KINDS:
        xs = by_kind[kind]
        out[f"op.{kind}.p50_ms"] = p50(xs) * 1e3
        out[f"op.{kind}.p90_ms"] = p90(xs) * 1e3
    return out


# ---------------------------------------------------------------- tracing

def traced_list(fixed, run_one, tally, chunk=10):
    """Run the fixed list in chunks, each chunk untraced and traced, and
    record the traced outcomes. Returns (tracer, traced wall time /
    untraced wall time). Alternating by chunk keeps both passes in the
    same stretch of machine speed, so the ratio needs no scaling; which
    pass goes first alternates too, since a repeated op runs on warm
    caches."""
    clock = time.perf_counter
    for op in fixed[:20]:   # warm-up: first calls pay one-off costs
        run_one(op)
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    outcomes = []

    def run_untraced(part):
        t0 = clock()
        for op in part:
            run_one(op)
        return clock() - t0

    def run_traced(part):
        with tracer:
            t0 = clock()
            for op in part:
                tracer.op = op.index
                outcomes.append(tracer.span(f"op.{op.kind}", run_one, op))
            return clock() - t0

    for i in range(0, len(fixed), chunk):
        part = fixed[i:i + chunk]
        if i // chunk % 2:
            traced += run_traced(part)
            untraced += run_untraced(part)
        else:
            untraced += run_untraced(part)
            traced += run_traced(part)
    for op, (answer, error) in zip(fixed, outcomes):
        tally.record(op, answer, error)
    return tracer, traced / untraced


def layer_metrics(tracer, ops_count):
    """Per-group counts and self times from the spans, plus spectra per op."""
    groups = {}
    for name, (calls, self_s) in tracer.totals().items():
        group = tracing.GROUPS.get(name)
        if group is not None:
            entry = groups.setdefault(group, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
    out = {}
    for group, counter in _COUNTED:
        calls, self_s = groups.get(group, (0, 0.0))
        out[f"{group}.{counter}"] = calls
        out[f"{group}.self_s"] = self_s
    spectra = out["linalg.eigh.calls"] + out["linalg.eigvalsh.calls"]
    out["linalg.spectra_per_op"] = spectra / ops_count
    return out


# ---------------------------------------------------------------- known defect

def indefinite_probe(workload, seed, tally):
    """Run the INDEFINITE_PAIRS known-defect `order` pairs (ops.indefinite_pairs,
    at the workload's dimensions; api-small's for selftest) and return how
    many raise the known NotPSD. Any other error or a wrong answer is a
    problem in `tally`; the probe adds nothing to attempted or failed."""
    dims = ops.DIMS.get(workload, ops.DIMS["api-small"])
    exits = 0
    for op in ops.indefinite_pairs(seed, dims, INDEFINITE_PAIRS):
        answer, error = attempt(op)
        if error is not None and reference.is_known_failure(op, error):
            exits += 1
            continue
        why = problem(op, answer, error)
        if why is not None:
            tally.report(f"indefinite probe {op.index} n={op.n}: {why}")
    return exits


# ---------------------------------------------------------------- api-*

def api_loop(workload, seed, seconds, tally):
    """Closed loop, one client, over whole blocks until `seconds` have
    passed, running the calibration kernel between ops. Returns the
    sampler and each op's kind index, start and end, in flat arrays so
    that peak memory does not grow with the op count; drawing inputs and
    checking answers happen outside the op intervals."""
    dims = ops.DIMS[workload]
    for op in ops.block(seed, 1 << 30, dims)[:60]:   # warm-up, not measured
        attempt(op)
    clock = time.perf_counter
    kind_index = {kind: i for i, kind in enumerate(ops.KINDS)}
    kinds, starts, ends = array("B"), array("d"), array("d")
    with KernelSampler(timer=False) as sampler:
        start = clock()
        index = 0
        while clock() - start < seconds:
            batch = ops.block(seed, index, dims)
            index += 1
            for op in batch:
                t0 = clock()
                answer, error = attempt(op)
                t1 = clock()
                kinds.append(kind_index[op.kind])
                starts.append(t0)
                ends.append(t1)
                tally.record(op, answer, error)
                sampler.poll()
    return sampler, kinds, starts, ends


def interval_times(measure, starts, ends):
    """measure(start, end) of every op, as a float array."""
    return np.fromiter(map(measure, starts, ends), float, len(starts))


def run_api(workload, seed, seconds, trace, root):
    tally = Tally()
    if not trace:
        setup = setup_seconds(child_env(root))
        sampler, _, starts, ends = api_loop(workload, seed, seconds, tally)
        metrics = latency_metrics(interval_times(sampler.scaled, starts, ends),
                                  interval_times(sampler.unscaled, starts, ends),
                                  sampler.kernel_times)
        metrics.update(setup_s=setup, peak_rss_mb=peak_rss_mb())
        return tally, metrics
    sampler, kinds, starts, ends = api_loop(workload, seed, seconds / 2.0, tally)
    times, kinds = interval_times(sampler.scaled, starts, ends), np.frombuffer(kinds, np.uint8)
    by_kind = {kind: times[kinds == i] for i, kind in enumerate(ops.KINDS)}
    metrics = op_metrics(by_kind)
    metrics["machine.kernel_ms"] = p50(sampler.kernel_times) * 1e3
    print(f"# {workload}: per-op samples "
          + ", ".join(f"{k} {len(by_kind[k])}" for k in ops.KINDS))
    fixed = ops.stream(seed, ops.DIMS[workload], TRACED_OPS[workload])
    tracer, overhead = traced_list(fixed, attempt, tally)
    metrics.update(layer_metrics(tracer, len(fixed)), **{"trace.overhead_ratio": overhead})
    tracer.write(root / ".bench_out" / f"spans-{workload}.tsv")
    if workload == "api-small":
        metrics.update(cli_layer(seed, root, tally))
    return tally, metrics


# ---------------------------------------------------------------- selftest

def selftest_call(seed, tally, spans=None):
    """run_selftest(seed, 200). With `spans`, the (name, start, end) of each
    check_* call is appended to it. Property outcomes go into the tally.
    Returns the wall time of the whole call."""
    props = selftest._PROPERTIES
    originals = list(props)
    if spans is not None:
        def timed(fn):
            name = fn.__name__[len("check_"):]

            def inner(*args):
                t0 = time.perf_counter()
                try:
                    return fn(*args)
                finally:
                    spans.append((name, t0, time.perf_counter()))
            return inner
        props[:] = [timed(fn) for fn in originals]
    try:
        t0 = time.perf_counter()
        results = selftest.run_selftest(seed, SELFTEST_TRIALS)
        seconds = time.perf_counter() - t0
    finally:
        props[:] = originals
    for result in results:
        tally.attempted += 1
        if not result.ok:
            tally.failed += 1
            tally.report(f"selftest seed {seed}: FAIL {result.name}: {result.detail}")
    return seconds


def run_selftest_workload(seed, seconds, trace, root):
    """One op is one run_selftest call, timed as the sum of its 11 scaled
    property times; call k uses seed 1000 * seed + k."""
    tally = Tally()
    if not trace:
        setup = setup_seconds(child_env(root))
        times, raw = [], []
        start = time.perf_counter()
        with KernelSampler() as sampler:
            while time.perf_counter() - start < seconds:
                spans = []
                selftest_call(1000 * seed + len(times), tally, spans)
                times.append(sum(sampler.scaled(a, b) for _, a, b in spans))
                raw.append(sum(sampler.unscaled(a, b) for _, a, b in spans))
        metrics = latency_metrics(times, raw, sampler.kernel_times)
        metrics.update(setup_s=setup, peak_rss_mb=peak_rss_mb())
        return tally, metrics
    spans = []
    with KernelSampler() as sampler:
        selftest_call(1000 * seed, tally, spans)
    untraced = sum(sampler.unscaled(a, b) for _, a, b in spans)
    metrics = {f"selftest.{name}_s": sampler.scaled(a, b) for name, a, b in spans}
    metrics["machine.kernel_ms"] = p50(sampler.kernel_times) * 1e3
    tracer = tracing.Tracer()
    with tracer:
        traced = selftest_call(1000 * seed, Tally())
    metrics.update(layer_metrics(tracer, 1), **{"trace.overhead_ratio": traced / untraced})
    tracer.write(root / ".bench_out" / "spans-selftest.tsv")
    return tally, metrics


# ---------------------------------------------------------------- cli layer

class CliRunner:
    """Runs ops through the CLI: cold, one child each, or in process."""

    def __init__(self, root):
        self.env = child_env(root)
        self._argv = {}
        self._probes = {}

    def prepare(self, op):
        """Serialise the op's documents (and the recover probe set) ahead of timing."""
        if op.n not in self._probes:
            self._probes[op.n] = ops.probe_inputs(op.n)
        self._argv[op.index] = ops.cli_argv(op, self._probes.__getitem__)

    @staticmethod
    def outcome(op, code, out, err):
        if code == 0:
            return ops.parse_cli(op, out), None
        if "must be positive semidefinite" in err:
            return None, "NotPSD"
        return None, f"exit {code}: {err.strip()[:200]}"

    def cold(self, op):
        """(seconds, answer, error) of one fresh child."""
        seconds, code, out, err = run_child(
            ["-m", "loewner.cli", *self._argv[op.index]], self.env)
        return (seconds, *self.outcome(op, code, out, err))

    def in_process(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self._argv[op.index])
        return self.outcome(op, code, out.getvalue(), err.getvalue())


def cold_probes(env):
    """Medians (ms) of the wall time of a child `python -c pass`, and of
    in-child import times of numpy and then loewner.cli."""
    probe = ("import time; t0 = time.perf_counter(); import numpy; "
             "t1 = time.perf_counter(); import loewner.cli; "
             "print(t1 - t0, time.perf_counter() - t1)")
    interpreter, numpy_s, loewner_s = [], [], []
    for _ in range(CLI_COLD_REPEATS):
        interpreter.append(run_child(["-c", "pass"], env)[0])
        _, code, out, err = run_child(["-c", probe], env)
        if code != 0:
            raise RuntimeError(err)
        first, second = map(float, out.split())
        numpy_s.append(first)
        loewner_s.append(second)
    return {"cli.interpreter_ms": p50(interpreter) * 1e3,
            "cli.import_numpy_ms": p50(numpy_s) * 1e3,
            "cli.import_loewner_ms": p50(loewner_s) * 1e3}


def cli_layer(seed, root, tally):
    """The cli layer metrics, measured on the api-small op stream: cold
    children per command (wall time, not scaled), then a fixed list of
    in-process cli.main calls, untraced and traced."""
    runner = CliRunner(root)
    stream_ops = ops.stream(seed, ops.DIMS["api-small"], 600)
    metrics = cold_probes(runner.env)
    for kind, command in ops.CLI_COMMANDS.items():
        times = []
        for op in [op for op in stream_ops if op.kind == kind][:CLI_COLD_REPEATS]:
            runner.prepare(op)
            seconds_op, answer, error = runner.cold(op)
            times.append(seconds_op)
            tally.record(op, answer, error)
        metrics[f"cli.{command}.p50_ms"] = p50(times) * 1e3
    fixed = stream_ops[:CLI_TRACED_OPS]
    for op in fixed:
        runner.prepare(op)
    tracer, _ = traced_list(fixed, runner.in_process, tally)
    metrics.update({k: v for k, v in layer_metrics(tracer, len(fixed)).items()
                    if k.startswith("cli.")})
    tracer.write(root / ".bench_out" / "spans-cli.tsv")
    return metrics


RUNNERS = {"api-small": lambda *a: run_api("api-small", *a),
           "api-large": lambda *a: run_api("api-large", *a),
           "selftest": run_selftest_workload}
