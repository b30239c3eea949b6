"""Tests of the benchmark itself (not of the package):

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import calibration  # noqa: E402
import ops  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from loewner import cli, linalg, selftest  # noqa: E402

API = ("api-small", "api-large")


def _same_ops(first, second):
    return all(a.kind == b.kind and a.n == b.n and a.case == b.case
               and a.args.keys() == b.args.keys()
               and all(np.array_equal(a.args[k], b.args[k]) for k in a.args)
               for a, b in zip(first, second))


def test_same_seed_same_ops_and_outputs():
    first = ops.stream(7, ops.DIMS["api-small"], 300)
    second = ops.stream(7, ops.DIMS["api-small"], 300)
    assert _same_ops(first, second)
    assert (workloads.digest(map(workloads.attempt, first))
            == workloads.digest(map(workloads.attempt, second)))


def test_other_seed_other_ops():
    first = ops.stream(7, ops.DIMS["api-small"], 300)
    other = ops.stream(8, ops.DIMS["api-small"], 300)
    assert not _same_ops(first, other)


@pytest.mark.parametrize("workload", API)
def test_every_block_has_the_whole_mix(workload):
    dims = ops.DIMS[workload]
    batch = ops.block(3, 0, dims)
    for n in dims:
        counts = {kind: sum(op.kind == kind and op.n == n for op in batch) for kind in ops.KINDS}
        assert counts == ops.MIX
    shapes = {op.case for op in batch if op.kind == "interval"}
    assert shapes == {str(s) for s in range(9)}


def _trace(ops_list):
    tracer, _ = workloads.traced_list(ops_list, workloads.attempt, workloads.Tally())
    return workloads.layer_metrics(tracer, len(ops_list))


def _counts(metrics):
    return {k: v for k, v in metrics.items() if k.endswith((".calls", ".count"))}


def test_traced_counts_repeat_exactly():
    fixed = ops.stream(5, ops.DIMS["api-small"], 150)
    first, second = _trace(fixed), _trace(fixed)
    assert _counts(first) == _counts(second)
    assert first["linalg.eigvalsh.calls"] > 0 and first["linalg.symmat.count"] > 0


def test_api_small_trace_never_reaches_oracle():
    metrics = _trace(ops.stream(5, ops.DIMS["api-small"], 300))
    assert {k: v for k, v in _counts(metrics).items() if k.startswith("oracle.")} == {
        "oracle.sample.calls": 0, "oracle.strength_bisection.calls": 0,
        "oracle.monotonicity_report.calls": 0}
    assert metrics["automorphisms.recover.calls"] == 3


def test_tracer_restores_every_binding():
    before = (linalg.eigh, cli.build_chain, selftest.EffectAutomorphism.__init__,
              selftest.make_effect, linalg.SymMat.__init__)
    with tracing.Tracer() as tracer:
        assert cli.build_chain is not before[1]
        assert selftest.make_effect is not before[3]
        linalg.SymMat([[1.0]])
    assert (linalg.eigh, cli.build_chain, selftest.EffectAutomorphism.__init__,
            selftest.make_effect, linalg.SymMat.__init__) == before
    assert tracer.totals()["linalg.SymMat.__init__"][0] == 1


def test_recursion_is_counted_once():
    with tracing.Tracer() as tracer:
        cli.dumps_stable({"a": [1.0, {"b": 2}]})
    assert tracer.totals()["cli.dumps_stable"][0] == 1


def _one_of_each(seed=11):
    batch = ops.block(seed, 0, ops.DIMS["api-small"])
    found = {}
    for op in batch:
        key = op.kind if op.kind != "order" else f"order-{op.case}"
        found.setdefault(key, op)
    return found


def _perturbed(op, answer):
    """A wrong answer of the same shape, off by far more than the gates."""
    if op.kind == "order":
        le, lt, witness = answer
        if witness is None:
            return not le, lt, witness
        return le, lt, (witness[0], 1.5 * witness[1])
    if op.kind == "strength":
        scale = answer or float(np.linalg.eigvalsh(op.args["A"])[-1])
        return answer + 1e-4 * scale
    bump = np.zeros_like(answer)
    bump[0, -1] = bump[-1, 0] = 1e-5
    return answer + bump


@pytest.mark.parametrize("key", ["order-comparable", "order-incomparable", "order-reversed", "strength",
                                 "apply", "compose", "invert", "interval", "recover"])
def test_checker_accepts_truth_and_rejects_perturbation(key):
    op = _one_of_each()[key]
    answer, error = workloads.attempt(op)
    assert error is None
    assert reference.check(op, answer) is None
    assert reference.check(op, _perturbed(op, answer)) is not None


def test_sign_is_free_only_for_generators():
    op = _one_of_each()["apply"]
    answer, _ = workloads.attempt(op)
    assert reference.check(op, -answer) is not None
    op = _one_of_each()["invert"]
    answer, _ = workloads.attempt(op)
    assert reference.check(op, -answer) is None


def test_known_failure_is_only_notpsd_on_indefinite_order():
    general = ops.indefinite_pairs(11, ops.DIMS["api-small"], 1)[0]
    psd = _one_of_each()["order-incomparable"]
    assert reference.is_known_failure(general, "NotPSD")
    assert not reference.is_known_failure(general, "Singular")
    assert not reference.is_known_failure(psd, "NotPSD")


@pytest.mark.parametrize("workload", API)
def test_no_op_of_the_mix_fails(workload):
    tally = workloads.Tally()
    for op in ops.block(4, 0, ops.DIMS[workload]):
        tally.record(op, *workloads.attempt(op))
    assert tally.failed == 0 and tally.correct


def test_indefinite_probe_is_deterministic_and_outside_the_tally():
    tally = workloads.Tally()
    exits = workloads.indefinite_probe("api-small", 6, tally)
    assert exits == workloads.indefinite_probe("api-small", 6, tally)
    assert 0 <= exits <= workloads.INDEFINITE_PAIRS
    assert tally.attempted == tally.failed == 0 and tally.correct


def test_cli_documents_round_trip(tmp_path):
    runner = workloads.CliRunner(tmp_path)
    tally = workloads.Tally()
    for op in ops.stream(2, ops.DIMS["api-small"], 120):
        runner.prepare(op)
        tally.record(op, *runner.in_process(op))
    assert tally.attempted == 120 and tally.correct


def test_benchmark_json_matches_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for section, table in (("end_to_end", workloads.END_TO_END), ("per_layer", workloads.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[section]} == table


def test_sampler_scales_each_slice_by_its_bracketing_kernels():
    sampler = calibration.KernelSampler()
    sampler.starts, sampler.ends = [0.0, 10.0, 20.0], [1.0, 13.0, 25.0]
    ref = calibration.REFERENCE_S
    # [0.5, 22]: slices (1, 10) between kernels of 1 s and 3 s, and (13, 20)
    # between kernels of 3 s and 5 s; the kernel runs themselves are left out.
    assert sampler.unscaled(0.5, 22.0) == pytest.approx(16.0)
    assert sampler.scaled(0.5, 22.0) == pytest.approx(9.0 * ref / 2.0 + 7.0 * ref / 4.0)
    assert sampler.scaled(14.0, 16.0) == pytest.approx(2.0 * ref / 4.0)
    assert sampler.scaled(11.0, 12.0) == 0.0
