"""The exact outcome bits of the benchmark's library op streams, and the
Jacobi work behind them.

bench/workloads.attempt runs each op of bench/ops.stream(11, dims, 2400)
for the api-small (n in {2, 3, 4}) and api-large (n in {8, 12, 16}) mixes
and bench/workloads.digest hashes every (answer, error) pair; the
benchmark's modules are imported read-only, as tests/test_certificate.py
imports ops. Alongside each digest the number of linalg._jacobi calls
(eigvalsh and eigh) the stream makes is pinned.

The same convention as tests/test_answer_bits.py: a change that is meant
to keep every output bit keeps these digests; a change that moves a bit,
or adds or removes a spectrum, updates EXPECTED and says which op moved
and why.
"""

import importlib
import pathlib

import pytest

from loewner import linalg

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
SEED = 11
COUNT = 2400

EXPECTED = {
    "api-small": ("871183b16c6bc55c546ee245c0b5972248aacf25b92b2ab5082ca35fe61710a0", 360),
    "api-large": ("386cf384bec9eaa9b9e0fb38327f02c3aed9e9fe5545a02f83eb6a7dfd9af9af", 364),
}


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_stream_keeps_its_bits_and_its_spectra(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    ops = importlib.import_module("ops")
    workloads = importlib.import_module("workloads")
    calls = []
    jacobi = linalg._jacobi

    def counting(m, want_vectors):
        calls.append(want_vectors)
        return jacobi(m, want_vectors)

    monkeypatch.setattr(linalg, "_jacobi", counting)
    outcomes = [workloads.attempt(op) for op in ops.stream(SEED, ops.DIMS[workload], COUNT)]
    assert (workloads.digest(outcomes), len(calls)) == EXPECTED[workload]
