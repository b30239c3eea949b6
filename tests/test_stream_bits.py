"""The exact outcome bits of the benchmark's library op streams, and the
Jacobi work behind them.

bench/workloads.attempt runs each op of bench/ops.stream(11, dims, 2400)
for the api-small (n in {2, 3, 4}) and api-large (n in {8, 12, 16}) mixes,
and of bench/ops.stream(13, dims, 2400) for api-small, the second seed
on which a speed claim is checked, and bench/workloads.digest hashes
every (answer, error) pair; the
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
    "api-large": ("5d0917d3f3a397cf6cd9f086e464bdf6683460666adc5f14b50b488d4e351ed0", 244),
}
# api-large moved once, from (386cf384..., 364): linalg._definite_root_pair
# answers the root pairs of interval normalization and generator recovery
# from n = 8 on by the Denman-Beavers iteration, which takes no spectrum.
# The 96 interval ops with two finite ends (of 216) moved, by at most
# 8.0e-14 relative (Frobenius), and all 24 recover ops, by at most
# 3.9e-15; 120 eigh calls went. No other op moved, and no op changed
# between answer and error.


# the same for seed 13
EXPECTED_SEED_13 = {
    "api-small": ("2d9b2988efc39f2657eddf288bf4c1231b4e4b183a4fd54f47bc9839919cd655", 361),
}


def digest_and_spectra(workload, seed, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    ops = importlib.import_module("ops")
    workloads = importlib.import_module("workloads")
    calls = []
    jacobi = linalg._jacobi

    def counting(m, want_vectors):
        calls.append(want_vectors)
        return jacobi(m, want_vectors)

    monkeypatch.setattr(linalg, "_jacobi", counting)
    outcomes = [workloads.attempt(op) for op in ops.stream(seed, ops.DIMS[workload], COUNT)]
    return workloads.digest(outcomes), len(calls)


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_stream_keeps_its_bits_and_its_spectra(workload, monkeypatch):
    assert digest_and_spectra(workload, SEED, monkeypatch) == EXPECTED[workload]


@pytest.mark.parametrize("workload", sorted(EXPECTED_SEED_13))
def test_seed_13_stream_keeps_its_bits_and_its_spectra(workload, monkeypatch):
    assert digest_and_spectra(workload, 13, monkeypatch) == EXPECTED_SEED_13[workload]
