"""Acceptance suite.

One test per criterion, each at its stated count and tolerance, printing
one PASS/FAIL line (visible with `pytest -s` or on failure). Criteria
delegate to the seeded property checks in loewner.selftest so the CLI
selftest and this module agree on the definitions.
"""

import pathlib
import time

from loewner import selftest
from loewner.cli import main
from loewner.selftest import PropertyResult

SEED = 20260811
SELFTEST_GOLDEN = pathlib.Path(__file__).parent / "golden" / "selftest_seed0.txt"


def report(number: int, title: str, result: PropertyResult):
    status = "PASS" if result.ok else "FAIL"
    print(f"{status} criterion-{number:02d} {title}: {result.detail}")
    assert result.ok, f"criterion {number} ({title}): {result.detail}"


def test_criterion_01_order_preservation_speed_and_correctness():
    started = time.perf_counter()
    # 1000 trials cycling n = 2..6 gives exactly 200 per dimension,
    # checked at tolerance 1e-8
    result = selftest.check_order_preservation(SEED, 1000)
    elapsed = time.perf_counter() - started
    report(1, f"order preservation ({elapsed:.2f}s)", result)
    assert elapsed < 5.0, f"order preservation took {elapsed:.2f}s (budget 5s)"


def test_criterion_02_group_law():
    report(2, "group law at 1e-8", selftest.check_group_law(SEED + 1, 200))


def test_criterion_03_fixed_points():
    report(3, "fixed points at 1e-10", selftest.check_fixed_points(SEED + 2, 100))


def test_criterion_04_projection_law():
    report(4, "projection idempotence 1e-8 / image angle 1e-6",
           selftest.check_projection_law(SEED + 3, 200))


def test_criterion_05_strength_closed_form_vs_oracle():
    report(5, "strength vs bisection at 1e-6 (500 samples incl. singular)",
           selftest.check_strength_oracle(SEED + 4, 500))


def test_criterion_06_order_witness_biconditional():
    report(6, "witness biconditional (200 pairs)",
           selftest.check_witness_biconditional(SEED + 5, 200))


def test_criterion_07_recovery_round_trip():
    report(7, "generator recovery (50 random T, n <= 5, residual 1e-6)",
           selftest.check_recovery_round_trip(SEED + 6, 50, count=50))


def test_criterion_08_mobius_bridge():
    report(8, "fractional-linear bridge (30 parameter sets, 1e-6)",
           selftest.check_mobius_bridge(SEED + 7, 30, count=30))


def test_criterion_09_exact_two_by_two_fixtures():
    report(9, "exact 2x2 fixtures", selftest.check_two_by_two_fixtures(SEED + 8, 1))


def test_criterion_10_interval_atlas():
    report(10, "interval atlas (nine shapes, endpoints 1e-10, round trips 1e-8)",
           selftest.check_interval_atlas(SEED + 9, 200, per_shape=5))


def test_criterion_11_conjugation_identity():
    report(11, "conjugation identity at 1e-8 (100 instances)",
           selftest.check_conjugation_identity(SEED + 10, 100))


def test_criterion_12_cli_selftest_contract(capsys):
    started = time.perf_counter()
    code = main(["selftest", "--seed", "0"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    with capsys.disabled():
        status = "PASS" if code == 0 and elapsed < 60.0 else "FAIL"
        print(f"{status} criterion-12 cli selftest --seed 0 "
              f"(exit {code}, {elapsed:.1f}s, budget 60s)")
    assert code == 0, out
    assert elapsed < 60.0
    assert len(out.strip().splitlines()) == 11
    assert out == SELFTEST_GOLDEN.read_text(encoding="utf-8")
