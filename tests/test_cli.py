"""CLI contract tests: golden outputs per command, exit codes, and the
stable-output guarantees (sorted keys, 17-significant-digit numbers,
newline termination, exact re-parse)."""

import copy
import functools
import io
import json
import os
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from loewner import cli, linalg
from loewner.automorphisms import EffectAutomorphism
from loewner.cli import dumps_stable, main
from loewner.effects import RankOneProjection, strength, strength_witness
from loewner.errors import InternalInversionFailure, NonConvergence, NotPSD, TooLarge
from loewner.linalg import SymMat

GOLDEN = pathlib.Path(__file__).parent / "golden"

DIAG_10 = '{"n":2,"data":[1,0,0,0]}'
DIAG_01 = '{"n":2,"data":[0,0,0,1]}'
ZERO = '{"n":2,"data":[0,0,0,0]}'
ZERO_DOC = json.loads(ZERO)
EYE = '{"n":2,"data":[1,0,0,1]}'
HALF = '{"n":2,"data":[0.5,0,0,0.5]}'
GEN_21 = '{"n":2,"data":[2,0,0,1]}'
ZERO_AT_CAP = json.dumps({"n": cli._MAX_N, "data": [0] * cli._MAX_N ** 2})

HALF_OPEN_SPEC = json.dumps({
    "n": 2,
    "lower": {"kind": "finite", "closed": True, "matrix": {"n": 2, "data": [0, 0, 0, 0]}},
    "upper": {"kind": "finite", "closed": False, "matrix": {"n": 2, "data": [1, 0, 0, 1]}},
})


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    return (GOLDEN / name).read_text()


class TestGoldenOutputs:
    @pytest.mark.parametrize("argv,expected", [
        (["order", DIAG_10, DIAG_01], "order_witness.json"),
        (["order", ZERO, EYE], "order_le.json"),
        (["strength", EYE, "[1,0]"], "strength_identity.json"),
        (["phi", "apply", GEN_21, HALF], "phi_apply_diag.json"),
        (["phi", "compose", GEN_21, GEN_21], "phi_compose_diag.json"),
        (["phi", "invert", GEN_21], "phi_invert_diag.json"),
        (["phi", "probes", "2"], "phi_probes_2.json"),
        (["interval", "chain", HALF_OPEN_SPEC], "interval_chain_half_open.json"),
        (["interval", "map",
          json.dumps({"interval": json.loads(HALF_OPEN_SPEC), "x": json.loads(HALF)})],
         "interval_map_half.json"),
    ])
    def test_command_output_matches_golden(self, capsys, argv, expected):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == golden(expected)

    def test_classify_box(self, capsys):
        spec = json.dumps({
            "n": 2,
            "lower": {"kind": "finite", "closed": True, "matrix": {"n": 2, "data": [0, 0, 0, 0]}},
            "upper": {"kind": "finite", "closed": True, "matrix": {"n": 2, "data": [2, 0, 0, 2]}},
        })
        code, out, _ = run(capsys, ["interval", "classify", spec])
        assert code == 0
        assert out == golden("interval_classify_box.json")

    def test_recover_round_trip(self, capsys):
        code, out, _ = run(capsys, ["phi", "recover",
                                    golden("phi_recover_payload.json")])
        assert code == 0
        assert out == golden("phi_recover_diag.json")


class TestExitCodes:
    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, ["order", "{not json", EYE])
        assert code == 2
        assert "error" in err

    def test_bad_matrix_shape(self, capsys):
        code, _, _ = run(capsys, ["order", '{"n":2,"data":[1,2,3]}', EYE])
        assert code == 2

    def test_dimension_mismatch(self, capsys):
        code, _, _ = run(capsys, ["order", '{"n":3,"data":[0,0,0,0,0,0,0,0,0]}', EYE])
        assert code == 3

    def test_recover_rejects_non_automorphism(self, capsys):
        payload = json.loads(golden("phi_recover_payload.json"))
        # corrupt every image: transpose-free scaling breaks the residuals
        for pair in payload["pairs"][1:]:
            pair["output"] = pair["input"]
        code, _, _ = run(capsys, ["phi", "recover", json.dumps(payload)])
        assert code == 4

    def test_recover_names_the_offending_eigenvalue_as_a_plain_float(self, capsys):
        _, out, _ = run(capsys, ["phi", "probes", "2"])
        pairs = [{"input": p, "output": {"n": 2, "data": [2.0 * v for v in p["data"]]}}
                 for p in json.loads(out)["probes"]]
        code, out, err = run(capsys, ["phi", "recover", json.dumps({"n": 2, "pairs": pairs})])
        assert code == 4 and out == ""
        assert "probe image is not an effect: eigenvalue 2.0 above 1" in err
        assert "np.float64" not in err

    @pytest.mark.parametrize("argv,expected", [
        (["strength", EYE, "[1,0,0]"], 3),
        (["phi", "probes", "1"], 2),
        (["phi", "recover", '{"n":1,"pairs":[]}'], 2),
        (["phi", "recover", '{"n":0,"pairs":[]}'], 2),
    ], ids=["strength_vector_length", "probes_n1", "recover_n1", "recover_n0"])
    def test_exit_code(self, capsys, argv, expected):
        code, out, err = run(capsys, argv)
        assert code == expected and out == ""
        assert err.startswith("error: ")

    def test_missing_probe_pairs(self, capsys):
        payload = json.loads(golden("phi_recover_payload.json"))
        payload["pairs"] = payload["pairs"][:3]
        code, _, _ = run(capsys, ["phi", "recover", json.dumps(payload)])
        assert code == 2

    def test_probe_input_past_the_range_is_missing_without_a_warning(self, capsys):
        # the probe key rounds at 12 decimals: 1e308 * 1e12 overflows to inf
        payload = json.loads(golden("phi_recover_payload.json"))
        payload["pairs"][0]["input"]["data"][0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["phi", "recover", json.dumps(payload)])
        assert (code, out) == (2, "")
        assert err.startswith("error: probe image missing") and err.count("\n") == 1

    @pytest.mark.parametrize("failure", [NonConvergence, InternalInversionFailure])
    def test_internal_numerical_failure(self, capsys, monkeypatch, failure):
        def failing(m, want_vectors):
            raise failure("injected")

        monkeypatch.setattr(linalg, "_jacobi", failing)
        # a tiny kept eigenvalue along the direction: the factor routes
        # leave it to the eigensolver
        tiny = '{"n":3,"data":[1,0,0,0,1e-7,0,0,0,0]}'
        code, out, err = run(capsys, ["strength", tiny, "[0,1,0]"])
        assert code == 6 and out == ""
        assert "internal numerical failure: injected" in err

    def test_sweep_cap_reached_in_process(self, capsys, monkeypatch):
        # one sweep, then the cap: the probe effects' eigvalsh gives up
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        code, out, err = run(capsys, ["phi", "probes", "2"])
        assert code == 6 and out == ""
        assert err == "error: internal numerical failure: Jacobi iteration did not converge in 1 sweeps\n"

    @pytest.mark.parametrize("bug", [KeyError, TypeError])
    def test_a_bug_is_not_reported_as_bad_input(self, capsys, monkeypatch, bug):
        def broken(*args):
            raise bug("injected")

        monkeypatch.setattr(cli.effects, "strength", broken)
        with pytest.raises(bug, match="injected"):
            main(["strength", EYE, "[1,0]"])
        assert capsys.readouterr() == ("", "")

    def test_selftest_exit_zero(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--seed", "1", "--trials", "20"])
        assert code == 0
        lines = [line for line in out.strip().splitlines()]
        assert len(lines) == 11
        assert all(line.startswith("PASS") for line in lines)

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_selftest_of_no_trials_is_refused(self, capsys, trials):
        # no trial checks nothing, so it may not print PASS
        code, out, err = run(capsys, ["selftest", "--trials", trials])
        assert (code, out) == (2, "")
        assert err == "error: trials must be at least 1\n"


class TestOrderOnPairsThatAreNotPSD:
    # le and lt are defined for every symmetric pair; only the rank-one
    # witness needs PSD inputs, so it is left out
    FLIP = '{"n":2,"data":[1,0,0,-1]}'

    def test_indefinite_second_argument(self, capsys):
        code, out, err = run(capsys, ["order", ZERO, self.FLIP])
        assert (code, out, err) == (0, '{"le":false,"lt":false}\n', "")
        with pytest.raises(NotPSD):
            strength_witness(SymMat.zero(2), SymMat.diagonal([1.0, -1.0]))

    def test_indefinite_first_argument(self, capsys):
        code, out, err = run(capsys, ["order", self.FLIP, ZERO])
        assert (code, out, err) == (0, '{"le":false,"lt":false}\n', "")
        code, out, _ = run(capsys, ["order", self.FLIP, EYE])
        assert (code, out) == (0, '{"le":true,"lt":false}\n')


class TestExtremeScale:
    # eigenvalues +-1e200: the Frobenius norm of the raw entries overflows
    INDEFINITE_HUGE = '{"n":2,"data":[0,1e200,1e200,0]}'

    def test_order_does_not_claim_le(self, capsys):
        code, out, _ = run(capsys, ["order", ZERO, self.INDEFINITE_HUGE])
        assert code == 0 and out == '{"le":false,"lt":false}\n'

    def test_strength_rejects_indefinite(self, capsys):
        code, out, err = run(capsys, ["strength", self.INDEFINITE_HUGE, "[1,0]"])
        assert code == 2 and out == ""
        assert "below -psd_tol" in err
        with pytest.raises(NotPSD):
            strength(SymMat([[0.0, 1e200], [1e200, 0.0]]), RankOneProjection([1.0, 0.0]))


class TestTopOfTheFloatRange:
    # symmetric input is stored as given, so entries near 2^1024 do not
    # overflow in the symmetrization; an asymmetric input whose average
    # overflows is still refused
    HUGE = '{"n":2,"data":[1.7e308,0,0,1]}'

    def run_quietly(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run(capsys, argv)

    def test_strength_along_the_huge_axis(self, capsys):
        code, out, _ = self.run_quietly(capsys, ["strength", self.HUGE, "[1,0]"])
        assert code == 0
        assert json.loads(out)["alpha"] == pytest.approx(1.7e308, rel=1e-12)

    @pytest.mark.parametrize("direction, expected", [
        ("[1,2]", (0, '{"alpha":1.7976931348623155e+308}\n')),
        # the answer, the largest double, rounds past it in scaled units
        # and is capped at lambda_max before it is scaled back
        ("[1,1]", (0, '{"alpha":1.7976931348623157e+308}\n')),
    ])
    def test_strength_of_the_largest_double(self, capsys, direction, expected):
        # pinv of the largest double is subnormal: the answer comes from
        # the scaled pseudo-inverse, never inf
        top = '{"n":2,"data":[1.7976931348623157e308,0,0,1.7976931348623157e308]}'
        code, out, err = self.run_quietly(capsys, ["strength", top, direction])
        assert (code, out, err) == (*expected, "")

    def test_strength_at_the_bottom_of_the_range(self, capsys):
        # the kept eigenvalue 1e-310 is subnormal and its reciprocal does
        # not fit in a double: the spectral route answers in scaled units
        code, out, err = self.run_quietly(capsys, ["strength", '{"n":2,"data":[1e-310,0,0,1e-310]}',
                                                   "[1,0]"])
        assert (code, out, err) == (0, '{"alpha":9.9999999999999694e-311}\n', "")
        assert json.loads(out)["alpha"] == 1e-310

    def test_order_below_a_huge_matrix(self, capsys):
        code, out, _ = self.run_quietly(capsys, ["order", '{"n":1,"data":[1.0]}',
                                                 '{"n":1,"data":[1.7e308]}'])
        assert (code, out) == (0, '{"le":true,"lt":true}\n')

    def test_asymmetric_input_whose_average_overflows(self, capsys):
        code, out, err = self.run_quietly(capsys, ["order", '{"n":2,"data":[1,1.7e308,1e308,1]}',
                                                   EYE])
        assert code == 2 and out == ""
        assert "matrix entries must be finite" in err

    @pytest.mark.parametrize("data", ["[Infinity]", "[NaN]", "[-Infinity]"])
    def test_a_diagonal_entry_that_is_not_finite_is_refused(self, capsys, data):
        code, out, err = self.run_quietly(capsys, ["order", '{"n":1,"data":[1]}',
                                                   f'{{"n":1,"data":{data}}}'])
        assert (code, out, err) == (2, "", 'error: second input "data"[0] must be finite\n')

    @pytest.mark.parametrize("data", ["[1,Infinity,1,1]", "[1,NaN,NaN,1]", "[1,-Infinity,0,1]"])
    def test_an_off_diagonal_entry_that_is_not_finite_is_refused(self, capsys, data):
        # refused as read, before any asymmetry is measured or reported
        for argv, name in ((["order", f'{{"n":2,"data":{data}}}', EYE], "first input"),
                           (["phi", "apply", f'{{"n":2,"data":{data}}}', HALF], "generator")):
            code, out, err = self.run_quietly(capsys, argv)
            assert (code, out, err) == (2, "", f'error: {name} "data"[1] must be finite\n')

    def test_an_asymmetry_past_the_range_is_reported_without_a_warning(self, capsys):
        # 1.7e308 - (-1.7e308) overflows; the average, 0, is the identity
        code, out, err = self.run_quietly(capsys, ["order", '{"n":2,"data":[1,1.7e308,-1.7e308,1]}',
                                                   EYE])
        assert (code, out) == (0, '{"le":true,"lt":false}\n')
        assert err == "warning: first input symmetrized on load (asymmetry inf)\n"

    def test_order_whose_difference_has_an_eigenvalue_past_the_range(self, capsys):
        # B - A = -1e308 [[1, 1], [1, 1]] has the eigenvalue -2e308
        code, out, err = self.run_quietly(capsys, ["order", '{"n":2,"data":[1e308,1e308,1e308,1e308]}',
                                                   ZERO])
        assert code == 2 and out == ""
        assert err == "error: an eigenvalue does not fit in a double\n"

    def test_interval_whose_ends_differ_past_the_range(self, capsys):
        # lower < upper forms upper - lower = 2e308
        spec = json.dumps({
            "n": 1,
            "lower": {"kind": "finite", "closed": True, "matrix": {"n": 1, "data": [-1e308]}},
            "upper": {"kind": "finite", "closed": True, "matrix": {"n": 1, "data": [1e308]}},
        })
        code, out, err = self.run_quietly(capsys, ["interval", "classify", spec])
        assert code == 2 and out == ""
        assert err == "error: matrix entries overflow the double range\n"

    @pytest.mark.parametrize("direction", ["[1e155,0]", "[1e-170,0]", "[1e-13,0]", "[5e-324,0]"])
    def test_strength_along_a_direction_whose_square_leaves_the_range(self, capsys, direction):
        # the direction is a span: x.x over- or underflows, the answer is 1
        code, out, _ = self.run_quietly(capsys, ["strength", EYE, direction])
        assert (code, out) == (0, '{"alpha":1}\n')


class TestCanonicalSignAtLargeTolerance:
    # --tol 0.1 sets equality_tol = 1, at which no entry of T clears the
    # sign gate equality_tol * ||T||_2; a regular generator still gets a sign
    @pytest.mark.parametrize("tol", ["0.1", "0.2"])
    def test_invert_identity(self, capsys, tol):
        code, out, err = run(capsys, ["phi", "invert", EYE, "--tol", tol])
        assert (code, out, err) == (0, '{"data":[1,0,0,1],"n":2}\n', "")

    def test_sign_of_the_largest_entry(self, capsys):
        code, out, _ = run(capsys, ["phi", "invert", '{"n":2,"data":[-1,0.5,0,-2]}',
                                    "--tol", "0.2"])
        assert (code, out) == (0, '{"data":[1,0.25,0,0.5],"n":2}\n')


class TestIntervalParsing:
    def spec(self, lower, upper):
        return json.dumps({"n": 2, "lower": lower, "upper": upper})

    def test_map_onto_the_cone_from_a_finite_lower_endpoint(self, capsys):
        # [I, inf) -> [0, inf) by X -> X - I
        payload = json.dumps({
            "interval": json.loads(self.spec(
                {"kind": "finite", "closed": True, "matrix": {"n": 2, "data": [1, 0, 0, 1]}},
                {"kind": "plus_infinity"})),
            "x": {"n": 2, "data": [3, 1, 1, 2]},
        })
        code, out, _ = run(capsys, ["interval", "map", payload])
        assert (code, out) == (0, '{"data":[2,1,1,1],"n":2}\n')

    def test_chain_of_a_box_whose_gap_is_not_the_identity(self, capsys):
        # [I, diag(5, 2)]: translate by -I, then congruence by diag(1/2, 1)
        spec = self.spec(
            {"kind": "finite", "closed": True, "matrix": {"n": 2, "data": [1, 0, 0, 1]}},
            {"kind": "finite", "closed": True, "matrix": {"n": 2, "data": [5, 0, 0, 2]}})
        code, out, _ = run(capsys, ["interval", "chain", spec])
        assert code == 0
        assert json.loads(out) == {"parity": "even", "steps": [
            {"kind": "translate", "s": {"n": 2, "data": [-1.0, -0.0, -0.0, -1.0]}},
            {"kind": "congruence", "t": {"n": 2, "data": [0.5, 0.0, 0.0, 1.0]}}]}

    @pytest.mark.parametrize("lower,message", [
        ({"kind": "bogus"}, "unknown endpoint kind 'bogus'"),
        ({"kind": "minus_infinity", "closed": True}, "infinite endpoints are always open"),
        ({"kind": "minus_infinity", "matrix": {"n": 2, "data": [5, 0, 0, 5]}},
         "lower endpoint is 'minus_infinity': only a finite endpoint carries a matrix"),
        ({"kind": "minus_infinity", "matrix": "junk"},
         "lower endpoint is 'minus_infinity': only a finite endpoint carries a matrix"),
    ])
    def test_bad_endpoints_exit_two(self, capsys, lower, message):
        code, out, err = run(capsys, ["interval", "chain",
                                      self.spec(lower, {"kind": "plus_infinity"})])
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestTooLarge:
    def test_generator_whose_gram_overflows(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["phi", "invert", '{"n":2,"data":[1e200,0,0,1e200]}'])
        assert code == 2 and out == ""
        assert err == "error: generator scale 1e+200 is too large: T^t T overflows\n"
        with pytest.raises(TooLarge):
            EffectAutomorphism(np.diag([1.0, 1e160]))

    def test_dimension_above_the_cap_is_refused(self, capsys):
        big = cli._MAX_N + 1
        eye = json.dumps({"n": big, "data": np.eye(big).ravel().tolist()})
        for argv in (["order", eye, eye], ["strength", eye, json.dumps([1.0] * big)],
                     ["phi", "invert", eye], ["phi", "probes", str(big)],
                     ["phi", "recover", json.dumps({"n": big, "pairs": []})],
                     ["interval", "classify", json.dumps({
                         "n": big, "lower": {"kind": "minus_infinity"},
                         "upper": {"kind": "plus_infinity"}})]):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == ""
            assert err == f"error: dimension {big} is above the cap of {cli._MAX_N}\n"

    def test_dimension_at_the_cap_is_accepted(self, capsys):
        eye = json.dumps({"n": cli._MAX_N, "data": np.eye(cli._MAX_N).ravel().tolist()})
        code, out, _ = run(capsys, ["order", ZERO_AT_CAP, eye])
        assert code == 0 and json.loads(out) == {"le": True, "lt": True}


class TestDimensionField:
    """A dimension that is not a finite whole number is malformed input
    (exit 2), in every command that reads one from a document; a whole
    number written as a float is still a dimension."""

    @staticmethod
    def argvs(n):
        one = f'{{"n":{n},"data":[1]}}'
        unit = '{"n":1,"data":[1]}'
        return [["order", one, unit],
                ["strength", one, "[1]"],
                ["interval", "classify", f'{{"n":{n},"lower":{{"kind":"minus_infinity"}},'
                                         f'"upper":{{"kind":"plus_infinity"}}}}'],
                ["phi", "recover", f'{{"n":{n},"pairs":[]}}']]

    @pytest.mark.parametrize("n,shown", [("1e400", "inf"), ("-1e400", "-inf"), ("NaN", "nan"),
                                         ("1.5", "1.5"), ("true", "True"), ('"1"', "'1'"),
                                         ('"2"', "'2'")])
    def test_refused_with_exit_two(self, capsys, n, shown):
        for argv in self.argvs(n):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, ""), argv
            assert err == f"error: dimension {shown} is not a whole number\n"

    def test_a_whole_float_is_a_dimension(self, capsys):
        code, out, _ = run(capsys, self.argvs("1.0")[0])
        assert code == 0 and json.loads(out) == {"le": True, "lt": False}


class TestNumberFields:
    """A matrix entry or a direction component is a JSON number that is
    not a boolean and fits in a double, and an endpoint's "closed" is a
    JSON boolean: anything else, and JSON nested too deeply to decode, is
    malformed input (exit 2) with a message naming the entry, by its
    document, key and index, and no warning or traceback."""

    BIG = "1" + "0" * 400                      # a 401-digit integer

    def run_strictly(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run(capsys, argv)

    # Each id names the kind of field and the refusal; the message pinned
    # names the entry itself, by document, key and index.
    @pytest.mark.parametrize("argv, message", [
        pytest.param(["order", '{"n":1,"data":["1e3"]}', '{"n":1,"data":[true]}'],
                     """first input "data"[0] must be a number, got '1e3'""",
                     id="argv0-matrix entries must be numbers, got '1e3'"),
        pytest.param(["order", '{"n":1,"data":[1]}', '{"n":1,"data":[true]}'],
                     'second input "data"[0] must be a number, got True',
                     id="argv1-matrix entries must be numbers, got True"),
        pytest.param(["phi", "apply", '{"n":2,"data":[2,0,0,null]}', HALF],
                     'generator "data"[3] must be a number, got None',
                     id="argv2-matrix entries must be numbers, got None"),
        pytest.param(["order", f'{{"n":1,"data":[{BIG}]}}', '{"n":1,"data":[1]}'],
                     'first input "data"[0] must fit in a double',
                     id="argv3-matrix entries must fit in a double"),
        pytest.param(["order", f'{{"n":1,"data":[-{BIG}]}}', '{"n":1,"data":[1]}'],
                     'first input "data"[0] must fit in a double',
                     id="argv4-matrix entries must fit in a double"),
        pytest.param(["strength", EYE, '["1",true]'], "direction[0] must be a number, got '1'",
                     id="argv5-direction components must be numbers, got '1'"),
        pytest.param(["strength", EYE, '{"x":[1,false]}'], "direction[1] must be a number, got False",
                     id="argv6-direction components must be numbers, got False"),
        pytest.param(["strength", EYE, f"[1,{BIG}]"], "direction[1] must fit in a double",
                     id="argv7-direction components must fit in a double"),
        pytest.param(["strength", EYE, "[1,Infinity]"], "direction[1] must be finite",
                     id="argv8-direction components must be finite"),
        pytest.param(["strength", EYE, "[NaN,1]"], "direction[0] must be finite",
                     id="argv9-direction components must be finite"),
    ])
    def test_a_value_that_is_not_a_number_is_refused(self, capsys, argv, message):
        assert self.run_strictly(capsys, argv) == (2, "", f"error: {message}\n")

    def test_every_double_is_a_number(self, capsys):
        # an integer up to the largest double is read exactly as float() reads it
        top = int(np.finfo(float).max)
        code, out, err = self.run_strictly(capsys, ["order", '{"n":1,"data":[1]}',
                                                    f'{{"n":1,"data":[{top}]}}'])
        assert (code, out, err) == (0, '{"le":true,"lt":true}\n', "")
        code, out, _ = self.run_strictly(capsys, ["strength", EYE, f"[{top},0]"])
        assert (code, out) == (0, '{"alpha":1}\n')

    @pytest.mark.parametrize("closed", ['"false"', '"true"', "0", "1", "null"])
    def test_closed_is_a_boolean(self, capsys, closed):
        spec = ('{"n":1,"lower":{"kind":"finite","closed":true,"matrix":{"n":1,"data":[0]}},'
                f'"upper":{{"kind":"finite","closed":{closed},"matrix":{{"n":1,"data":[1]}}}}}}')
        code, out, err = self.run_strictly(capsys, ["interval", "classify", spec])
        shown = repr(json.loads(closed))
        assert (code, out, err) == (2, "", f'error: upper "closed" must be true or false, '
                                           f"got {shown}\n")

    def test_an_open_endpoint_may_leave_closed_out(self, capsys):
        spec = '{"n":1,"lower":{"kind":"finite","matrix":{"n":1,"data":[0]}},"upper":{"kind":"plus_infinity"}}'
        assert self.run_strictly(capsys, ["interval", "classify", spec]) == (
            0, '{"class":"positive_open"}\n', "")

    @pytest.mark.parametrize("doc", ["[" * 100000 + "]" * 100000,
                                     '{"x":' * 100000 + "1" + "}" * 100000],
                             ids=["arrays", "objects"])
    def test_nesting_past_the_decoder_is_refused(self, capsys, monkeypatch, doc):
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert self.run_strictly(capsys, ["strength", EYE, "-"]) == (
            2, "", "error: JSON input is nested too deeply\n")


class TestDocumentFields:
    """A document that is not a JSON object, or that lacks a key the command
    reads, is malformed input (exit 2) with a message naming the document
    and the key; so is a "data", "pairs" or direction that is not an array,
    and a "data" whose length is not n squared names its document."""

    WHOLE = '{"n":1,"lower":{"kind":"minus_infinity"},"upper":{"kind":"plus_infinity"}}'

    @pytest.mark.parametrize("argv, message", [
        (["order", '{"n":2}', EYE], 'first input has no "data"'),
        (["order", EYE, '{"data":[1]}'], 'second input has no "n"'),
        (["order", "[1]", EYE], 'first input must be a JSON object with "n", got an array'),
        (["order", '{"n":1,"data":5}', EYE], 'first input "data" must be a JSON array, got a number'),
        (["order", '{"n":1,"data":"1"}', EYE],
         'first input "data" must be a JSON array, got a string'),
        (["order", EYE, '{"n":2,"data":[1,0,0]}'],
         'second input "data" length 3 does not match n=2'),
        (["strength", EYE, '{"y":[1,0]}'], 'direction has no "x"'),
        (["strength", EYE, '{"x":{"0":1}}'], "direction must be a JSON array, got an object"),
        (["phi", "apply", "[]", HALF], 'generator must be a JSON object with "n", got an array'),
        (["phi", "compose", GEN_21, '{"n":2}'], 'second generator has no "data"'),
        (["phi", "recover", '{"pairs":[]}'], 'recover payload has no "n"'),
        (["phi", "recover", '{"n":2}'], 'recover payload has no "pairs"'),
        (["phi", "recover", '{"n":2,"pairs":{}}'],
         'recover payload "pairs" must be a JSON array, got an object'),
        (["phi", "recover", '{"n":2,"pairs":[[]]}'],
         'probe pair must be a JSON object with "input", got an array'),
        (["phi", "recover", f'{{"n":2,"pairs":[{{"input":{EYE}}}]}}'], 'probe pair has no "output"'),
        (["interval", "classify", '{"n":1,"upper":{"kind":"plus_infinity"}}'],
         'interval has no "lower"'),
        (["interval", "classify", '{"n":1,"lower":{"kind":"minus_infinity"},"upper":null}'],
         'upper endpoint must be a JSON object with "kind", got null'),
        (["interval", "chain", '{"n":1,"lower":{},"upper":{"kind":"plus_infinity"}}'],
         'lower endpoint has no "kind"'),
        (["interval", "chain", '{"n":1,"lower":{"kind":"finite"},"upper":{"kind":"plus_infinity"}}'],
         'lower endpoint has no "matrix"'),
        (["interval", "map", "[]"], 'map payload must be a JSON object with "interval", got an array'),
        (["interval", "map", '{"x":{"n":1,"data":[1]}}'], 'map payload has no "interval"'),
        (["interval", "map", f'{{"interval":{WHOLE}}}'], 'map payload has no "x"'),
    ])
    def test_refused_naming_the_field(self, capsys, argv, message):
        assert run(capsys, argv) == (2, "", f"error: {message}\n")


class TestImportSet:
    def test_selftest_and_oracle_load_only_for_selftest(self):
        # a cold call compiles and runs every module it imports
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
        for target in ("loewner", "loewner.cli"):
            code = (f"import sys, {target}; "
                    "print([m for m in ('loewner.selftest', 'loewner.oracle') if m in sys.modules])")
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True)
            assert proc.stdout == "[]\n", target


class TestOneParser:
    def test_two_calls_build_the_parser_once(self, capsys, monkeypatch):
        built = []
        build_parser = cli.build_parser

        def counting():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting)
        assert run(capsys, ["order", DIAG_10, DIAG_01])[:2] == (0, golden("order_witness.json"))
        assert run(capsys, ["phi", "invert", GEN_21])[:2] == (0, golden("phi_invert_diag.json"))
        assert len(built) == 1

    def test_import_builds_no_parser(self):
        # a cold start pays for the parser only when main runs
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", "import loewner.cli as c; print(c._parser)"],
                              env=env, capture_output=True, text=True, check=True)
        assert proc.stdout == "None\n"


class TestIntervalTolerance:
    # the closed interval [0, 1e-10 I]: lower < upper holds at psd_tol 1e-12
    # (lambda_min 1e-10 > 1e-12) and fails at the default 1e-9
    TINY_BOX = json.dumps({
        "n": 2,
        "lower": {"kind": "finite", "closed": True, "matrix": {"n": 2, "data": [0, 0, 0, 0]}},
        "upper": {"kind": "finite", "closed": True,
                  "matrix": {"n": 2, "data": [1e-10, 0, 0, 1e-10]}},
    })

    def test_classify_uses_the_tolerance(self, capsys):
        code, out, _ = run(capsys, ["interval", "classify", "--tol", "1e-12", self.TINY_BOX])
        assert code == 0
        assert out == '{"class":"unit_interval"}\n'
        order, _, _ = run(capsys, ["order", "--tol", "1e-12", ZERO,
                                   '{"n":2,"data":[1e-10,0,0,1e-10]}'])
        assert order == 0

    def test_default_tolerance_still_rejects(self, capsys):
        code, out, err = run(capsys, ["interval", "classify", self.TINY_BOX])
        assert code == 2 and out == ""
        assert "lower < upper" in err

    def test_map_inverts_at_the_tolerance(self, capsys):
        # x < 0 at psd_tol 1e-12; the chain (negate, invert) must invert
        # diag(1, 1e-10) at rank_tol 1e-12 as well
        payload = json.dumps({
            "interval": {"n": 2, "lower": {"kind": "minus_infinity"},
                         "upper": {"kind": "finite", "closed": False, "matrix": ZERO_DOC}},
            "x": {"n": 2, "data": [-1, 0, 0, -1e-10]},
        })
        code, out, err = run(capsys, ["interval", "map", "--tol", "1e-12", payload])
        assert code == 0, err
        got = np.array(json.loads(out)["data"]).reshape(2, 2)
        assert np.allclose(got, np.diag([1.0, 1e10]), rtol=1e-15, atol=0.0)


class TestToleranceFloor:
    """--tol sets the base tolerance, which may not go below eig_tol."""

    @staticmethod
    def singular_input():
        # A = Q diag(0, 0, 0.6, 1) Q^t and x = q3 + q4 in its range:
        # strength 1 / (1/0.6 + 1/1) = 0.75
        q = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))[0]
        a = (q * np.array([0.0, 0.0, 0.6, 1.0])) @ q.T
        doc = json.dumps({"n": 4, "data": ((a + a.T) / 2.0).ravel().tolist()})
        return doc, json.dumps((q[:, 2] + q[:, 3]).tolist())

    def test_in_range_answer_at_the_floor(self, capsys):
        a, x = self.singular_input()
        code, out, _ = run(capsys, ["strength", "--tol", "1e-14", a, x])
        assert code == 0
        assert json.loads(out)["alpha"] == pytest.approx(0.75, rel=1e-12)

    def test_below_the_floor_is_refused(self, capsys):
        a, x = self.singular_input()
        code, out, err = run(capsys, ["strength", "--tol", "1e-16", a, x])
        assert code == 2 and out == ""
        assert "eig_tol" in err

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_non_positive_tolerance_is_refused(self, capsys, value):
        code, out, err = run(capsys, ["order", "--tol", value, ZERO, EYE])
        assert code == 2 and out == ""
        assert "tolerance must be strictly positive" in err

    @pytest.mark.parametrize("value", ["1", "10", "1e308", "inf"])
    def test_tolerance_of_one_or_more_is_refused(self, capsys, value):
        # at 1 the rank gate keeps no eigenvalue (strength divided by
        # zero) and the psd gate passes -I (order called I <= 0)
        for argv in (["strength", DIAG_10, "[0,1]"], ["order", EYE, ZERO]):
            code, out, err = run(capsys, argv + ["--tol", value])
            assert (code, out, err) == (2, "", "error: tolerance must be below 1\n")

    def test_probes_take_no_tolerance(self, capsys):
        # the probe set depends on n alone, so `phi probes` has no --tol
        with pytest.raises(SystemExit) as exit_info:
            main(["phi", "probes", "2", "--tol", "1e-9"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


class TestStdinAndFiles:
    def test_file_argument(self, capsys, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(EYE)
        code, out, _ = run(capsys, ["order", ZERO, str(path)])
        assert code == 0
        assert json.loads(out)["le"] is True

    def test_stdin_argument(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(EYE))
        code, out, _ = run(capsys, ["order", ZERO, "-"])
        assert code == 0
        assert json.loads(out)["lt"] is True

    def test_asymmetry_warning(self, capsys):
        code, out, err = run(capsys, ["order", '{"n":2,"data":[1,0.5,0,1]}', EYE])
        assert code == 0
        assert "symmetrized" in err

    def test_a_name_key_does_not_rename_the_warning(self, capsys):
        code, _, err = run(capsys, ["order", '{"n":2,"data":[1,0.5,0,1],"name":"A"}', EYE])
        assert (code, err) == (0, "warning: first input symmetrized on load (asymmetry 0.5)\n")


class TestStableOutput:
    def test_newline_terminated_and_sorted(self, capsys):
        code, out, _ = run(capsys, ["order", ZERO, EYE])
        assert out.endswith("\n")
        doc = json.loads(out)
        assert list(doc) == sorted(doc)

    def test_every_output_reparses_exactly(self, capsys):
        code, out, _ = run(capsys, ["phi", "probes", "3"])
        doc = json.loads(out)
        assert dumps_stable(doc) + "\n" == out

    def test_seventeen_digit_round_trip(self):
        values = [1.0 / 3.0, 0.1, 2.0 ** -52, 1e300, -7.3e-12]
        for v in values:
            assert float(format(v, ".17g")) == v
        assert dumps_stable({"x": 1.0 / 3.0}) == '{"x":0.33333333333333331}'

    def test_rejects_unserializable(self):
        with pytest.raises(TypeError):
            dumps_stable({"x": object()})


def _strict_json(text):
    """json.loads that refuses the Infinity and NaN tokens."""
    def refuse(token):
        raise ValueError(f"non-finite number {token} in the output")
    return json.loads(text, parse_constant=refuse)


class TestAcrossTheDoubleRange:
    """A seeded property over every command that reads matrices: inputs at
    n = 1..5 and n = 8 (both sides of the crossover to LAPACK factorizations),
    their entries scaled by 2^k for k across [-1074, 1023], each direction
    by a power of two of its own. Every run exits with a code of the
    contract, raises nothing past main (no traceback) and warns nothing
    (pytest makes a RuntimeWarning an error); after exit 0 its stdout
    re-parses as JSON with finite numbers."""

    DIMS = (1, 2, 3, 4, 5, 8)
    # the ends of the exponent range, where scaling, overflow and
    # subnormal arithmetic part ways, besides k drawn uniformly
    EDGES = (-1074, -1070, -1060, -1030, -1023, -1000, -600, 0, 600, 1000, 1020, 1023)
    TRIALS = 400

    @staticmethod
    def unit_max(m):
        """m scaled by a power of two so that max |m_ij| lies in [1/2, 1)."""
        top = float(np.max(np.abs(m)))
        return np.ldexp(m, -np.frexp(top)[1]) if top else m

    def matrix(self, rng, n, kind):
        g = rng.standard_normal((n, n))
        if kind == "generator":
            return self.unit_max(g + 2.0 * np.eye(n))
        if kind == "psd":
            m = g @ g.T
        elif kind == "singular":
            v = g[:, :max(1, n // 2)] if n > 1 else np.zeros((1, 1))
            m = v @ v.T
        elif kind == "effect":
            q = np.linalg.qr(g)[0]
            m = (q * rng.uniform(0.0, 1.0, n)) @ q.T
        elif kind == "indefinite":
            m = g + g.T
        else:
            m = np.diag(rng.uniform(0.0, 1.0, n))
        return self.unit_max((m + m.T) / 2.0)

    def exponent(self, rng):
        return int(rng.choice(self.EDGES)) if rng.random() < 0.5 else int(rng.integers(-1074, 1024))

    def argv(self, rng):
        n = int(rng.choice(self.DIMS))
        k = self.exponent(rng)

        def doc(kind, scale=k):
            m = np.ldexp(self.matrix(rng, n, kind), scale)
            return {"n": n, "data": m.ravel().tolist()}

        def text(kind, scale=k):
            return json.dumps(doc(kind, scale))

        symmetric = ("psd", "singular", "effect", "indefinite", "diagonal")
        command = rng.choice(["order", "strength", "apply", "invert", "compose", "classify"])
        if command == "order":
            return ["order", text(rng.choice(symmetric)), text(rng.choice(symmetric))]
        if command == "strength":
            x = np.ldexp(self.unit_max(rng.standard_normal(n)), self.exponent(rng))
            return ["strength", text(rng.choice(symmetric[:3] + ("diagonal",))), json.dumps(x.tolist())]
        if command == "apply":
            effect = text("effect", k if rng.random() < 0.5 else 0)
            return ["phi", "apply", text("generator"), effect]
        if command == "invert":
            return ["phi", "invert", text("generator")]
        if command == "compose":
            return ["phi", "compose", text("generator"), text("generator")]
        ends = [{"kind": "finite", "closed": bool(rng.random() < 0.5), "matrix": doc(kind)}
                for kind in rng.choice(symmetric, 2)]
        if rng.random() < 0.25:
            ends[int(rng.integers(2))] = {"kind": ("minus_infinity", "plus_infinity")[int(rng.integers(2))]}
        return ["interval", "classify", json.dumps({"n": n, "lower": ends[0], "upper": ends[1]})]

    def test_every_command_exits_cleanly(self, capsys):
        rng = np.random.default_rng(61)
        codes = {}
        start = time.perf_counter()
        for _ in range(self.TRIALS):
            argv = self.argv(rng)
            code, out, err = run(capsys, argv)
            assert code in (0, 2, 3, 4, 6), (argv, code, err)
            if code == 0:
                _strict_json(out)
            codes[code] = codes.get(code, 0) + 1
        elapsed = time.perf_counter() - start
        print(f"{self.TRIALS} runs in {elapsed:.2f} s, exit codes {sorted(codes.items())}")
        assert codes.get(0, 0) > self.TRIALS // 4
        assert elapsed < 3.0


class TestMutationFuzzer:
    """A seeded mutation fuzzer over the JSON inputs of the golden commands.

    Each case changes one field of one input document: a value of another
    JSON type; for a number, a 401-digit integer, 1e308 or NaN; a missing
    or an extra key, a wrong "n", an empty list; or, for a whole document,
    nesting too deep to decode. Paths that
    differ only in their list indices form one group, such as
    pairs[*].input.data[*], and the seeded draw takes CASES_PER_GROUP cases
    of every group and mutation, so each shape of field meets each mutation.
    Every case runs main in-process with warnings as errors and must end
    with an exit code of cli._EXIT_CODES or 0, never with an exception; a
    failure prints nothing on stdout and ends stderr with its one error
    line, after any warning lines."""

    GOLDEN_ARGVS = [
        ["order", DIAG_10, DIAG_01],
        ["order", ZERO, EYE],
        ["strength", EYE, "[1,0]"],
        ["phi", "apply", GEN_21, HALF],
        ["phi", "compose", GEN_21, GEN_21],
        ["phi", "invert", GEN_21],
        ["interval", "classify", HALF_OPEN_SPEC],
        ["interval", "chain", HALF_OPEN_SPEC],
        ["interval", "map",
         json.dumps({"interval": json.loads(HALF_OPEN_SPEC), "x": json.loads(HALF)})],
        ["phi", "recover", (GOLDEN / "phi_recover_payload.json").read_text()],
    ]
    HUGE = int("1" + "0" * 400)
    NESTED = "[" * 100000 + "]" * 100000
    SENTINEL = "@nested@"
    DELETE = object()
    CASES_PER_GROUP = 1
    SEED = 24

    @classmethod
    def fields(cls, value, path=()):
        """(path, value) for `value` and every value inside it."""
        yield path, value
        items = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
        for key, child in items:
            yield from cls.fields(child, path + (key,))

    @classmethod
    def replacements(cls, value, path):
        """(mutation, new value) for the field at `path`; DELETE deletes it.
        Nesting is refused while the document is decoded, wherever it is, so
        it replaces only whole documents."""
        swaps = {dict: [[], "x"], list: [{}, "[]"], str: [1, None], bool: [1, "true"],
                 int: ["1", True, None], float: ["1", False, []]}
        yield from (("swap", v) for v in swaps[type(value)])
        if type(value) in (int, float):
            yield from (("huge", cls.HUGE), ("1e308", 1e308), ("nan", float("nan")))
        if not path:
            yield "nested", cls.SENTINEL
        elif type(path[-1]) is str:
            yield "missing", cls.DELETE
        if path[-1:] == ("n",):
            yield from (("wrong n", value + d) for d in (-1, 1, cli._MAX_N))
            yield "wrong n", 0
        if type(value) is dict:
            yield "extra key", {**value, "extra": 1}
        if type(value) is list and value:
            yield "empty list", []

    @classmethod
    def groups(cls):
        """{(command, argument, path with indices as *, mutation): [case, ...]},
        a case being (argv, argument, document, path, new value)."""
        groups = {}
        for argv in cls.GOLDEN_ARGVS:
            command = " ".join(word for word in argv if not word.startswith(("{", "[")))
            for slot, text in enumerate(argv):
                if not text.startswith(("{", "[")):
                    continue
                doc = json.loads(text)
                for path, value in cls.fields(doc):
                    for mutation, new in cls.replacements(value, path):
                        shape = tuple("*" if type(k) is int else k for k in path)
                        groups.setdefault((command, slot, shape, mutation), []).append(
                            (argv, slot, doc, path, new))
        return groups

    @classmethod
    def mutated_argv(cls, argv, slot, doc, path, new):
        """argv with its document at `slot` changed at `path` to `new`
        (deleted if DELETE)."""
        if path:
            doc = copy.deepcopy(doc)
            parent = functools.reduce(lambda d, k: d[k], path[:-1], doc)
            if new is cls.DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = new
        else:
            doc = new
        text = json.dumps(doc).replace(json.dumps(cls.SENTINEL), cls.NESTED)
        return argv[:slot] + [text] + argv[slot + 1:]

    def test_no_mutation_crashes_or_warns(self, capsys):
        rng = np.random.default_rng(self.SEED)
        allowed = {0} | {code for _, code, _ in cli._EXIT_CODES}
        codes = {}
        start = time.perf_counter()
        for group, cases in sorted(self.groups().items(), key=repr):
            for pick in rng.permutation(len(cases))[:self.CASES_PER_GROUP]:
                argv = self.mutated_argv(*cases[pick])
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code, out, err = run(capsys, argv)
                assert code in allowed, (group, code, err)
                lines = err.splitlines()
                if code == 0:
                    _strict_json(out)
                else:
                    assert out == "" and lines[-1].startswith("error: "), (group, err)
                    lines.pop()
                assert all(line.startswith("warning: ") for line in lines), (group, err)
                codes[code] = codes.get(code, 0) + 1
        elapsed = time.perf_counter() - start
        print(f"{sum(codes.values())} cases in {elapsed:.2f} s, exit codes {sorted(codes.items())}")
        assert elapsed < 5.0
