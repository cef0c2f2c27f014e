import io
import json
import os
import select
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nilcalc
from nilcalc.cli import _ORACLE_OPS, run


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# a child process imports this tree's nilcalc
CHILD_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(
    os.path.dirname(nilcalc.__file__)))


def test_mult_golden():
    code, out, _ = invoke("mult", "--ideal", "x^2, y^3", "--c", "1")
    assert code == 0
    assert out == "generators: x, y\n"


def test_lct_golden():
    code, out, _ = invoke("lct", "--ideal", "x^2, y^3")
    assert code == 0
    assert out == "5/6\n"


def test_adj_golden():
    code, out, _ = invoke("adj", "--ideal", "x^2, y^3", "--c", "1",
                          "--axis", "x")
    assert code == 0
    assert out == "generators: x^2, x*y, y^3\n"


def test_check_adjunction_json():
    code, out, _ = invoke("check-adjunction", "--ideal", "x^2, y^3",
                          "--c", "1", "--axis", "x", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "check-adjunction"
    assert doc["result"]["adj"] == ["x^2", "x*y", "y^3"]
    assert doc["result"]["kernel_exact"] is True
    assert doc["result"]["restriction_exact"] is True
    assert set(doc) == {"command", "inputs", "result", "certificates",
                        "version"}


def test_jump_and_openness():
    code, out, _ = invoke("jump", "--ideal", "x^2, y^3", "--cmax", "7/6")
    assert code == 0 and out == "5/6, 7/6\n"
    code, out, _ = invoke("openness", "--ideal", "x^2, y^3", "--c", "1")
    assert code == 0 and out == "1/12\n"


def test_jump_search_box_is_bounded():
    start = time.perf_counter()
    code, _, err = invoke("jump", "--ideal", "x^2, y^3", "--cmax", "100000")
    assert time.perf_counter() - start < 1
    assert code == 2 and "jump search box has" in err


def test_generator_walk_is_bounded():
    start = time.perf_counter()
    code, _, err = invoke("mult", "--ideal", "x^3000, y^3000, z^3000",
                          "--c", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and "generator walk has 9006001 prefixes" in err


@pytest.mark.parametrize("argv, tail", [
    (("mult", "--ideal", "x, y^10000000", "--c", "1"), "generators: 1\n"),
    (("mult", "--ideal", "x^2, y^100000000", "--c", "1"),
     "generators: x, y^50000000\n"),
    (("mult", "--toric", "power(10; 9/10, 1/10)"), ", y^387420489\n"),
])
def test_long_last_axis_is_answered(argv, tail):
    # the least member on the last axis is a closed form, not a search
    start = time.perf_counter()
    code, out, _ = invoke(*argv)
    assert time.perf_counter() - start < 1
    assert code == 0 and out.endswith(tail)


def test_mult_toric():
    code, out, _ = invoke("mult", "--toric", "power(2; 1/2, 1/2)")
    assert code == 0 and out == "generators: x, y\n"
    # --c is read as a rational, and any spelling of 1 is the toric scale
    for c in ("1", "1/1", "2/2"):
        assert invoke("mult", "--toric", "min(x, y)", "--c", c) == \
            (0, "generators: 1\n", "")
    # --c scales the weight: J(c*g)
    assert invoke("mult", "--toric", "min(2*x, 3*y)", "--c", "5/6") == \
        (0, "generators: x, y\n", "")
    assert invoke("mult", "--toric", "power(2; 1/2, 1/2)", "--c", "3") == \
        (0, "generators: x^9, x^4*y, x^3*y^2, x^2*y^3, x*y^4, y^9\n", "")


@pytest.mark.parametrize("argv", [
    ("mult", "--toric", "power(2; 1/2, 1/2)", "--c", "3/2"),
    ("mult", "--ideal", "y^3, x^2", "--c", "5/6"),
    ("lct", "--ideal", "x^2, y^3"),
    ("jump", "--ideal", "x^2, y^3", "--cmax", "3/2"),
    ("adj", "--ideal", "x^2, y^3", "--c", "5/6", "--axis", "x"),
    ("openness", "--vars", "y,x", "--ideal", "x^2, y^3", "--c", "1/2"),
    ("check-adjunction", "--ideal", "x^2, x*y, y^2", "--c", "7/6",
     "--axis", "y"),
    ("valuation", "--toric", "min(2*x, 3*y)", "--beta", "0,0"),
    ("valuation", "--toric", "power(1; 1, 0)", "--beta", "9,0"),
    ("adj0", "--k", "6", "--alpha", "1,1", "--beta", "2,3")])
def test_inputs_reproduce_the_result(tmp_path, argv):
    # the inputs of a JSON answer, given back as a problem file, give the
    # same document
    code, out, err = invoke(*argv, "--format", "json")
    assert code == 0, err
    inputs = json.loads(out)["inputs"]
    assert invoke_file(tmp_path, argv[0], inputs, "--format", "json") == \
        (code, out, err)


# a numeral of 4,401 digits, longer than Python reads into an int (4,300
# digits by default)
LONG = "1" + "0" * 4400


@pytest.mark.parametrize("argv, message", [
    (("mult", "--toric", "min(2*x, 3*y)", "--c", "0"),
     "scale c must be positive"),
    (("oracle", "--op", "radial", "--k", "1", "--beta", "1,2"),
     "the radial oracle is one-dimensional"),
    (("mult", "--toric", "power(1; 1/2, 1/2)", "--vars", "x,y,z"),
     "variable list does not match the number of exponents"),
    (("lct", "--ideal", "x^2", "--vars", "x,x"), "duplicate variable names"),
    # mult answers for one input, never silently dropping the other
    (("mult", "--ideal", "x^2, y^3", "--toric", "min(x, y)"),
     "--ideal and --toric exclude each other"),
    (("jump", "--ideal", "x^2, y^3", "--cmax", "0"), "c_max must be positive"),
    (("jump", "--ideal", "0", "--vars", "x,y", "--cmax", "1"),
     "the zero ideal has no jumping numbers"),
    (("check-adjunction", "--ideal", "1", "--vars", "x", "--axis", "x"),
     "restriction needs dimension >= 2"),
    (("valuation", "--toric", "min x", "--beta", "0"),
     "expected '(' at line 1, column 5 (near 'x')"),
    (("lct", "--ideal", "x*2"),
     "expected a variable name at line 1, column 3 (near '2')"),
    # z^beta is a monomial only for a natural beta, as in adj0
    (("valuation", "--toric", "min(2*x)", "--beta", "1/2"),
     "exponents must be natural numbers"),
    (("valuation", "--toric", "power(1; 1/2, 1/2)", "--beta", "1/2,3/4"),
     "exponents must be natural numbers"),
    (("valuation", "--toric", "power(1; -1/2)", "--beta", "0"),
     "exponents must be non-negative"),
    (("oracle", "--op", "polydisk", "--toric", "min(2*x, 3*y)", "--beta",
      "1,1,1", "--points", "16"), "dimension mismatch between g and beta"),
    (("oracle", "--op", "polydisk", "--toric", "min(2*x, 3*y)", "--beta",
      "1,1", "--schedule", "0.5,1,2", "--points", "16"),
     "truncation schedule must exceed log 2"),
    (("mult", "--toric", "min(1,2)"),
     "a toric function needs at least one variable"),
    (("mult", "--toric", "min(2*3)"),
     "expected a variable name at line 1, column 7 (near '3')"),
    (("mult", "--toric", "power(2;1/2"), "expected ')' at line 1, column 12"),
    # an option given an empty value is given, not left to its default
    (("mult", "--ideal", "x^2, y^3", "--c", ""),
     "unexpected end of input at line 1, column 1"),
    (("oracle", "--op", "weighted", "--toric", "min(2*x)", "--shift", "3",
      "--eps", "", "--points", "16"),
     "unexpected end of input at line 1, column 1"),
    (("mult", "--toric", ""), "unexpected end of input at line 1, column 1"),
    (("mult", "--ideal", "y^3, x^2", "--vars", ""),
     "not a variable name: ''"),
    (("lct", "--ideal", "x^2", "--input", ""), "cannot read problem file: "),
    # a power product's given names are checked as in the other grammars
    (("mult", "--toric", "power(2; 1/2, 1/2)", "--c", "3", "--vars", "x,x"),
     "duplicate variable names"),
    (("mult", "--toric", "power(1; 1)", "--vars", "y^2"),
     "not a variable name: 'y^2'"),
    # numerals and counts longer than Python reads or prints
    (("lct", "--ideal", f"x^{LONG}"),
     "numeral longer than Python reads (4401 digits) at line 1, column 3"),
    (("jump", "--ideal", "x^2, y^3", "--cmax", LONG),
     "numeral longer than Python reads (4401 digits) at line 1, column 1"),
    (("mult", "--toric", "power(3; 1/10000, 9999/10000)"),
     "the generator walk has about 10^4767 prefixes, more than 1000000"),
    (("jump", "--ideal", "x^2, y^3", "--cmax", "1" + "0" * 2200),
     "the jump search box has about 10^4401 points, more than 1000000"),
    (("mult", "--ideal", "x^1" + "0" * 3000, "--c", "1" + "0" * 3000),
     "the answer holds a number of about 10^6000, longer than Python "
     "prints\n"),
    # a problem is read in order: the --ideal/--toric exclusion before
    # either value, the weight before --beta, c before the axis
    (("mult", "--ideal", "x^", "--toric", "min(x)"),
     "--ideal and --toric exclude each other"),
    (("valuation", "--beta", "0"), "missing required option --toric"),
    (("adj", "--ideal", "x^2, y^3", "--c", "abc", "--axis", "q"),
     "expected a number at line 1, column 1 (near 'abc')"),
])
def test_input_errors(argv, message):
    code, out, err = invoke(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: " + message), err


def test_mult_toric_power_beyond_two_to_the_twenty():
    code, out, _ = invoke("mult", "--toric", "power(3000000; 1)")
    assert code == 0 and out == "generators: x^3000000\n"


def test_adj0(tmp_path):
    code, out, _ = invoke("adj0", "--k", "6", "--alpha", "1,1",
                          "--beta", "2,3")
    assert code == 0 and out == "member\n"
    code, out, _ = invoke("adj0", "--k", "6", "--alpha", "1,1",
                          "--beta", "0,5")
    assert code == 0 and out == "not a member\n"
    # the exponents are positional, so a problem file names no variables
    code, out, err = invoke_file(tmp_path, "adj0", {"variables": "x,y"},
                                 "--k", "6", "--alpha", "1,1", "--beta", "2,3")
    assert (code, out) == (2, "")
    assert err == "error: unknown problem-file field 'variables'\n"


def test_valuation_json():
    code, out, _ = invoke("valuation", "--toric", "min(2*x, 3*y)",
                          "--beta", "0,0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["member"] is False
    assert doc["certificates"]["witness"] == ["1/2", "1/3"]


def test_valuation_power_margin_stays_in_orthant():
    # lam = (10, 1): the margin delta*max(lam) must not exceed min(lam)
    code, out, _ = invoke("valuation", "--toric", "power(1; 1, 0)",
                          "--beta", "9,0")
    assert code == 0 and out == "member (margin 1/10)\n"


def test_oracle_strict_exit_code():
    code, out, _ = invoke("oracle", "--op", "radial", "--k", "5/2",
                          "--beta", "2")
    assert code == 0 and out.startswith("verdict: Converges")
    code, out, _ = invoke("oracle", "--op", "radial", "--k", "1/2",
                          "--beta", "0", "--schedule", "1,2,3", "--strict")
    assert code == 4 and out.startswith("verdict: Inconclusive")
    # exact commands have no verdict to be strict about
    code, _, err = invoke("lct", "--ideal", "x^2, y^3", "--strict")
    assert code == 2 and "--strict" in err


@pytest.mark.parametrize("argv", [
    ("oracle", "--op", "radial", "--k", "5/2", "--beta", "2",
     "--points", "abc"),
    ("lct", "--ideal", "x^2, y^3", "--no-such-flag"),
])
def test_usage_errors_go_to_the_stderr_stream(argv, capsys):
    code, out, err = invoke(*argv)
    assert code == 2 and out == ""
    assert ("abc" if "abc" in argv else "--no-such-flag") in err
    assert capsys.readouterr() == ("", "")


def _reject_constant(constant):
    raise ValueError(f"non-finite JSON number {constant}")


def test_oracle_overflow_is_strict_json(capsys):
    argv = ("oracle", "--op", "orthant", "--toric", "min(10*x, 10*y, 10*z)",
            "--shift", "1,1,1", "--points", "32")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(*argv, "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["result"]["verdict"] == "Diverges"
        assert doc["result"]["partial_values"][-1] == [80.0, None]
        assert doc["certificates"]["ratios"][-1] is None
        code, out, err = invoke(*argv)
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "T=80: inf"
    assert capsys.readouterr() == ("", "")


def test_oracle_consecutive_infinite_increments_diverge():
    # two shells beyond float range in a row still read as growth
    code, out, err = invoke("oracle", "--op", "orthant", "--toric",
                            "min(60*x, 60*y, 60*z)", "--shift", "1,1,1",
                            "--points", "32", "--format", "json", "--strict")
    assert code == 0 and err == ""
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["result"]["verdict"] == "Diverges"
    assert doc["certificates"]["ratios"][1:] == [None, None]


def test_parse_error_exit_code():
    code, _, err = invoke("lct", "--ideal", "x^^2")
    assert code == 2
    assert "line 1" in err and "column" in err


def test_hypothesis_exit_code():
    code, _, err = invoke("adj", "--ideal", "x*y", "--c", "1", "--axis", "x")
    assert code == 3
    assert "hypothesis" in err


def test_unknown_axis():
    code, _, err = invoke("adj", "--ideal", "x^2, y^3", "--c", "1",
                          "--axis", "q")
    assert code == 2


def test_missing_subcommand():
    code, _, _ = invoke()
    assert code == 2


def test_explicit_vars():
    code, out, _ = invoke("mult", "--ideal", "y^3, x^2", "--c", "1",
                          "--vars", "x,y")
    assert code == 0 and out == "generators: x, y\n"


def test_input_file(tmp_path):
    spec = {"command": "lct", "ideal": "x^2, y^3"}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    code, out, _ = invoke("lct", "--input", str(path))
    assert code == 0 and out == "5/6\n"
    # explicit flags win over the file
    code, out, _ = invoke("lct", "--input", str(path), "--ideal", "x^3")
    assert code == 0 and out == "1/3\n"
    # command mismatch is an input error
    code, _, _ = invoke("jump", "--input", str(path), "--cmax", "1")
    assert code == 2


@pytest.mark.parametrize("content,message", [
    (None, "cannot read problem file: "),
    ("{", "problem file is not valid JSON: "),
    ("[]", "problem file must be a JSON object\n"),
    ('{"foo": 1}', "unknown problem-file field 'foo'\n"),
    # a field another subcommand declares is unknown to this one
    ('{"axis": "x"}', "unknown problem-file field 'axis'\n"),
    # and a problem file cannot name another one
    ('{"input": "nonexistent.json", "ideal": "x^2, y^3"}',
     "unknown problem-file field 'input'\n"),
    ('{"format": "xml"}',
     "problem-file field 'format' must be one of text, json\n"),
    # only a flag is a JSON boolean; null is no value of any field
    ('{"ideal": true}', "problem-file field 'ideal' must be a string, a "
     "number or a list of them\n"),
    ('{"ideal": null}', "problem-file field 'ideal' must be a string, a "
     "number or a list of them\n"),
    pytest.param(f'{{"ideal": "x^2, y^3", "cmax": {LONG}}}',
                 "problem file is not valid JSON: ", id="long numeral"),
    ('{"variables": ["x", {}]}', "problem-file field 'variables' must be "
     "a string, a number or a list of them\n"),
    # an empty field is given, as an empty flag is
    ('{"variables": ""}', "not a variable name: ''\n")])
def test_input_file_errors(tmp_path, content, message):
    path = tmp_path / "problem.json"
    if content is not None:
        path.write_text(content)
    code, out, err = invoke("lct", "--ideal", "x^2, y^3", "--input",
                            str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: " + message), err


def test_input_file_list_field(tmp_path):
    # a list joins with commas, so "variables" reads as --vars y,x
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"ideal": "x^2, y^3", "variables": ["y", "x"],
                                "c": "5/6"}))
    code, out, _ = invoke("mult", "--input", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"] == {"ideal": "y^3, x^2", "c": "5/6",
                             "variables": ["y", "x"]}
    assert doc["result"]["generators"] == ["y", "x"]


POLYDISK = ("--toric", "min(2*x, 3*y)", "--beta", "0,1", "--points", "64")


def invoke_file(tmp_path, command, spec, *argv):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    return invoke(command, "--input", str(path), *argv)


@pytest.mark.parametrize("command,spec,flags", [
    # fields whose options have a default: op, format, points, weight
    ("oracle", {"op": "radial", "k": "5/2", "beta": 2},
     ("--op", "radial", "--k", "5/2", "--beta", "2")),
    ("lct", {"ideal": "x^2, y^3", "format": "json"},
     ("--ideal", "x^2, y^3", "--format", "json")),
    ("oracle", {"toric": "min(2*x, 3*y)", "beta": "0,1", "op": "polydisk",
                "points": 64},
     ("--op", "polydisk") + POLYDISK),
    ("oracle", {"toric": "min(2*x, 3*y)", "beta": "0,1", "op": "polydisk",
                "points": 64, "weight": "poincare_axis_1"},
     ("--op", "polydisk", "--weight", "poincare_axis_1") + POLYDISK)])
def test_input_file_fields_with_defaults(tmp_path, command, spec, flags):
    code, out, err = invoke_file(tmp_path, command, spec)
    assert (code, out, err) == invoke(command, *flags)
    assert code == 0


def test_input_file_explicit_flags_win(tmp_path):
    spec = {"toric": "min(2*x, 3*y)", "beta": "0,1", "op": "radial",
            "points": 32, "format": "json"}
    code, out, err = invoke_file(tmp_path, "oracle", spec, "--op", "polydisk",
                                 "--points", "64", "--format", "text")
    assert (code, out, err) == invoke("oracle", "--op", "polydisk",
                                      *POLYDISK)
    assert out.startswith("verdict: ")


@pytest.mark.parametrize("strict, code", [(True, 4), (False, 0),
                                          ("false", 2)])
def test_input_file_strict_is_a_boolean(tmp_path, strict, code):
    spec = {"op": "radial", "k": "1/2", "beta": 0, "schedule": "1,2,3",
            "strict": strict}
    got, out, err = invoke_file(tmp_path, "oracle", spec)
    assert got == code
    if code == 2:
        assert out == "" and err == ("error: problem-file field 'strict' "
                                     "must be true or false\n")
    else:
        assert out.startswith("verdict: Inconclusive") and err == ""


@pytest.mark.parametrize("argv", [
    ("--op", "radial", "--k", "5/2", "--beta", "2"),
    ("--op", "radial", "--k", "1/2", "--beta", "0", "--points", "64",
     "--schedule", "1,2,4"),
    ("--toric", "min(2*x, 3*y)", "--shift", "2,1", "--points", "64"),
    ("--op", "orthant", "--vars", "y,x", "--toric", "min(2*x, 3*y)",
     "--shift", "1,3", "--schedule", "5, 10,20"),
    ("--op", "weighted", "--toric", "min(6*x, 6*y)", "--shift", "2,4",
     "--eps", "1/10", "--points", "64"),
    ("--op", "polydisk", "--toric", "power(1; 1/2, 1/2)", "--beta", "0,0",
     "--points", "64"),
    ("--op", "polydisk", "--toric", "min(2*x, 3*y)", "--beta", "0,1",
     "--weight", "poincare_axis_1")])
def test_oracle_inputs_reproduce_the_result(tmp_path, argv):
    # the inputs record every setting the op read, defaults included, so
    # that given back as a problem file they give the same document
    code, out, err = invoke("oracle", *argv, "--format", "json")
    assert code == 0, err
    inputs = json.loads(out)["inputs"]
    assert {"points", "schedule"} <= set(inputs)
    assert invoke_file(tmp_path, "oracle",
                       dict(inputs, format="json")) == (code, out, err)


def test_oracle_inputs_record_the_defaults():
    _, out, _ = invoke("oracle", "--op", "radial", "--k", "5/2", "--beta",
                       "2", "--format", "json")
    inputs = json.loads(out)["inputs"]
    assert (inputs["points"], inputs["schedule"]) == (512, [10, 20, 40, 80])
    _, out, _ = invoke("oracle", "--op", "polydisk", *POLYDISK[:4],
                       "--format", "json")
    inputs = json.loads(out)["inputs"]
    assert inputs["points"] == 512


def test_json_schema_on_oracle():
    code, out, _ = invoke("oracle", "--op", "orthant", "--toric",
                          "min(2*x, 3*y)", "--shift", "2,1",
                          "--format", "json", "--points", "128")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "Converges"
    assert doc["version"]
    assert doc["inputs"]["A"] == ["2", "1"]


@pytest.mark.parametrize("toric,shift", [("min(2*x, 3*y)", "2,4"),
                                         ("power(1; 1/2, 1/2)", "2,2")])
def test_oracle_weighted(toric, shift):
    # (1 + eps) g scales the slopes, or the factor of the power product
    code, out, _ = invoke("oracle", "--op", "weighted", "--toric", toric,
                          "--shift", shift, "--eps", "1/10", "--points",
                          "128", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "Converges"
    assert doc["inputs"]["A"] == shift.split(",")
    assert doc["inputs"]["eps"] == "1/10"


def test_oracle_weighted_schedule_must_exceed_one():
    code, out, err = invoke("oracle", "--op", "weighted", "--toric",
                            "min(2*x, 3*y)", "--shift", "2,4",
                            "--schedule", "1,2,4")
    assert code == 2 and out == ""
    assert "must exceed 1" in err


RADIAL = ("oracle", "--op", "radial", "--k", "5/2", "--beta")


@pytest.mark.parametrize("schedule", ["nan,20,40", "10,20,inf",
                                      "10,20,1e400"])
def test_oracle_rejects_non_finite_schedule(schedule):
    code, out, err = invoke(*RADIAL, "2", "--schedule", schedule,
                            "--format", "json")
    assert code == 2 and out == ""
    assert "finite" in err


def test_radial_beta_must_be_natural():
    code, out, err = invoke(*RADIAL, "5/2")
    assert code == 2 and out == ""
    assert "natural" in err


@pytest.mark.parametrize("argv, message", [
    # the first box is [log 2, T_1]: reversed at T_1 = 1/2
    (RADIAL + ("2", "--schedule", "0.5,1,2"),
     "truncation schedule must exceed log 2"),
    (("oracle", "--op", "radial", "--k", "0", "--beta", "2"),
     "k must be positive"),
    (("oracle", "--op", "radial", "--k", "-3", "--beta", "2"),
     "k must be positive"),
])
def test_radial_checks_its_inputs(argv, message):
    assert invoke(*argv) == (2, "", f"error: {message}\n")


BIG = "1" + "0" * 400  # beyond float range, about 1.8e308


@pytest.mark.parametrize("op", [
    ("--op", "orthant", "--toric", "min(x)", "--shift", BIG),
    ("--op", "radial", "--k", BIG, "--beta", "2"),
    ("--op", "weighted", "--toric", "min(x)", "--shift", "1", "--eps", BIG),
    ("--op", "weighted", "--toric", f"min({BIG}*x, y)", "--shift", "1,1"),
    ("--op", "orthant", "--toric", f"power({BIG}; 1/2)", "--shift", "1"),
    ("--op", "polydisk", "--toric", f"min({BIG}*x)", "--beta", "0"),
    ("--op", "polydisk", "--toric", "min(x)", "--beta", BIG),
    # beta + 1 is what the quadrature reads, but the error names beta
    ("--op", "radial", "--k", "1", "--beta", BIG),
])
def test_oracle_rationals_beyond_float_range(op):
    assert invoke("oracle", *op) == (
        2, "", f"error: {BIG} is beyond float range\n")


# e^{2(min(x, 2y) - <A, t>)} / x^2 on boxes out to 1e180: the weights
# underflow and the grid overflows, so the increments are NaN (A = 0)
# or decay to an infinite total (A = 1)
FAR_WEIGHTED = ("oracle", "--op", "weighted", "--toric", "min(x, 2*y)",
                "--schedule", "1e160,1e170,1e180", "--points", "64",
                "--format", "json", "--shift")


@pytest.mark.parametrize("shift, rule", [
    ("0,0", "NaN increment"), ("1,1", "decay to an infinite total")])
def test_oracle_non_finite_increments_read_inconclusive(shift, rule):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's RuntimeWarnings included
        code, out, err = invoke(*FAR_WEIGHTED, shift)
        assert (code, err) == (0, "")
        answer = json.loads(out)
        assert answer["result"]["verdict"] == "Inconclusive"
        assert answer["certificates"]["rule"] == rule
        assert invoke(*FAR_WEIGHTED, shift, "--strict") == (4, out, "")


# e^{-8x} (orthant) and e^{-8t}/t^2 (weighted) on boxes out to 1.7e300:
# 512 nodes step by about 1e297 there, so the first node's weight alone
# makes every partial value, and the grid is flagged as too coarse
@pytest.mark.parametrize("op", ["orthant", "weighted"])
def test_oracle_far_schedule_reads_inconclusive(op):
    argv = ("oracle", "--op", op, "--toric", "min(x)", "--shift", "5",
            "--schedule", "1e300,1.5e300,1.7e300")
    code, out, err = invoke(*argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "verdict: Inconclusive"
    assert invoke(*argv, "--strict") == (4, out, "")
    code, out, _ = invoke(*argv, "--format", "json")
    answer = json.loads(out)
    assert code == 0 and answer["result"]["verdict"] == "Inconclusive"
    assert answer["certificates"]["rule"] == "grid coarser than the integrand"


@pytest.mark.parametrize("flag", ["--points"])
def test_oracle_zero_points_and_samples(flag):
    # to ops that read the setting, so OracleConfig refuses the 0
    for op in (RADIAL + ("2",), ("oracle", "--op", "polydisk", "--toric",
                                  "min(2*x, 3*y)", "--beta", "0,0")):
        code, out, err = invoke(*op, flag, "0")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "must lie in" in err


def test_oracle_points_above_the_limit():
    # refused before numpy allocates anything
    code, out, err = invoke(*RADIAL, "2", "--points", "100000000000")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "quadrature_points_per_axis" in err


@pytest.mark.parametrize("toric,verdict", [
    ("power(1; 1/2, 1/2)", "Converges"), ("power(4; 1/2, 1/2)", "Diverges")])
def test_oracle_polydisk_power_product(toric, verdict):
    code, out, _ = invoke("oracle", "--op", "polydisk", "--toric", toric,
                          "--beta", "0,0", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == verdict


def test_non_numeric_schedule_is_an_input_error():
    code, out, err = invoke(*RADIAL, "2", "--schedule", "10,abc,40")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_threads_and_seed_flags():
    code, _, _ = invoke("lct", "--ideal", "x^2, y^3", "--threads", "2")
    assert code == 2
    # no command reads a seed: the exact ones, and the oracle ops, which
    # are all deterministic quadratures
    code, _, _ = invoke("lct", "--ideal", "x^2, y^3", "--seed", "1")
    assert code == 2
    # nor does adj0 read variable names
    code, _, err = invoke("adj0", "--k", "6", "--alpha", "1,1", "--beta",
                          "2,3", "--vars", "x,y")
    assert code == 2 and "--vars" in err
    for op in ("radial", "polydisk"):
        code, out, err = invoke("oracle", "--op", op, "--seed", "7")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --seed 7" in err


# valid values of every option that some oracle op reads, and for each op
# an argv giving only options it reads
ORACLE_VALUES = {"--vars": "x", "--toric": "min(2*x)", "--shift": "5",
                 "--points": "16", "--eps": "1/10", "--k": "5/2",
                 "--beta": "2", "--weight": "plain"}
# the Monte Carlo settings, which `nil oracle` no longer has
RETIRED = {"--seed": "7", "--samples": "100"}
ORACLE_BASE = {
    "radial": ("--k", "--beta", "--points"),
    "orthant": ("--toric", "--shift", "--points"),
    "weighted": ("--toric", "--shift", "--points", "--eps"),
    "polydisk": ("--toric", "--beta", "--points")}
REFUSED = [(op, name) for op, reads in _ORACLE_OPS.items()
           for name in {**ORACLE_VALUES, **RETIRED} if name not in reads]


def test_oracle_ops_read_their_base_options():
    assert len(REFUSED) == 23
    for op, names in ORACLE_BASE.items():
        argv = [f"{n}={ORACLE_VALUES[n]}" for n in names]
        code, out, err = invoke("oracle", "--op", op, *argv)
        assert code == 0 and out.startswith("verdict: Converges"), err


@pytest.mark.parametrize("op, name", REFUSED)
@pytest.mark.parametrize("source", ["flag", "file"])
def test_oracle_op_refuses_what_it_does_not_read(tmp_path, op, name, source):
    argv = [f"{n}={ORACLE_VALUES[n]}" for n in ORACLE_BASE[op]]
    value = {**ORACLE_VALUES, **RETIRED}[name]
    if source == "flag":
        code, out, err = invoke("oracle", "--op", op, name, value, *argv)
    else:
        code, out, err = invoke_file(tmp_path, "oracle", {
            "op": op, name[2:]: value}, *argv)
    assert (code, out) == (2, "")
    if name not in RETIRED:
        assert err == f"error: --op {op} does not take {name}\n"
    elif source == "flag":
        assert err.endswith(f"unrecognized arguments: {name} {value}\n")
    else:  # a saved answer of the Monte Carlo oracle
        assert err == f"error: unknown problem-file field '{name[2:]}'\n"


def test_main_exits_with_the_run_code():
    # the `nil` console script calls main(), which exits with run's code
    for ideal, code, out in (("x^2, y^3", 0, "5/6\n"), ("x^", 2, "")):
        proc = subprocess.run(
            [sys.executable, "-c", "from nilcalc.cli import main; main()",
             "lct", "--ideal", ideal],
            capture_output=True, text=True, env=CHILD_ENV, timeout=120)
        assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
        assert (proc.stderr == "") == (code == 0)


def test_closed_pipe_ends_without_a_traceback():
    # a ~300 KB answer line; the reader takes 10 bytes and leaves
    proc = subprocess.Popen(
        [sys.executable, "-m", "nilcalc.cli", "mult", "--ideal",
         "x^5, y^7, z^6, x^2*y^3*z", "--c", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in err, err


def test_module_runs_nil():
    proc = subprocess.run(
        [sys.executable, "-m", "nilcalc.cli", "lct", "--ideal", "x^2, y^3"],
        capture_output=True, text=True, env=CHILD_ENV, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "5/6\n", "")


ORACLE_ON_FIRST_USE = """
import io, sys
from nilcalc import cli
assert cli.run(["lct", "--ideal", "x^2, y^3"], stdout=io.StringIO()) == 0
# an oracle option its op does not read is refused before numpy loads
assert cli.run(["oracle", "--op", "radial", "--k", "5/2", "--beta", "2",
                "--weight", "plain"], stderr=io.StringIO()) == 2
assert "numpy" not in sys.modules
import nilcalc
from nilcalc import polydisk_mc
assert nilcalc.OracleConfig().quadrature_points_per_axis == 512
assert callable(polydisk_mc)
out = io.StringIO()
assert cli.run(["oracle", "--op", "radial", "--k", "5/2", "--beta", "2"],
               stdout=out) == 0
assert out.getvalue().startswith("verdict: Converges"), out.getvalue()
assert "numpy" in sys.modules
"""


def test_exact_commands_leave_numpy_unloaded():
    # only the oracle needs numpy; the package and the CLI load it on
    # first use
    proc = subprocess.run([sys.executable, "-c", ORACLE_ON_FIRST_USE],
                          capture_output=True, text=True, env=CHILD_ENV,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def _terminal_stdout(command):
    """The bytes `command` writes to a pseudo-terminal as its stdout."""
    master, slave = os.openpty()
    try:
        proc = subprocess.Popen(command, stdout=slave, env=CHILD_ENV)
    finally:
        os.close(slave)  # the child holds its own copy
    try:
        chunks = []
        while select.select([master], [], [], 120)[0]:
            try:
                chunk = os.read(master, 4096)
            except OSError:  # EIO: the child closed the terminal
                break
            if not chunk:
                break
            chunks.append(chunk)
        assert proc.wait(timeout=120) == 0
    finally:
        os.close(master)
    return b"".join(chunks)


@pytest.mark.skipif(not hasattr(os, "openpty"),
                    reason="no pseudo-terminals on this platform")
@pytest.mark.parametrize("argv", [
    ("mult", "--ideal", "x^2, y^3", "--c", "5/6"),
    ("oracle", "--op", "radial", "--k", "5/2", "--beta", "2")])
def test_terminal_output_is_the_piped_output(argv):
    command = [sys.executable, "-c", "from nilcalc.cli import main; main()",
               *argv]
    piped = subprocess.run(command, capture_output=True, env=CHILD_ENV,
                           timeout=120, check=True).stdout
    # the terminal maps each newline to \r\n
    assert _terminal_stdout(command).replace(b"\r\n", b"\n") == piped


# argv for the fuzz below: each subcommand with most of its options, the
# values mostly well-formed (first tuple, in the dimension n of the draw
# where they have one) and sometimes not (second); the oracle always gets
# small --points, so that no draw runs for long
IDEALS = (("x^2, y^3", "x^3, x*y, y^2", "x^2, y^2, z^2, x*y*z", "y^4, x*y",
           "x*y", "1", "x^5, y^7, x^2*y^3", "x^3"),
          ("0", "x^^2", "x^-1, y", "", "q"))
RATIONALS = (("1", "5/6", "3/2", "7/2", "1/3"),
             ("0", "-1", "1/0", "abc", "1e400", "100000", LONG))
TORIC = {1: ("min(4*x)", "min(2*x, x + 1)", "power(1; 1/2)"),
         2: ("min(2*x, 3*y)", "min(2*x + y, x + 3*y, 1/2)",
             "power(2; 1/2, 1/2)", "power(1; 1, 0)", "power(1; 1/3, 1/3)"),
         3: ("min(x, y, z)", "min(3*x, 2*y + z, 4*z)",
             "power(1; 1/3, 1/3, 1/3)", "power(2; 1/2, 0, 1/4)")}
BAD_TORIC = ("min()", "max(x)", "power(0; 1)", "min(-x, y)")
VECTORS = {1: ("1", "3", "1/2", "0"), 2: ("1,1", "2,3", "1/2,2", "0,0"),
           3: ("1,1,1", "2,1,3", "1/2,1,1")}
BAD_VECTORS = ("-1,1", "a,b", "", "1,1,1,1,1")
AXES = (("x", "y"), ("z", "q"))


def fuzz_commands(n):
    """(subcommand, options) pairs, values in n dimensions; an option's
    values are a pair (well-formed, malformed), None for a bare flag."""
    toric, vectors = (TORIC[n], BAD_TORIC), (VECTORS[n], BAD_VECTORS)
    tail = (("--schedule", (("10,20,40", "1,2,3", "5,10,20,40"),
                            ("5,10", "40,20,10", "nan,20,40", "1,x,3"))),
            ("--strict", None))
    return (
        ("mult", (("--ideal", IDEALS), ("--c", RATIONALS))),
        ("mult", (("--toric", toric),)),
        ("adj", (("--ideal", IDEALS), ("--c", RATIONALS), ("--axis", AXES))),
        ("adj0", (("--k", RATIONALS), ("--alpha", vectors),
                  ("--beta", vectors))),
        ("lct", (("--ideal", IDEALS),)),
        ("jump", (("--ideal", IDEALS), ("--cmax", RATIONALS))),
        ("openness", (("--ideal", IDEALS), ("--c", RATIONALS))),
        ("valuation", (("--toric", toric), ("--beta", vectors))),
        ("check-adjunction", (("--ideal", IDEALS), ("--c", RATIONALS),
                              ("--axis", AXES))),
        ("oracle --op=orthant",
         (("--toric", toric), ("--shift", vectors)) + tail),
        ("oracle --op=weighted",
         (("--toric", toric), ("--shift", vectors), ("--eps", RATIONALS))
         + tail),
        ("oracle --op=polydisk",
         (("--toric", toric), ("--beta", vectors),
          ("--weight", (("plain", "poincare_axis_1"), ()))) + tail),
        ("oracle --op=radial",
         (("--k", RATIONALS), ("--beta", (VECTORS[1], ("1,1",)))) + tail),
    )


# every subcommand row of the fuzz in every dimension, drawn as one choice
# so that each row comes up about equally often
FUZZ_ROWS = list(dict.fromkeys(row for n in (1, 2, 3)
                               for row in fuzz_commands(n)))


def fuzz_argv(command, options, value, omit=lambda: False):
    """The argv of a fuzz row: value(values) picks an option's value, and
    omit() leaves an option out.  An oracle op always gets a small
    --points."""
    argv = command.split()
    for flag, values in options:
        if not omit():
            argv.append(flag if values is None
                        else f"{flag}={value(values)}")
    if argv[0] == "oracle":
        argv.append(f"--points={value((('16', '8', '2'), ('0',)))}")
    return argv


@st.composite
def argvs(draw):
    # a generator seeded by the draw picks the row and the values: an
    # option is left out one time in 8, a malformed value drawn one time
    # in 6
    rng = draw(st.randoms(use_true_random=False))

    def value(values):
        good, bad = values
        return rng.choice(bad if bad and rng.randrange(6) == 0 else good)

    argv = fuzz_argv(*rng.choice(FUZZ_ROWS), value,
                     omit=lambda: rng.randrange(8) == 0)
    if rng.randrange(2):
        argv.append("--format=json")
    return argv


@pytest.mark.parametrize("command, options", FUZZ_ROWS)
def test_fuzz_rows_with_good_values_succeed(command, options):
    # each row of the fuzz, every option at its first well-formed value
    argv = fuzz_argv(command, options, lambda values: values[0][0])
    code, _, err = invoke(*argv)
    assert (code, err) == (0, ""), argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_run_never_fails_outside_its_exit_codes(argv):
    code, out, err = invoke(*argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code == 0:
        assert err == "", (argv, err)
    if "--format=json" in argv and out:
        json.loads(out, parse_constant=_reject_constant)
