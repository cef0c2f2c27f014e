import io
import json
import time
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilcalc.cli import run


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("NIL_NO_COLOR", "1")


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


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


def test_mult_toric_power_beyond_two_to_the_twenty():
    code, out, _ = invoke("mult", "--toric", "power(3000000; 1)")
    assert code == 0 and out == "generators: x^3000000\n"


def test_adj0():
    code, out, _ = invoke("adj0", "--k", "6", "--alpha", "1,1",
                          "--beta", "2,3")
    assert code == 0 and out == "member\n"
    code, out, _ = invoke("adj0", "--k", "6", "--alpha", "1,1",
                          "--beta", "0,5")
    assert code == 0 and out == "not a member\n"


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


def test_json_schema_on_oracle():
    code, out, _ = invoke("oracle", "--op", "orthant", "--toric",
                          "min(2*x, 3*y)", "--shift", "2,1",
                          "--format", "json", "--points", "128")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "Converges"
    assert doc["version"]
    assert doc["inputs"]["A"] == ["2", "1"]


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


@pytest.mark.parametrize("flag", ["--points", "--samples"])
def test_oracle_zero_points_and_samples(flag):
    code, out, _ = invoke(*RADIAL, "2", flag, "0")
    assert code == 2 and out == ""


def test_oracle_samples_above_the_limit():
    code, out, err = invoke("oracle", "--op", "polydisk", "--toric",
                            "min(2*x, 3*y)", "--beta", "0,0",
                            "--samples", "10000001")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "mc_samples" in err


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
    # exact commands never read a seed; the oracle does
    code, _, _ = invoke("lct", "--ideal", "x^2, y^3", "--seed", "1")
    assert code == 2
    code, out, _ = invoke(*RADIAL, "2", "--seed", "7")
    assert code == 0 and out.startswith("verdict: Converges")


# argv for the fuzz below: each subcommand with most of its options, the
# values mostly well-formed (first tuple, in the dimension n of the draw
# where they have one) and sometimes not (second); the oracle always gets
# small --points and --samples, so that no draw runs for long
IDEALS = (("x^2, y^3", "x^3, x*y, y^2", "x^2, y^2, z^2, x*y*z", "y^4, x*y",
           "x*y", "1", "x^5, y^7, x^2*y^3", "x^3"),
          ("0", "x^^2", "x^-1, y", "", "q"))
RATIONALS = (("1", "5/6", "3/2", "7/2", "1/3"),
             ("0", "-1", "1/0", "abc", "1e400", "100000"))
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
          ("--weight", (("plain", "poincare_axis_1"), ())),
          ("--seed", (("0", "7"), ("x",)))) + tail),
        ("oracle --op=radial",
         (("--k", RATIONALS), ("--beta", (VECTORS[1], ("1,1",)))) + tail),
    )


def fuzz_value(draw, values):
    good, bad = values
    malformed = bad and draw(st.integers(0, 5)) == 5
    return draw(st.sampled_from(bad if malformed else good))


@st.composite
def argvs(draw):
    # hypothesis favours small integers, so the rare case is the top one:
    # an option is left out at 7 of 0..7, a malformed value drawn at 5
    command, options = draw(st.sampled_from(
        fuzz_commands(draw(st.integers(1, 3)))))
    argv = command.split()
    for flag, values in options:
        if draw(st.integers(0, 7)) == 7:
            continue
        argv.append(flag if values is None
                    else f"{flag}={fuzz_value(draw, values)}")
    if argv[0] == "oracle":
        argv.append(f"--points={fuzz_value(draw, (('16', '8', '2'), ('0',)))}")
        argv.append("--samples="
                    + fuzz_value(draw, (("1000", "100", "1"), ("0",))))
    if draw(st.booleans()):
        argv.append("--format=json")
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argvs())
def test_run_never_fails_outside_its_exit_codes(argv):
    code, out, err = invoke(*argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code == 0:
        assert err == "", (argv, err)
    if "--format=json" in argv and out:
        json.loads(out, parse_constant=_reject_constant)
