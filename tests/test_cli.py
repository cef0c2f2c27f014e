import io
import json
import time
import warnings

import pytest

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


def test_mult_toric():
    code, out, _ = invoke("mult", "--toric", "power(2; 1/2, 1/2)")
    assert code == 0 and out == "generators: x, y\n"


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


def test_oracle_overflow_is_strict_json(capsys):
    argv = ("oracle", "--op", "orthant", "--toric", "min(10*x, 10*y, 10*z)",
            "--shift", "1,1,1", "--points", "32")

    def reject(constant):
        raise ValueError(f"non-finite JSON number {constant}")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(*argv, "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out, parse_constant=reject)
        assert doc["result"]["verdict"] == "Diverges"
        assert doc["result"]["partial_values"][-1] == [80.0, None]
        assert doc["certificates"]["ratios"][-1] is None
        code, out, err = invoke(*argv)
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "T=80: inf"
    assert capsys.readouterr() == ("", "")


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
