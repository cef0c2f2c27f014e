import random
from fractions import Fraction as F

import pytest

from nilcalc.ideals import minimalize
from nilcalc.parsing import (ParseError, format_ideal, format_monomial,
                             format_rational, parse_ideal, parse_monomial,
                             parse_rational, parse_toric)
from nilcalc.toric import PiecewiseLinearMin, PowerProduct
from nilcalc.lp import InputError


def test_parse_ideal_basic():
    I, names = parse_ideal("x^2, y^3")
    assert names == ["x", "y"]
    assert I.generators == ((F(2), F(0)), (F(0), F(3)))
    I, names = parse_ideal("x*y^2*x", ["x", "y"])  # repeated factor
    assert I.generators == ((F(2), F(2)),)


def test_parse_unit_and_zero():
    I, names = parse_ideal("1", ["x", "y"])
    assert I.is_unit and names == ["x", "y"]
    I, _ = parse_ideal("0", ["x", "y", "z"])
    assert I.is_zero and I.dimension == 3
    assert format_ideal(I, ["x", "y", "z"]) == "0"
    with pytest.raises(InputError):
        parse_ideal("0")
    with pytest.raises(InputError):
        parse_ideal("1")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_ideal("x^2, y^")
    assert err.value.line == 1 and err.value.column == 8
    with pytest.raises(ParseError) as err:
        parse_ideal("x^2 y")
    assert err.value.token == "y"
    with pytest.raises(ParseError):
        parse_ideal("x + y")
    with pytest.raises(ParseError):
        parse_ideal("x^2, z", ["x", "y"])


def test_parse_rational():
    assert parse_rational("5/6") == F(5, 6)
    assert parse_rational("7") == 7
    assert parse_rational("-1/2") == F(-1, 2)
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational("a/b")


def test_format_rational():
    from math import inf
    assert format_rational(F(5, 6)) == "5/6"
    assert format_rational(F(3)) == "3"
    assert format_rational(inf) == "inf"
    # an answer longer than Python prints is refused, not rounded
    with pytest.raises(InputError, match=r"about 10\^4299, longer than"):
        format_rational(F(10 ** 4300, 7))


def test_format_monomial():
    assert format_monomial((2, 0), ["x", "y"]) == "x^2"
    assert format_monomial((1, 1), ["x", "y"]) == "x*y"
    assert format_monomial((0, 0), ["x", "y"]) == "1"
    with pytest.raises(InputError, match=r"about 10\^5000, longer than"):
        format_monomial((10 ** 5000, 1), ["x", "y"])
    I = minimalize([(2, 0), (1, 1), (0, 3)])
    assert format_ideal(I, ["x", "y"]) == "x^2, x*y, y^3"


def test_parse_toric_min():
    g, names = parse_toric("min(2*x, 3*y)")
    assert isinstance(g, PiecewiseLinearMin)
    assert names == ["x", "y"]
    assert g.pieces == (((F(2), F(0)), F(0)), ((F(0), F(3)), F(0)))
    g, _ = parse_toric("min(x + 2*y + 1/2, 3*x + -1)")
    assert g.pieces[0] == ((F(1), F(2)), F(1, 2))
    assert g.pieces[1] == ((F(3), F(0)), F(-1))


def test_parse_toric_power():
    g, names = parse_toric("power(2; 1/2, 1/2)")
    assert isinstance(g, PowerProduct)
    assert g.scale == 2 and g.exponents == (F(1, 2), F(1, 2))
    assert names == ["x", "y"]
    # past four variables, the default names are z1, z2, ...
    _, names = parse_toric("power(1; 1/5, 1/5, 1/5, 1/5, 1/5)")
    assert names == ["z1", "z2", "z3", "z4", "z5"]
    # given names are kept, in order
    _, names = parse_toric("power(2; 1/2, 1/2)", ["u", "v"])
    assert names == ["u", "v"]
    # and checked as in the other grammars
    with pytest.raises(InputError, match="duplicate variable names"):
        parse_toric("power(2; 1/2, 1/2)", ["x", "x"])
    with pytest.raises(InputError, match=r"not a variable name: 'y\^2'"):
        parse_toric("power(1; 1)", ["y^2"])
    with pytest.raises(InputError):
        parse_toric("power(2; 2/3, 2/3)")
    with pytest.raises(ParseError):
        parse_toric("max(x, y)")


def test_parse_monomial():
    # a repeated factor adds up; names appear in order of first use
    assert parse_monomial("x^2*y*x") == ((3, 1), ["x", "y"])
    # 1 is the empty product in the given variables
    assert parse_monomial("1", ["x", "y"]) == ((0, 0), ["x", "y"])


def test_round_trip_property():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 7) for _ in range(n))
                for _ in range(rng.randint(1, 5))]
        I = minimalize(gens, n)
        names = ["x", "y", "z", "w"][:n]
        text = format_ideal(I, names)
        J, got = parse_ideal(text, names)
        assert J == I
        assert got == names


@pytest.mark.parametrize("parse, text, message, line, column, token", [
    (parse_rational, "x", "expected a number", 1, 1, "x"),
    (parse_rational, "1/0", "expected a positive denominator", 1, 3, "0"),
    (parse_rational, "--3/", "unexpected end of input", 1, 5, ""),
    (parse_ideal, "x^y", "expected a natural exponent", 1, 3, "y"),
    (parse_ideal, "x*", "unexpected end of input", 1, 3, ""),
    (parse_ideal, "x^2,\ny^", "unexpected end of input", 2, 3, ""),
    (parse_ideal, "x, 2", "expected a variable name", 1, 4, "2"),
    (parse_toric, "max(x)", "expected 'min' or 'power'", 1, 1, "max"),
    (parse_toric, "min(x) y", "unexpected trailing input", 1, 8, "y"),
    (parse_toric, "min(x +)", "expected a number", 1, 8, ")"),
    (parse_toric, "power(1; 1/2 1/2)", "expected ')'", 1, 14, "1"),
    (parse_toric, "min(x,\n  2*y, 1/0)", "expected a positive denominator",
     2, 10, "0"),
    (parse_monomial, "x**y", "expected a variable name", 1, 3, "*"),
    # a digit that int() does not read is not a number
    (parse_ideal, "x^\u00b2", "expected a natural exponent", 1, 3, "\u00b2"),
    (parse_rational, "1/\u00b2", "expected a positive denominator", 1, 3,
     "\u00b2"),
    # nor is a numeral longer than Python reads (4,300 digits by default)
    pytest.param(parse_rational, "1/" + "9" * 4301,
                 "numeral longer than Python reads (4301 digits)", 1, 3,
                 "9" * 4301, id="long-denominator"),
])
def test_parse_error_sites(parse, text, message, line, column, token):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column, err.value.token) == (
        line, column, token)
    near = f" (near {token!r})" if token else ""
    assert str(err.value) == f"{message} at line {line}, column {column}{near}"
