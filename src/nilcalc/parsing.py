"""Text grammar for monomial ideals, rationals and toric functions.

Ideals are comma-separated monomials (`x^2, y^3`), a monomial is a
'*'-separated product of `var` or `var^natural` terms, `1` is the unit
ideal and `0` the zero ideal.  Toric functions are written
`min(2*x + 3*y, x + 1/2, ...)` or `power(k; a1, ..., an)`.  Variables
are taken in order of first appearance unless an explicit name list is
supplied.  Parse errors carry the line, column and offending token.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .lp import InputError
from .ideals import MonomialIdeal, minimalize
from .newton import Exponents
from .toric import ConcaveToricFunction, power_product, pwl_min


class ParseError(InputError):
    def __init__(self, message: str, line: int = 1, column: int = 1,
                 token: str = ""):
        shown = f"{message} at line {line}, column {column}"
        if token:
            shown += f" (near {token!r})"
        super().__init__(shown)
        self.line = line
        self.column = column
        self.token = token


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+|[-+*/^(),;]|\S")


class _Tokens:
    def __init__(self, text: str):
        self.items: List[Tuple[str, int, int]] = []
        for ln, line in enumerate(text.split("\n"), start=1):
            for m in _TOKEN_RE.finditer(line):
                self.items.append((m.group(), ln, m.start() + 1))
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.items[self.pos][0] if self.pos < len(self.items) else None

    def location(self) -> Tuple[int, int, str]:
        if self.pos < len(self.items):
            tok, ln, col = self.items[self.pos]
            return ln, col, tok
        if self.items:
            tok, ln, col = self.items[-1]
            return ln, col + len(tok), ""
        return 1, 1, ""

    def error(self, message: str) -> ParseError:
        ln, col, tok = self.location()
        return ParseError(message, ln, col, tok)

    def next(self, expected: Optional[str] = None) -> str:
        if self.pos >= len(self.items):
            raise self.error("unexpected end of input" if expected is None
                             else f"expected {expected!r}")
        tok = self.items[self.pos][0]
        if expected is not None and tok != expected:
            raise self.error(f"expected {expected!r}")
        self.pos += 1
        return tok

    def done(self):
        if self.pos < len(self.items):
            raise self.error("unexpected trailing input")


def default_variables(n: int) -> List[str]:
    if n <= 4:
        return list("xyzw")[:n]
    return [f"z{i + 1}" for i in range(n)]


class _Names:
    """Variable name table, either fixed up front or built by appearance."""

    def __init__(self, fixed: Optional[Sequence[str]]):
        self.fixed = fixed is not None
        self.names: List[str] = list(fixed) if fixed else []
        if len(set(self.names)) != len(self.names):
            raise InputError("duplicate variable names")

    def index(self, name: str, tokens: _Tokens) -> int:
        if name in self.names:
            return self.names.index(name)
        if self.fixed:
            raise tokens.error(f"unknown variable {name!r}")
        self.names.append(name)
        return len(self.names) - 1


def _is_name(tok: Optional[str]) -> bool:
    return tok is not None and re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok)


def _is_natural(tok: Optional[str]) -> bool:
    return tok is not None and tok.isdigit()


def _parse_rational(tokens: _Tokens) -> Fraction:
    sign = 1
    while tokens.peek() in ("+", "-"):
        if tokens.next() == "-":
            sign = -sign
    num = tokens.next()
    if not _is_natural(num):
        tokens.pos -= 1
        raise tokens.error("expected a number")
    value = Fraction(int(num))
    if tokens.peek() == "/":
        tokens.next()
        den = tokens.next()
        if not _is_natural(den) or int(den) == 0:
            tokens.pos -= 1
            raise tokens.error("expected a positive denominator")
        value /= int(den)
    return sign * value


def parse_rational(text: str) -> Fraction:
    tokens = _Tokens(text)
    value = _parse_rational(tokens)
    tokens.done()
    return value


def _parse_monomial_exponents(tokens: _Tokens, names: _Names) -> dict:
    if tokens.peek() == "1":
        tokens.next()
        return {}
    exps: dict = {}
    while True:
        name = tokens.next()
        if not _is_name(name):
            tokens.pos -= 1
            raise tokens.error("expected a variable name")
        idx = names.index(name, tokens)
        power = 1
        if tokens.peek() == "^":
            tokens.next()
            p = tokens.next()
            if not _is_natural(p):
                tokens.pos -= 1
                raise tokens.error("expected a natural exponent")
            power = int(p)
        exps[idx] = exps.get(idx, 0) + power
        if tokens.peek() != "*":
            return exps
        tokens.next()


def parse_monomial(text: str, variables: Optional[Sequence[str]] = None
                   ) -> Tuple[Exponents, List[str]]:
    """A single monomial as an exponent vector plus the variable list."""
    tokens = _Tokens(text)
    names = _Names(variables)
    exps = _parse_monomial_exponents(tokens, names)
    tokens.done()
    n = len(names.names)
    return tuple(exps.get(i, 0) for i in range(n)), names.names


def parse_ideal(text: str, variables: Optional[Sequence[str]] = None
                ) -> Tuple[MonomialIdeal, List[str]]:
    """A comma-separated ideal; `1` is the unit ideal, `0` the zero ideal."""
    tokens = _Tokens(text)
    names = _Names(variables)
    if tokens.peek() == "0":
        tokens.next()
        tokens.done()
        if not names.names:
            raise InputError("the zero ideal needs explicit variable names")
        return MonomialIdeal(len(names.names), ()), names.names
    raw: List[dict] = []
    while True:
        raw.append(_parse_monomial_exponents(tokens, names))
        if tokens.peek() != ",":
            break
        tokens.next()
    tokens.done()
    n = len(names.names)
    if n == 0:
        raise InputError("the unit ideal needs explicit variable names "
                         "to fix the dimension")
    vecs = [tuple(e.get(i, 0) for i in range(n)) for e in raw]
    return minimalize(vecs, n), names.names


def format_rational(value) -> str:
    from math import inf
    if value == inf:
        return "inf"
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else \
        f"{f.numerator}/{f.denominator}"


def format_monomial(beta: Sequence, variables: Sequence[str]) -> str:
    parts = []
    for b, name in zip(beta, variables):
        e = int(b)
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_ideal(ideal: MonomialIdeal, variables: Sequence[str]) -> str:
    if ideal.is_zero:
        return "0"
    return ", ".join(format_monomial(g, variables) for g in ideal.generators)


def _parse_affine_piece(tokens: _Tokens, names: _Names
                        ) -> List[Tuple[Optional[int], Fraction]]:
    """Sum of addends as (variable index or None, coefficient) pairs."""
    addends = []
    while True:
        if _is_name(tokens.peek()):
            name = tokens.next()
            addends.append((names.index(name, tokens), Fraction(1)))
        else:
            coeff = _parse_rational(tokens)
            if tokens.peek() == "*":
                tokens.next()
                name = tokens.next()
                if not _is_name(name):
                    tokens.pos -= 1
                    raise tokens.error("expected a variable name")
                addends.append((names.index(name, tokens), coeff))
            else:
                addends.append((None, coeff))
        if tokens.peek() != "+":
            return addends
        tokens.next()


def parse_toric(text: str, variables: Optional[Sequence[str]] = None
                ) -> Tuple[ConcaveToricFunction, List[str]]:
    """`min(...)` or `power(k; a1, ..., an)`, plus the variable list."""
    tokens = _Tokens(text)
    head = tokens.next()
    if head == "min":
        names = _Names(variables)
        tokens.next("(")
        pieces = []
        while True:
            pieces.append(_parse_affine_piece(tokens, names))
            if tokens.peek() != ",":
                break
            tokens.next()
        tokens.next(")")
        tokens.done()
        n = len(names.names)
        if n == 0:
            raise InputError("a toric function needs at least one variable")
        parsed = []
        for piece in pieces:
            slope = [Fraction(0)] * n
            offset = Fraction(0)
            for idx, coeff in piece:
                if idx is None:
                    offset += coeff
                else:
                    slope[idx] += coeff
            parsed.append((tuple(slope), offset))
        return pwl_min(parsed), names.names
    if head == "power":
        tokens.next("(")
        k = _parse_rational(tokens)
        tokens.next(";")
        exps = [_parse_rational(tokens)]
        while tokens.peek() == ",":
            tokens.next()
            exps.append(_parse_rational(tokens))
        tokens.next(")")
        tokens.done()
        g = power_product(k, exps)
        if variables is not None:
            if len(variables) != g.dimension:
                raise InputError("variable list does not match the number "
                                 "of exponents")
            return g, list(variables)
        return g, default_variables(g.dimension)
    tokens.pos -= 1
    raise tokens.error("expected 'min' or 'power'")
