"""Text grammar for monomial ideals, rationals and toric functions.

Ideals are comma-separated monomials (`x^2, y^3`), a monomial is a
'*'-separated product of `var` or `var^natural` terms, `1` is the unit
ideal and `0` the zero ideal.  Toric functions are written
`min(2*x + 3*y, x + 1/2, ...)` or `power(k; a1, ..., an)`.  Variables
are taken in order of first appearance unless an explicit name list is
supplied.  Parse errors carry the line, column and offending token.
Three rules read the grammar: `_Tokens.take` reads a token of one kind
or raises the kind it expected, `_Tokens.separated` reads a separated
list, and `_summed` adds exponents and coefficients per variable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, \
    Tuple

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

    def error(self, message: str) -> ParseError:
        """message at the next token, or just past the last one."""
        if self.pos < len(self.items):
            tok, ln, col = self.items[self.pos]
            return ParseError(message, ln, col, tok)
        if self.items:
            tok, ln, col = self.items[-1]
            return ParseError(message, ln, col + len(tok))
        return ParseError(message)

    def take(self, ok: Callable[[str], object], message: str) -> str:
        """The next token if ok accepts it, else message raised at it."""
        tok = self.peek()
        if tok is None or not ok(tok):
            raise self.error("unexpected end of input" if tok is None
                             else message)
        self.pos += 1
        return tok

    def separated(self, item: Callable[[], object], separator: str) -> list:
        """item() once, and again after each separator."""
        items = [item()]
        while self.peek() == separator:
            self.pos += 1
            items.append(item())
        return items

    def next(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None or expected not in (None, tok):
            raise self.error("unexpected end of input" if expected is None
                             else f"expected {expected!r}")
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
        for name in self.names:
            if not _is_name(name):
                raise InputError(f"not a variable name: {name!r}")
        if len(set(self.names)) != len(self.names):
            raise InputError("duplicate variable names")

    def take(self, tokens: _Tokens) -> int:
        """The index of the variable the next token names."""
        name = tokens.take(_is_name, "expected a variable name")
        if name in self.names:
            return self.names.index(name)
        if self.fixed:
            raise tokens.error(f"unknown variable {name!r}")
        self.names.append(name)
        return len(self.names) - 1


def _is_name(tok: Optional[str]) -> bool:
    return tok is not None and re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok)


def _summed(terms: Iterable[tuple]) -> dict:
    """The values of the (key, value) terms added up per key."""
    sums: dict = {}
    for key, value in terms:
        sums[key] = sums.get(key, 0) + value
    return sums


def _parse_rational(tokens: _Tokens) -> Fraction:
    sign = 1
    while tokens.peek() in ("+", "-"):
        if tokens.next() == "-":
            sign = -sign
    value = Fraction(int(tokens.take(str.isdecimal, "expected a number")))
    if tokens.peek() == "/":
        tokens.next()
        value /= int(tokens.take(lambda t: t.isdecimal() and int(t) > 0,
                                 "expected a positive denominator"))
    return sign * value


def parse_rational(text: str) -> Fraction:
    tokens = _Tokens(text)
    value = _parse_rational(tokens)
    tokens.done()
    return value


def _parse_factor(tokens: _Tokens, names: _Names) -> Tuple[int, int]:
    """`var` or `var^natural` as (variable index, exponent)."""
    idx = names.take(tokens)
    if tokens.peek() != "^":
        return idx, 1
    tokens.next()
    return idx, int(tokens.take(str.isdecimal, "expected a natural exponent"))


def _parse_monomial_exponents(tokens: _Tokens, names: _Names) -> dict:
    if tokens.peek() == "1":
        tokens.next()
        return {}
    return _summed(tokens.separated(lambda: _parse_factor(tokens, names),
                                    "*"))


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
    raw = tokens.separated(
        lambda: _parse_monomial_exponents(tokens, names), ",")
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
    return str(Fraction(value))  # "p/q", or "p" for an integer


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


def _parse_addend(tokens: _Tokens, names: _Names
                  ) -> Tuple[Optional[int], Fraction]:
    """`var`, `rational*var` or `rational` as (variable index, coefficient),
    the index None for a constant."""
    if _is_name(tokens.peek()):
        return names.take(tokens), Fraction(1)
    coeff = _parse_rational(tokens)
    if tokens.peek() != "*":
        return None, coeff
    tokens.next()
    return names.take(tokens), coeff


def _parse_affine_piece(tokens: _Tokens, names: _Names
                        ) -> Dict[Optional[int], Fraction]:
    """A sum of addends as its coefficients summed per variable index,
    None for the constant."""
    return _summed(tokens.separated(lambda: _parse_addend(tokens, names),
                                    "+"))


def parse_toric(text: str, variables: Optional[Sequence[str]] = None
                ) -> Tuple[ConcaveToricFunction, List[str]]:
    """`min(...)` or `power(k; a1, ..., an)`, plus the variable list."""
    tokens = _Tokens(text)
    head = tokens.take(lambda t: t in ("min", "power"),
                       "expected 'min' or 'power'")
    if head == "min":
        names = _Names(variables)
        tokens.next("(")
        pieces = tokens.separated(lambda: _parse_affine_piece(tokens, names),
                                  ",")
        tokens.next(")")
        tokens.done()
        n = len(names.names)
        if n == 0:
            raise InputError("a toric function needs at least one variable")
        return pwl_min([(tuple(p.get(i, 0) for i in range(n)), p.get(None, 0))
                        for p in pieces]), names.names
    tokens.next("(")
    k = _parse_rational(tokens)
    tokens.next(";")
    exps = tokens.separated(lambda: _parse_rational(tokens), ",")
    tokens.next(")")
    tokens.done()
    g = power_product(k, exps)
    if variables is None:
        return g, default_variables(g.dimension)
    names = _Names(variables).names
    if len(names) != g.dimension:
        raise InputError("variable list does not match the number of "
                         "exponents")
    return g, names
