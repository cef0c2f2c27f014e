"""Fraction references for the integer exponent kernel: an ideal with its
generators as Fraction tuples, as `MonomialIdeal` held them before they
became int tuples, and the openness margin as half the least of the
Fraction margins critical_scale(P, beta + 1)/c - 1 over the generators
beta of J(ideal^c), before the least ratio was found by
cross-multiplication."""

from fractions import Fraction

from nilcalc.ideals import MonomialIdeal, multiplier_ideal
from nilcalc.newton import critical_scale


def fraction_ideal(ideal: MonomialIdeal) -> MonomialIdeal:
    """The same ideal with every exponent a Fraction."""
    return MonomialIdeal(ideal.dimension, tuple(
        tuple(Fraction(v) for v in g) for g in ideal.generators))


def openness_margin(ideal: MonomialIdeal, c) -> Fraction:
    c = Fraction(c)
    if ideal.is_unit:
        return Fraction(1)
    return min(critical_scale(ideal, [b + 1 for b in beta]) / c - 1
               for beta in multiplier_ideal(ideal, c).generators) / 2
