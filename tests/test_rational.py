"""The one number rule: ``_rational.exact`` keeps an int, sends a string
through ``parse_rational`` and anything else through Fraction, and every
constructor that stores a number applies it."""

from fractions import Fraction

import pytest

from ncinv._rational import exact, parse_rational
from ncinv.brackets import BracketExpression, json_rational
from ncinv.freeprob import MomentSequence
from ncinv.symbolic import NcPolynomial


@pytest.mark.parametrize("text, value, kind", [
    ("3", 3, int), ("-7", -7, int), (" +0 ", 0, int),
    ("3/1", 3, Fraction), ("0.5", Fraction(1, 2), Fraction), ("-2/4", Fraction(-1, 2), Fraction),
])
def test_parse_rational_gives_an_int_for_an_integer_literal(text, value, kind):
    got = parse_rational(text, "x")
    assert type(got) is kind and got == value


def test_exact_keeps_ints_and_parses_strings():
    assert type(exact(5)) is int
    assert exact(Fraction(6, 3)) == 2 and type(exact(Fraction(6, 3))) is Fraction
    assert type(exact("12")) is int
    with pytest.raises(ValueError, match="^entry must be an integer"):
        exact("1e3", "entry")


def test_json_rational_keeps_json_ints():
    assert type(json_rational(3, "coefficient")) is int
    assert type(json_rational("3", "coefficient")) is int
    assert json_rational("3/1", "coefficient") == Fraction(3)
    for value in (True, 3.0, None, [3]):
        with pytest.raises(ValueError, match="coefficient must be an integer or a string"):
            json_rational(value, "coefficient")


@pytest.mark.parametrize("build, field", [
    (lambda text: NcPolynomial(1, 1, {(0,): text}), "coefficient"),
    (lambda text: NcPolynomial(1, 1, {(0,): 1}) * text, "scalar"),
    (lambda text: text * NcPolynomial(1, 1, {(0,): 1}), "scalar"),
    (lambda text: BracketExpression(2, 1, {((1, 2),): text}), "coefficient"),
    (lambda text: MomentSequence((1, text)), "moment"),
], ids=["NcPolynomial", "mul", "rmul", "BracketExpression", "MomentSequence"])
def test_constructors_refuse_exponents_naming_the_field(build, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, p/q or a plain decimal"):
        build("1e3")
    assert build("-2/4") == build(Fraction(-1, 2))
