"""Exact values under one number rule: an int stays an int, and only a
rational input or a real division makes a Fraction.

``exact`` applies the rule to every number a record or a sum of terms
stores: an int as it is, a string through ``parse_rational``, anything else
through Fraction.  The parser reads an integer (an int), ``p/q`` or a plain
decimal (a Fraction, so "3/1" stays one).  Exponents are refused, because
``Fraction("1e999999999")`` would build that power of ten in full.
"""

from __future__ import annotations

import re
import reprlib
from fractions import Fraction

_RATIONAL = re.compile(r"\s*[+-]?(\d+/\d+|\d*\.?\d+)\s*")


def parse_rational(text: str, what: str) -> int | Fraction:
    """The rational written in ``text``, an int for an integer literal;
    ValueError, naming ``what``, for anything but an integer, p/q or a plain
    decimal, or a zero denominator."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"{what} must be an integer, p/q or a plain decimal, "
                         f"got {reprlib.repr(text)}")
    if "/" not in text and "." not in text:
        return int(text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{what} {reprlib.repr(text)} has a zero denominator") from None


def exact(value, what: str = "value") -> int | Fraction:
    """An int as it is; a string through ``parse_rational``, naming ``what``
    in its error; any other number through Fraction."""
    if type(value) is int:
        return value
    return parse_rational(value, what) if isinstance(value, str) else Fraction(value)
