"""Exact rationals read from text at the input boundaries.

One parser for every rational that arrives as a string (bracket-file
coefficients, ``verify --witness-matrix`` entries, cumulant tables): an
integer, ``p/q`` or a plain decimal.  Exponents are refused, because
``Fraction("1e999999999")`` would build that power of ten in full.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL = re.compile(r"\s*[+-]?(\d+/\d+|\d*\.?\d+)\s*")


def parse_rational(text: str, what: str) -> Fraction:
    """The rational written in ``text``; ValueError, naming ``what``, for
    anything but an integer, p/q or a plain decimal, or a zero denominator."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"{what} must be an integer, p/q or a plain decimal, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{what} {text!r} has a zero denominator") from None


def as_rational(value, what: str) -> Fraction:
    """A string through ``parse_rational``; any other value through Fraction."""
    if isinstance(value, str):
        return parse_rational(value, what)
    return Fraction(value)
