"""Exact values under one number rule: an int stays an int, and only a
rational input or a real division makes a Fraction.

``exact`` applies the rule to every number a record or a sum of terms
stores: an int as it is, a string through ``parse_rational``, anything else
through Fraction.  The parser reads an integer (an int), ``p/q`` or a plain
decimal (a Fraction, so "3/1" stays one).  Exponents are refused, because
``Fraction("1e999999999")`` would build that power of ten in full.

The ``json_*`` readers check the fields of the one JSON document a command
reads, the bracket expression file of ``rewrite``: a missing field or a
value of the wrong type is a ValueError with a message.  JSON floats are
refused, since they are not exact.  Error messages quote the offending
value through ``reprlib.repr``, so a huge input is not echoed in full.
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


def json_field(data, key: str):
    """``data[key]``; ValueError unless data is a JSON object holding key."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with a {key!r} field")
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    return data[key]


def json_list(data, key: str) -> list:
    """``data[key]``, which must be a JSON array."""
    value = json_field(data, key)
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list")
    return value


def json_int(value, what: str) -> int:
    """A JSON integer; booleans and floats are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {reprlib.repr(value)}")
    return value


def json_rational(value, what: str) -> int | Fraction:
    """A JSON integer, or a string read by ``parse_rational``."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f'{what} must be an integer or a string such as "2/3", '
                         f"got {reprlib.repr(value)}")
    return exact(value, what)
