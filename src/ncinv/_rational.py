"""Exact values read from outside the program: text and parsed JSON.

One parser for every rational that arrives as a string (bracket-file
coefficients, ``verify --witness-matrix`` entries, cumulant tables): an
integer, ``p/q`` or a plain decimal.  Exponents are refused, because
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


def parse_rational(text: str, what: str) -> Fraction:
    """The rational written in ``text``; ValueError, naming ``what``, for
    anything but an integer, p/q or a plain decimal, or a zero denominator."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"{what} must be an integer, p/q or a plain decimal, "
                         f"got {reprlib.repr(text)}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{what} {reprlib.repr(text)} has a zero denominator") from None


def as_rational(value, what: str) -> Fraction:
    """A string through ``parse_rational``; any other value through Fraction."""
    if isinstance(value, str):
        return parse_rational(value, what)
    return Fraction(value)


def exact(value):
    """An int as it is; any other number, or a numeric string, through Fraction."""
    return value if type(value) is int else Fraction(value)


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


def json_rational(value, what: str) -> Fraction:
    """A JSON integer, or a string read by ``parse_rational``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value, what)
    raise ValueError(f'{what} must be an integer or a string such as "2/3", '
                     f"got {reprlib.repr(value)}")
