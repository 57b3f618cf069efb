"""Noncommutative polynomials in a_0..a_d and the symbol/restitution map.

A word is a tuple of letter indices (0-based, length m); coefficients are
ints, or Fractions where a rational input or a division makes one.  An
``NcPolynomial`` stores each word packed into one integer, a fixed number of
bytes per letter, first letter highest (``_places`` gives the place values,
``_letters`` decodes a key): restitution builds these keys, the N_+
certificate in ``group_action`` raises a letter by adding its place value,
and printing sorts them.  ``terms``, the dict of tuple words, is a decoded
view, built on first use and never changed.

The letter order a_d > a_(d-1) > ... > a_0 makes the lexicographically
greatest word of a polynomial its leading term, which is how linear
independence of the noncrossing basis is certified: the leading word of the
restitution of a noncrossing pairing counts, interval by interval, the
chords leaving that interval to the right, and distinct noncrossing
pairings give distinct counts.  Packed keys are big-endian and of fixed
width, so their integer order is this word order.  ``iter_noncrossing_basis``
yields the basis one element at a time, in sorted chord order, so a caller
that prints or checks each element in turn holds only one polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from ._rational import exact
from ._value import Value
from .brackets import BracketExpression, BracketMonomial, _iter_nc_matchings, window_of


def _letter_bits(d: int) -> int:
    """Bits per letter of a packed word: as few whole bytes as hold d."""
    return 8 * max(1, (d.bit_length() + 7) // 8)


def _places(d: int, m: int) -> list[int]:
    """The place value of each of the m letters of a packed word, first
    letter highest."""
    bits = _letter_bits(d)
    return [1 << (bits * (m - 1 - i)) for i in range(m)]


def _letters(d: int, m: int):
    """The decoder of packed words of length m over letters 0..d: key -> its
    letters, as bytes while a letter fits one byte, else as a list."""
    bits = _letter_bits(d)
    if bits == 8:
        return lambda key: key.to_bytes(m, "big")
    mask = (1 << bits) - 1
    shifts = range(bits * (m - 1), -1, -bits)
    return lambda key: [key >> s & mask for s in shifts]


class NcPolynomial(Value):
    """A homogeneous noncommutative polynomial: words of length m over
    letters 0..d with int or Fraction coefficients; zero coefficients
    dropped.  Stored as ``_packed``, {packed word: coefficient}."""

    _fields = ("d", "m", "_packed")
    __hash__ = None  # _packed is a dict

    def __init__(self, d: int, m: int, terms=None):
        if d < 0 or m < 0:
            raise ValueError("d and m must be nonnegative")
        places = _places(d, m)
        packed = {}
        for word, coeff in (terms or {}).items():
            word = tuple(word)
            if len(word) != m:
                raise ValueError(f"word {word} has length != {m}")
            if any(not 0 <= k <= d for k in word):
                raise ValueError(f"letter out of range 0..{d} in {word}")
            c = exact(coeff, "coefficient")
            if c:
                packed[sum(map(mul, word, places))] = c
        self._store(d, m, packed)

    @cached_property
    def terms(self) -> dict[tuple[int, ...], int | Fraction]:
        """{word: coefficient}, decoded from ``_packed``."""
        letters = _letters(self.d, self.m)
        return {tuple(letters(key)): c for key, c in self._packed.items()}

    def is_zero(self) -> bool:
        return not self._packed

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        if (self.d, self.m) != (other.d, other.m):
            raise ValueError("mismatched degree or word length")
        packed = dict(self._packed)
        for key, coeff in other._packed.items():
            packed[key] = packed.get(key, 0) + coeff
        return _nonzero(self.d, self.m, packed)

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + (-1) * other

    def __mul__(self, scalar) -> "NcPolynomial":
        c = exact(scalar, "scalar")
        return _nonzero(self.d, self.m, {key: c * v for key, v in self._packed.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"NcPolynomial(d={self.d}, m={self.m}, {self.pretty()!r})"

    def _leading_first(self):
        """(word, coefficient) pairs, leading word first: the keys in
        reverse integer order, each decoded once."""
        letters, packed = _letters(self.d, self.m), self._packed
        return [(letters(key), packed[key]) for key in sorted(packed, reverse=True)]

    def pretty(self) -> str:
        """Human-readable form, leading term first, e.g. 'a1·a0 - a0·a1'."""
        if not self._packed:
            return "0"
        names = [f"a{k}" for k in range(self.d + 1)]
        parts = []
        for word, coeff in self._leading_first():
            mag, monom = str(abs(coeff)), "·".join([names[k] for k in word])
            body = mag if not word else monom if mag == "1" else f"{mag}·{monom}"
            parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
        text = " ".join(parts)
        return text[2:] if text[0] == "+" else f"-{text[2:]}"

    def to_json(self) -> str:
        """The JSON object {"d": d, "m": m, "terms": [{"word": [...],
        "coeff": "p/q"}, ...]}, leading word first, as json.dumps spaces it,
        built one term at a time with no dict per term: words and
        coefficients hold nothing to escape."""
        digits = [str(k) for k in range(self.d + 1)]
        terms = ", ".join([f'{{"word": [{", ".join([digits[k] for k in word])}], '
                           f'"coeff": "{coeff}"}}' for word, coeff in self._leading_first()])
        return f'{{"d": {self.d}, "m": {self.m}, "terms": [{terms}]}}'


def _nonzero(d: int, m: int, packed: dict) -> NcPolynomial:
    """The polynomial of packed words that the package built, zero terms dropped."""
    return NcPolynomial._trusted(d, m, {key: c for key, c in packed.items() if c})


def _expand(b: BracketMonomial) -> dict[int, int]:
    """The integer expansion of one bracket product (see ``restitution``),
    keyed by packed words (``_places``), zero terms kept.

    A letter counts the eta_1 factors taken from its symbol, at most d, so
    adding a place value never carries into the next letter.
    """
    place = _places(b.d, b.m)
    profiles = {0: b.sign}
    for p, q in b.chords:
        # eta_1 from the symbol of p with sign +, or from that of q with sign -.
        at_p, at_q = place[window_of(p, b.d)], place[window_of(q, b.d)]
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, coeff in profiles.items():
            plus, minus = key + at_p, key + at_q
            nxt[plus] = get(plus, 0) + coeff
            nxt[minus] = get(minus, 0) - coeff
        profiles = nxt
    return profiles


def restitution(b) -> NcPolynomial:
    """The noncommutative polynomial whose symbol is the bracket product b.

    Expands prod over chords {p,q} of (eta_{i(p),1} eta_{i(q),2} -
    eta_{i(p),2} eta_{i(q),1}); a term with eta_1-exponents (s_1,...,s_m)
    contributes its sign to the word (s_1,...,s_m).  Linear over
    BracketExpression inputs, whose monomials are summed in integers over
    the common denominator of their coefficients.
    """
    if isinstance(b, BracketExpression):
        denominator = lcm(*(c.denominator for c in b.terms.values()))
        total: dict[int, int] = {}
        get = total.get
        for mono, coeff in b.monomials():
            scale = coeff.numerator * (denominator // coeff.denominator)
            for key, c in _expand(mono).items():
                total[key] = get(key, 0) + scale * c
        if denominator > 1:
            total = {key: Fraction(c, denominator) for key, c in total.items()}
        return _nonzero(b.d, b.m, total)
    return _nonzero(b.d, b.m, _expand(b))


def leading_term(poly: NcPolynomial) -> tuple[int, ...]:
    """The lexicographically greatest word with nonzero coefficient
    (letters ordered a_d > a_(d-1) > ... > a_0)."""
    if not poly._packed:
        raise ValueError("zero polynomial has no leading term")
    return tuple(_letters(poly.d, poly.m)(max(poly._packed)))


def predicted_leading_word(b: BracketMonomial) -> tuple[int, ...]:
    """For a noncrossing monomial, the word whose k-th letter counts the
    chords leaving interval k to a strictly later interval."""
    if not b.is_noncrossing():
        raise ValueError("leading word prediction needs a noncrossing monomial")
    counts = [0] * b.m
    for p, _q in b.chords:
        counts[window_of(p, b.d)] += 1
    return tuple(counts)


def iter_noncrossing_basis(m: int, d: int):
    """Yield the restitutions of the m-partite noncrossing pairings
    (canonical orientation, sign +1) in sorted chord order, each as soon as
    the pairing walk reaches it; never more than one polynomial is held."""
    for chords in _iter_nc_matchings(m * d, d):
        yield restitution(BracketMonomial(m, d, chords, 1))


def noncrossing_basis(m: int, d: int) -> list[NcPolynomial]:
    """Restitutions of all m-partite noncrossing pairings (canonical
    orientation, sign +1); pairwise distinct leading words make them a basis
    of the invariant m-linear forms.  Empty when m*d is odd.  All of
    ``iter_noncrossing_basis`` at once: memory grows with the basis, so
    callers that take one element at a time iterate that instead."""
    return list(iter_noncrossing_basis(m, d))
