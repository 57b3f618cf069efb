"""Noncommutative polynomials in a_0..a_d and the symbol/restitution map.

Words are tuples of letter indices (0-based, length m); coefficients are
exact Fractions.  Only restitution's inner loop packs a word into one
integer, a fixed number of bytes per letter; no other module sees that
format.

The letter order a_d > a_(d-1) > ... > a_0 makes the lexicographically
greatest word of a polynomial its leading term, which is how linear
independence of the noncrossing basis is certified: the leading word of the
restitution of a noncrossing pairing counts, interval by interval, the
chords leaving that interval to the right, and distinct noncrossing
pairings give distinct counts.  ``iter_noncrossing_basis`` builds the basis
one element at a time, so a caller that prints or checks each element in
turn holds only one polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .brackets import BracketExpression, BracketMonomial
from .partitions import _iter_nc_matchings


class NcPolynomial:
    """A homogeneous noncommutative polynomial: words of length m over
    letters 0..d with Fraction coefficients; zero coefficients dropped."""

    __slots__ = ("d", "m", "terms")

    def __init__(self, d: int, m: int, terms=None):
        if d < 0 or m < 0:
            raise ValueError("d and m must be nonnegative")
        self.d = d
        self.m = m
        clean: dict[tuple[int, ...], Fraction] = {}
        for word, coeff in (terms or {}).items():
            word = tuple(word)
            if len(word) != m:
                raise ValueError(f"word {word} has length != {m}")
            if any(not 0 <= k <= d for k in word):
                raise ValueError(f"letter out of range 0..{d} in {word}")
            c = Fraction(coeff)
            if c:
                clean[word] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, d: int, m: int, terms: dict) -> "NcPolynomial":
        """Wrap terms the package built itself: tuple words of length m over
        0..d, nonzero Fraction coefficients.  Nothing is re-checked."""
        poly = object.__new__(cls)
        poly.d, poly.m, poly.terms = d, m, terms
        return poly

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        return (self.d, self.m) == (other.d, other.m) and self.terms == other.terms

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        if (self.d, self.m) != (other.d, other.m):
            raise ValueError("mismatched degree or word length")
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            terms[word] = terms.get(word, Fraction(0)) + coeff
        return NcPolynomial(self.d, self.m, terms)

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + (-1) * other

    def __mul__(self, scalar) -> "NcPolynomial":
        c = Fraction(scalar)
        return NcPolynomial(self.d, self.m, {w: c * v for w, v in self.terms.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"NcPolynomial(d={self.d}, m={self.m}, {self.pretty()!r})"

    def pretty(self) -> str:
        """Human-readable form, leading term first, e.g. 'a1·a0 - a0·a1'."""
        if not self.terms:
            return "0"
        letters = [f"a{k}" for k in range(self.d + 1)]
        parts = []
        for word in sorted(self.terms, reverse=True):
            coeff = self.terms[word]
            num, den = coeff.numerator, coeff.denominator
            negative = num < 0
            if negative:
                num = -num
            mag = str(num) if den == 1 else f"{num}/{den}"
            if not word:
                body = mag
            else:
                monom = "·".join([letters[k] for k in word])
                body = monom if mag == "1" else f"{mag}·{monom}"
            if parts:
                parts.append(f"- {body}" if negative else f"+ {body}")
            else:
                parts.append(f"-{body}" if negative else body)
        return " ".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "m": self.m,
            "terms": [
                {"word": list(word), "coeff": str(self.terms[word])}
                for word in sorted(self.terms, reverse=True)
            ],
        }


def _expand(b: BracketMonomial) -> dict[int, int]:
    """The integer expansion of one bracket product (see ``restitution``),
    keyed by words packed into integers: _letter_width(d) bytes per letter,
    first letter highest.

    A letter counts the eta_1 factors taken from its symbol, at most d, so
    adding a place value never carries into the next letter.
    """
    bits = 8 * _letter_width(b.d)
    place = [1 << (bits * (b.m - 1 - i)) for i in range(b.m)]
    profiles = {0: b.sign}
    for p, q in b.chords:
        # eta_1 from the symbol of p with sign +, or from that of q with sign -.
        at_p, at_q = place[b.interval(p)], place[b.interval(q)]
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, coeff in profiles.items():
            plus, minus = key + at_p, key + at_q
            nxt[plus] = get(plus, 0) + coeff
            nxt[minus] = get(minus, 0) - coeff
        profiles = nxt
    return profiles


def _letter_width(d: int) -> int:
    return max(1, (d.bit_length() + 7) // 8)


def _unpack(d: int, m: int, profiles: dict[int, int], denominator: int) -> NcPolynomial:
    """The polynomial with coefficient c / denominator on each packed word."""
    width = _letter_width(d)
    size = width * m
    # Few distinct coefficients occur; build each Fraction once and share it.
    values = {c: Fraction(c, denominator) for c in set(profiles.values()) if c}
    terms: dict[tuple[int, ...], Fraction] = {}
    for key, c in profiles.items():
        if c:
            raw = key.to_bytes(size, "big")
            word = tuple(raw) if width == 1 else tuple(
                int.from_bytes(raw[i:i + width], "big") for i in range(0, size, width))
            terms[word] = values[c]
    return NcPolynomial._trusted(d, m, terms)


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
        return _unpack(b.d, b.m, total, denominator)
    return _unpack(b.d, b.m, _expand(b), 1)


def leading_term(poly: NcPolynomial) -> tuple[int, ...]:
    """The lexicographically greatest word with nonzero coefficient
    (letters ordered a_d > a_(d-1) > ... > a_0)."""
    if not poly.terms:
        raise ValueError("zero polynomial has no leading term")
    return max(poly.terms)


def predicted_leading_word(b: BracketMonomial) -> tuple[int, ...]:
    """For a noncrossing monomial, the word whose k-th letter counts the
    chords leaving interval k to a strictly later interval."""
    if not b.is_noncrossing():
        raise ValueError("leading word prediction needs a noncrossing monomial")
    counts = [0] * b.m
    for p, _q in b.chords:
        counts[b.interval(p)] += 1
    return tuple(counts)


def iter_noncrossing_basis(m: int, d: int):
    """Yield the restitutions of the m-partite noncrossing pairings
    (canonical orientation, sign +1) one at a time, in sorted chord order.
    Only the sorted chord tuples are held, never more than one polynomial."""
    for chords in sorted(_iter_nc_matchings(m * d, d)):
        yield restitution(BracketMonomial(m, d, chords, 1))


def noncrossing_basis(m: int, d: int) -> list[NcPolynomial]:
    """Restitutions of all m-partite noncrossing pairings (canonical
    orientation, sign +1); pairwise distinct leading words make them a basis
    of the invariant m-linear forms.  Empty when m*d is odd.  All of
    ``iter_noncrossing_basis`` at once: memory grows with the basis, so
    callers that take one element at a time iterate that instead."""
    return list(iter_noncrossing_basis(m, d))
