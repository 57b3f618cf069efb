"""Signed products of pair brackets and crossing-removal rewriting.

A monomial is a product of brackets <y_i y_j>, one slot pair per chord of a
pair partition of [md] (slot (i-1)d+k is the k-th occurrence of the symbol
y_i).  Chords are stored with each pair increasing and the antisymmetry sign
folded into a single +-1 on the monomial, so the rewriting loop never touches
orientation.  Expressions keep exact Fraction coefficients on sign-stripped
canonical monomials.

Rewriting replaces a crossing chord pair by the disjoint plus the nested
resolution; the total crossing count drops in every branch, which is checked
at each step (also under ``python -O``) and makes termination a
runtime-checked invariant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ._rational import parse_rational


class VanishingBracketError(ValueError):
    """Raised for a vanishing bracket pairing two slots of one symbol."""


def _interval(slot: int, d: int) -> int:
    return (slot - 1) // d


def _total_crossings(chords) -> int:
    count = 0
    for (a, b), (c, e) in itertools.combinations(chords, 2):
        if a < c < b < e or c < a < e < b:
            count += 1
    return count


def _crossings_between(chords, others) -> int:
    """Crossing pairs made of one chord of ``chords`` and one of ``others``."""
    return sum(1 for a, b in chords for c, e in others if a < c < b < e or c < a < e < b)


def _crossing_quads(chords) -> list[tuple[int, int, int, int]]:
    """All quadruples (i, i', j, j') of crossing chord pairs {i,j}, {i',j'}."""
    quads = []
    for (a, b), (c, e) in itertools.combinations(chords, 2):
        if a < c < b < e:
            quads.append((a, c, b, e))
        elif c < a < e < b:
            quads.append((c, a, e, b))
    quads.sort()
    return quads


def _nesting_quads(chords) -> list[tuple[int, int, int, int]]:
    """All quadruples (i, i', j', j) of nested chord pairs {i,j} > {i',j'}."""
    quads = []
    for (a, b), (c, e) in itertools.combinations(chords, 2):
        if a < c < e < b:
            quads.append((a, c, e, b))
        elif c < a < b < e:
            quads.append((c, a, b, e))
    quads.sort()
    return quads


@dataclass(frozen=True)
class BracketMonomial:
    """A signed product of brackets: chords on [md], each symbol in d slots."""

    m: int
    d: int
    chords: tuple[tuple[int, int], ...]
    sign: int = 1

    def __post_init__(self) -> None:
        if self.m < 0 or self.d < 0:
            raise ValueError("m and d must be nonnegative")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        chords = tuple(sorted(tuple(sorted(pair)) for pair in self.chords))
        object.__setattr__(self, "chords", chords)
        n = self.m * self.d
        support = sorted(x for pair in chords for x in pair)
        if len(support) != n or support != list(range(1, n + 1)):
            raise ValueError(f"chords do not form a perfect matching of 1..{n}")
        for p, q in chords:
            if p == q or _interval(p, self.d) == _interval(q, self.d):
                raise VanishingBracketError(
                    f"vanishing bracket: slots {p},{q} belong to one symbol"
                )

    def interval(self, slot: int) -> int:
        """0-based index of the symbol owning a slot."""
        return _interval(slot, self.d)

    def crossing_count(self) -> int:
        return _total_crossings(self.chords)

    def is_noncrossing(self) -> bool:
        return self.crossing_count() == 0


def from_pairs(m: int, d: int, pairs) -> BracketMonomial:
    """Build a canonical monomial from oriented slot pairs.

    Each pair given in decreasing orientation flips the sign once
    (antisymmetry <v1 v2> = -<v2 v1>).
    """
    pairs = [tuple(pair) for pair in pairs]
    flips = sum(1 for p, q in pairs if p > q)
    sign = -1 if flips % 2 else 1
    return BracketMonomial(m, d, tuple(pairs), sign)


class BracketExpression:
    """Exact rational combination of canonical bracket monomials.

    Keys of ``terms`` are canonical chord tuples; monomial signs live in the
    coefficients.  Zero coefficients are dropped.
    """

    __slots__ = ("m", "d", "terms")

    def __init__(self, m: int, d: int, terms=None):
        self.m = m
        self.d = d
        clean: dict[tuple, Fraction] = {}
        for chords, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c:
                clean[chords] = c
        self.terms = clean

    @classmethod
    def from_monomial(cls, b: BracketMonomial) -> "BracketExpression":
        return cls(b.m, b.d, {b.chords: Fraction(b.sign)})

    def monomials(self):
        """Iterate (BracketMonomial, coefficient) pairs, deterministically."""
        for chords in sorted(self.terms):
            yield BracketMonomial(self.m, self.d, chords, 1), self.terms[chords]

    def is_noncrossing(self) -> bool:
        return all(_total_crossings(ch) == 0 for ch in self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BracketExpression):
            return NotImplemented
        return (self.m, self.d) == (other.m, other.d) and self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        inner = " + ".join(f"{c}*{ch}" for ch, c in sorted(self.terms.items()))
        return f"BracketExpression(m={self.m}, d={self.d}: {inner or '0'})"

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "d": self.d,
            "terms": [
                {
                    "coeff": str(self.terms[chords]),
                    "chords": [list(pair) for pair in chords],
                    "sign": 1,
                }
                for chords in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json_dict(cls, data) -> "BracketExpression":
        """Parse the JSON form; a missing or mistyped field raises ValueError."""
        m, d = _json_int(_json_field(data, "m"), "m"), _json_int(_json_field(data, "d"), "d")
        if m < 0 or d < 0:
            raise ValueError("m and d must be nonnegative")
        entries = _json_field(data, "terms")
        if not isinstance(entries, list):
            raise ValueError("terms must be a list")
        terms: dict[tuple, Fraction] = {}
        for entry in entries:
            chords = _json_field(entry, "chords")
            if not isinstance(chords, list) or not all(
                isinstance(pair, list) and len(pair) == 2 for pair in chords
            ):
                raise ValueError("chords must be a list of slot pairs [p, q]")
            pairs = [tuple(_json_int(x, "chord slot") for x in pair) for pair in chords]
            sign = _json_int(entry.get("sign", 1), "sign")
            if sign not in (1, -1):
                raise ValueError(f"sign must be 1 or -1, got {sign}")
            mono = from_pairs(m, d, pairs)
            coeff = _json_coeff(_json_field(entry, "coeff")) * sign * mono.sign
            terms[mono.chords] = terms.get(mono.chords, Fraction(0)) + coeff
        return cls(m, d, terms)


def _json_field(data, key: str):
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with a {key!r} field")
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    return data[key]


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_coeff(value) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value, "coefficient")
    raise ValueError(f'coefficient must be an integer or a string such as "2/3", got {value!r}')


def _resolve_crossing(m: int, d: int, chords, quad) -> list[tuple]:
    """Both crossing resolutions of quad = (i, i', j, j'); a resolution whose
    new chord falls inside one symbol is a vanishing bracket and is dropped.
    Returns the surviving canonical chord tuples (coefficient +1 each)."""
    i, ii, j, jj = quad
    old_pair = ((i, j), (ii, jj))
    rest = tuple(ch for ch in chords if ch not in old_pair)
    # Only crossings that involve a replaced chord change, so the strict
    # decrease is decided by the two pairs against the rest and themselves.
    removed = _total_crossings(old_pair) + _crossings_between(old_pair, rest)
    out = []
    for new_pair in (((i, ii), (j, jj)), ((i, jj), (ii, j))):
        if any(_interval(p, d) == _interval(q, d) for p, q in new_pair):
            continue
        added = _total_crossings(new_pair) + _crossings_between(new_pair, rest)
        if added >= removed:
            before = _total_crossings(chords)
            raise RuntimeError(
                f"rewriting would not terminate: resolving {quad} left "
                f"{before - removed + added} crossings, not fewer than {before}"
            )
        out.append(tuple(sorted(rest + new_pair)))
    return out


def pluecker_step(b: BracketMonomial) -> BracketExpression | None:
    """Resolve the lexicographically smallest crossing of b, or return None
    when b is already noncrossing.

    The crossing {i,j},{i',j'} with i<i'<j<j' becomes {i,i'},{j,j'} plus
    {i,j'},{i',j}; a resolution chord inside one symbol vanishes.
    """
    quads = _crossing_quads(b.chords)
    if not quads:
        return None
    terms: dict[tuple, Fraction] = {}
    for resolved in _resolve_crossing(b.m, b.d, b.chords, quads[0]):
        terms[resolved] = terms.get(resolved, Fraction(0)) + Fraction(b.sign)
    return BracketExpression(b.m, b.d, terms)


def straighten_step(b: BracketMonomial) -> BracketExpression | None:
    """Resolve the smallest nesting of b (crossing minus disjoint), or None
    when no chord pair is nested.  Provided for comparison with the
    crossing-removal route; not used by the basis construction."""
    quads = _nesting_quads(b.chords)
    if not quads:
        return None
    i, ii, jj, j = quads[0]
    rest = tuple(ch for ch in b.chords if ch != (i, j) and ch != (ii, jj))
    terms: dict[tuple, Fraction] = {}
    for new_pair, coeff in ((((i, jj), (ii, j)), 1), (((i, ii), (jj, j)), -1)):
        if any(_interval(p, b.d) == _interval(q, b.d) for p, q in new_pair):
            continue
        resolved = tuple(sorted(rest + new_pair))
        terms[resolved] = terms.get(resolved, Fraction(0)) + Fraction(coeff * b.sign)
    return BracketExpression(b.m, b.d, terms)


def to_noncrossing(e: BracketExpression, *, strategy: str = "lex", rng=None) -> BracketExpression:
    """Rewrite e into an equal expression supported on noncrossing monomials.

    strategy "lex" resolves the smallest crossing each time; "random" picks a
    uniformly random one from ``rng`` (used to check that the normal form does
    not depend on the choice).  Total crossing count strictly decreases at
    every step in every branch, so the loop terminates.
    """
    if strategy == "random" and rng is None:
        raise ValueError("random strategy needs an rng")
    pending = dict(e.terms)
    out: dict[tuple, Fraction] = {}
    while pending:
        chords, coeff = pending.popitem()
        if not coeff:
            continue
        quads = _crossing_quads(chords)
        if not quads:
            out[chords] = out.get(chords, Fraction(0)) + coeff
            continue
        quad = quads[0] if strategy == "lex" else rng.choice(quads)
        for resolved in _resolve_crossing(e.m, e.d, chords, quad):
            pending[resolved] = pending.get(resolved, Fraction(0)) + coeff
    return BracketExpression(e.m, e.d, out)
