"""Chord rules on [md], and signed bracket products with crossing removal.

A monomial is a product of brackets <y_i y_j>, one slot pair per chord of a
pair partition of [md] (slot (i-1)d+k is the k-th occurrence of the symbol
y_i, so its symbol is ``window_of(slot, d)``).  Chords are stored with each
pair increasing and sorted, and the antisymmetry sign folded into a single
+-1 on the monomial, so the rewriting loop never touches orientation.
Expressions keep exact coefficients, ints or Fractions, on the same
canonical chord tuples.  Crossings are found and counted by
``crossing_quads`` alone, and ``_iter_nc_matchings`` walks the noncrossing
pairings with no chord inside a window (the m-partite ones).

A monomial's restitution is +-prod over its chords {p, q} of (t_a - t_b),
a < b the windows of p and q, so ``to_noncrossing`` rewrites window
multigraphs (edges, mults): the distinct window pairs, sorted, and how many
chords join each.  Pluecker's relation (Kempe 1894) resolves a crossing
(a, c), (b, e) with a < b < c < e into (a, b), (c, e) plus (a, e), (b, c).
A noncrossing graph is one m-partite noncrossing pairing, decoded from its
out-degrees.  ``pluecker_step`` is one such resolution on a monomial's
slots, each chord an edge of multiplicity 1.

The ``json_*`` readers check the fields of the one JSON document a command
reads, the bracket expression file of ``rewrite``: a missing field or a
value of the wrong type is a ValueError with a message.  JSON floats are
refused, since they are not exact.  Error messages quote the offending
value through ``reprlib.repr``, so a huge input is not echoed in full.
"""

from __future__ import annotations

import reprlib
from collections import Counter
from fractions import Fraction
from operator import itemgetter

from ._rational import MAX_DIGITS, exact
from ._value import Value


def window_of(x: int, d: int) -> int:
    """0-based index of the window {kd+1, ..., (k+1)d} holding position x."""
    return (x - 1) // d


def crossing_quads(chords):
    """Yield every quadruple (i, i', j, j') with i < i' < j < j' such that
    {i, j} and {i', j'} are chords, in lexicographic order.

    ``chords`` must be increasing pairs sorted by their first element.  The
    order is lexicographic when no two chords share an endpoint (a matching).
    """
    for k, (i, j) in enumerate(chords):
        for ii, jj in chords[k + 1:]:
            if ii >= j:
                break
            if i < ii and j < jj:
                yield i, ii, j, jj


def _partners(u: int, end: int, d: int) -> list[int]:
    """The partners j of u in another window that leave u+1..j-1 and j+1..end
    fillable, in increasing order; the gap u..end must itself be fillable.

    A run of points is fillable -- has a noncrossing perfect matching with
    no chord inside a window -- iff its count L is even and no window holds
    more than L/2 of it.  Necessity: every point needs a partner outside
    its window.  Sufficiency, by induction on L: the windows cut the points
    into runs; match the two adjacent points across an edge of a largest
    run R.  That chord crosses nothing, and the rule holds on the L - 2
    points left: R and its neighbour each lose one, and any other run T has
    2|T| <= |T| + |R| <= L - 1.

    So an even run of 2d points or more is fillable, and a shorter nonempty
    one iff it straddles one window edge evenly.  With j - u odd both runs
    are even.  u+1..j-1 is fillable iff j > u + 2d or j is ``low``, the
    mirror of u across its window's right edge; j+1..end iff j <= end - 2d,
    j = end, or j is ``high``, below end by twice end's place in its window.
    """
    low, high = 2 * (window_of(u, d) + 1) * d + 1 - u, 2 * window_of(end, d) * d - end
    edges = {j for j in (low, high, end) if u < j <= end and (j == low or j > u + 2 * d)
             and (j in (high, end) or j <= end - 2 * d)}
    return sorted(edges.union(range(u + 2 * d + 1, end - 2 * d + 1, 2)))


def _iter_nc_matchings(n: int, d: int):
    """Yield, in sorted order, the chord tuples of the noncrossing perfect
    matchings of [n] with no chord inside a window of d consecutive points.

    The least unmatched point u is matched with each admissible partner j in
    increasing order, then the gap inside (u, j) is filled, then the rest of
    u's gap.  j is admissible when it is in another window than u and both
    gaps it leaves are fillable, so the walk has no dead ends, and as u is
    the least open point the tuples come out sorted (Knuth, TAOCP 4A,
    7.2.1.6).  Each gap's partner list is built on its first visit and kept,
    so memory grows with the gaps visited, not with n^2.  The walk is one
    loop over an explicit path and undoes its choices through a trail.
    """
    if n % 2 or 0 < n < 2 * d:  # 1..n is fillable, by the rule in ``_partners``
        return
    lists: list[dict] = [{} for _ in range(n + 1)]  # [u][end]
    chords: list[tuple[int, int]] = []
    trail = []  # per chord: its gap's end, the gaps waiting, its list, index
    u, end, waiting, k = 1, n, None, 0  # waiting: (start, end, rest) or None
    while True:
        if u > end and waiting:
            u, end, waiting = waiting
        if u > end:
            yield tuple(chords)
            # Undo chords until one has a partner left to try.
            while True:
                if not trail:
                    return
                u = chords.pop()[0]
                end, waiting, partners, k = trail.pop()
                k += 1
                if k < len(partners):
                    break
        else:  # a new gap
            try:
                partners = lists[u][end]
            except KeyError:
                partners = lists[u][end] = _partners(u, end, d)
        j = partners[k]
        chords.append((u, j))
        trail.append((end, waiting, partners, k))
        if j < end:
            waiting = (j + 1, end, waiting)
        u, end, k = u + 1, j - 1, 0


def _decode_leading_word(word, d: int) -> tuple[tuple[int, int], ...]:
    """The sorted chords of the m-partite noncrossing pairing whose window k
    opens word[k] chords (``symbolic.predicted_leading_word``).  A chord
    closing in a window after one opens there would cross it, so window k
    closes its other slots first, against the most recent openers."""
    stack, chords, x = [], [], 0  # x is the last slot read
    for opens in word:
        for _ in range(d - opens):
            x += 1
            chords.append((stack.pop(), x))
        stack.extend(range(x + 1, x + 1 + opens))
        x += opens
    return tuple(sorted(chords))


class VanishingBracketError(ValueError):
    """Raised for a vanishing bracket pairing two slots of one symbol."""


def _chords(m: int, d: int, chords) -> tuple[tuple[int, int], ...]:
    """``chords`` with each pair increasing, sorted by first slot; raises
    unless they form a perfect matching of [md] with no chord inside one
    symbol.  The length test comes first, so a huge m builds no range."""
    chords = tuple(sorted(tuple(sorted(pair)) for pair in chords))
    n = m * d
    support = sorted(x for pair in chords for x in pair)
    if (len(support) != n or support != list(range(1, n + 1))
            or any(len(pair) != 2 for pair in chords)):
        raise ValueError(f"chords do not form a perfect matching of 1..{n}")
    for p, q in chords:
        if window_of(p, d) == window_of(q, d):
            raise VanishingBracketError(f"vanishing bracket: slots {p},{q} belong to one symbol")
    return chords


class BracketMonomial(Value):
    """A signed product of brackets: chords on [md], each symbol in d slots."""

    _fields = ("m", "d", "chords", "sign")

    def __init__(self, m: int, d: int, chords: tuple[tuple[int, int], ...],
                 sign: int = 1) -> None:
        if m < 0 or d < 0:
            raise ValueError("m and d must be nonnegative")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self._store(m, d, _chords(m, d, chords), sign)

    def crossing_count(self) -> int:
        return _graph_count((self.chords, (1,) * len(self.chords)))

    def is_noncrossing(self) -> bool:
        return next(crossing_quads(self.chords), None) is None


def from_pairs(m: int, d: int, pairs) -> BracketMonomial:
    """Build a canonical monomial from oriented slot pairs.

    Each pair given in decreasing orientation flips the sign once
    (antisymmetry <v1 v2> = -<v2 v1>).
    """
    pairs = [tuple(pair) for pair in pairs]
    flips = sum(1 for p, q in pairs if p > q)
    sign = -1 if flips % 2 else 1
    return BracketMonomial(m, d, tuple(pairs), sign)


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


class _LongInteger(str):
    """A JSON integer literal of more than MAX_DIGITS digits, kept as text."""


def json_integer(text: str) -> int | str:
    """The value of a JSON integer literal, for ``json.load(...,
    parse_int=json_integer)``: an int, or past MAX_DIGITS digits the text
    itself, which ``json_int`` and ``json_rational`` refuse naming their
    field."""
    return int(text) if len(text) <= MAX_DIGITS else _LongInteger(text)


def json_int(value, what: str) -> int:
    """A JSON integer; booleans and floats are refused."""
    if isinstance(value, _LongInteger):
        value = exact(value, what)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {reprlib.repr(value)}")
    return value


def json_rational(value, what: str) -> int | Fraction:
    """A JSON integer, or a string read by ``parse_rational``."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f'{what} must be an integer or a string such as "2/3", '
                         f"got {reprlib.repr(value)}")
    return exact(value, what)


class BracketExpression(Value):
    """Exact rational combination of canonical bracket monomials.

    Keys of ``terms`` are chord tuples, checked and canonicalised on
    construction like ``BracketMonomial.chords`` (each pair increasing, pairs
    sorted); the coefficients of keys that agree once canonical are summed.
    Monomial signs live in the coefficients.  Zero coefficients are dropped.
    """

    _fields = ("m", "d", "terms")
    __hash__ = None  # terms is a dict

    def __init__(self, m: int, d: int, terms=None):
        if m < 0 or d < 0:
            raise ValueError("m and d must be nonnegative")
        summed = {}
        for chords, coeff in (terms or {}).items():
            key = _chords(m, d, chords)
            summed[key] = summed.get(key, 0) + exact(coeff, "coefficient")
        self._store(m, d, {chords: c for chords, c in summed.items() if c})

    @classmethod
    def from_monomial(cls, b: BracketMonomial) -> "BracketExpression":
        return cls._trusted(b.m, b.d, {b.chords: b.sign})

    def monomials(self):
        """Iterate (BracketMonomial, coefficient) pairs, deterministically."""
        for chords in sorted(self.terms):
            yield BracketMonomial._trusted(self.m, self.d, chords, 1), self.terms[chords]

    def is_noncrossing(self) -> bool:
        return all(next(crossing_quads(ch), None) is None for ch in self.terms)

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
        m, d = json_int(json_field(data, "m"), "m"), json_int(json_field(data, "d"), "d")
        entries = json_list(data, "terms")
        terms = {}
        for entry in entries:
            chords = json_field(entry, "chords")
            if not isinstance(chords, list) or not all(
                isinstance(pair, list) and len(pair) == 2 for pair in chords
            ):
                raise ValueError("chords must be a list of slot pairs [p, q]")
            pairs = tuple(tuple(json_int(x, "chord slot") for x in pair) for pair in chords)
            sign = json_int(entry.get("sign", 1), "sign")
            if sign not in (1, -1):
                raise ValueError(f"sign must be 1 or -1, got {reprlib.repr(sign)}")
            coeff = json_rational(json_field(entry, "coeff"), "coefficient") * sign
            # Each pair in decreasing orientation flips the sign, as in from_pairs.
            terms[pairs] = terms.get(pairs, 0) + coeff * (-1) ** sum(p > q for p, q in pairs)
        return cls(m, d, terms)


def _recount(resolved, quad, before: int) -> tuple[tuple, int]:
    """(resolved, its crossing number); raises, also under ``python -O``,
    unless resolving ``quad`` left fewer than ``before`` crossings."""
    left = _graph_count(resolved)
    if left >= before:
        raise RuntimeError(f"rewriting would not terminate: resolving {quad} left "
                           f"{left} crossings, not fewer than {before}")
    return resolved, left


def pluecker_step(b: BracketMonomial) -> BracketExpression | None:
    """Resolve the lexicographically smallest crossing of b, or return None
    when b is already noncrossing.

    The crossing {i,j},{i',j'} with i<i'<j<j' becomes {i,i'},{j,j'} plus
    {i,j'},{i',j}: ``_resolve_graph`` on b's chords, taken as a multigraph
    on slots with every multiplicity 1.  A resolution with a chord inside
    one symbol is a vanishing bracket and is dropped.
    """
    quad = next(crossing_quads(b.chords), None)
    if quad is None:
        return None
    graph = b.chords, (1,) * len(b.chords)
    terms = {}
    for (chords, _mults), _left in _resolve_graph(graph, quad, _graph_count(graph)):
        if all(window_of(p, b.d) != window_of(q, b.d) for p, q in chords):
            terms[chords] = b.sign
    return BracketExpression._trusted(b.m, b.d, terms)


def _graph_count(graph) -> int:
    """Crossing number of a window multigraph (edges, mults): mult(a, c) *
    mult(b, e) summed over the crossings (a, b, c, e) of its distinct edges."""
    edges, mults = graph
    mult = dict(zip(edges, mults))
    return sum(mult[a, c] * mult[b, e] for a, b, c, e in crossing_quads(edges))


def _resolve_graph(graph, quad, before: int) -> list[tuple[tuple, int]]:
    """(resolved, left) for {a,b},{c,e} and for {a,e},{b,c}, the resolutions
    of the crossing quad = (a, b, c, e) of ``graph``, which has ``before``
    crossings; left is the recounted crossing number, and a count that does
    not drop raises."""
    a, b, c, e = quad
    rest = dict(zip(*graph))
    rest[a, c] -= 1
    rest[b, e] -= 1
    out = []
    for new_edges in (((a, b), (c, e)), ((a, e), (b, c))):
        mult = rest.copy()
        for edge in new_edges:
            mult[edge] = mult.get(edge, 0) + 1
        resolved = tuple(zip(*sorted(filter(itemgetter(1), mult.items()))))
        out.append(_recount(resolved, quad, before))
    return out


def to_noncrossing(e: BracketExpression, *, strategy: str = "lex", rng=None) -> BracketExpression:
    """Rewrite e into an equal expression supported on noncrossing monomials.

    ``levels[k]`` holds the window multigraphs with k crossings, input terms
    with one graph summed and each input graph counted once.  From the top
    down, each graph is resolved once, on its merged coefficient, at the
    innermost crossing (a, b, c, e) of its distinct edges, the largest a,
    then the smallest e, then the largest b ("lex"), or at a random one from
    ``rng`` ("random", to check that the normal form does not depend on the
    choice).  Inner crossings first reach fewer graphs than the first
    crossing in ``crossing_quads`` order: 1443 against 2398 for the (10, 2)
    shift.  Each resolution is recounted, and a count that does not drop
    raises, also under ``python -O``.  The graphs left on ``levels[0]``
    decode to the normal form.
    """
    if strategy not in ("lex", "random") or strategy == "random" and rng is None:
        raise ValueError("strategy must be 'lex', or 'random' with an rng; "
                         f"got {reprlib.repr(strategy)}")
    graphs = {}
    for chords, coeff in e.terms.items():
        mult = Counter((window_of(p, e.d), window_of(q, e.d)) for p, q in chords)
        edges = tuple(sorted(mult))
        graph = edges, tuple(mult[edge] for edge in edges)
        graphs[graph] = graphs.get(graph, 0) + coeff
    levels = {0: {}}
    for graph, coeff in graphs.items():
        levels.setdefault(_graph_count(graph), {})[graph] = coeff
    for before in range(max(levels), 0, -1):
        for graph, coeff in levels.pop(before, {}).items():
            if not coeff:
                continue
            quads = crossing_quads(graph[0])
            if strategy == "lex":
                quad = max(quads, key=lambda q: (q[0], -q[3], q[1]))
            else:
                quad = rng.choice(list(quads))
            for resolved, left in _resolve_graph(graph, quad, before):
                level = levels.setdefault(left, {})
                level[resolved] = level.get(resolved, 0) + coeff
    terms = {}
    for graph, coeff in levels[0].items():
        word = [0] * e.m
        for (a, _b), k in zip(*graph):
            word[a] += k
        terms[_decode_leading_word(word, e.d)] = coeff
    return BracketExpression._trusted(e.m, e.d, {ch: c for ch, c in terms.items() if c})
