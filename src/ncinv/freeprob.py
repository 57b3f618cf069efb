"""Free cumulants, moment-cumulant inversion over NC(n), and the
combinatorial moments of free stochastic measures.

The records keep what ``_rational.exact`` returns: int sums stay ints.
No sum over NC(n) is listed term by term: each is split by the block that
holds its first point, whose gaps are independent smaller sums.  That gives
an O(n^3) recursion for the moment-cumulant relation and an O(n^3 m) one for
``psi_mixed_moment``, where the interval ("at most one element per group")
constraint decides which points can follow in a block.
"""

from __future__ import annotations

import reprlib
from fractions import Fraction

from ._rational import exact
from ._value import Value


class MomentSequence(Value):
    """Moments m_0, m_1, ..., with m_0 = 1."""

    _fields = ("values",)

    def __init__(self, values: tuple[int | Fraction, ...]) -> None:
        values = tuple(exact(v, "moment") for v in values)
        if not values or values[0] != 1:
            raise ValueError("a moment sequence starts with m_0 = 1")
        self._store(values)

    def __getitem__(self, k: int) -> int | Fraction:
        return self.values[k]


class CumulantSequence(Value):
    """Free cumulants c_1, c_2, ..., either rule-generated or tabulated.

    Rules: "semicircle" (c_2 = 1, rest 0), "free-poisson" (all c_k = 1), or
    "table" with explicit rationals (zero beyond the table).
    """

    _fields = ("kind", "table")

    def __init__(self, kind: str, table: tuple[int | Fraction, ...] = ()) -> None:
        if kind not in ("semicircle", "free-poisson", "table"):
            raise ValueError(f"unknown cumulant rule {reprlib.repr(kind)}")
        self._store(kind, tuple(exact(v, "cumulant") for v in table))

    @classmethod
    def semicircle(cls) -> "CumulantSequence":
        return cls("semicircle")

    @classmethod
    def free_poisson(cls) -> "CumulantSequence":
        return cls("free-poisson")

    @classmethod
    def from_table(cls, values) -> "CumulantSequence":
        return cls("table", tuple(values))

    @classmethod
    def parse(cls, text: str) -> "CumulantSequence":
        """Parse a CLI rule name: semicircle | free-poisson | table:[1,1/2,...]."""
        text = text.strip()
        if text == "semicircle":
            return cls.semicircle()
        if text == "free-poisson":
            return cls.free_poisson()
        if text.startswith("table:"):
            body = text[len("table:"):].strip()
            if body.startswith("[") and body.endswith("]"):
                body = body[1:-1]
            entries = [part.strip() for part in body.split(",")] if body.strip() else []
            if "" in entries:
                raise ValueError(f"empty entry in cumulant table {reprlib.repr(text)}")
            return cls.from_table(entries)
        raise ValueError(f"unknown cumulant rule {reprlib.repr(text)}")

    def __getitem__(self, k: int) -> int | Fraction:
        if k < 1:
            raise ValueError("cumulants are indexed from 1")
        if self.kind == "semicircle":
            return 1 if k == 2 else 0
        if self.kind == "free-poisson":
            return 1
        return self.table[k - 1] if k <= len(self.table) else 0


def _first_block_sums(moments: list, cumulants: list, n: int):
    """Yield, for k = 1..n, the sum over s = 1..k-1 of c_s [z^(k-s)] M(z)^s.

    This is the part of m_k = sum_s c_s [z^(k-s)] M(z)^s that leaves out the
    one-block partition (s = k contributes c_k, as [z^0] M^k = 1): the block
    holding 1 has s elements, and the s gaps after them carry independent
    moments.  M(z) = sum_j m_j z^j is read from ``moments`` and c_s from
    ``cumulants[s - 1]``; the caller appends m_(k-1) and c_(k-1) before asking
    for the k-th sum.  powers[s][j] = [z^j] M^s grows one entry per power and
    step, which is O(n^3) exact operations in all.  Raises for n < 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    powers: list[list] = [[]]
    for k in range(1, n + 1):
        powers.append([])
        total = 0
        for s in range(1, k):
            j = k - s
            if s == 1:
                entry = moments[j]
            else:
                # [z^j] M^s = sum_i m_i [z^(j-i)] M^(s-1); entry j of M^(s-1)
                # was added at the previous step.
                prev = powers[s - 1]
                entry = sum(moments[i] * prev[j - i] for i in range(j + 1) if moments[i])
            powers[s].append(entry)
            if cumulants[s - 1]:
                total += cumulants[s - 1] * entry
        powers[k].append(1)
        yield total


def moments_from_cumulants(c: CumulantSequence, n: int) -> MomentSequence:
    """m_k = sum over sigma in NC(k) of prod over blocks of c_|B|, k <= n,
    by the first-block recursion m_k = sum_s c_s [z^(k-s)] M(z)^s."""
    values = [1]
    cums = [c[s] for s in range(1, n + 1)]
    for k, rest in enumerate(_first_block_sums(values, cums, n), start=1):
        values.append(rest + cums[k - 1])
    return MomentSequence(tuple(values))


def cumulants_from_moments(m: MomentSequence, n: int) -> CumulantSequence:
    """Moebius inversion of the moment-cumulant relation up to order n,
    solved triangularly: c_k = m_k - (the first-block sum over s < k)."""
    if len(m.values) <= n:
        raise ValueError(f"need moments up to order {n}")
    cums: list = []
    for k, rest in enumerate(_first_block_sums(m.values, cums, n), start=1):
        cums.append(m[k] - rest)
    return CumulantSequence.from_table(cums)


def psi_mixed_moment(k, c: CumulantSequence) -> int | Fraction:
    """Joint moment of stochastic measures psi_{k_1} ... psi_{k_m}:

    the sum over sigma in NC(k_1+...+k_m) whose meet with the interval
    partition of the k_i is discrete, of prod over blocks of c_|B|.

    Summed by the block that holds the first point of a range: its next
    element lies in a strictly later window, and every gap between its
    elements is an independent range.  A block takes at most one point per
    window, so only c_1..c_m enter, and none grows past the last s with
    c_s nonzero.  O(n^3 m) exact operations for n = k_1+...+k_m points; the
    result is an int when the cumulants c_1..c_m are.
    """
    sizes = tuple(k)
    if any(isinstance(v, bool) or not isinstance(v, int) or v <= 0 for v in sizes):
        raise ValueError(f"group sizes must be positive integers, got {reprlib.repr(sizes)}")
    weight = [0] + [c[s] for s in range(1, len(sizes) + 1)]
    top = max((s for s, w in enumerate(weight) if w), default=0)
    n = sum(sizes)
    # x -> (the number of windows up to x's, the first point of the next)
    place, end = {}, 1
    for i, size in enumerate(sizes, start=1):
        end += size
        place.update((x, (i, end)) for x in range(end - size, end))
    # ranges[lo][hi]: the sum over the admissible partitions of lo..hi-1
    ranges = [[0] * (n + 2) for _ in range(n + 2)]
    for hi in range(1, n + 2):
        ranges[hi][hi] = 1
        # grow[s][b]: for a block whose s-th and so far last element is b,
        # the sum over its ways to go on inside b+1..hi-1, gaps included
        grow = [[0] * (hi + 1) for _ in range(top + 2)]
        for b in range(hi - 1, 0, -1):
            windows, later = place[b]
            gaps = ranges[b + 1]
            for s in range(min(top, windows), 0, -1):
                total = weight[s] * gaps[hi]
                if s < top:  # no block grows past top elements
                    longer = grow[s + 1]
                    for x in range(later, hi):
                        if longer[x]:
                            total += gaps[x] * longer[x]
                grow[s][b] = total
            ranges[b][hi] = grow[1][b]
    return ranges[1][n + 1]


def psi_orthogonality(m: int, n: int, c: CumulantSequence) -> int | Fraction:
    """psi_mixed_moment((m, n), c) for a centered variable; equals
    delta_{mn} c_2^n."""
    if c[1] != 0:
        raise ValueError("orthogonality needs a centered variable (c_1 = 0)")
    return psi_mixed_moment((m, n), c)
