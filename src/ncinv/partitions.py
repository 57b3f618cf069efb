"""Set partitions of {1,...,n}, the noncrossing lattice NC(n) and thickening.

Partitions are kept in canonical form: every block is a sorted tuple and the
blocks are listed in order of their minima.  Elements are 1-based, matching
the usual diagram labelling.  Everything in this module is exact integer
combinatorics on immutable values; all functions are pure and safe to call
concurrently.  The chord rules (windows, crossings, the pairing walk) live
in ``brackets``; NC(n) is the walk's thinning at d = 1 (see ``enumerate_nc``).
"""

from __future__ import annotations

import reprlib
from functools import cached_property
from math import comb

from ._value import Value
from .brackets import _iter_nc_matchings, crossing_quads, window_of


def catalan(n: int) -> int:
    """The Catalan number C_n = binom(2n, n) / (n + 1).

    >>> [catalan(n) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    return comb(2 * n, n) // (n + 1)


class SetPartition(Value):
    """A partition of {1,...,n} into disjoint nonempty blocks.

    Blocks are canonicalised on construction (each block sorted, blocks
    ordered by minimum), so equality and hashing are structural.
    """

    _fields = ("n", "blocks")

    def __init__(self, n: int, blocks: tuple[tuple[int, ...], ...]) -> None:
        if n < 0:
            raise ValueError("ground set size must be nonnegative")
        raw = [tuple(sorted(block)) for block in blocks]
        if any(not block for block in raw):
            raise ValueError("blocks must be nonempty")
        raw.sort(key=lambda block: block[0])
        support = sorted(x for block in raw for x in block)
        if len(support) != n or support != list(range(1, n + 1)):
            raise ValueError(f"blocks do not partition 1..{n}: {reprlib.repr(raw)}")
        self._store(n, tuple(raw))

    def __eq__(self, other: object) -> bool:  # a PairPartition is a SetPartition
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.n == other.n and self.blocks == other.blocks

    __hash__ = Value.__hash__

    @cached_property
    def block_index(self) -> dict[int, int]:
        """Element -> index of its block in the canonical block list."""
        return {x: i for i, block in enumerate(self.blocks) for x in block}


class PairPartition(SetPartition):
    """A set partition all of whose blocks are pairs (a perfect matching)."""

    def __init__(self, n: int, blocks: tuple[tuple[int, ...], ...]) -> None:
        super().__init__(n, blocks)
        if n % 2:
            raise ValueError("pair partitions need an even ground set")
        if any(len(block) != 2 for block in self.blocks):
            raise ValueError("all blocks of a pair partition must have size 2")


def zero_partition(n: int) -> SetPartition:
    """The minimal element of NC(n): all blocks singletons."""
    return SetPartition(n, tuple((x,) for x in range(1, n + 1)))


def one_partition(n: int) -> SetPartition:
    """The maximal element of NC(n): a single block (empty when n = 0)."""
    if n == 0:
        return SetPartition(0, ())
    return SetPartition(n, (tuple(range(1, n + 1)),))


def is_noncrossing(p: SetPartition) -> bool:
    """True iff no quadruple i < i' < j < j' has i ~ j and i' ~ j' in
    different blocks.

    Such a quadruple exists iff two arcs joining consecutive elements of
    different blocks cross (Nica-Speicher, Lecture 9), and arcs of one block
    never cross each other, so it is enough to look for any crossing arcs.
    """
    arcs = sorted(arc for block in p.blocks for arc in zip(block, block[1:]))
    return next(crossing_quads(arcs), None) is None


def _cycles(after: list[int]) -> tuple[tuple[int, ...], ...]:
    """The cycles of the permutation t -> after[t] of 1..len(after)-1, each
    read from its least point, in order of those points."""
    cycles, seen = [], [False] * len(after)
    for start in range(1, len(after)):
        cycle, t = [], start
        while not seen[t]:
            seen[t] = True
            cycle.append(t)
            t = after[t]
        if cycle:
            cycles.append(tuple(cycle))
    return tuple(cycles)


def _thin(chords) -> tuple[tuple[int, ...], ...]:
    """Canonical blocks of the noncrossing partition whose fattening (t to
    2t-1, 2t) is the noncrossing perfect matching ``chords``: the cycles of
    t -> ceil(partner(2t) / 2), each increasing from its least point
    (Nica-Speicher, Lecture 9).  Every chord of a noncrossing perfect
    matching joins an odd point to an even one, as the points inside it are
    matched among themselves."""
    after = [0] * (len(chords) + 1)
    for a, b in chords:
        even, odd = (a, b) if a % 2 == 0 else (b, a)
        after[even // 2] = (odd + 1) // 2
    return _cycles(after)


def enumerate_nc(n: int) -> list[SetPartition]:
    """All noncrossing partitions of [n] in lexicographic canonical order:
    the thinnings of the noncrossing pairings of [2n] (the pairing walk at
    d = 1), sorted.

    >>> len(enumerate_nc(3))
    5
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [SetPartition._trusted(n, blocks)
            for blocks in sorted(_thin(ch) for ch in _iter_nc_matchings(2 * n, 1))]


def is_m_partite(p: SetPartition, d: int) -> bool:
    """True iff every block takes at most one element from each of the
    consecutive intervals {kd+1,...,(k+1)d}."""
    if d == 0:
        if p.n != 0:
            raise ValueError("interval size 0 needs an empty ground set")
        return True
    if p.n % d:
        raise ValueError(f"ground set size {p.n} not divisible by interval size {d}")
    for block in p.blocks:
        windows = [window_of(x, d) for x in block]
        if len(set(windows)) != len(windows):
            return False
    return True


def enumerate_m_partite_nc_pairings(m: int, d: int) -> list[PairPartition]:
    """All noncrossing pair partitions of [md] that are m-partite for
    interval size d, in sorted order; empty when md is odd."""
    if m < 0 or d < 0:
        raise ValueError("m and d must be nonnegative")
    return [PairPartition(m * d, ch) for ch in _iter_nc_matchings(m * d, d)]


def leq(p: SetPartition, q: SetPartition) -> bool:
    """Refinement order: every block of p lies inside some block of q."""
    if p.n != q.n:
        raise ValueError("mismatched ground sets")
    qidx = q.block_index
    for block in p.blocks:
        target = qidx[block[0]]
        if any(qidx[x] != target for x in block):
            return False
    return True


def nc_moebius(p: SetPartition, q: SetPartition) -> int:
    """Moebius function of the interval [p, q] inside the lattice NC(n).

    [p, q] is the product over the blocks B of q of the intervals
    [p|B, 1_B] in NC(|B|), and the Kreweras complement K maps [pi, 1] onto
    [0, K(pi)] reversed, itself the product of NC(|V|) over the blocks V of
    K(pi) (Nica-Speicher, Lectures 9-10).  So mu(p, q) is the product of
    (-1)^(|V|-1) C_(|V|-1) over the blocks V of every K(p|B).  Those blocks
    are the cycles of the one permutation p^-1 gamma of [n], where p and
    gamma cycle through each block of p and of q in increasing order: as p
    refines q, p^-1 gamma maps each block B of q onto itself and is there
    (p|B)^-1 (1 2 ... |B|), whose cycles are the blocks of K(p|B).  O(n).
    """
    if p.n != q.n:
        raise ValueError("mismatched ground sets")
    if not (is_noncrossing(p) and is_noncrossing(q)):
        raise ValueError("both partitions must be noncrossing")
    if not leq(p, q):
        raise ValueError("p must refine q")
    before = [0] * (p.n + 1)  # x -> its predecessor under the cycle of p
    for block in p.blocks:
        for x, y in zip(block, block[1:] + block[:1]):
            before[y] = x
    after = [0] * (p.n + 1)  # x -> before[gamma(x)]
    for block in q.blocks:
        for x, y in zip(block, block[1:] + block[:1]):
            after[x] = before[y]
    out = 1
    for cycle in _cycles(after):
        out *= (-1) ** (len(cycle) - 1) * catalan(len(cycle) - 1)
    return out


def thicken(p: PairPartition, m: int, d: int) -> SetPartition:
    """Collapse an m-partite noncrossing pairing of [md] (d even) to a
    partition of [md/2] by identifying positions 2t-1, 2t with the point t;
    bundles of nested parallel chords then merge into single blocks.

    The result is m-partite without singletons for interval size d/2, and
    the map is a bijection onto such partitions (see ``unthicken``).
    """
    if d % 2:
        raise ValueError("interval size must be even to thicken")
    n = m * d
    if p.n != n:
        raise ValueError(f"expected a pairing of [{n}], got ground set {p.n}")
    if any(len(block) != 2 for block in p.blocks):
        raise ValueError("thicken needs a pair partition")
    if not is_noncrossing(p):
        raise ValueError("pairing must be noncrossing")
    if not is_m_partite(p, d):
        raise ValueError("pairing must be m-partite")
    return SetPartition(n // 2, _thin(p.blocks))


def unthicken(q: SetPartition, m: int, d: int) -> PairPartition:
    """Inverse of ``thicken``: each block {t_1 < ... < t_k} becomes the nested
    chord bundle {2t_1 - 1, 2t_k} and {2t_i, 2t_{i+1} - 1} for i < k."""
    if d % 2:
        raise ValueError("interval size must be even to unthicken")
    half = m * d // 2
    if q.n != half:
        raise ValueError(f"expected a partition of [{half}], got ground set {q.n}")
    if any(len(block) < 2 for block in q.blocks):
        raise ValueError("partition must have no singletons")
    if not is_noncrossing(q):
        raise ValueError("partition must be noncrossing")
    if d >= 2 and not is_m_partite(q, d // 2):
        raise ValueError("partition must be m-partite")
    chords: list[tuple[int, int]] = []
    for block in q.blocks:
        chords.append((2 * block[0] - 1, 2 * block[-1]))
        for t, t_next in zip(block, block[1:]):
            chords.append((2 * t, 2 * t_next - 1))
    return PairPartition(m * d, tuple(chords))
