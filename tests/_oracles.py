"""Independent brute-force oracles for the test suite.

Everything here enumerates or counts from first principles (restricted
growth strings, quadruple scans, full matching enumeration) and never calls
into the code paths it is used to check.
"""

from __future__ import annotations

import functools
import itertools


def all_set_partitions(n: int):
    """All partitions of [n] as tuples of sorted blocks, via restricted
    growth strings."""
    if n == 0:
        yield ()
        return
    labels = [0] * n

    def rec(i: int, max_label: int):
        if i == n:
            blocks: dict[int, list[int]] = {}
            for pos, lab in enumerate(labels, start=1):
                blocks.setdefault(lab, []).append(pos)
            yield tuple(tuple(blocks[lab]) for lab in sorted(blocks))
            return
        for lab in range(max_label + 2):
            labels[i] = lab
            yield from rec(i + 1, max(max_label, lab))

    yield from rec(1, 0)


def all_perfect_matchings(n: int):
    """All perfect matchings of [n] as sorted tuples of increasing pairs."""
    if n % 2:
        return
    elements = list(range(1, n + 1))

    def rec(remaining):
        if not remaining:
            yield ()
            return
        first = remaining[0]
        for i in range(1, len(remaining)):
            partner = remaining[i]
            rest = remaining[1:i] + remaining[i + 1:]
            for tail in rec(rest):
                yield ((first, partner),) + tail

    yield from rec(elements)


def iter_crossing_quadruples(blocks):
    """Yield, in lexicographic order, every quadruple i<i'<j<j' with i~j,
    i'~j', i not~ i', straight from the definition."""
    owner = {x: bid for bid, block in enumerate(blocks) for x in block}
    n = sum(len(b) for b in blocks)
    for a, b, c, d in itertools.combinations(range(1, n + 1), 4):
        if owner[a] == owner[c] and owner[b] == owner[d] and owner[a] != owner[b]:
            yield a, b, c, d


def brute_crossing_quadruples(blocks) -> int:
    """Count quadruples i<i'<j<j' with i~j, i'~j', i not~ i', straight from
    the definition."""
    return sum(1 for _ in iter_crossing_quadruples(blocks))


def brute_is_noncrossing(blocks) -> bool:
    return next(iter_crossing_quadruples(blocks), None) is None


@functools.cache
def brute_nc_partitions(n: int) -> tuple:
    """NC(n) as block tuples: the set partitions with no crossing quadruple."""
    return tuple(p for p in all_set_partitions(n) if brute_is_noncrossing(p))


def blocks_are_m_partite(blocks, d: int) -> bool:
    for block in blocks:
        intervals = [(x - 1) // d for x in block]
        if len(set(intervals)) != len(intervals):
            return False
    return True


def _count_shapes(partitions) -> dict:
    """How many of the partitions have each sorted tuple of block sizes."""
    counts: dict = {}
    for p in partitions:
        shape = tuple(sorted(len(block) for block in p))
        counts[shape] = counts.get(shape, 0) + 1
    return counts


def _evaluate(shapes: dict, c):
    """Sum over the counted shapes of the product of c_|B| over blocks."""
    total = 0
    for shape, count in shapes.items():
        term = count
        for size in shape:
            term *= c[size]
        total += term
    return total


@functools.cache
def brute_nc_shapes(n: int) -> dict:
    """How many partitions in NC(n) have each sorted tuple of block sizes."""
    return _count_shapes(brute_nc_partitions(n))


def brute_moments(c, n: int) -> list:
    """m_0..m_n, m_k = sum over NC(k) of the product of c_|B| over blocks."""
    return [1] + [_evaluate(brute_nc_shapes(k), c) for k in range(1, n + 1)]


def brute_cumulants(moments, n: int) -> list:
    """c_1..c_n from m_0..m_n, solving m_k = sum over NC(k) triangularly:
    the one-block partition contributes c_k, the rest only earlier c."""
    cums = [None]
    for k in range(1, n + 1):
        rest = {shape: count for shape, count in brute_nc_shapes(k).items() if len(shape) > 1}
        cums.append(moments[k] - _evaluate(rest, cums))
    return cums[1:]


@functools.cache
def _neighbours(n: int) -> tuple:
    """For each partition in NC(n): the pairs of consecutive elements of its
    blocks."""
    return tuple(tuple(pair for block in p for pair in zip(block, block[1:]))
                 for p in brute_nc_partitions(n))


@functools.cache
def _psi_shapes(sizes) -> dict:
    window = [None] + [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(window) - 1
    # A sorted block takes two points from one window exactly when two of
    # its consecutive elements share a window.
    return _count_shapes(
        p for p, pairs in zip(brute_nc_partitions(n), _neighbours(n))
        if all(window[x] != window[y] for x, y in pairs))


def brute_psi(sizes, c):
    """Sum over the partitions in NC(sum of sizes) that take at most one
    point from each window of the interval partition by sizes, of the
    product of c_|B| over blocks."""
    return _evaluate(_psi_shapes(tuple(sizes)), c)


def brute_moebius(n: int) -> dict:
    """mu(p, q) for every pair p <= q of NC(n), keyed by block tuples, from
    the defining recursion mu(q, q) = 1, mu(p, q) = -sum of mu(s, q) over
    p < s <= q."""
    parts = brute_nc_partitions(n)
    owner = [{x: bid for bid, block in enumerate(p) for x in block} for p in parts]
    below = {(i, j) for i, p in enumerate(parts) for j in range(len(parts))
             if all(len({owner[j][x] for x in block}) == 1 for block in p)}
    mu = {}
    for j, q in enumerate(parts):
        # A coarser partition has fewer blocks, so taking [., q] in order of
        # increasing block count only ever reads finished values.
        down = sorted((i for i in range(len(parts)) if (i, j) in below),
                      key=lambda i: len(parts[i]))
        done = {}
        for i in down:
            done[i] = 1 if i == j else -sum(
                done[s] for s in done if (i, s) in below)
        for i, value in done.items():
            mu[parts[i], q] = value
    return mu

