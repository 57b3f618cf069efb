"""Independent brute-force oracles for the test suite.

Everything here enumerates or counts from first principles (restricted
growth strings, quadruple scans, full matching enumeration, matrices as
tuples of rows) and never calls into the code paths it is used to check.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys


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


@functools.cache
def nc_perfect_matchings(a: int, b: int) -> tuple:
    """All noncrossing perfect matchings of the positions a..b, as sorted
    chord tuples: a pairs with some j, and the points inside (a, j) and
    those after j match among themselves."""
    if a > b:
        return ((),)
    return tuple(((a, j),) + inner + outer
                 for j in range(a + 1, b + 1, 2)
                 for inner in nc_perfect_matchings(a + 1, j - 1)
                 for outer in nc_perfect_matchings(j + 1, b))


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


def matmul(x, y):
    """The product of two matrices given as tuples of rows."""
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*y)) for row in x)


def apply(matrix, vector):
    """The matrix, as a tuple of rows, times a column vector."""
    return tuple(sum(a * b for a, b in zip(row, vector)) for row in matrix)


def identity(size: int):
    """The size x size identity matrix as a tuple of rows."""
    return tuple(tuple(int(i == j) for j in range(size)) for i in range(size))


def chebyshev_u(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the dilated Chebyshev polynomial of
    the second kind, by its recursion U_0 = 1, U_1 = x, U_n = x U_(n-1) -
    U_(n-2), so that U_n(2cos t) = sin((n+1)t)/sin t.  The tests compare
    ``hilbert.dims_by_chebyshev`` with the semicircle moments of its powers."""
    prev, cur = (), (1,)  # U_(-1) = 0 starts the recursion
    for _ in range(n):
        prev, cur = cur, tuple(map(operator.sub, (0, *cur), (*prev, 0, 0)))
    return cur


def closed_chord_transfer(d: int, max_m: int) -> tuple[int, ...]:
    """dims[0..max_m] by the stack-height transfer as it first ran, one closed
    chord count at a time: each window closes c <= min(h, d) chords opened in
    earlier windows and opens d - c, so height h goes to h + d - 2c, and paths
    higher than the later windows can close are dropped.  The tests compare
    ``hilbert.dims_by_enumeration``, which sums each Clebsch-Gordan window
    over a prefix sum, with it.  O(max_m^2 d^2) additions."""
    ways, dims = {0: 1}, [1]
    for window in range(max_m):
        room = (max_m - window - 1) * d
        step: dict[int, int] = {}
        for h, count in ways.items():
            for c in range(min(h, d) + 1):
                height = h + d - 2 * c
                if height <= room:
                    step[height] = step.get(height, 0) + count
        ways = step
        dims.append(ways.get(0, 0))
    return tuple(dims)


def unfolded_quadrature(d: int, max_m: int, nodes: int) -> tuple:
    """The Molien integral (2/pi) Int_0^pi (sin((d+1)x)/sin x)^m sin^2 x dx
    for m = 0..max_m by the composite three-point Gauss rule on all `nodes`
    panels of [0, pi], both halves evaluated: the rule as it stood before
    ``hilbert.dims_by_quadrature`` folded the right half onto the left."""
    h = math.pi / nodes
    half = h / 2.0
    off = half * math.sqrt(3.0 / 5.0)
    ratios, weights = [], []
    for i in range(nodes):
        center = (i + 0.5) * h
        for x, w in ((center - off, 5.0 / 9.0 * half),
                     (center, 8.0 / 9.0 * half),
                     (center + off, 5.0 / 9.0 * half)):
            s = math.sin(x)
            ratios.append(math.sin((d + 1) * x) / s)
            weights.append(s * s * w)
    out, powers = [], [1.0] * len(ratios)
    for _m in range(max_m + 1):
        out.append(math.fsum(map(operator.mul, powers, weights)) * 2.0 / math.pi)
        powers = list(map(operator.mul, powers, ratios))
    return tuple(out)


def listed_folded_quadrature(d: int, max_m: int, nodes: int) -> tuple:
    """(dims, roundoff) of ``hilbert.dims_by_quadrature`` as the folded rule
    first computed them: the nodes as a list of (x, w) tuples and each row's
    terms as a list.  Raises the same ValueError at the first row that leaves
    the float range."""
    h = math.pi / nodes
    half = h / 2.0
    off = half * math.sqrt(3.0 / 5.0)
    side, mid = 5.0 / 9.0 * half, 8.0 / 9.0 * half
    points = []
    for i in range((nodes + 1) // 2):
        center = (i + 0.5) * h
        points += (center - off, 2 * side), (center, 2 * mid), (center + off, 2 * side)
    if nodes % 2:
        points[-2:] = [(points[-2][0], mid)]
    ratios, weights = [], []
    for x, w in points:
        s = math.sin(x)
        ratios.append(math.sin((d + 1) * x) / s)
        weights.append(s * s * w)
    out, bounds, powers = [], [], [1.0] * len(ratios)
    for m in range(max_m + 1):
        terms = list(map(operator.mul, powers, weights))
        try:
            size = math.fsum(terms) if m % 2 == 0 else sum(map(abs, terms))
        except OverflowError:
            size = math.inf
        if not math.isfinite(size):
            raise ValueError(f"quadrature at d={d} overflows a float at m={m}; "
                             f"use the chebyshev method, which is exact at every size")
        total = size if m % 2 == 0 else 0.0 if d % 2 else math.fsum(terms)
        out.append(total * 2.0 / math.pi)
        bounds.append((m * (d + 1) + 3) * sys.float_info.epsilon * size * 2.0 / math.pi)
        powers = list(map(operator.mul, powers, ratios))
    return tuple(out), tuple(bounds)


def tuple_raising_image(poly) -> dict:
    """The raising shear N_+: a_k -> (d-k) a_(k+1), applied as a derivation
    to ``poly.terms`` on tuple words, zero terms dropped: the loop
    ``group_action._raising_image`` ran before it packed each word into one
    integer.  The tests compare the packed loop with it."""
    d = poly.d
    image = {}
    for word, c in poly.terms.items():
        for i, k in enumerate(word):
            if k < d:
                new = word[:i] + (k + 1,) + word[i + 1:]
                image[new] = image.get(new, 0) + c * (d - k)
    return {word: c for word, c in image.items() if c}
