"""Reference values the benchmark checks program outputs against.

Every function here is derived from the mathematics alone and imports
nothing from ``ncinv``, so a fault in the program cannot also hide in its
reference.  The benchmark's tests feed each check a deliberately wrong value
and require it to be rejected.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import comb


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def riordan(n: int) -> int:
    """Riordan number: the inverse binomial transform of the Catalan numbers."""
    return sum((-1) ** (n - k) * comb(n, k) * catalan(k) for k in range(n + 1))


def _transfer_paths(m: int, d: int):
    """Yield close counts (c_1..c_m) of the stack-height transfer.

    Scanning m windows of d points left to right, the open chords form a
    stack.  A window may only close chords opened in earlier windows, and
    those lie on top of the stack exactly until the window opens its own, so a
    window closes c <= h chords and then opens d - c.  Each admissible sequence
    ending at height 0 is one m-partite noncrossing pairing.
    """
    def rec(i: int, h: int, acc: tuple):
        if i == m:
            if h == 0:
                yield acc
            return
        for c in range(min(h, d) + 1):
            yield from rec(i + 1, h - c + d - c, acc + (c,))

    yield from rec(0, 0, ())


def transfer_count(m: int, d: int) -> int:
    """Number of m-partite noncrossing pairings of [md], by the height transfer."""
    heights = {0: 1}
    for _ in range(m):
        nxt: dict[int, int] = {}
        for h, ways in heights.items():
            for c in range(min(h, d) + 1):
                nh = h - c + d - c
                nxt[nh] = nxt.get(nh, 0) + ways
        heights = nxt
    return heights.get(0, 0)


def closed_form_dim(m: int, d: int) -> int:
    """Catalan (d = 1) and Riordan (d = 2) closed forms for the dimension."""
    if d == 1:
        return catalan(m // 2) if m % 2 == 0 else 0
    if d == 2:
        return riordan(m)
    raise ValueError("closed forms are known for d = 1 and d = 2 only")


def leading_words(m: int, d: int) -> set[tuple[int, ...]]:
    """Outgoing-chord counts of every m-partite noncrossing pairing.

    Window i of a transfer path opens d - c_i chords, each leaving the window
    to the right, so the count word is (d - c_1, ..., d - c_m).
    """
    return {tuple(d - c for c in path) for path in _transfer_paths(m, d)}


def first_block_moments(cumulants, n: int) -> list[Fraction]:
    """m_0..m_n from free cumulants k_1, k_2, ... by the first-block recursion

        m_k = sum_s k_s * sum_{i_1+...+i_s = k-s} m_{i_1} ... m_{i_s}.

    ``cumulants(s)`` returns k_s.
    """
    moments = [Fraction(1)]
    for k in range(1, n + 1):
        total = Fraction(0)
        # After step s, conv[t] sums prod m_(i_j) over compositions of t into
        # s parts; only t <= k - 1 is needed, so m_k itself is never read.
        conv = [Fraction(1)] + [Fraction(0)] * (k - 1)
        for s in range(1, k + 1):
            conv = [
                sum((conv[t - i] * moments[i] for i in range(t + 1)), Fraction(0))
                for t in range(k)
            ]
            kappa = Fraction(cumulants(s))
            if kappa:
                total += kappa * conv[k - s]
        moments.append(total)
    return moments


def interval_moment(sizes, cumulants) -> Fraction:
    """Sum over noncrossing partitions of [sum(sizes)] whose blocks take at
    most one point from each group of consecutive sizes, of prod k_|B|.

    The block holding the leftmost point splits the rest into independent
    gaps, so the sum is a memoised first-block recursion over point ranges.
    """
    label = [g for g, size in enumerate(sizes) for _ in range(size)]
    n = len(label)

    @functools.lru_cache(maxsize=None)
    def whole(lo: int, hi: int) -> Fraction:
        if lo > hi:
            return Fraction(1)
        return grow(lo, hi, lo, frozenset((label[lo],)), 1)

    @functools.lru_cache(maxsize=None)
    def grow(lo: int, hi: int, last: int, used: frozenset, size: int) -> Fraction:
        total = Fraction(cumulants(size)) * whole(last + 1, hi)
        for x in range(last + 1, hi + 1):
            if label[x] not in used:
                gap = whole(last + 1, x - 1)
                if gap:
                    total += gap * grow(lo, hi, x, used | {label[x]}, size + 1)
        return total

    return whole(0, n - 1)


def moebius_from_zero(blocks) -> int:
    """mu(0, q) in NC(n) = prod over blocks B of q of (-1)^(|B|-1) C_(|B|-1)."""
    out = 1
    for block in blocks:
        k = len(block)
        out *= (-1) ** (k - 1) * catalan(k - 1)
    return out


def random_nc_partition(rng: random.Random, sizes) -> tuple[tuple[int, ...], ...]:
    """A noncrossing partition of [sum(sizes)] with the given block sizes,
    placed at random: blocks are laid out as nested or adjacent runs."""
    n = sum(sizes)
    order = list(sizes)
    rng.shuffle(order)
    owner = [None] * n
    free = list(range(n))
    # Each new block takes points that are consecutive among the still-free
    # ones, so no free point is left inside its span and every later block
    # either encloses it or sits beside it: the result is noncrossing.
    for b, size in enumerate(order):
        start = rng.randrange(len(free) - size + 1)
        for x in free[start:start + size]:
            owner[x] = b
        free = free[:start] + free[start + size:]
    blocks: dict[int, list[int]] = {}
    for x, b in enumerate(owner):
        blocks.setdefault(b, []).append(x + 1)
    return tuple(sorted(tuple(v) for v in blocks.values()))


def crossing_count(chords) -> int:
    """Number of pairs of chords (p < q pairs) that interleave."""
    return sum(1 for i, (a, b) in enumerate(chords) for c, e in chords[i + 1:]
               if a < c < b < e or c < a < e < b)


def det2(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def evaluate_brackets(expr: dict, vectors) -> Fraction:
    """Value of a bracket-expression JSON object when symbol i is the integer
    2-vector ``vectors[i]``: each chord {p, q} contributes det(v_i(p), v_i(q)),
    where slot s belongs to symbol (s - 1) // d and a pair is read in the
    orientation written."""
    d = expr["d"]
    total = Fraction(0)
    for term in expr["terms"]:
        value = Fraction(term["coeff"]) * int(term.get("sign", 1))
        for p, q in term["chords"]:
            value *= det2(vectors[(p - 1) // d], vectors[(q - 1) // d])
        total += value
    return total


def shear_images(poly: dict[tuple[int, ...], Fraction], d: int):
    """Images of a noncommutative polynomial under the two infinitesimal
    shears, acting on every letter as the derivations a_j -> (d-j) a_(j+1)
    and a_j -> j a_(j-1) (Cayley's operators on binomially weighted
    coefficients).  A polynomial is SL(2)-invariant iff both images vanish,
    since the shears generate sl(2) and a unipotent element fixes a vector
    exactly when its logarithm kills it."""
    images = []
    for step, weight in ((1, lambda j: d - j), (-1, lambda j: j)):
        out: dict[tuple[int, ...], Fraction] = {}
        for word, coeff in poly.items():
            for pos, j in enumerate(word):
                w = weight(j)
                if w:
                    new = word[:pos] + (j + step,) + word[pos + 1:]
                    out[new] = out.get(new, 0) + coeff * w
        images.append({k: v for k, v in out.items() if v})
    return images


def is_annihilated(poly: dict[tuple[int, ...], Fraction], d: int) -> bool:
    return all(not image for image in shear_images(poly, d))
