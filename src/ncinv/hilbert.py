"""Dimension series of the invariant spaces, computed three ways.

For fixed form degree d, dims[m] is the dimension of the degree-m invariant
space: the number of m-partite noncrossing pairings of [md].  The three
routes are

  enumeration  -- the height of the stack of open chords, window by
                  window: Clebsch-Gordan window sums over one prefix sum
                  (exact integers; the column ``ncinv dim`` reads),
  chebyshev    -- Weyl's constant term: on the unit circle z = e^(ix),
                  U_d(z + 1/z) = z^-d + z^(2-d) + ... + z^d, and dims[m]
                  is c_0 - c_2, read off the Laurent coefficients of
                  its m-th power (exact integers),
  quadrature   -- (2/pi) Int_0^pi (sin((d+1)x)/sin x)^m sin^2 x dx by a
                  composite three-point Gauss rule (floats).

The integrand extends smoothly across the endpoints (the sin^2 factor kills
the removable singularity of the ratio, whose limit there is d+1), and it is
in fact a cosine polynomial of degree md+2, which the rule integrates
exactly, up to rounding, from ``exact_panels(d, m)`` panels on; the Gauss
panels keep the endpoints out of the node set entirely, and only those
left of pi/2 are evaluated (see ``dims_by_quadrature``).
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import accumulate, chain, repeat
from operator import mul, sub

from ._value import Value


class DimensionSeries(Value):
    """dims[m] for m = 0..M: ints from the exact methods; floats from the
    quadrature, with a bound on each entry's rounding error."""

    _fields = ("d", "dims", "roundoff")

    def __init__(self, d: int, dims: tuple, roundoff: tuple[float, ...] | None = None) -> None:
        self._store(d, dims, roundoff)


def dims_by_enumeration(d: int, max_m: int) -> DimensionSeries:
    """dims[m] by a stack-height transfer.  Scanning the points left to right,
    each one opens a chord or closes the most recent open one.  A chord may
    not close against an opener of its own window, so each window first
    closes c <= min(h, d) chords opened in earlier windows and then opens
    d - c: the stack goes from height h to each h' = h + d - 2c, as in the
    Clebsch-Gordan rule for V_h (x) V_d (Fulton and Harris, Representation
    Theory, Lecture 11).  After w windows every height is of the parity of
    wd, so only that class is kept, and the paths at h' sum those at
    |h' - d|, ..., h' + d: one difference of the class's prefix sum.  dims[m]
    counts the height paths from 0 back to 0 over m windows.  A path higher
    than the windows left before max_m can close is dropped; one that
    returns to 0 earlier was never that high, so every entry is exact.
    O(max_m^2 d) additions.

    >>> dims_by_enumeration(2, 8).dims
    (1, 0, 1, 1, 3, 6, 15, 36, 91)
    """
    if d < 0 or max_m < 0:
        raise ValueError("d and max_m must be nonnegative")
    ways, dims = [1], [1]  # ways[h // 2]: the paths at stack height h
    for window in range(max_m):
        room = (max_m - window - 1) * d  # openers the later windows can still close
        top = min(room, 2 * len(ways) - 2 + window * d % 2 + d)
        # sums[i] = ways[0] + ... + ways[i - 1], constant past the last height
        tail = repeat(0, (top + d) // 2 + 1 - len(ways))
        sums = list(accumulate(chain(ways, tail), initial=0))
        low = (window + 1) * d % 2
        ways = [sums[(h + d) // 2 + 1] - sums[abs(h - d) // 2] for h in range(low, top + 1, 2)]
        dims.append(0 if low else ways[0])
    return DimensionSeries(d, tuple(dims))


def dims_by_chebyshev(d: int, max_m: int) -> DimensionSeries:
    """dims[m] by Weyl's constant term.  On the unit circle z = e^(it),
    U_d(2cos t) = z^-d + z^(2-d) + ... + z^d, and sin^2 t weights z^k in the
    Molien integral by 1 at k = 0, -1/2 at k = +-2 and 0 elsewhere; so
    dims[m] = c_0 - c_2, with c_k the coefficient of z^k in U_d(z + 1/z)^m
    (Fulton and Harris, Representation Theory, Lecture 11).  ``coeffs[i]``
    holds c_(2i - md), the one parity class that occurs, and each further
    factor is a window sum of width d + 1 over one prefix sum.  c_-2 = c_2,
    and dims[m] = 0 where md is odd.  O(max_m^2 d) exact integer additions.

    >>> dims_by_chebyshev(2, 8).dims
    (1, 0, 1, 1, 3, 6, 15, 36, 91)
    """
    if d < 0 or max_m < 0:
        raise ValueError("d and max_m must be nonnegative")
    coeffs, dims, pad = [1], [], [0] * d
    for m in range(max_m + 1):
        half, odd = divmod(m * d, 2)
        dims.append(0 if odd else coeffs[half] - (coeffs[half - 1] if half else 0))
        if m < max_m:
            sums = list(accumulate(pad + coeffs + pad, initial=0))
            coeffs = list(map(sub, sums[d + 1:], sums))  # the sum of coeffs[i - d .. i]
    return DimensionSeries(d, tuple(dims))


_GAUSS3_OFFSET = math.sqrt(3.0 / 5.0)
_EPS = sys.float_info.epsilon


def exact_panels(d: int, max_m: int) -> int:
    """The fewest panels P at which ``dims_by_quadrature`` is exact up to
    rounding on every row m <= max_m.  The integrand is a cosine polynomial
    of degree md + 2.  The panel centres c_j = (j + 1/2) pi/P satisfy
    sum_j cos(k c_j) = 0 for 0 < k < 2P, and the two off-centre Gauss nodes
    of a panel have equal weights, so their sine terms cancel: the rule
    integrates cos(kx) exactly for every k < 2P (Trefethen and Weideman,
    SIAM Review 56, 2014).  So P = floor((max_m d + 2)/2) + 1."""
    return (max_m * d + 2) // 2 + 1


def _panels(d: int, max_m: int, nodes: int | None) -> int:
    """The panels a comparison or the CLI runs at: `nodes`, refused below
    ``exact_panels(d, max_m)``, or by default 256 or that count if more."""
    least = exact_panels(d, max_m)
    if nodes is None:
        return max(256, least)
    if nodes < least:
        raise ValueError(f"--nodes {nodes} is below {least}, the fewest panels that make "
                         f"the quadrature exact at d={d}, max-m {max_m}")
    return nodes


def dims_by_quadrature(d: int, max_m: int, nodes: int) -> DimensionSeries:
    """Molien integral (2/pi) Int_0^pi (sin((d+1)x)/sin x)^m sin^2 x dx per m,
    by one composite three-point Gauss rule on [0, pi] with `nodes` panels,
    with a bound on each entry's rounding error.  The rule and the integrand
    are symmetric under x -> pi - x up to the sign (-1)^(dm), so the nodes
    right of pi/2 are folded onto their mirrors: about 1.5 nodes per panel,
    and exactly 0.0 where dm is odd.  The nodes' ratios and weights are kept
    packed in two float arrays, and each row is summed straight from the
    running powers, so memory is O(nodes) with no list of terms.

    All nodes are interior, so the removable endpoint singularity of the
    ratio never needs special casing.  Powers of the ratio are accumulated
    incrementally across m, and each sum is compensated (math.fsum), so the
    rounding error lies in the terms p_i w_i (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 3-4).  To first order: rounding the
    argument (d+1)x of the numerator sine gives each ratio a relative error
    of order (d+1)u, its m-th power m times that, and the weight, product
    and scaling a few roundings more.  The bound is therefore
    (m(d+1) + 3) eps sum |p_i w_i| 2/pi, with eps = 2u as margin; the tests
    check it against the exact values up to d = 12.

    Raises ValueError at the first m whose terms or the sum of their sizes
    leave the float range; the exact methods have no such limit.
    """
    if nodes < 1:
        raise ValueError("need at least 1 panel")
    if d < 0 or max_m < 0:
        raise ValueError("d and max_m must be nonnegative")
    h = math.pi / nodes
    half = h / 2.0
    off = half * _GAUSS3_OFFSET
    side, mid = 5.0 / 9.0 * half, 8.0 / 9.0 * half
    ratios, weights = array("d"), array("d")
    for i in range((nodes + 1) // 2):  # the panels left of pi/2, weights doubled for their mirrors
        center = (i + 0.5) * h
        panel = (center - off, 2 * side), (center, 2 * mid), (center + off, 2 * side)
        if 2 * i + 1 == nodes:  # the middle panel is its own mirror: left node twice, centre once
            panel = panel[0], (center, mid)
        for x, w in panel:
            s = math.sin(x)
            ratios.append(math.sin((d + 1) * x) / s)
            weights.append(s * s * w)
    out, bounds, powers = [], [], [1.0] * len(ratios)
    for m in range(max_m + 1):
        # Infinite once a power, a term or their sum overflows.  The weights and
        # even powers are nonnegative, so for even m the sum is its own size;
        # for odd m the sizes are summed apart, as fsum fails on -inf + inf.
        terms = map(mul, powers, weights)  # an iterator: no row holds a list of terms
        try:
            size = math.fsum(terms) if m % 2 == 0 else sum(map(abs, terms))
        except OverflowError:  # fsum's exact sum left the float range
            size = math.inf
        if not math.isfinite(size):
            raise ValueError(f"quadrature at d={d} overflows a float at m={m}; "
                             f"use the chebyshev method, which is exact at every size")
        # Odd about pi/2 when dm is odd, so the mirror halves cancel exactly.
        total = size if m % 2 == 0 else 0.0 if d % 2 else math.fsum(map(mul, powers, weights))
        out.append(total * 2.0 / math.pi)
        bounds.append((m * (d + 1) + 3) * _EPS * size * 2.0 / math.pi)
        powers = list(map(mul, powers, ratios))
    return DimensionSeries(d, tuple(out), roundoff=tuple(bounds))


QUADRATURE_TOL = 1e-8


class MethodComparison(Value):
    """Row-per-m comparison of the three methods for one degree d; the
    quadrature column must lie within QUADRATURE_TOL of the exact one, or
    within the row's roundoff bound where that is larger.  ``rows`` holds
    (m, enum, cheb, quad, abs_err); ``roundoff`` the quadrature's roundoff
    bound per row."""

    _fields = ("d", "rows", "roundoff")

    def __init__(self, d: int, rows: tuple[tuple, ...], roundoff: tuple[float, ...]) -> None:
        self._store(d, rows, roundoff)

    @property
    def exact_methods_agree(self) -> bool:
        return all(row[1] == row[2] for row in self.rows)

    @property
    def quadrature_within_tolerance(self) -> bool:
        return all(row[4] <= max(QUADRATURE_TOL, bound)
                   for row, bound in zip(self.rows, self.roundoff, strict=True))

    @property
    def ok(self) -> bool:
        return self.exact_methods_agree and self.quadrature_within_tolerance

    def to_csv(self, precision: int = 12) -> str:
        lines = ["m,enum,cheb,quad,abs_err"]
        for m, en, ch, qu, err in self.rows:
            lines.append(f"{m},{en},{ch},{qu:.{precision}g},{err:.3e}")
        return "\n".join(lines)


def compare_methods(d: int, max_m: int, *, nodes: int | None = None) -> MethodComparison:
    """Run all three methods and tabulate (m, enum, cheb, quad, |quad-exact|),
    the quadrature at ``_panels(d, max_m, nodes)`` panels.  The quadrature
    runs first, so that a request it refuses fails before any exact column
    is computed."""
    quad = dims_by_quadrature(d, max_m, _panels(d, max_m, nodes))
    enum = dims_by_enumeration(d, max_m)
    cheb = dims_by_chebyshev(d, max_m)
    rows = tuple(
        (m, enum.dims[m], cheb.dims[m], quad.dims[m], abs(quad.dims[m] - enum.dims[m]))
        for m in range(max_m + 1)
    )
    return MethodComparison(d, rows, quad.roundoff)
