"""Dimension series of the invariant spaces, computed three ways.

For fixed form degree d, dims[m] is the dimension of the degree-m invariant
space: the number of m-partite noncrossing pairings of [md].  The three
routes are

  enumeration  -- count the pairings directly (exact integers),
  chebyshev    -- expand U_d(x)^m over the dilated Chebyshev recursion
                  U_n = x U_{n-1} - U_{n-2} and take semicircle moments
                  (even moments are Catalan numbers; exact integers),
  quadrature   -- (2/pi) Int_0^pi (sin((d+1)x)/sin x)^m sin^2 x dx by a
                  composite three-point Gauss rule (floats).

The integrand extends smoothly across the endpoints (the sin^2 factor kills
the removable singularity of the ratio, whose limit there is d+1), and it is
in fact a trigonometric polynomial of degree md+2.  Quadrature error under
node doubling therefore collapses very quickly; the Gauss panels keep the
endpoints out of the node set entirely.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import mul

from .partitions import _iter_nc_matchings, catalan


@dataclass(frozen=True)
class IntPolynomial:
    """A one-variable polynomial with integer coefficients (ascending)."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = list(self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(int(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return IntPolynomial(tuple(out))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        size = max(len(self.coeffs), len(other.coeffs))
        out = [0] * size
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPolynomial(tuple(out))

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out


_X = IntPolynomial((0, 1))
_ONE = IntPolynomial((1,))


def chebyshev_poly(n: int) -> IntPolynomial:
    """Dilated Chebyshev polynomial of the second kind:
    U_0 = 1, U_1 = x, U_n = x U_{n-1} - U_{n-2}, so U_n(2cos t) =
    sin((n+1)t)/sin t.

    >>> chebyshev_poly(3).coeffs
    (0, -2, 0, 1)
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev, cur = _ONE, _X
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, _X * cur - prev
    return cur


def semicircle_moment(k: int) -> int:
    """k-th moment of the standard semicircle law: C_(k/2) for even k."""
    return catalan(k // 2) if k % 2 == 0 else 0


@dataclass(frozen=True)
class DimensionSeries:
    """dims[m] for m = 0..M, tagged with the method that produced it.

    Exact methods carry ints; quadrature carries floats plus per-entry
    node-doubling error estimates and roundoff bounds.
    """

    d: int
    dims: tuple
    method: str
    error: tuple[float, ...] | None = None
    roundoff: tuple[float, ...] | None = None


def dims_by_enumeration(d: int, max_m: int) -> DimensionSeries:
    """dims[m] = number of m-partite noncrossing pairings of [md], counted by
    visiting every pairing (independent of the transfer count that
    ``partitions.count_m_partite_nc_pairings`` uses)."""
    if d < 0 or max_m < 0:
        raise ValueError("d and max_m must be nonnegative")
    dims = tuple(sum(1 for _ in _iter_nc_matchings(m * d, d))
                 for m in range(max_m + 1))
    return DimensionSeries(d, dims, "enumeration")


def dims_by_chebyshev(d: int, max_m: int) -> DimensionSeries:
    """dims[m] = semicircle moment of U_d(x)^m, expanded exactly."""
    if d < 0 or max_m < 0:
        raise ValueError("d and max_m must be nonnegative")
    u = chebyshev_poly(d)
    power = _ONE
    dims = []
    for _m in range(max_m + 1):
        dims.append(sum(c * semicircle_moment(k) for k, c in enumerate(power.coeffs)))
        power = power * u
    return DimensionSeries(d, tuple(dims), "chebyshev")


_GAUSS3_OFFSET = math.sqrt(3.0 / 5.0)
_EPS = sys.float_info.epsilon


def _quadrature_row(d: int, max_m: int, nodes: int) -> tuple[list[float], list[float]]:
    """Composite three-point Gauss rule on [0, pi] with `nodes` panels: the
    value for each m, and a bound on its rounding error.

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
    """
    h = math.pi / nodes
    half = h / 2.0
    off = half * _GAUSS3_OFFSET
    ratios = []
    weights = []
    for i in range(nodes):
        center = (i + 0.5) * h
        for x, w in ((center - off, 5.0 / 9.0 * half),
                     (center, 8.0 / 9.0 * half),
                     (center + off, 5.0 / 9.0 * half)):
            s = math.sin(x)
            ratios.append(math.sin((d + 1) * x) / s)
            weights.append(s * s * w)
    out = []
    bounds = []
    powers = [1.0] * len(ratios)
    for m in range(max_m + 1):
        terms = list(map(mul, powers, weights))
        total = math.fsum(terms)
        # The weights and even powers are nonnegative: then sum |terms| = total.
        size = sum(map(abs, terms)) if m % 2 else total
        del terms  # before the next powers are built, to hold two node lists, not three
        out.append(total * 2.0 / math.pi)
        bounds.append((m * (d + 1) + 3) * _EPS * size * 2.0 / math.pi)
        powers = list(map(mul, powers, ratios))
    return out, bounds


def dims_by_quadrature(d: int, max_m: int, nodes: int) -> DimensionSeries:
    """Molien integral (2/pi) Int_0^pi (sin((d+1)x)/sin x)^m sin^2 x dx per m,
    with a node-doubling error estimate and a roundoff bound for each entry."""
    if nodes < 1:
        raise ValueError("need at least 1 panel")
    if d < 0 or max_m < 0:
        raise ValueError("d and max_m must be nonnegative")
    coarse, roundoff = _quadrature_row(d, max_m, nodes)
    fine, _ = _quadrature_row(d, max_m, 2 * nodes)
    err = tuple(abs(a - b) for a, b in zip(coarse, fine))
    return DimensionSeries(d, tuple(coarse), "quadrature", error=err, roundoff=tuple(roundoff))


QUADRATURE_TOL = 1e-8


@dataclass(frozen=True)
class MethodComparison:
    """Row-per-m comparison of the three methods for one degree d; the
    quadrature column must lie within QUADRATURE_TOL of the exact one, or
    within the row's roundoff bound where that is larger."""

    d: int
    rows: tuple[tuple, ...]  # (m, enum, cheb, quad, abs_err)
    roundoff: tuple[float, ...]  # the quadrature's roundoff bound per row

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


def compare_methods(d: int, max_m: int, *, nodes: int = 256) -> MethodComparison:
    """Run all three methods and tabulate (m, enum, cheb, quad, |quad-exact|)."""
    enum = dims_by_enumeration(d, max_m)
    cheb = dims_by_chebyshev(d, max_m)
    quad = dims_by_quadrature(d, max_m, nodes)
    rows = tuple(
        (m, enum.dims[m], cheb.dims[m], quad.dims[m], abs(quad.dims[m] - enum.dims[m]))
        for m in range(max_m + 1)
    )
    return MethodComparison(d, rows, quad.roundoff)
