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
from dataclasses import dataclass

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
    node-doubling error estimates.
    """

    d: int
    dims: tuple
    method: str
    error: tuple[float, ...] | None = None


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


def _quadrature_row(d: int, max_m: int, nodes: int) -> list[float]:
    """Composite three-point Gauss rule on [0, pi] with `nodes` panels.

    All nodes are interior, so the removable endpoint singularity of the
    ratio never needs special casing.  Powers of the ratio are accumulated
    incrementally across m, and each sum is compensated (math.fsum).
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
    powers = [1.0] * len(ratios)
    for _m in range(max_m + 1):
        total = math.fsum(p * w for p, w in zip(powers, weights))
        out.append(total * 2.0 / math.pi)
        powers = [p * r for p, r in zip(powers, ratios)]
    return out


def dims_by_quadrature(d: int, max_m: int, nodes: int) -> DimensionSeries:
    """Molien integral (2/pi) Int_0^pi (sin((d+1)x)/sin x)^m sin^2 x dx per m,
    with a node-doubling error estimate for each entry."""
    if nodes < 1:
        raise ValueError("need at least 1 panel")
    if d < 0 or max_m < 0:
        raise ValueError("d and max_m must be nonnegative")
    coarse = _quadrature_row(d, max_m, nodes)
    fine = _quadrature_row(d, max_m, 2 * nodes)
    err = tuple(abs(a - b) for a, b in zip(coarse, fine))
    return DimensionSeries(d, tuple(coarse), "quadrature", error=err)


QUADRATURE_TOL = 1e-8


@dataclass(frozen=True)
class MethodComparison:
    """Row-per-m comparison of the three methods for one degree d; the
    quadrature column must lie within QUADRATURE_TOL of the exact one."""

    d: int
    rows: tuple[tuple, ...]  # (m, enum, cheb, quad, abs_err)

    @property
    def exact_methods_agree(self) -> bool:
        return all(row[1] == row[2] for row in self.rows)

    @property
    def quadrature_within_tolerance(self) -> bool:
        return all(row[4] <= QUADRATURE_TOL for row in self.rows)

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
    return MethodComparison(d, rows)
