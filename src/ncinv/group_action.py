"""Exact SL(2, Q) action on binary forms and noncommutative polynomials.

Forms of degree d are written against the binomially weighted basis, so the
coefficient vector (xi_0,...,xi_d) of F = sum binom(d,k) xi_k X^k Y^(d-k)
transforms by the symmetric-power matrix M_d(g) computed here: (g.F)(v) =
F(g^{-1} v).  The letters a_k of a noncommutative polynomial pair against
forms by <a_k, F> = xi_k, so they transform contragrediently, by rows of
M_d(g^{-1}).

Invariance is proved exactly, without sampling: a polynomial is fixed by
all of SL(2, Q) iff every word has letter sum md/2 and the raising shear,
acting on its letters as a derivation, annihilates it (see
``is_invariant``).  Explicit group elements ("witnesses") can still be
applied through ``act`` as a cross-check.  All arithmetic is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from ._rational import as_rational
from .symbolic import NcPolynomial


@dataclass(frozen=True)
class GroupElement:
    """A 2x2 rational matrix [[a, b], [c, e]] with determinant exactly 1."""

    a: Fraction
    b: Fraction
    c: Fraction
    e: Fraction

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "e"):
            object.__setattr__(self, name, as_rational(getattr(self, name), f"entry {name}"))
        if self.a * self.e - self.b * self.c != 1:
            raise ValueError("determinant must be exactly 1")

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.e,
            self.c * other.a + self.e * other.c,
            self.c * other.b + self.e * other.e,
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(self.e, -self.b, -self.c, self.a)

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(1, 0, 0, 1)


SHEAR_UPPER = GroupElement(1, 1, 0, 1)
SHEAR_LOWER = GroupElement(1, 0, 1, 1)
SCALE_TWO = GroupElement(2, 0, 0, Fraction(1, 2))


@dataclass(frozen=True)
class SymPowerMatrix:
    """The (d+1)x(d+1) matrix of g acting on degree-d coefficient vectors."""

    d: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __matmul__(self, other: "SymPowerMatrix") -> "SymPowerMatrix":
        if self.d != other.d:
            raise ValueError("mismatched degrees")
        size = self.d + 1
        rows = tuple(
            tuple(
                sum(self.entries[i][k] * other.entries[k][j] for k in range(size))
                for j in range(size)
            )
            for i in range(size)
        )
        return SymPowerMatrix(self.d, rows)

    def apply(self, vector):
        size = self.d + 1
        return tuple(
            sum(self.entries[i][k] * Fraction(vector[k]) for k in range(size))
            for i in range(size)
        )

    def is_identity(self) -> bool:
        return all(
            entry == (1 if i == j else 0)
            for i, row in enumerate(self.entries)
            for j, entry in enumerate(row)
        )


def sym_power(g: GroupElement, d: int) -> SymPowerMatrix:
    """M_d(g): the action of g on binomially weighted coefficient vectors.

    Substituting the dual action of g^{-1} = [[e,-b],[-c,a]] into X, Y gives
    X -> eX - bY, Y -> -cX + aY; expanding (eX-bY)^k(-cX+aY)^(d-k) and reading
    the X^j Y^(d-j) coefficient against the binom(d,j)-weighted basis yields
    M[j][k] exactly.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    a, b, c, e = g.a, g.b, g.c, g.e
    rows = []
    for j in range(d + 1):
        row = []
        for k in range(d + 1):
            total = Fraction(0)
            for r in range(max(0, j - (d - k)), min(k, j) + 1):
                s = j - r
                total += (
                    comb(k, r)
                    * e**r
                    * (-b) ** (k - r)
                    * comb(d - k, s)
                    * (-c) ** s
                    * a ** (d - k - s)
                )
            row.append(Fraction(comb(d, k), comb(d, j)) * total)
        rows.append(tuple(row))
    return SymPowerMatrix(d, tuple(rows))


def act(g: GroupElement, poly: NcPolynomial) -> NcPolynomial:
    """The polynomial representing (p_1,...,p_m) -> P(g^{-1}p_1,...,g^{-1}p_m).

    Each letter a_k becomes sum_j M_d(g^{-1})[k][j] a_j; the substitution is
    applied one word position at a time with coefficient merging, which keeps
    the intermediate term count bounded by the final support.
    """
    if poly.m == 0:
        return poly
    rows = sym_power(g.inverse(), poly.d).entries
    size = poly.d + 1
    terms = dict(poly.terms)
    for pos in range(poly.m):
        nxt: dict[tuple[int, ...], Fraction] = {}
        for word, coeff in terms.items():
            k = word[pos]
            row = rows[k]
            for j in range(size):
                weight = row[j]
                if not weight:
                    continue
                new_word = word[:pos] + (j,) + word[pos + 1:]
                acc = nxt.get(new_word)
                nxt[new_word] = coeff * weight if acc is None else acc + coeff * weight
        terms = nxt
    return NcPolynomial(poly.d, poly.m, terms)


def random_group_element(rng: random.Random) -> GroupElement:
    """A pseudorandom det-1 matrix with small rational entries."""
    while True:
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if a:
            break
    b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return GroupElement(a, b, c, (1 + b * c) / a)


def random_witnesses(seed: int, count: int) -> tuple[GroupElement, ...]:
    """``count`` pseudorandom det-1 matrices drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return tuple(random_group_element(rng) for _ in range(count))


def default_witnesses(seed: int = 0, random_count: int = 5) -> tuple[GroupElement, ...]:
    """Both shears, one diagonal scaling, and seeded random det-1 matrices."""
    return (SHEAR_UPPER, SHEAR_LOWER, SCALE_TWO) + random_witnesses(seed, random_count)


def _raising_image(poly: NcPolynomial) -> dict[tuple[int, ...], int]:
    """The raising shear N_+ applied to poly, times the common denominator of
    its coefficients; zero terms dropped.

    ``act`` substitutes a_k -> sum_j M_d(g^{-1})[k][j] a_j.  For the upper
    shears g_t = [[1, t], [0, 1]], g_t^{-1} = [[1, -t], [0, 1]], so b = -t
    and c = 0 in ``sym_power``: only r = j survives and, to first order in
    t, M[k][k+1] = binom(d,k+1)/binom(d,k) (k+1) t = (d-k) t.  So N_+ is the
    derivation a_k -> (d-k) a_(k+1): a word maps to at most m words, with
    integer weights.
    """
    d = poly.d
    denominator = lcm(*(c.denominator for c in poly.terms.values()))
    image: dict[tuple[int, ...], int] = {}
    get = image.get
    for word, coeff in poly.terms.items():
        c = coeff.numerator * (denominator // coeff.denominator)
        for i, k in enumerate(word):
            if k < d:
                new = word[:i] + (k + 1,) + word[i + 1:]
                image[new] = get(new, 0) + (d - k) * c
    return {word: c for word, c in image.items() if c}


def is_invariant(poly: NcPolynomial, witnesses=None) -> bool:
    """With no witnesses: True iff poly is SL(2, Q)-invariant, proved exactly:
    every word has letter sum md/2, and N_+ kills poly.

    Write g_t = exp(tN) for a shear generator N.  The group acts on the
    polynomials of fixed d and m through a representation, so act(g_t) =
    exp(tD) for the derivation D that N induces.  D is nilpotent, so
    exp(D) - 1 = D (1 + D/2! + ...) with the second factor invertible: the
    shear fixes poly iff D kills it, and then so does every g_t, t rational.
    The two shears generate SL(2, Q), so invariance means that N_+
    (``_raising_image``) and N_-: a_k -> k a_(k-1) both kill poly.

    E = N_+, F = N_- and H = [E, F] form an sl(2) triple; H multiplies a
    word by 2 (letter sum) - md, so the letter sums test Hv = 0.  If Ev = 0
    and Hv = 0, then E(Fv) = F(Ev) + Hv = 0 makes Fv a highest-weight vector
    of weight -2, which a finite-dimensional module does not have: Fv = 0
    (Fulton-Harris, Representation Theory, Lecture 11).  Conversely Ev = Fv
    = 0 gives Hv = 0.  So the verdict equals that of the witnesses
    SHEAR_UPPER and SHEAR_LOWER.

    With witnesses: True iff act(g, poly) == poly exactly for every witness g.
    """
    if witnesses is None:
        md = poly.m * poly.d
        return (all(2 * sum(word) == md for word in poly.terms)
                and not _raising_image(poly))
    return all(act(g, poly) == poly for g in witnesses)
