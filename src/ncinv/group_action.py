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
applied through ``act`` as a cross-check.  Both run on the packed words an
``NcPolynomial`` stores (see ``symbolic``): setting letter i from k to j adds
(j - k) times its place value, so neither builds a tuple word.  All
arithmetic is exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from ._rational import exact
from ._value import Value
from .symbolic import NcPolynomial, _letters, _nonzero, _places


class GroupElement(Value):
    """A 2x2 rational matrix [[a, b], [c, e]] with determinant exactly 1."""

    _fields = ("a", "b", "c", "e")

    def __init__(self, a, b, c, e) -> None:
        a, b, c, e = (exact(value, f"entry {name}")
                      for name, value in zip(self._fields, (a, b, c, e)))
        if a * e - b * c != 1:
            raise ValueError("determinant must be exactly 1")
        self._store(a, b, c, e)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.e, -self.b, -self.c, self.a)


SHEAR_UPPER = GroupElement(1, 1, 0, 1)
SHEAR_LOWER = GroupElement(1, 0, 1, 1)
SCALE_TWO = GroupElement(2, 0, 0, Fraction(1, 2))


def sym_power(g: GroupElement, d: int) -> tuple[tuple, ...]:
    """The rows of M_d(g), the action of g on binomially weighted coefficients.

    Substituting the dual action of g^{-1} = [[e,-b],[-c,a]] into X, Y gives
    X -> eX - bY, Y -> -cX + aY.  Expanding (eX-bY)^k(-cX+aY)^(d-k) and
    reading the X^j Y^(d-j) coefficient against the binom(d,j)-weighted basis
    gives binom(d,k) binom(k,r) binom(d-k,j-r) / binom(d,j) per term, which is
    binom(j,r) binom(d-j,k-r): no division, so an integer g has int rows.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    a, b, c, e = g.a, g.b, g.c, g.e
    rows = []
    for j in range(d + 1):
        row = []
        for k in range(d + 1):
            total = 0
            for r in range(max(0, j + k - d), min(j, k) + 1):
                total += (comb(j, r) * comb(d - j, k - r) * e**r * (-c) ** (j - r)
                          * (-b) ** (k - r) * a ** (d - j - k + r))
            row.append(total)
        rows.append(tuple(row))
    return tuple(rows)


def act(g: GroupElement, poly: NcPolynomial) -> NcPolynomial:
    """The polynomial representing (p_1,...,p_m) -> P(g^{-1}p_1,...,g^{-1}p_m).

    Each letter a_k becomes sum_j M_d(g^{-1})[k][j] a_j; the substitution is
    applied one word position at a time, merging coefficients and dropping
    the words that cancel before the next position expands them.  On a
    packed word, setting the letter at a position from k to j adds (j - k)
    times that position's place value.
    """
    if poly.m == 0:
        return poly
    rows = sym_power(g.inverse(), poly.d)
    letters = _letters(poly.d, poly.m)
    packed = poly._packed
    for pos, place in enumerate(_places(poly.d, poly.m)):
        steps = [[((j - k) * place, w) for j, w in enumerate(row) if w]
                 for k, row in enumerate(rows)]
        nxt: dict[int, int | Fraction] = {}
        get = nxt.get
        for key, coeff in packed.items():
            for step, weight in steps[letters(key)[pos]]:
                new = key + step
                acc = get(new)
                # Weight on the left: int * Fraction takes the slower reflected path.
                nxt[new] = weight * coeff if acc is None else acc + weight * coeff
        packed = {key: c for key, c in nxt.items() if c}
    return NcPolynomial._trusted(poly.d, poly.m, packed)


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


def _raising_image(poly: NcPolynomial) -> NcPolynomial:
    """The raising shear N_+ applied to poly's coefficients, zero terms
    dropped: ints stay ints, Fractions stay Fractions.

    ``act`` substitutes a_k -> sum_j M_d(g^{-1})[k][j] a_j.  For the upper
    shears g_t = [[1, t], [0, 1]], g_t^{-1} = [[1, -t], [0, 1]], so b = -t
    and c = 0 in ``sym_power``: only r = j survives and, to first order in
    t, M[k][k+1] = binom(d-k,1) t = (d-k) t.  So N_+ is the derivation
    a_k -> (d-k) a_(k+1): a word maps to at most m words, with integer weights.

    Raising the letter at a position adds that position's place value to
    the packed word; a letter below d never carries into the next.
    """
    d, m = poly.d, poly.m
    letters, places = _letters(d, m), _places(d, m)
    image = {}
    get = image.get
    for key, c in poly._packed.items():
        for at, k in zip(places, letters(key)):
            if k < d:
                new = key + at
                image[new] = get(new, 0) + c * (d - k)
    return _nonzero(d, m, image)


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
        md, letters = poly.m * poly.d, _letters(poly.d, poly.m)
        return (all(2 * sum(letters(key)) == md for key in poly._packed)
                and _raising_image(poly).is_zero())
    return all(act(g, poly) == poly for g in witnesses)
