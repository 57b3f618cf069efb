import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncinv
from ncinv.group_action import (
    SCALE_TWO,
    SHEAR_LOWER,
    SHEAR_UPPER,
    GroupElement,
    _raising_image,
    act,
    default_witnesses,
    is_invariant,
    random_group_element,
    random_witnesses,
    sym_power,
)
from ncinv.symbolic import NcPolynomial, leading_term, noncrossing_basis

from _oracles import apply, identity, matmul, tuple_act, tuple_raising_image

IDENTITY = GroupElement(1, 0, 0, 1)


def rows(g):
    return ((g.a, g.b), (g.c, g.e))


def times(g, h):
    """The group element g h."""
    (a, b), (c, e) = matmul(rows(g), rows(h))
    return GroupElement(a, b, c, e)


def md_pairs(limit):
    out = []
    for md in range(2, limit + 1, 2):
        for d in [x for x in range(1, md + 1) if md % x == 0]:
            m = md // d
            if m >= 2:
                out.append((m, d))
    return out


class TestGroupElement:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            GroupElement(1, 0, 0, 2)
        g = GroupElement(2, 0, 0, Fraction(1, 2))
        assert g.e == Fraction(1, 2)

    def test_inverse_and_product(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_group_element(rng)
            assert matmul(rows(g), rows(g.inverse())) == identity(2)
            assert matmul(rows(g.inverse()), rows(g)) == identity(2)

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="entry a '1/0' has a zero denominator"):
            GroupElement("1/0", "0", "0", "1")

    @pytest.mark.parametrize("text", ["1e0", "1E0", "10e-1", "1_0", "inf", "0x1", ""])
    def test_exponent_and_other_strings_refused(self, text):
        with pytest.raises(ValueError, match="plain decimal"):
            GroupElement(text, 0, 0, 1)

    def test_plain_strings_accepted(self):
        g = GroupElement("1.5", "+1/2", " 1 ", "1")
        assert (g.a, g.b, g.c, g.e) == (Fraction(3, 2), Fraction(1, 2), 1, 1)

    def test_integer_entries_stay_ints(self):
        g = GroupElement(7, "2", 3, " 1 ")
        assert [type(v) for v in (g.a, g.b, g.c, g.e)] == [int] * 4
        assert type(GroupElement("3/1", 0, 0, "1/3").a) is Fraction

    def test_random_elements_have_det_one(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_group_element(rng)
            assert g.a * g.e - g.b * g.c == 1


class TestSymPower:
    def test_identity(self):
        for d in range(5):
            assert sym_power(IDENTITY, d) == identity(d + 1)

    def test_degree_one_is_dual_action(self):
        # on (xi_0, xi_1) the dual action of g = [[a,b],[c,e]] is
        # [[a, -b], [-c, e]]: substitute X -> eX - bY, Y -> -cX + aY
        rng = random.Random(7)
        for _ in range(10):
            g = random_group_element(rng)
            assert sym_power(g, 1) == ((g.a, -g.b), (-g.c, g.e))

    def test_multiplicative(self):
        rng = random.Random(13)
        for d in range(5):
            g, h = random_group_element(rng), random_group_element(rng)
            product = matmul(sym_power(g, d), sym_power(h, d))
            assert product == sym_power(times(g, h), d)

    def test_inverse_matrix(self):
        rng = random.Random(17)
        for d in range(6):
            g = random_group_element(rng)
            product = matmul(sym_power(g, d), sym_power(g.inverse(), d))
            assert product == identity(d + 1)

    def test_binary_form_substitution(self):
        # (g.F)(v) = F(g^{-1} v) checked pointwise on random rational data
        rng = random.Random(23)
        from math import comb

        def eval_form(d, xi, v):
            x, y = v
            return sum(comb(d, k) * xi[k] * x**k * y ** (d - k) for k in range(d + 1))

        for d in (1, 2, 3, 4):
            g = random_group_element(rng)
            xi = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d + 1)]
            new_xi = apply(sym_power(g, d), xi)
            for _ in range(4):
                v = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
                ginv_v = (g.e * v[0] - g.b * v[1], -g.c * v[0] + g.a * v[1])
                assert eval_form(d, new_xi, v) == eval_form(d, xi, ginv_v)

    @pytest.mark.parametrize("g", [SHEAR_UPPER, SHEAR_LOWER, GroupElement(7, 2, 3, 1),
                                   GroupElement(-2, 3, -1, 1), GroupElement(-1, 0, 0, -1)])
    def test_integer_matrix_has_int_entries(self, g):
        for d in range(9):
            assert all(type(x) is int for row in sym_power(g, d) for x in row)

    def test_matches_the_binomial_quotient(self):
        # Expanding (eX-bY)^k (-cX+aY)^(d-k) gives the entries with the factor
        # binom(d,k) / binom(d,j); sym_power's summand has it cancelled.
        from math import comb

        rng = random.Random(31)
        for d in range(9):
            g = random_group_element(rng)
            a, b, c, e = g.a, g.b, g.c, g.e
            expected = tuple(
                tuple(Fraction(comb(d, k), comb(d, j)) * sum(
                    comb(k, r) * e**r * (-b) ** (k - r) * comb(d - k, j - r)
                    * (-c) ** (j - r) * a ** (d - k - j + r)
                    for r in range(max(0, j - (d - k)), min(k, j) + 1))
                    for k in range(d + 1))
                for j in range(d + 1))
            assert sym_power(g, d) == expected


class TestAct:
    def test_identity_fixes_everything(self):
        for poly in noncrossing_basis(4, 2):
            assert act(IDENTITY, poly) == poly

    def test_shear_fixes_discriminant(self):
        disc = noncrossing_basis(2, 2)[0]
        assert act(SHEAR_UPPER, disc) == disc
        assert act(SHEAR_LOWER, disc) == disc

    def test_action_axiom(self):
        rng = random.Random(29)
        poly = NcPolynomial(2, 2, {(2, 0): 1, (0, 2): Fraction(1, 3)})
        for _ in range(6):
            g, h = random_group_element(rng), random_group_element(rng)
            assert act(times(g, h), poly) == act(g, act(h, poly))

    def test_preserves_shape(self):
        poly = NcPolynomial(3, 2, {(3, 0): 1})
        out = act(SHEAR_UPPER, poly)
        assert out.d == 3 and out.m == 2
        assert all(len(w) == 2 for w in out.terms)

    def test_integer_witness_keeps_int_coefficients(self):
        g = GroupElement(7, 2, 3, 1)
        for m, d in ((4, 2), (3, 2), (2, 3)):
            for poly in noncrossing_basis(m, d):
                image = act(g, poly)
                assert image == poly
                assert all(type(c) is int for c in image.terms.values())

    def test_constant_fixed(self):
        poly = NcPolynomial(2, 0, {(): Fraction(5, 7)})
        assert act(SCALE_TWO, poly) == poly


def random_words_polys(rng, d, m):
    """Seeded polynomials with one to five words over letters that include
    both ends and, where d allows, the byte boundary 255/256; int and
    Fraction coefficients.  Almost none is invariant."""
    letters = sorted({k for k in (0, 1, d // 2, d - 1, d, 255, 256) if 0 <= k <= d})
    polys = []
    for _ in range(8):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            word = tuple(rng.choice(letters) for _ in range(m))
            terms[word] = (rng.randint(-3, 3) if rng.random() < 0.5
                           else Fraction(rng.randint(-5, 5), rng.randint(2, 4)))
        polys.append(NcPolynomial(d, m, terms))
    return polys


def sparse_rows(rng, d, fractions):
    """A seeded (d+1) x (d+1) matrix with at most three nonzero entries per
    row (its diagonal one, one at 0, 1, 255, 256 or d, one anywhere): ints,
    or Fractions if ``fractions``."""
    ends = [j for j in (0, 1, 255, 256, d) if j <= d]
    rows = []
    for k in range(d + 1):
        row = [0] * (d + 1)
        for j in {k, rng.choice(ends), rng.randint(0, d)}:
            p = rng.randint(-3, 3)
            row[j] = Fraction(p, rng.choice((1, 2, 3))) if fractions else p
        rows.append(tuple(row))
    return tuple(rows)


class TestPackedAct:
    """act works on packed words; the tuple substitution it replaced is the
    oracle, coefficient types included."""

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 255, 256])
    def test_matches_tuple_act(self, monkeypatch, d, m):
        rng = random.Random(1000 * d + m)
        if d < 4:
            witnesses = (GroupElement(7, 2, 3, 1), SHEAR_LOWER, SCALE_TWO,
                         *random_witnesses(d, 2))
            cases = [(g, sym_power(g.inverse(), d)) for g in witnesses]
            polys = random_words_polys(rng, d, m) + (noncrossing_basis(m, d) if m * d < 8 else [])
        else:
            # sym_power takes seconds at d = 256 (O(d^3) exact products), so
            # seeded sparse int and Fraction rows stand in for M_d(g^-1):
            # act substitutes whatever rows it is given.
            cases = [(SHEAR_UPPER, sparse_rows(rng, d, fractions)) for fractions in (False, True)]
            polys = random_words_polys(rng, d, m)
        for g, rows in cases:
            monkeypatch.setattr("ncinv.group_action.sym_power", lambda _g, _d, rows=rows: rows)
            for poly in polys:
                image = act(g, poly).terms
                want = tuple_act(rows, poly)
                assert {w: (c, type(c)) for w, c in image.items()} == {
                    w: (c, type(c)) for w, c in want.items()}

    def test_integer_witness_on_a_non_invariant_input(self):
        # Unpatched: the real rows of an integer witness keep int coefficients.
        g = GroupElement(7, 2, 3, 1)
        poly = NcPolynomial(3, 3, {(3, 0, 1): 2, (0, 0, 0): -1, (1, 2, 3): 5})
        image = act(g, poly)
        assert image.terms == tuple_act(sym_power(g.inverse(), 3), poly)
        assert image != poly and all(type(c) is int for c in image.terms.values())


class TestIsInvariant:
    def test_basis_elements_invariant(self):
        for m, d in md_pairs(8):
            for poly in noncrossing_basis(m, d):
                assert is_invariant(poly)

    def test_single_letter_not_invariant(self):
        assert not is_invariant(NcPolynomial(2, 1, {(0,): 1}))
        assert not is_invariant(NcPolynomial(1, 1, {(1,): 1}))

    def test_constant_invariant(self):
        assert is_invariant(NcPolynomial(3, 0, {(): 1}))

    def test_perturbation_detected(self):
        disc = noncrossing_basis(2, 2)[0]
        bumped = disc + NcPolynomial(2, 2, {(1, 1): 1})
        assert not is_invariant(bumped)

    def test_rejects_bad_witness(self):
        with pytest.raises(ValueError):
            is_invariant(NcPolynomial(1, 0, {(): 1}), [GroupElement(1, 0, 0, 2)])

    def test_seed_reproducible(self):
        w1 = default_witnesses(7, 5)
        w2 = default_witnesses(7, 5)
        assert w1 == w2
        assert default_witnesses(8, 5) != w1
        assert w1 == (SHEAR_UPPER, SHEAR_LOWER, SCALE_TWO) + random_witnesses(7, 5)


def matrix_log(rows):
    """log of a unipotent matrix: the finite series sum (-1)^(n+1) U^n / n."""
    size = len(rows)
    u = [[rows[i][j] - (i == j) for j in range(size)] for i in range(size)]
    power = [[Fraction(i == j) for j in range(size)] for i in range(size)]
    out = [[Fraction(0)] * size for _ in range(size)]
    for n in range(1, size + 1):
        power = [[sum(power[i][k] * u[k][j] for k in range(size)) for j in range(size)]
                 for i in range(size)]
        for i in range(size):
            for j in range(size):
                out[i][j] += Fraction((-1) ** (n + 1), n) * power[i][j]
    return out


def upper_shear_log(poly):
    """log act(SHEAR_UPPER) applied to poly, by the finite series
    sum (-1)^(n+1) (act - 1)^n / n: act - 1 raises the letter sum, which is
    at most md, so its (md+1)-st power is zero."""
    out = NcPolynomial(poly.d, poly.m)
    power = poly
    for n in range(1, poly.m * poly.d + 1):
        power = act(SHEAR_UPPER, power) - power
        out = out + Fraction((-1) ** (n + 1), n) * power
    return out


def random_polynomial(data, d, m, invariant):
    """A random rational combination of basis elements; unless ``invariant``,
    plus a few random terms."""
    terms = {}
    for poly in noncrossing_basis(m, d):
        c = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        for word, coeff in poly.terms.items():
            terms[word] = terms.get(word, 0) + c * coeff
    if not invariant:
        words = st.tuples(*[st.integers(0, d)] * m)
        extra = data.draw(st.dictionaries(words, st.integers(-2, 2), min_size=1, max_size=3))
        for word, c in extra.items():
            terms[word] = terms.get(word, 0) + c
    return NcPolynomial(d, m, terms)


class TestCertificate:
    """is_invariant with no witnesses: letter sums md/2 and annihilation by
    the raising shear derivation."""

    @pytest.mark.parametrize("d", range(6))
    def test_derivations_are_logarithms_of_the_shears(self, d):
        # act substitutes rows of M_d(g^-1); the derivation must be its log.
        log = matrix_log(sym_power(SHEAR_UPPER.inverse(), d))
        for k in range(d + 1):
            image = _raising_image(NcPolynomial(d, 1, {(k,): 1})).terms
            assert image == {(j,): log[k][j] for j in range(d + 1) if log[k][j]}

    @given(st.data(),
           st.sampled_from(md_pairs(8) + [(3, 0), (0, 3), (1, 2), (1, 1), (3, 1), (3, 3)]),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_shear_witnesses(self, data, md, invariant):
        m, d = md
        poly = random_polynomial(data, d, m, invariant)
        expected = is_invariant(poly, (SHEAR_UPPER, SHEAR_LOWER))
        assert is_invariant(poly) == expected
        if invariant:
            assert expected
        assert _raising_image(poly) == upper_shear_log(poly)

    def test_image_of_fraction_coefficients_is_plain(self):
        # N_+: a_k -> (d-k) a_(k+1) on each letter, with no rescaling.
        poly = NcPolynomial(2, 2, {(0, 1): Fraction(1, 3), (1, 0): Fraction(-3, 4), (2, 2): 5})
        image = _raising_image(poly).terms
        assert image == {(1, 1): Fraction(2, 3) - Fraction(3, 2), (0, 2): Fraction(1, 3),
                         (2, 0): Fraction(-3, 4)}
        assert _raising_image(NcPolynomial(2, 2, {(0, 0): Fraction(1, 2)})).terms == {
            (1, 0): 1, (0, 1): 1}

    @pytest.mark.parametrize("d", [1, 2, 3, 255, 256])
    def test_packed_image_matches_tuple_oracle(self, d):
        # A letter takes one byte of the packed word up to d = 255, which
        # fills it; at d = 256 raising 255 carries inside a two-byte letter
        # but never into the next one.
        rng = random.Random(d)
        letters = sorted({k for k in (0, 1, d // 2, d - 1, d, 254, 255) if k <= d})
        polys = [poly for m in ((2, 4) if d < 4 else (2,)) for poly in noncrossing_basis(m, d)]
        for m in (1, 2, 3, 5):
            for _ in range(20):
                terms = {}
                for _ in range(rng.randint(1, 6)):
                    word = tuple(rng.choice(letters) for _ in range(m))
                    terms[word] = (rng.randint(-3, 3) if rng.random() < 0.5
                                   else Fraction(rng.randint(-5, 5), rng.randint(2, 4)))
                polys.append(NcPolynomial(d, m, terms))
        raised = 0
        for poly in polys:
            image = _raising_image(poly).terms
            assert image == tuple_raising_image(poly)
            assert all(c and type(c) in (int, Fraction) for c in image.values())
            raised += bool(image) and any(isinstance(c, Fraction) for c in poly.terms.values())
        assert raised >= 20  # non-invariant inputs with Fraction coefficients and an image

    @pytest.mark.parametrize("m, d", [(2, 1), (2, 2), (2, 3), (4, 2), (1, 1), (3, 1), (3, 3), (5, 1)])
    def test_weight_check_is_needed(self, m, d):
        # a_d^m is killed by N_+ (its weight on a_d is 0), but its letter sum
        # md is not md/2: only the weight check rejects it.  For odd md no
        # word has letter sum md/2, so every nonzero polynomial is rejected.
        top = NcPolynomial(d, m, {(d,) * m: 1})
        assert _raising_image(top).is_zero()
        assert not is_invariant(top)
        assert not is_invariant(top, (SHEAR_UPPER, SHEAR_LOWER))

    @pytest.mark.parametrize("d", [255, 256, 300])
    def test_wide_letters(self, d):
        # d = 255 fits a letter in one byte of restitution's packed words,
        # 256 and 300 need two.
        (poly,) = noncrossing_basis(2, d)
        bumped = poly + NcPolynomial(d, 2, {leading_term(poly): 1})
        assert is_invariant(poly)
        assert not is_invariant(bumped)

    def test_rejects_leading_term_bump(self):
        for m, d in md_pairs(12):
            for poly in noncrossing_basis(m, d):
                assert is_invariant(poly), (m, d)
                bumped = poly + NcPolynomial(d, m, {leading_term(poly): 1})
                assert not is_invariant(bumped), (m, d)

    def test_degree_zero(self):
        # Sym^0 is the trivial representation: every polynomial is invariant.
        poly = NcPolynomial(0, 3, {(0, 0, 0): Fraction(-5, 3)})
        assert is_invariant(poly)
        assert noncrossing_basis(3, 0) == [NcPolynomial(0, 3, {(0, 0, 0): 1})]
        assert is_invariant(noncrossing_basis(3, 0)[0])

    def test_word_length_zero(self):
        for d in range(4):
            assert is_invariant(NcPolynomial(d, 0, {(): Fraction(2, 7)}))
            assert is_invariant(NcPolynomial(d, 0, {}))
        assert noncrossing_basis(0, 3) == [NcPolynomial(3, 0, {(): 1})]

    def test_zero_polynomial(self):
        assert is_invariant(NcPolynomial(2, 4, {}))

    def test_witnesses_still_go_through_act(self, monkeypatch):
        calls = []
        real_act = act

        def counting_act(g, poly):
            calls.append(g)
            return real_act(g, poly)

        monkeypatch.setattr("ncinv.group_action.act", counting_act)
        disc = noncrossing_basis(2, 2)[0]
        assert is_invariant(disc)
        assert calls == []
        assert is_invariant(disc, (SCALE_TWO, SHEAR_UPPER))
        assert calls == [SCALE_TWO, SHEAR_UPPER]

    def test_rejects_bump_under_optimize(self):
        # The certificate is a plain return value, not an assert: python -O
        # must not turn a rejection into a pass.
        script = (
            "import sys\n"
            "assert False, 'asserts are on'\n"
            "from ncinv.group_action import is_invariant\n"
            "from ncinv.symbolic import NcPolynomial, noncrossing_basis\n"
            "disc = noncrossing_basis(2, 2)[0]\n"
            "bumped = disc + NcPolynomial(2, 2, {(2, 0): 1})\n"
            "print('plain', is_invariant(disc), 'bumped', is_invariant(bumped))\n"
            "print('optimize', sys.flags.optimize)\n"
        )
        src = str(Path(ncinv.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "plain True bumped False" in done.stdout
        assert "optimize 1" in done.stdout


@pytest.mark.parametrize("build, message", [
    (lambda: sym_power(SHEAR_UPPER, -1), "degree must be nonnegative"),
], ids=["negative-degree"])
def test_refusals_name_the_fault(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
