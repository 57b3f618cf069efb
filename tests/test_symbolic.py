import json
from fractions import Fraction
from math import comb

import pytest

import ncinv.symbolic
from ncinv.brackets import BracketExpression, BracketMonomial
from ncinv.partitions import enumerate_m_partite_nc_pairings
from ncinv.symbolic import (
    NcPolynomial,
    iter_noncrossing_basis,
    leading_term,
    noncrossing_basis,
    predicted_leading_word,
    restitution,
)

from _oracles import poly_json_dict


def nested_pairing(d):
    """The fully nested two-symbol pairing {1,2d},{2,2d-1},..."""
    return tuple((i, 2 * d + 1 - i) for i in range(1, d + 1))


def md_pairs(limit):
    out = []
    for md in range(2, limit + 1, 2):
        for d in [x for x in range(1, md + 1) if md % x == 0]:
            m = md // d
            if m >= 2:
                out.append((m, d))
    return out


class TestNcPolynomial:
    def test_homogeneity_enforced(self):
        with pytest.raises(ValueError):
            NcPolynomial(2, 2, {(1,): 1})
        with pytest.raises(ValueError):
            NcPolynomial(2, 2, {(3, 0): 1})

    @pytest.mark.parametrize("d", [255, 256, 70000])
    def test_terms_round_trip_past_one_byte(self, d):
        # Words are stored packed; terms decodes them to the tuples given.
        t = {(d, 0, d - 1): 3, (0, d, 1): Fraction(-1, 2), (255, 255, d): 1, (1, 0, 0): -4,
             (0, 0, 0): 7}
        p = NcPolynomial(d, 3, t)
        assert p.terms == t
        assert NcPolynomial(d, 3, p.terms) == p
        assert NcPolynomial(d, 0, {(): 2}).terms == {(): 2}

    def test_zero_coefficients_dropped(self):
        p = NcPolynomial(1, 2, {(0, 1): 0, (1, 0): 1})
        assert p.terms == {(1, 0): Fraction(1)}

    def test_arithmetic(self):
        p = NcPolynomial(1, 1, {(0,): 1})
        q = NcPolynomial(1, 1, {(0,): -1, (1,): Fraction(1, 2)})
        assert (p + q).terms == {(1,): Fraction(1, 2)}
        assert (2 * q).terms == {(0,): -2, (1,): 1}
        assert (p - p).is_zero()

    def test_pretty(self):
        p = NcPolynomial(1, 2, {(1, 0): 1, (0, 1): -1})
        assert p.pretty() == "a1·a0 - a0·a1"
        disc = NcPolynomial(2, 2, {(2, 0): 1, (1, 1): -2, (0, 2): 1})
        assert disc.pretty() == "a2·a0 - 2·a1·a1 + a0·a2"
        assert NcPolynomial(2, 0, {(): Fraction(3, 4)}).pretty() == "3/4"

    @pytest.mark.parametrize("terms, d, m, text", [
        ({(): 1}, 2, 0, "1"),
        ({(): -1}, 2, 0, "-1"),
        ({(): Fraction(-3, 4)}, 2, 0, "-3/4"),
        ({(1, 0): Fraction(-3, 2), (0, 1): Fraction(1, 2)}, 1, 2, "-3/2·a1·a0 + 1/2·a0·a1"),
        ({(3,): -1, (2,): 1, (0,): Fraction(7, 3)}, 3, 1, "-a3 + a2 + 7/3·a0"),
        ({(0, 0): -1}, 1, 2, "-a0·a0"),
        ({(11, 0): Fraction(-10, 3), (10, 1): 1}, 11, 2, "-10/3·a11·a0 + a10·a1"),
    ])
    def test_pretty_signs_and_magnitudes(self, terms, d, m, text):
        assert NcPolynomial(d, m, terms).pretty() == text

    @staticmethod
    def read_json(p):
        # The output shape of ``basis --format json``, read back by hand.
        data = json.loads(p.to_json())
        assert data == poly_json_dict(p)
        terms = {tuple(t["word"]): Fraction(t["coeff"]) for t in data["terms"]}
        assert list(terms) == sorted(terms, reverse=True)
        return NcPolynomial(data["d"], data["m"], terms)

    def test_json_round_trip(self):
        p = NcPolynomial(2, 2, {(2, 0): Fraction(1, 3), (0, 2): -1})
        assert self.read_json(p) == p

    @pytest.mark.parametrize("m, d", [(0, 3), (2, 1), (4, 2), (3, 4)])
    def test_json_round_trip_of_basis(self, m, d):
        for p in noncrossing_basis(m, d):
            assert self.read_json(p) == p


class TestRestitution:
    def test_single_bracket(self):
        got = restitution(BracketMonomial(2, 1, ((1, 2),), 1))
        assert got == NcPolynomial(1, 2, {(1, 0): 1, (0, 1): -1})

    def test_sign_flips_result(self):
        plus = restitution(BracketMonomial(2, 1, ((1, 2),), 1))
        minus = restitution(BracketMonomial(2, 1, ((1, 2),), -1))
        assert minus == -1 * plus

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_two_symbol_binomial_formula(self, d):
        got = restitution(BracketMonomial(2, d, nested_pairing(d), 1))
        want = NcPolynomial(
            d, 2,
            {(d - k, k): Fraction((-1) ** k * comb(d, k)) for k in range(d + 1)},
        )
        assert got == want

    def test_quadratic_diagonal(self):
        got = restitution(BracketMonomial(2, 2, ((1, 4), (2, 3)), 1))
        assert got == NcPolynomial(2, 2, {(2, 0): 1, (1, 1): -2, (0, 2): 1})

    def test_linear_over_expressions(self):
        m1 = BracketMonomial(4, 1, ((1, 2), (3, 4)), 1)
        m2 = BracketMonomial(4, 1, ((1, 4), (2, 3)), 1)
        e = BracketExpression(4, 1, {m1.chords: Fraction(2, 3), m2.chords: Fraction(-5)})
        assert restitution(e) == Fraction(2, 3) * restitution(m1) + Fraction(-5) * restitution(m2)

    def test_empty_product(self):
        got = restitution(BracketMonomial(0, 2, (), 1))
        assert got == NcPolynomial(2, 0, {(): 1})
        assert restitution(BracketMonomial(3, 0, (), -1)) == NcPolynomial(0, 3, {(0, 0, 0): -1})

    @pytest.mark.parametrize("d", [255, 256, 300])
    def test_letters_past_one_byte(self, d):
        got = restitution(BracketMonomial(2, d, nested_pairing(d), 1))
        want = {(d - k, k): Fraction((-1) ** k * comb(d, k)) for k in range(d + 1)}
        assert got == NcPolynomial(d, 2, want)

    def test_built_terms_are_valid_fractions(self):
        # restitution skips re-validation; its output must be what the
        # validating constructor would keep: nonzero ints, kept as ints.
        for m, d in md_pairs(8):
            for poly in noncrossing_basis(m, d):
                rebuilt = NcPolynomial(poly.d, poly.m, poly.terms)
                assert rebuilt == poly
                assert all(type(c) is int and c for c in poly.terms.values())
                assert all(type(c) is int for c in rebuilt.terms.values())
                assert all(type(w) is tuple and len(w) == m for w in poly.terms)

    @pytest.mark.parametrize("m, d, crossing", [
        (2, 2, ((1, 3), (2, 4))),
        (3, 2, ((1, 4), (2, 5), (3, 6))),
        (4, 3, ((1, 4), (2, 5), (3, 6), (7, 10), (8, 11), (9, 12))),
        (2, 300, tuple((k, 300 + k) for k in range(1, 301))),
    ])
    def test_monomial_coefficients_are_ints(self, m, d, crossing):
        # Crossing or not, either sign: a bracket product expands in integers.
        pairings = [p.blocks for p in enumerate_m_partite_nc_pairings(m, d)[:3]]
        for sign in (1, -1):
            for chords in [*pairings, crossing]:
                poly = restitution(BracketMonomial(m, d, chords, sign))
                assert poly.terms and all(type(c) is int for c in poly.terms.values())

    def test_basis_coefficients_are_ints(self):
        for poly in iter_noncrossing_basis(5, 2):
            assert all(type(c) is int for c in poly.terms.values())

    def test_rational_expression_gives_fractions(self):
        nested, crossing = ((1, 4), (2, 3)), ((1, 3), (2, 4))
        poly = restitution(BracketExpression(2, 2, {nested: Fraction(1, 3), crossing: 1}))
        assert poly == (Fraction(1, 3) * restitution(BracketMonomial(2, 2, nested, 1))
                        + restitution(BracketMonomial(2, 2, crossing, 1)))
        assert all(type(c) is Fraction and c.denominator == 3 for c in poly.terms.values())
        # Fraction coefficients with denominator 1 still give ints.
        whole = restitution(BracketExpression(2, 2, {nested: 2, crossing: Fraction(-1)}))
        assert all(type(c) is int for c in whole.terms.values())

    def test_expression_with_rational_coefficients(self):
        monos = [BracketMonomial(4, 2, chords, 1) for chords in (
            ((1, 3), (2, 5), (4, 7), (6, 8)),
            ((1, 8), (2, 7), (3, 6), (4, 5)),
            ((1, 4), (2, 3), (5, 8), (6, 7)),
        )]
        coeffs = [Fraction(1, 6), Fraction(-3, 4), Fraction(5, 2)]
        e = BracketExpression(4, 2, {b.chords: c for b, c in zip(monos, coeffs)})
        want = NcPolynomial(2, 4, {})
        for b, c in zip(monos, coeffs):
            want = want + c * restitution(b)
        assert restitution(e) == want
        # A crossing minus its two Pluecker resolutions restitutes to zero.
        crossing = {((1, 3), (2, 4)): Fraction(1, 3), ((1, 2), (3, 4)): Fraction(-1, 3),
                    ((1, 4), (2, 3)): Fraction(-1, 3)}
        assert restitution(BracketExpression(4, 1, crossing)).is_zero()
        assert restitution(BracketExpression(4, 2, {})) == NcPolynomial(2, 4, {})


class TestLeadingTerm:
    def test_discriminant(self):
        disc = restitution(BracketMonomial(2, 2, ((1, 4), (2, 3)), 1))
        assert leading_term(disc) == (2, 0)

    def test_three_symbol_example(self):
        mono = BracketMonomial(
            3, 4, ((1, 12), (2, 11), (3, 6), (4, 5), (7, 10), (8, 9)), 1
        )
        assert leading_term(restitution(mono)) == (4, 2, 0)
        assert predicted_leading_word(mono) == (4, 2, 0)

    def test_single_word(self):
        p = NcPolynomial(3, 2, {(1, 2): Fraction(7)})
        assert leading_term(p) == (1, 2)

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            leading_term(NcPolynomial(1, 1, {}))

    def test_word_order_across_the_byte_boundary(self):
        # At d = 256 a letter takes two bytes of the packed word: (1, 0)
        # still ranks above (0, 256), and (1, 0) above (0, 255).
        p = NcPolynomial(256, 2, {(0, 256): 5, (1, 0): -1, (0, 255): 2})
        assert leading_term(p) == (1, 0)
        assert p.pretty() == "-a1·a0 + 5·a0·a256 + 2·a0·a255"
        assert leading_term(NcPolynomial(256, 2, {(0, 256): 1, (0, 255): 1})) == (0, 256)

    def test_predicted_needs_noncrossing(self):
        with pytest.raises(ValueError):
            predicted_leading_word(BracketMonomial(4, 1, ((1, 3), (2, 4)), 1))

    def test_predicted_examples(self):
        assert predicted_leading_word(BracketMonomial(2, 2, ((1, 4), (2, 3)), 1)) == (2, 0)
        for d in (1, 2, 3):
            mono = BracketMonomial(2, d, nested_pairing(d), 1)
            assert predicted_leading_word(mono) == (d, 0)

    def test_lemma_md_up_to_12(self):
        for m, d in md_pairs(12):
            words = []
            for p in enumerate_m_partite_nc_pairings(m, d):
                mono = BracketMonomial(m, d, p.blocks, 1)
                poly = restitution(mono)
                lead = leading_term(poly)
                assert lead == predicted_leading_word(mono)
                assert poly.terms[lead] == 1
                words.append(lead)
            assert len(set(words)) == len(words)


class TestBasis:
    def test_quadratic_case(self):
        basis = noncrossing_basis(2, 2)
        assert len(basis) == 1
        assert basis[0] == NcPolynomial(2, 2, {(2, 0): 1, (1, 1): -2, (0, 2): 1})

    def test_odd_empty(self):
        assert noncrossing_basis(3, 1) == []
        assert noncrossing_basis(1, 5) == []

    def test_four_letters(self):
        basis = noncrossing_basis(4, 2)
        assert len(basis) == 3
        leads = [leading_term(p) for p in basis]
        assert len(set(leads)) == 3

    def test_sizes_match_enumeration(self):
        for m, d in md_pairs(12):
            assert len(noncrossing_basis(m, d)) == len(
                enumerate_m_partite_nc_pairings(m, d)
            )

    def test_first_element_after_one_pairing(self, monkeypatch):
        walk = ncinv.symbolic._iter_nc_matchings
        pairings = []

        def counted(n, d):
            for chords in walk(n, d):
                pairings.append(chords)
                yield chords

        monkeypatch.setattr(ncinv.symbolic, "_iter_nc_matchings", counted)
        first = next(iter_noncrossing_basis(6, 2))
        assert len(pairings) == 1
        assert first == noncrossing_basis(6, 2)[0]

    def test_list_of_the_generator(self):
        for m in range(13):
            for d in range(13):
                if m * d <= 12:
                    assert noncrossing_basis(m, d) == list(iter_noncrossing_basis(m, d))


@pytest.mark.parametrize("build, message", [
    (lambda: NcPolynomial(-1, 2), "d and m must be nonnegative"),
    (lambda: NcPolynomial(1, 2) + NcPolynomial(2, 2), "mismatched degree or word length"),
], ids=["negative-d", "add-mismatched-d"])
def test_refusals_name_the_fault(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_zero_polynomial_prints_as_0():
    assert NcPolynomial(1, 2).pretty() == "0"
