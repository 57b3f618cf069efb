import random
from fractions import Fraction

import pytest

from ncinv.group_action import (
    SCALE_TWO,
    SHEAR_LOWER,
    SHEAR_UPPER,
    GroupElement,
    act,
    default_witnesses,
    is_invariant,
    random_group_element,
    sym_power,
)
from ncinv.symbolic import NcPolynomial, noncrossing_basis


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
            assert g @ g.inverse() == GroupElement.identity()
            assert g.inverse() @ g == GroupElement.identity()

    def test_json_round_trip(self):
        g = GroupElement(Fraction(3, 2), 1, 1, Fraction(4, 3))
        assert g.a * g.e - g.b * g.c == 1
        assert GroupElement.from_json_dict(g.to_json_dict()) == g

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            GroupElement.from_json_dict({"a": "1/0", "b": "0", "c": "0", "e": "1"})

    def test_random_elements_have_det_one(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_group_element(rng)
            assert g.a * g.e - g.b * g.c == 1


class TestSymPower:
    def test_identity(self):
        for d in range(5):
            assert sym_power(GroupElement.identity(), d).is_identity()

    def test_degree_one_is_dual_action(self):
        # on (xi_0, xi_1) the dual action of g = [[a,b],[c,e]] is
        # [[a, -b], [-c, e]]: substitute X -> eX - bY, Y -> -cX + aY
        rng = random.Random(7)
        for _ in range(10):
            g = random_group_element(rng)
            m = sym_power(g, 1)
            assert m.entries == ((g.a, -g.b), (-g.c, g.e))

    def test_multiplicative(self):
        rng = random.Random(13)
        for d in range(5):
            g, h = random_group_element(rng), random_group_element(rng)
            assert sym_power(g, d) @ sym_power(h, d) == sym_power(g @ h, d)

    def test_inverse_matrix(self):
        rng = random.Random(17)
        for d in range(6):
            g = random_group_element(rng)
            assert (sym_power(g, d) @ sym_power(g.inverse(), d)).is_identity()

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
            new_xi = sym_power(g, d).apply(xi)
            for _ in range(4):
                v = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
                ginv_v = (g.e * v[0] - g.b * v[1], -g.c * v[0] + g.a * v[1])
                assert eval_form(d, new_xi, v) == eval_form(d, xi, ginv_v)


class TestAct:
    def test_identity_fixes_everything(self):
        for poly in noncrossing_basis(4, 2):
            assert act(GroupElement.identity(), poly) == poly

    def test_shear_fixes_discriminant(self):
        disc = noncrossing_basis(2, 2)[0]
        assert act(SHEAR_UPPER, disc) == disc
        assert act(SHEAR_LOWER, disc) == disc

    def test_action_axiom(self):
        rng = random.Random(29)
        poly = NcPolynomial(2, 2, {(2, 0): 1, (0, 2): Fraction(1, 3)})
        for _ in range(6):
            g, h = random_group_element(rng), random_group_element(rng)
            assert act(g @ h, poly) == act(g, act(h, poly))

    def test_preserves_shape(self):
        poly = NcPolynomial(3, 2, {(3, 0): 1})
        out = act(SHEAR_UPPER, poly)
        assert out.d == 3 and out.m == 2
        assert all(len(w) == 2 for w in out.terms)

    def test_constant_fixed(self):
        poly = NcPolynomial(2, 0, {(): Fraction(5, 7)})
        assert act(SCALE_TWO, poly) == poly


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
