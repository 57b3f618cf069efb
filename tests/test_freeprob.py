import random
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncinv.freeprob import (
    CumulantSequence,
    MomentSequence,
    cumulants_from_moments,
    moments_from_cumulants,
    psi_mixed_moment,
    psi_orthogonality,
)
from ncinv.hilbert import dims_by_enumeration
from ncinv.partitions import (
    catalan,
    enumerate_nc,
    nc_moebius,
    one_partition,
)

from _oracles import (
    all_perfect_matchings,
    brute_cumulants,
    brute_is_noncrossing,
    brute_moments,
    brute_psi,
)


SEMI = CumulantSequence.semicircle()
POISSON = CumulantSequence.free_poisson()


def _seeded_table(seed: int, length: int) -> CumulantSequence:
    rng = random.Random(seed)
    return CumulantSequence.from_table(
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(length))


ORACLE_RULES = [SEMI, POISSON] + [_seeded_table(seed, length)
                                  for seed, length in ((1, 3), (2, 5), (3, 9))]


def _compositions(total: int):
    """Every tuple of positive integers summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


class TestCumulantSequence:
    def test_rules(self):
        assert SEMI[2] == 1 and SEMI[1] == 0 and SEMI[3] == 0
        assert POISSON[1] == POISSON[5] == 1
        table = CumulantSequence.from_table([Fraction(1, 2), 3])
        assert table[1] == Fraction(1, 2) and table[2] == 3 and table[3] == 0

    def test_rule_values_are_ints(self):
        assert type(SEMI[2]) is int and SEMI[2] == 1
        assert type(SEMI[3]) is int and type(POISSON[4]) is int

    def test_parse(self):
        assert CumulantSequence.parse("semicircle") == SEMI
        assert CumulantSequence.parse("free-poisson") == POISSON
        parsed = CumulantSequence.parse("table:[1,1/2,-3]")
        assert parsed[2] == Fraction(1, 2) and parsed[3] == -3
        with pytest.raises(ValueError):
            CumulantSequence.parse("gaussian")

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            CumulantSequence.parse("table:[1,1/0]")
        with pytest.raises(ValueError, match="zero denominator"):
            CumulantSequence.from_table(["1/0"])

    @pytest.mark.parametrize("text", ["1e3", "2E-1", "1_000", "nan", "1/2/3"])
    def test_exponent_and_other_strings_refused(self, text):
        with pytest.raises(ValueError, match="plain decimal"):
            CumulantSequence.parse(f"table:[1,{text}]")
        with pytest.raises(ValueError, match="plain decimal"):
            CumulantSequence.from_table([text])

    def test_table_values(self):
        rule = CumulantSequence.parse("table:[ -2 , 3/4, .5, 7.25]")
        assert rule.table == (-2, Fraction(3, 4), Fraction(1, 2), Fraction(29, 4))
        assert CumulantSequence.from_table([Fraction(1, 3), 2]).table == (Fraction(1, 3), 2)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            SEMI[0]


class TestMoments:
    def test_moment_sequence_head(self):
        with pytest.raises(ValueError):
            MomentSequence((Fraction(2),))

    def test_moment_sequence_keeps_ints(self):
        values = MomentSequence((1, "2", Fraction(3), "3/1", "0.5")).values
        assert [type(v) for v in values] == [int, int, Fraction, Fraction, Fraction]

    def test_semicircle_even_moments_catalan(self):
        ms = moments_from_cumulants(SEMI, 10)
        for k in range(11):
            assert ms[k] == (catalan(k // 2) if k % 2 == 0 else 0)

    def test_semicircle_matches_pairing_count(self):
        # independent oracle: count noncrossing matchings by brute force
        for n in range(0, 9):
            brute = sum(
                1 for ch in all_perfect_matchings(n) if brute_is_noncrossing(ch)
            )
            assert moments_from_cumulants(SEMI, n)[n] == brute

    def test_free_poisson_moments_catalan(self):
        ms = moments_from_cumulants(POISSON, 8)
        for k in range(9):
            assert ms[k] == catalan(k)

    def test_first_cumulant_only(self):
        lam = Fraction(3, 2)
        ms = moments_from_cumulants(CumulantSequence.from_table([lam]), 6)
        for k in range(7):
            assert ms[k] == lam**k

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_order_refused(self, n):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            moments_from_cumulants(SEMI, n)


class TestInversion:
    @pytest.mark.parametrize("n", [-1, -2])
    def test_negative_order_refused(self, n):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            cumulants_from_moments(moments_from_cumulants(SEMI, 4), n)

    def test_needs_moments_up_to_the_order(self):
        ms = moments_from_cumulants(SEMI, 4)
        assert cumulants_from_moments(ms, 4).table == (0, 1, 0, 0)
        with pytest.raises(ValueError, match="need moments up to order 5"):
            cumulants_from_moments(ms, 5)

    def test_semicircle_recovered(self):
        ms = moments_from_cumulants(SEMI, 8)
        c = cumulants_from_moments(ms, 8)
        assert [c[k] for k in range(1, 9)] == [0, 1, 0, 0, 0, 0, 0, 0]

    def test_free_poisson_recovered(self):
        ms = moments_from_cumulants(POISSON, 8)
        c = cumulants_from_moments(ms, 8)
        assert all(c[k] == 1 for k in range(1, 9))

    def test_int_moments_give_int_cumulants(self):
        ms = moments_from_cumulants(POISSON, 120)
        assert all(type(v) is int for v in ms.values)
        cums = cumulants_from_moments(ms, 120).table
        assert len(cums) == 120 and all(type(v) is int and v == 1 for v in cums)

    def test_zero_moments(self):
        ms = MomentSequence((1, 0, 0, 0, 0, 0, 0))
        c = cumulants_from_moments(ms, 6)
        assert all(c[k] == 0 for k in range(1, 7))

    @given(st.lists(st.fractions(min_value=-4, max_value=4), min_size=8, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, tail):
        ms = MomentSequence((Fraction(1), *tail))
        c = cumulants_from_moments(ms, 8)
        back = moments_from_cumulants(c, 8)
        assert back.values == ms.values

    @given(st.lists(st.fractions(min_value=-3, max_value=3), max_size=12))
    @settings(max_examples=20, deadline=None)
    def test_cumulants_round_trip(self, table):
        n = len(table)
        c = CumulantSequence.from_table(table)
        ms = moments_from_cumulants(c, n)
        back = cumulants_from_moments(ms, n)
        assert [back[k] for k in range(1, n + 1)] == [c[k] for k in range(1, n + 1)]

    def test_matches_moebius_inversion(self):
        # brute-force Moebius sum over NC(n) as an independent oracle
        rng = random.Random(5)
        values = (Fraction(1),) + tuple(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)
        )
        ms = MomentSequence(values)
        cums = cumulants_from_moments(ms, 6)
        for n in range(1, 7):
            top = one_partition(n)
            brute = sum(
                prod(ms[len(block)] for block in sigma.blocks) * nc_moebius(sigma, top)
                for sigma in enumerate_nc(n)
            )
            assert cums[n] == brute


class TestAgainstOracles:
    """The recursions against sums over NC(n) listed by brute force."""

    @pytest.mark.parametrize("c", ORACLE_RULES)
    def test_moments(self, c):
        assert list(moments_from_cumulants(c, 9).values) == brute_moments(c, 9)

    @pytest.mark.parametrize("c", ORACLE_RULES)
    def test_cumulants(self, c):
        moments = brute_moments(c, 9)
        cums = cumulants_from_moments(MomentSequence(tuple(moments)), 9)
        assert list(cums.table) == brute_cumulants(moments, 9)
        assert list(cums.table) == [c[k] for k in range(1, 10)]

    @pytest.mark.parametrize("total", range(9))
    def test_psi(self, total):
        for sizes in _compositions(total):
            for c in ORACLE_RULES:
                assert psi_mixed_moment(sizes, c) == brute_psi(sizes, c), (sizes, c)


class TestPsiMoments:
    def test_singleton_groups_free_poisson(self):
        for m in range(1, 7):
            assert psi_mixed_moment((1,) * m, POISSON) == catalan(m)

    def test_pair_groups_semicircle(self):
        assert psi_mixed_moment((2, 2), SEMI) == 1

    def test_matches_dimension_counts(self):
        for md in (2, 4, 6, 8, 10, 12):
            for d in [x for x in range(1, md + 1) if md % x == 0]:
                m = md // d
                assert psi_mixed_moment((d,) * m, SEMI) == dims_by_enumeration(d, m).dims[m]

    def test_empty_product(self):
        assert psi_mixed_moment((), SEMI) == 1

    @pytest.mark.parametrize("sizes", [(), (1,), (2, 2), (1, 3, 2)])
    @pytest.mark.parametrize("c", [SEMI, CumulantSequence.from_table([]),
                                   CumulantSequence.from_table([0, 0, 0])],
                             ids=["semicircle", "empty-table", "zero-table"])
    def test_result_is_a_fraction(self, sizes, c):
        # The result's type follows the cumulants: a Fraction only where one
        # enters, so these integer cumulants give an int.
        got = psi_mixed_moment(sizes, c)
        assert type(got) is int
        assert got == brute_psi(sizes, c)

    def test_rational_cumulant_gives_a_fraction(self):
        halves = CumulantSequence.from_table([0, Fraction(1, 2)])
        got = psi_mixed_moment((2, 2), halves)
        assert type(got) is Fraction and got == Fraction(1, 4) == brute_psi((2, 2), halves)

    @pytest.mark.parametrize("sizes, want", [
        ((4,) * 5, 16),
        ((3,) * 8, dims_by_enumeration(3, 8).dims[8]),
    ])
    def test_large_fast(self, sizes, want):
        start = time.perf_counter()
        assert psi_mixed_moment(sizes, SEMI) == want
        assert time.perf_counter() - start < 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            psi_mixed_moment((2, 0), SEMI)

    @pytest.mark.parametrize("sizes", [(2.7, 2), (True, True), (2, 2.0), (Fraction(2), 2), ("2",)])
    def test_rejects_non_integer_sizes(self, sizes):
        with pytest.raises(ValueError, match="group sizes must be positive integers"):
            psi_mixed_moment(sizes, SEMI)


class TestOrthogonality:
    def test_semicircle_table(self):
        for m in range(1, 5):
            for n in range(1, 5):
                got = psi_orthogonality(m, n, SEMI)
                assert got == (1 if m == n else 0)

    def test_generic_centered(self):
        c = CumulantSequence.from_table([0, Fraction(3, 2), -2, Fraction(5, 3)])
        for m in range(1, 5):
            for n in range(1, 5):
                got = psi_orthogonality(m, n, c)
                want = Fraction(3, 2) ** n if m == n else 0
                assert got == want

    def test_centering_required(self):
        with pytest.raises(ValueError):
            psi_orthogonality(2, 2, POISSON)


@pytest.mark.parametrize("build, message", [
    (lambda: CumulantSequence("bogus"), "unknown cumulant rule 'bogus'"),
], ids=["unknown-rule"])
def test_refusals_name_the_fault(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
