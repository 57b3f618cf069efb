import time
import tracemalloc
from math import comb

import pytest
from ncinv.brackets import _iter_nc_matchings, _partners
from ncinv.partitions import (
    PairPartition,
    SetPartition,
    _thin,
    catalan,
    enumerate_m_partite_nc_pairings,
    enumerate_nc,
    is_m_partite,
    is_noncrossing,
    leq,
    nc_moebius,
    one_partition,
    thicken,
    unthicken,
    zero_partition,
)

from ncinv.hilbert import dims_by_chebyshev, dims_by_enumeration

from _oracles import (
    all_perfect_matchings,
    all_set_partitions,
    blocks_are_m_partite,
    brute_crossing_quadruples,
    brute_is_noncrossing,
    brute_moebius,
    closed_chord_transfer,
    nc_perfect_matchings,
)


class TestSetPartition:
    def test_canonical_form(self):
        p = SetPartition(6, ((4,), (3, 2), (6, 5, 1)))
        assert p.blocks == ((1, 5, 6), (2, 3), (4,))

    def test_invalid_cover(self):
        with pytest.raises(ValueError):
            SetPartition(4, ((1, 2), (2, 3, 4)))
        with pytest.raises(ValueError):
            SetPartition(4, ((1, 2),))
        with pytest.raises(ValueError):
            SetPartition(2, ((1, 2), ()))

    def test_cover_message_is_bounded(self):
        with pytest.raises(ValueError, match=r"do not partition 1\.\.3: \[\(1,\), ") as info:
            SetPartition(3, tuple((x,) for x in range(1, 3000)))
        assert len(str(info.value)) < 200

    def test_pair_partition_validation(self):
        with pytest.raises(ValueError):
            PairPartition(3, ((1, 2), (3,)))
        with pytest.raises(ValueError):
            PairPartition(4, ((1, 2, 3, 4),))

    def test_equality_across_subclass(self):
        assert PairPartition(2, ((1, 2),)) == SetPartition(2, ((1, 2),))

    def test_huge_ground_set_rejected_at_once(self):
        # The support is compared by length before 1..n is built.
        start = time.perf_counter()
        with pytest.raises(ValueError):
            SetPartition(10**12, ((1,),))
        assert time.perf_counter() - start < 1.0


class TestNoncrossing:
    def test_mixed_block_examples(self):
        assert is_noncrossing(SetPartition(6, ((1, 5, 6), (2, 3), (4,))))
        assert not is_noncrossing(SetPartition(6, ((1, 3, 4), (2, 5, 6))))

    def test_singletons_noncrossing(self):
        for n in range(7):
            assert is_noncrossing(zero_partition(n))

    def test_matches_quadruple_definition(self):
        # exhaustive against the raw definition
        for n in range(9):
            for blocks in all_set_partitions(n):
                p = SetPartition(n, blocks)
                assert is_noncrossing(p) == (brute_crossing_quadruples(blocks) == 0)


class TestEnumeration:
    def test_catalan_counts(self):
        for n in range(11):
            assert len(enumerate_nc(n)) == catalan(n)

    def test_matches_brute_filter(self):
        for n in range(8):
            ours = {p.blocks for p in enumerate_nc(n)}
            brute = {b for b in all_set_partitions(n) if brute_is_noncrossing(b)}
            assert ours == brute

    def test_lexicographic_order(self):
        for n in range(7):
            parts = [p.blocks for p in enumerate_nc(n)]
            assert parts == sorted(parts)

    def test_n_zero(self):
        assert enumerate_nc(0) == [SetPartition(0, ())]
        assert [_thin(ch) for ch in _iter_nc_matchings(0, 1)] == [()]

    def test_raw_walk_sorted_and_complete(self):
        # The raw walk is the thinned pairing walk at d = 1; enumerate_nc
        # sorts it.
        for n in range(1, 11):
            walk = [_thin(ch) for ch in _iter_nc_matchings(2 * n, 1)]
            assert len(walk) == len(set(walk)) == catalan(n)
            assert all(is_noncrossing(SetPartition(n, blocks)) for blocks in walk)
            parts = [p.blocks for p in enumerate_nc(n)]
            assert all(a < b for a, b in zip(parts, parts[1:]))
            assert parts == sorted(walk)

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_n_rejected(self, n):
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_nc(n)

    def test_elements_equal_validated_partitions(self):
        # enumerate_nc skips re-validation; its elements must still be the
        # canonical partitions the constructor would build.
        for n in range(8):
            for p in enumerate_nc(n):
                checked = SetPartition(n, p.blocks)
                assert p == checked and hash(p) == hash(checked)
                assert type(p) is SetPartition and p.n == n
                assert p.block_index == checked.block_index

    def test_pairings_small(self):
        assert [p.blocks for p in enumerate_m_partite_nc_pairings(4, 1)] == [
            ((1, 2), (3, 4)),
            ((1, 4), (2, 3)),
        ]
        assert len(enumerate_m_partite_nc_pairings(6, 1)) == 5
        assert enumerate_m_partite_nc_pairings(3, 1) == []

    def test_pairings_counts(self):
        for n in range(0, 13):
            expect = catalan(n // 2) if n % 2 == 0 else 0
            assert len(enumerate_m_partite_nc_pairings(n, 1)) == expect


class TestMPartite:
    def test_examples(self):
        assert is_m_partite(SetPartition(4, ((1, 3), (2, 4))), 2)
        assert not is_m_partite(SetPartition(4, ((1, 2), (3, 4))), 2)
        assert is_m_partite(SetPartition(6, ((1, 4), (2, 5), (3, 6))), 3)

    def test_divisibility_error(self):
        with pytest.raises(ValueError):
            is_m_partite(SetPartition(4, ((1, 2), (3, 4))), 3)

    def test_enumerate_examples(self):
        assert [p.blocks for p in enumerate_m_partite_nc_pairings(2, 2)] == [
            ((1, 4), (2, 3))
        ]
        assert [p.blocks for p in enumerate_m_partite_nc_pairings(3, 2)] == [
            ((1, 6), (2, 3), (4, 5))
        ]
        assert [p.blocks for p in enumerate_m_partite_nc_pairings(2, 3)] == [
            ((1, 6), (2, 5), (3, 4))
        ]

    @pytest.mark.parametrize("md", [2, 4, 6, 8, 10, 12])
    def test_matches_brute_filter(self, md):
        matchings = list(all_perfect_matchings(md))
        for d in [x for x in range(1, md + 1) if md % x == 0]:
            m = md // d
            brute = sorted(
                ch
                for ch in matchings
                if brute_is_noncrossing(ch) and blocks_are_m_partite(ch, d)
            )
            ours = [p.blocks for p in enumerate_m_partite_nc_pairings(m, d)]
            assert ours == brute
            assert dims_by_enumeration(d, m).dims[m] == len(brute)

    def test_results_are_valid(self):
        for m, d in [(4, 2), (2, 4), (6, 1), (3, 3)]:
            for p in enumerate_m_partite_nc_pairings(m, d):
                assert is_noncrossing(p)
                assert is_m_partite(p, d)

    def test_odd_ground_set_empty(self):
        assert enumerate_m_partite_nc_pairings(3, 3) == []
        assert enumerate_m_partite_nc_pairings(1, 5) == []

    def test_degenerate(self):
        assert len(enumerate_m_partite_nc_pairings(0, 2)) == 1
        assert len(enumerate_m_partite_nc_pairings(2, 0)) == 1


class TestPairingWalk:
    def test_oracle_is_the_brute_filter(self):
        for n in range(11):
            brute = {ch for ch in all_perfect_matchings(n) if brute_is_noncrossing(ch)}
            assert set(nc_perfect_matchings(1, n)) == brute

    def test_gap_rule_matches_search(self):
        # Every gap u..end inside 1..16 that has a matching: u's partners are
        # the partners it has in those matchings, in increasing order.
        gaps = 0
        for d in range(1, 5):
            for u in range(1, 17):
                for end in range(u + 1, 17, 2):
                    brute = sorted({ch[0][1] for ch in nc_perfect_matchings(u, end)
                                    if blocks_are_m_partite(ch, d)})
                    if brute:
                        gaps += 1
                        assert _partners(u, end, d) == brute, (u, end, d)
        assert gaps == 199

    def test_walk_at_every_n_not_only_multiples_of_d(self):
        # The start check is exact: the walk is empty iff no matching exists.
        for d in range(1, 6):
            for n in range(17):
                brute = [ch for ch in nc_perfect_matchings(1, n) if blocks_are_m_partite(ch, d)]
                assert list(_iter_nc_matchings(n, d)) == brute, (n, d)

    def test_raw_walk_sorted_and_complete(self):
        for d in range(17):
            for m in range(17 if d == 0 else 16 // d + 1):
                n = m * d
                walk = list(_iter_nc_matchings(n, d))
                assert walk == sorted(set(walk))
                assert set(walk) == {ch for ch in nc_perfect_matchings(1, n)
                                     if blocks_are_m_partite(ch, d)}, (m, d)

    def test_memory_grows_with_the_gaps_visited_not_with_n_squared(self):
        # At m = 2 the walk visits about n gaps; an (n+1)^2 table of
        # partner lists, about 8 MB at n = 1000, is not built up front.
        d = 500
        tracemalloc.start()
        try:
            first = next(_iter_nc_matchings(2 * d, d))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first == tuple((i, 2 * d + 1 - i) for i in range(1, d + 1))
        assert peak < 2_000_000


class TestTransferCount:
    """hilbert.dims_by_enumeration counts by stack height; every other route
    here visits pairings or expands polynomials."""

    def test_matches_enumeration(self):
        for d in range(0, 21):
            for m in range(0, 21):
                if m * d <= 20:
                    assert dims_by_enumeration(d, m).dims[m] == len(
                        enumerate_m_partite_nc_pairings(m, d)
                    ), (m, d)

    def test_matches_chebyshev(self):
        for d in range(0, 7):
            counts = tuple(dims_by_enumeration(d, m).dims[m] for m in range(61))
            assert counts == dims_by_chebyshev(d, 60).dims, d

    def test_catalan_closed_form(self):
        for m in range(0, 41):
            want = catalan(m // 2) if m % 2 == 0 else 0
            assert dims_by_enumeration(1, m).dims[m] == want

    def test_riordan_closed_form(self):
        # Riordan numbers: the binomial transform sum_k (-1)^(m-k) C(m,k) C_k.
        for m in range(0, 41):
            want = sum((-1) ** (m - k) * comb(m, k) * catalan(k) for k in range(m + 1))
            assert dims_by_enumeration(2, m).dims[m] == want

    def test_edge_cases(self):
        assert all(dims_by_enumeration(d, 0).dims[0] == 1 for d in range(8))
        assert all(dims_by_enumeration(0, m).dims[m] == 1 for m in range(8))
        for m, d in [(1, 1), (3, 1), (1, 3), (3, 3), (5, 7), (101, 5)]:
            assert dims_by_enumeration(d, m).dims[m] == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="d and max_m must be nonnegative"):
            dims_by_enumeration(2, -1)
        with pytest.raises(ValueError, match="d and max_m must be nonnegative"):
            dims_by_enumeration(-1, 2)

    def test_matches_the_closed_chord_transfer(self):
        # The window sums over a prefix sum count what closing c chords at a
        # time counted, pruning included.
        for d in range(9):
            for max_m in range(25):
                want = closed_chord_transfer(d, max_m)
                assert dims_by_enumeration(d, max_m).dims == want, (d, max_m)
        assert dims_by_enumeration(60, 60).dims == closed_chord_transfer(60, 60)

    def test_four_windows_of_a_large_degree(self):
        # Rows 0-4 are 1, 0, 1, then 1 or 0 by the parity of d, then d + 1:
        # sizes the closed chord transfer, at O(max_m^2 d^2), takes minutes for.
        assert dims_by_enumeration(100000, 4).dims == (1, 0, 1, 1, 100001)
        assert dims_by_enumeration(100001, 4).dims == (1, 0, 1, 0, 100002)

    def test_a_row_is_a_prefix_of_every_longer_one(self):
        # The pruning counts room against max_m; it must drop no path that
        # returns to 0 at an earlier window.
        for d in range(7):
            for big in range(13):
                whole = dims_by_enumeration(d, big).dims
                for m in range(big + 1):
                    assert dims_by_enumeration(d, m).dims == whole[:m + 1], (d, m, big)

    def test_enumeration_rejects_negative_like_the_count(self):
        # With both negative, md is a valid size: (-4, -1) is [4], (-2, -1) is [2].
        for m, d in [(-4, -1), (-2, -1), (-1, 2), (2, -1)]:
            with pytest.raises(ValueError, match="m and d must be nonnegative"):
                enumerate_m_partite_nc_pairings(m, d)


class TestLattice:
    def test_leq_examples(self):
        p = SetPartition(4, ((1, 2), (3, 4)))
        assert leq(p, one_partition(4))
        assert leq(zero_partition(4), p)
        assert leq(p, p)

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            leq(zero_partition(3), zero_partition(4))


class TestMoebius:
    def test_point(self):
        for p in enumerate_nc(4):
            assert nc_moebius(p, p) == 1

    def test_closed_form(self):
        for n in range(1, 8):
            expect = (-1) ** (n - 1) * catalan(n - 1)
            assert nc_moebius(zero_partition(n), one_partition(n)) == expect

    @pytest.mark.parametrize("n", range(7))
    def test_matches_generic_recursion(self, n):
        table = brute_moebius(n)
        for (p, q), mu in table.items():
            assert nc_moebius(SetPartition(n, p), SetPartition(n, q)) == mu, (p, q)

    def test_rejects_crossing_partitions(self):
        crossing = SetPartition(4, ((1, 3), (2, 4)))
        with pytest.raises(ValueError, match="noncrossing"):
            nc_moebius(zero_partition(4), crossing)
        with pytest.raises(ValueError, match="noncrossing"):
            nc_moebius(crossing, one_partition(4))

    def test_not_comparable(self):
        p = SetPartition(4, ((1, 2), (3, 4)))
        q = SetPartition(4, ((1, 4), (2,), (3,)))
        with pytest.raises(ValueError):
            nc_moebius(p, q)

    def test_defining_recursion(self):
        # sum of mu(s, 1) over s in [p, 1] vanishes for p < 1
        n = 5
        top = one_partition(n)
        for p in enumerate_nc(n):
            if p == top:
                continue
            total = sum(
                nc_moebius(s, top)
                for s in enumerate_nc(n)
                if leq(p, s)
            )
            assert total == 0


class TestThicken:
    def test_nested_bundles_merge(self):
        p = PairPartition(12, ((1, 12), (2, 11), (3, 6), (4, 5), (7, 10), (8, 9)))
        assert thicken(p, 3, 4).blocks == ((1, 6), (2, 3), (4, 5))

    def test_smallest_case(self):
        p = PairPartition(4, ((1, 4), (2, 3)))
        assert thicken(p, 2, 2).blocks == ((1, 2),)

    def test_errors(self):
        p = PairPartition(6, ((1, 6), (2, 3), (4, 5)))
        with pytest.raises(ValueError):
            thicken(p, 3, 3)  # odd interval size
        crossing = PairPartition(4, ((1, 3), (2, 4)))
        with pytest.raises(ValueError):
            thicken(crossing, 2, 2)
        not_partite = PairPartition(4, ((1, 2), (3, 4)))
        with pytest.raises(ValueError):
            thicken(not_partite, 2, 2)

    def _targets(self, m, d):
        """m-partite noncrossing partitions of [md/2] without singletons."""
        half = m * d // 2
        out = []
        for q in enumerate_nc(half):
            if all(len(b) >= 2 for b in q.blocks) and is_m_partite(q, d // 2):
                out.append(q)
        return out

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_bijection(self, m, d):
        pairings = enumerate_m_partite_nc_pairings(m, d)
        images = [thicken(p, m, d) for p in pairings]
        assert len(set(images)) == len(images)  # injective
        targets = self._targets(m, d)
        assert sorted(q.blocks for q in images) == sorted(q.blocks for q in targets)
        for p, q in zip(pairings, images):
            assert unthicken(q, m, d) == p
        for q in targets:
            assert thicken(unthicken(q, m, d), m, d) == q

    def test_unthicken_rejects_singletons(self):
        q = SetPartition(2, ((1,), (2,)))
        with pytest.raises(ValueError):
            unthicken(q, 2, 2)


CROSSING = SetPartition(4, ((1, 3), (2, 4)))


@pytest.mark.parametrize("build, message", [
    (lambda: SetPartition(-1, ()), "ground set size must be nonnegative"),
    (lambda: is_m_partite(SetPartition(2, ((1, 2),)), 0),
     "interval size 0 needs an empty ground set"),
    (lambda: nc_moebius(zero_partition(2), zero_partition(3)), "mismatched ground sets"),
    (lambda: thicken(CROSSING, 2, 4), "expected a pairing of [8], got ground set 4"),
    (lambda: thicken(SetPartition(4, ((1, 2, 3), (4,))), 2, 2),
     "thicken needs a pair partition"),
    (lambda: unthicken(SetPartition(2, ((1, 2),)), 2, 1),
     "interval size must be even to unthicken"),
    (lambda: unthicken(SetPartition(3, ((1, 2), (3,))), 2, 2),
     "expected a partition of [2], got ground set 3"),
    (lambda: unthicken(CROSSING, 2, 4), "partition must be noncrossing"),
    (lambda: unthicken(SetPartition(4, ((1, 2), (3, 4))), 2, 4),
     "partition must be m-partite"),
], ids=["negative-n", "m-partite-d0", "moebius-ground-sets", "thicken-ground-set",
        "thicken-not-pairs", "unthicken-odd-d", "unthicken-ground-set",
        "unthicken-crossing", "unthicken-not-m-partite"])
def test_refusals_name_the_fault(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_empty_ground_set_edges():
    assert is_m_partite(SetPartition(0, ()), 0) is True
    assert one_partition(0) == SetPartition(0, ())
