"""The references agree with brute force on small sizes, and every output
check built on them rejects a deliberately wrong value."""

import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import references as ref  # noqa: E402
import workloads as wl  # noqa: E402


def brute_pairings(m, d):
    """All m-partite noncrossing perfect matchings of [md], from scratch."""
    n = m * d

    def matchings(points):
        if not points:
            yield ()
            return
        first = points[0]
        for i in range(1, len(points)):
            rest = points[1:i] + points[i + 1:]
            for tail in matchings(rest):
                yield ((first, points[i]),) + tail

    for chords in matchings(list(range(1, n + 1))):
        if all((p - 1) // d != (q - 1) // d for p, q in chords) and not ref.crossing_count(chords):
            yield chords


def brute_nc_partitions(n):
    def partitions(points):
        if not points:
            yield []
            return
        first, rest = points[0], points[1:]
        for smaller in partitions(rest):
            yield [[first]] + smaller
            for i in range(len(smaller)):
                yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]

    for blocks in partitions(list(range(1, n + 1))):
        crossing = any(a < c < b < e and owner_a != owner_c
                       for owner_a, block_a in enumerate(blocks)
                       for owner_c, block_c in enumerate(blocks)
                       for a, b in itertools.combinations(block_a, 2)
                       for c, e in itertools.combinations(block_c, 2))
        if not crossing:
            yield [tuple(sorted(b)) for b in blocks]


def test_transfer_count_and_leading_words_match_brute_force():
    for m, d in [(2, 2), (4, 2), (6, 2), (3, 3), (4, 3), (3, 4), (2, 5), (6, 1)]:
        pairings = list(brute_pairings(m, d))
        assert ref.transfer_count(m, d) == len(pairings)
        words = set()
        for chords in pairings:
            counts = [0] * m
            for p, _q in chords:
                counts[(p - 1) // d] += 1
            words.add(tuple(counts))
        assert ref.leading_words(m, d) == words


def test_closed_forms():
    assert [ref.closed_form_dim(m, 2) for m in range(11)] == [1, 0, 1, 1, 3, 6, 15, 36, 91, 232, 603]
    for m in range(16):
        assert ref.closed_form_dim(m, 1) == ref.transfer_count(m, 1)
        assert ref.closed_form_dim(m, 2) == ref.transfer_count(m, 2)


def test_dim_check_rejects_wrong_count():
    wl._check_dim(8, 2)(b"91\n")
    with pytest.raises(wl.CheckError):
        wl._check_dim(8, 2)(b"92\n")


def test_hilbert_checks_reject_wrong_columns():
    good = "m,enum,cheb,quad,abs_err\n0,1,1,1,0\n1,0,0,1e-17,1e-17\n2,1,1,1.0000000001,1e-10\n"
    wl._check_hilbert_all(2, 2)(good.encode())
    with pytest.raises(wl.CheckError):
        wl._check_hilbert_all(2, 2)(good.replace("2,1,1,", "2,2,1,").encode())
    with pytest.raises(wl.CheckError):
        wl._check_hilbert_all(2, 2)(good.replace("1.0000000001", "1.00001").encode())
    wl._check_series(2, 4, int)(b"1,0,1,1,3\n")
    with pytest.raises(wl.CheckError):
        wl._check_series(2, 4, int)(b"1,0,1,1,4\n")
    with pytest.raises(wl.CheckError):
        wl._check_series(2, 4, float)(b"1,0,1,1,3.0001\n")


def brute_moment(sizes, cumulant):
    label = [g for g, s in enumerate(sizes) for _ in range(s)]
    total = Fraction(0)
    for blocks in brute_nc_partitions(len(label)):
        if all(len({label[x - 1] for x in b}) == len(b) for b in blocks):
            term = Fraction(1)
            for b in blocks:
                term *= cumulant(len(b))
            total += term
    return total


def test_first_block_recursion_and_interval_moment_match_brute_force():
    table = [Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 2)]
    cumulant = wl._table(table)
    moments = ref.first_block_moments(cumulant, 7)
    for n in range(8):
        assert moments[n] == brute_moment((1,) * n, cumulant)
    for sizes in [(2, 2, 2), (3, 1, 3), (2, 3, 2)]:
        assert ref.interval_moment(sizes, cumulant) == brute_moment(sizes, cumulant)
    assert ref.first_block_moments(lambda s: 1, 6) == [ref.catalan(n) for n in range(7)]


def test_moments_check_rejects_wrong_value():
    check = wl._check_moments(lambda s: 1 if s == 2 else 0, 6)
    check(b"1,0,1,0,2,0,5\n")
    with pytest.raises(wl.CheckError):
        check(b"1,0,1,0,2,0,6\n")


def brute_moebius_from_zero(blocks):
    n = sum(len(b) for b in blocks)
    owner = {x: i for i, b in enumerate(blocks) for x in b}
    below = [p for p in brute_nc_partitions(n)
             if all(len({owner[x] for x in b}) == 1 for b in p)]

    def leq(p, q):
        where = {x: i for i, b in enumerate(q) for x in b}
        return all(len({where[x] for x in b}) == 1 for b in p)

    below.sort(key=len)  # coarser first
    mu = {}
    for s in below:
        key = tuple(sorted(s))
        mu[key] = 1 if len(s) == len(blocks) else -sum(
            mu[tuple(sorted(t))] for t in below if tuple(sorted(t)) in mu and t != s and leq(s, t))
    return mu[tuple((x,) for x in range(1, n + 1))]


def test_moebius_formula_matches_brute_force_and_rejects_wrong_value():
    rng = random.Random(3)
    for sizes in [(3, 2, 1), (4, 2), (5,), (2, 2, 2)]:
        blocks = ref.random_nc_partition(rng, sizes)
        assert not any(a < c < b < e for x in blocks for y in blocks if x != y
                       for a, b in itertools.combinations(x, 2)
                       for c, e in itertools.combinations(y, 2))
        assert ref.moebius_from_zero(blocks) == brute_moebius_from_zero(blocks)
    check = wl._expect_equal(ref.moebius_from_zero(((1, 2, 3, 4, 5, 6, 7),)))
    check(132)
    with pytest.raises(wl.CheckError):
        check(-132)


def test_bracket_evaluation_obeys_pluecker_and_rewrite_check_rejects_wrong_forms():
    # <13><24> = <12><34> + <14><23>, one slot per symbol (d = 1).
    crossing = {"m": 4, "d": 1, "terms": [{"coeff": "3/2", "chords": [[1, 3], [2, 4]], "sign": 1}]}
    normal = {"m": 4, "d": 1, "terms": [
        {"coeff": "3/2", "chords": [[1, 2], [3, 4]], "sign": 1},
        {"coeff": "3/2", "chords": [[1, 4], [2, 3]], "sign": 1}]}
    rng = random.Random(0)
    vectors = [[(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(4)] for _ in range(3)]
    for vecs in vectors:
        assert ref.evaluate_brackets(crossing, vecs) == ref.evaluate_brackets(normal, vecs)
    check = wl._check_rewrite(crossing, vectors)
    check(json.dumps(normal).encode())
    wrong_coeff = json.loads(json.dumps(normal))
    wrong_coeff["terms"][1]["coeff"] = "1/2"
    with pytest.raises(wl.CheckError):
        check(json.dumps(wrong_coeff).encode())
    with pytest.raises(wl.CheckError):
        check(json.dumps(crossing).encode())


def test_shear_annihilation_and_basis_check_reject_wrong_polynomials():
    assert ref.is_annihilated({(2, 0): 1, (1, 1): -2, (0, 2): 1}, 2)
    assert not ref.is_annihilated({(2, 0): 1, (1, 1): -3, (0, 2): 1}, 2)
    assert not ref.is_annihilated({(0, 2): 1}, 2)
    wl._check_basis_text(2, 2)("a2·a0 - 2·a1·a1 + a0·a2\n".encode())
    with pytest.raises(wl.CheckError):
        wl._check_basis_text(2, 2)("a2·a0 - 3·a1·a1 + a0·a2\n".encode())
    with pytest.raises(wl.CheckError):  # leading word is not an outgoing-chord count
        wl._check_basis_text(2, 2)("a1·a1\n".encode())
    wl._check_verify(2, 1)("PASS element 0: a1·a0 - a0·a1\n".encode())
    with pytest.raises(wl.CheckError):
        wl._check_verify(2, 1)("FAIL element 0: a1·a0 - a0·a1\n".encode())
