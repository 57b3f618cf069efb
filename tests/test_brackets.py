import itertools
import math
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
from ncinv import brackets
from ncinv.brackets import (
    BracketExpression,
    BracketMonomial,
    VanishingBracketError,
    _decode_leading_word,
    _iter_nc_matchings,
    _resolve_graph,
    crossing_quads,
    from_pairs,
    pluecker_step,
    to_noncrossing,
)
from ncinv.partitions import PairPartition, is_noncrossing
from ncinv.symbolic import predicted_leading_word, restitution

from _oracles import (
    all_perfect_matchings,
    blocks_are_m_partite,
    brute_crossing_quadruples,
    iter_crossing_quadruples,
    nc_perfect_matchings,
)


def all_monomials(m, d):
    """Every m-partite (not necessarily noncrossing) matching as a monomial."""
    return [
        BracketMonomial(m, d, ch, 1)
        for ch in all_perfect_matchings(m * d)
        if blocks_are_m_partite(ch, d)
    ]


def window_graph(chords, d):
    """The window multigraph (edges, mults) of canonical chords, counted directly."""
    pairs = [((p - 1) // d, (q - 1) // d) for p, q in chords]
    edges = tuple(sorted(set(pairs)))
    return edges, tuple(pairs.count(edge) for edge in edges)


def brute_graph_crossings(graph) -> int:
    """Crossing chord pairs of a window multigraph, one edge copy at a time."""
    copies = [edge for edge, k in zip(*graph) for _ in range(k)]
    return sum(1 for (a, c), (b, e) in itertools.permutations(copies, 2) if a < b < c < e)


def graph_value(graph, t) -> int:
    """prod of (t_a - t_b)^k over the graph's edges (a, b) of multiplicity k."""
    return math.prod((t[a] - t[b]) ** k for (a, b), k in zip(*graph))


def slot_normal_form(e: BracketExpression) -> dict:
    """The fixed point of ``pluecker_step``: the terms of highest crossing
    count are stepped first, so each pairing is stepped once."""
    levels = {}
    for chords, coeff in e.terms.items():
        level = levels.setdefault(BracketMonomial(e.m, e.d, chords).crossing_count(), {})
        level[chords] = coeff
    while max(levels, default=0):
        for chords, coeff in levels.pop(max(levels)).items():
            for term, c in pluecker_step(BracketMonomial(e.m, e.d, chords)).monomials():
                level = levels.setdefault(term.crossing_count(), {})
                level[term.chords] = level.get(term.chords, 0) + c * coeff
    return {chords: c for chords, c in levels.get(0, {}).items() if c}


def md_cases(limit):
    cases = []
    for md in range(2, limit + 1, 2):
        for d in [x for x in range(1, md + 1) if md % x == 0]:
            m = md // d
            if m >= 2:
                cases.append((m, d))
    return cases


class TestFromPairs:
    def test_orientation_signs(self):
        assert from_pairs(2, 1, [(1, 2)]).sign == 1
        assert from_pairs(2, 1, [(2, 1)]).sign == -1
        assert from_pairs(2, 1, [(2, 1)]).chords == ((1, 2),)

    def test_vanishing_bracket(self):
        with pytest.raises(VanishingBracketError, match="vanishing bracket"):
            from_pairs(1, 2, [(1, 2)])
        with pytest.raises(VanishingBracketError):
            from_pairs(2, 3, [(1, 2), (3, 4), (5, 6)])

    def test_not_a_matching(self):
        with pytest.raises(ValueError):
            from_pairs(2, 1, [(1, 1)])
        with pytest.raises(ValueError):
            from_pairs(2, 2, [(1, 3), (2, 3)])

    @given(st.integers(min_value=0, max_value=5), st.data())
    @settings(max_examples=60)
    def test_antisymmetry(self, seed, data):
        rng = random.Random(seed)
        m, d = rng.choice(md_cases(8))
        mono = rng.choice(all_monomials(m, d))
        k = data.draw(st.integers(min_value=0, max_value=len(mono.chords) - 1))
        pairs = [tuple(ch) for ch in mono.chords]
        pairs[k] = (pairs[k][1], pairs[k][0])
        flipped = from_pairs(m, d, pairs)
        assert flipped.chords == mono.chords
        assert flipped.sign == -mono.sign


class TestPlueckerStep:
    def test_single_crossing_four_symbols(self):
        e = pluecker_step(BracketMonomial(4, 1, ((1, 3), (2, 4)), 1))
        assert e.terms == {
            ((1, 2), (3, 4)): Fraction(1),
            ((1, 4), (2, 3)): Fraction(1),
        }

    def test_vanishing_resolution(self):
        # both slots 1,2 belong to one symbol, so that resolution drops out
        e = pluecker_step(BracketMonomial(2, 2, ((1, 3), (2, 4)), 1))
        assert e.terms == {((1, 4), (2, 3)): Fraction(1)}

    def test_noncrossing_returns_none(self):
        assert pluecker_step(BracketMonomial(4, 1, ((1, 2), (3, 4)), 1)) is None

    def test_sign_carried(self):
        e = pluecker_step(BracketMonomial(4, 1, ((1, 3), (2, 4)), -1))
        assert set(e.terms.values()) == {Fraction(-1)}

    def test_crossings_strictly_decrease(self):
        for m, d in md_cases(10):
            for mono in all_monomials(m, d):
                before = mono.crossing_count()
                e = pluecker_step(mono)
                if before == 0:
                    assert e is None
                    continue
                for term, _ in e.monomials():
                    assert term.crossing_count() < before


class TestCrossings:
    def test_enumerator_matches_the_definition(self):
        # Every crossing quadruple, in lexicographic order, on every
        # m-partite matching with md <= 10.
        for m, d in md_cases(10):
            for mono in all_monomials(m, d):
                want = list(iter_crossing_quadruples(mono.chords))
                assert list(crossing_quads(mono.chords)) == want
                assert want == sorted(want)
                assert mono.crossing_count() == len(want)
                assert mono.is_noncrossing() == (not want)

    def test_monomial_count_matches_partition_count(self):
        for m, d in md_cases(10):
            for mono in all_monomials(m, d):
                p = PairPartition(m * d, mono.chords)
                count = sum(1 for _ in crossing_quads(p.blocks))
                assert mono.crossing_count() == count
                assert mono.is_noncrossing() == (count == 0) == is_noncrossing(p)


class TestToNoncrossing:
    def test_single_crossing(self):
        e = BracketExpression.from_monomial(BracketMonomial(4, 1, ((1, 3), (2, 4)), 1))
        out = to_noncrossing(e)
        assert out.terms == {
            ((1, 2), (3, 4)): Fraction(1),
            ((1, 4), (2, 3)): Fraction(1),
        }

    def test_noncrossing_unchanged(self):
        e = BracketExpression.from_monomial(BracketMonomial(4, 1, ((1, 4), (2, 3)), 1))
        assert to_noncrossing(e) == e

    def test_supported_on_noncrossing(self):
        for m, d in md_cases(10):
            for mono in all_monomials(m, d):
                out = to_noncrossing(BracketExpression.from_monomial(mono))
                assert out.is_noncrossing()

    def test_restitution_preserved(self):
        for m, d in md_cases(10):
            for mono in all_monomials(m, d):
                e = BracketExpression.from_monomial(mono)
                assert restitution(to_noncrossing(e)) == restitution(e)

    def test_strategy_confluence(self):
        rng = random.Random(20240817)
        for m, d in md_cases(10):
            for mono in all_monomials(m, d):
                e = BracketExpression.from_monomial(mono)
                lex = to_noncrossing(e)
                rnd = to_noncrossing(e, strategy="random", rng=rng)
                assert lex == rnd

    def test_random_picks_among_the_graph_crossings(self):
        # The shift pairing {i, i + 6} at d=2 joins windows (0, 3), (1, 4)
        # and (2, 5) twice each: three crossing edge pairs, not nine.
        picks = []

        class Last(random.Random):
            def choice(self, seq):
                picks.append(seq)
                return seq[-1]

        shift = BracketExpression(6, 2, {tuple((i, i + 6) for i in range(1, 7)): 1})
        assert to_noncrossing(shift, strategy="random", rng=Last()) == to_noncrossing(shift)
        assert picks[0] == [(0, 1, 3, 4), (0, 2, 3, 5), (1, 2, 4, 5)]

    def test_random_needs_rng(self):
        e = BracketExpression.from_monomial(BracketMonomial(4, 1, ((1, 3), (2, 4)), 1))
        with pytest.raises(ValueError):
            to_noncrossing(e, strategy="random")

    @pytest.mark.parametrize("rng", [None, random.Random(0)])
    def test_unknown_strategy_rejected(self, rng):
        e = BracketExpression.from_monomial(BracketMonomial(4, 1, ((1, 3), (2, 4)), 1))
        with pytest.raises(ValueError, match="strategy must be 'lex'.*'bogus'"):
            to_noncrossing(e, strategy="bogus", rng=rng)

    def test_each_multigraph_resolved_once(self, monkeypatch):
        # The shift pairing {i, i + 10} at m=10, d=2 reaches most of its
        # intermediate window multigraphs along more than one path.
        resolved = []

        def recording(graph, quad, before):
            resolved.append(graph)
            return _resolve_graph(graph, quad, before)

        monkeypatch.setattr(brackets, "_resolve_graph", recording)
        shift = BracketMonomial(10, 2, tuple((i, i + 10) for i in range(1, 11)), 1)
        out = to_noncrossing(BracketExpression.from_monomial(shift))
        assert out.is_noncrossing() and len(out) == 603
        assert len(resolved) == len(set(resolved)) == 1443

    def test_each_input_term_counted_once(self, monkeypatch):
        # Placing a term on its level counts its graph's crossings, and a
        # noncrossing graph is never resolved, so nothing counts it again.
        count = brackets._graph_count
        calls = []

        def counting(graph):
            calls.append(graph)
            return count(graph)

        monkeypatch.setattr(brackets, "_graph_count", counting)
        terms = {chords: k for k, chords in enumerate(_iter_nc_matchings(12, 2), 1)}
        e = BracketExpression(6, 2, terms)
        assert to_noncrossing(e) == e
        assert len(terms) == 15
        assert sorted(calls) == sorted(window_graph(chords, 2) for chords in terms)

    def test_terms_with_one_multigraph_are_summed(self):
        # Both pairings join windows 0 and 1 twice, so their restitutions
        # agree and the difference is zero; the first one crosses.
        e = BracketExpression(2, 2, {((1, 3), (2, 4)): Fraction(2, 3), ((1, 4), (2, 3)): -1})
        assert restitution(to_noncrossing(e)) == restitution(e)
        assert to_noncrossing(e).terms == {((1, 4), (2, 3)): Fraction(-1, 3)}
        e = BracketExpression(2, 2, {((1, 3), (2, 4)): 1, ((1, 4), (2, 3)): -1})
        assert to_noncrossing(e).terms == {}

    @pytest.mark.parametrize("m, d", [(8, 2), (6, 3), (5, 4)])
    def test_equals_the_slot_level_fixed_point(self, m, d):
        # Seeded multi-term inputs with rational coefficients; the slot-level
        # oracle runs pluecker_step alone.
        rng = random.Random(1000 * m + d)
        for _ in range(3):
            terms = {}
            while len(terms) < 4:
                points = list(range(1, m * d + 1))
                rng.shuffle(points)
                pairs = list(zip(points[::2], points[1::2]))
                if all((p - 1) // d != (q - 1) // d for p, q in pairs):
                    terms[tuple(pairs)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            e = BracketExpression(m, d, terms)
            assert to_noncrossing(e).terms == slot_normal_form(e)

    def test_noncanonical_keys_are_canonicalised(self):
        twisted = BracketExpression(4, 1, {((2, 4), (1, 3)): 1})
        canonical = BracketExpression(4, 1, {((1, 3), (2, 4)): 1})
        assert twisted == canonical
        assert not twisted.is_noncrossing()
        assert to_noncrossing(twisted) == to_noncrossing(canonical)
        assert to_noncrossing(twisted).terms == {
            ((1, 2), (3, 4)): Fraction(1),
            ((1, 4), (2, 3)): Fraction(1),
        }

    def test_keys_equal_once_canonical_are_merged(self):
        e = BracketExpression(4, 1, {((2, 4), (1, 3)): 1, ((1, 3), (2, 4)): Fraction(1, 2)})
        assert e.terms == {((1, 3), (2, 4)): Fraction(3, 2)}
        e = BracketExpression(4, 1, {((2, 4), (1, 3)): 1, ((1, 3), (2, 4)): -1})
        assert e.terms == {}

    @pytest.mark.parametrize("m, d, terms, error, message", [
        (2, 2, {((1, 2), (3, 4)): 1}, VanishingBracketError, "slots 1,2 belong to one symbol"),
        (2, 2, {((1, 3), (1, 4)): 1}, ValueError, r"perfect matching of 1\.\.4"),
        (3, 2, {((1, 3), (2, 4)): 1}, ValueError, r"perfect matching of 1\.\.6"),
        (4, 1, {((1, 2, 3), (4,)): 1}, ValueError, r"perfect matching of 1\.\.4"),
        (-1, 2, {}, ValueError, "m and d must be nonnegative"),
        (2, -1, None, ValueError, "m and d must be nonnegative"),
        (2, 2, {((1, 2), (3, 4)): 0}, VanishingBracketError, "slots 1,2 belong to one symbol"),
    ], ids=["vanishing", "not-a-matching", "wrong-ground-set", "not-pairs", "negative-m",
            "negative-d", "zero-coefficient"])
    def test_keys_are_checked_like_monomials(self, m, d, terms, error, message):
        with pytest.raises(error, match=message):
            BracketExpression(m, d, terms)

    def test_linear_combination(self):
        e = BracketExpression(
            4, 1,
            {
                ((1, 3), (2, 4)): Fraction(2, 3),
                ((1, 2), (3, 4)): Fraction(-1, 2),
            },
        )
        out = to_noncrossing(e)
        assert out.terms == {
            ((1, 2), (3, 4)): Fraction(2, 3) - Fraction(1, 2),
            ((1, 4), (2, 3)): Fraction(2, 3),
        }


class TestExpressionJson:
    def test_round_trip(self):
        e = BracketExpression(
            2, 2, {((1, 4), (2, 3)): Fraction(3, 7), ((1, 3), (2, 4)): Fraction(-2)}
        )
        data = e.to_json_dict()
        assert data["m"] == 2 and data["d"] == 2
        assert BracketExpression.from_json_dict(data) == e

    def test_reading_respects_orientation_sign(self):
        data = {
            "m": 2,
            "d": 1,
            "terms": [{"coeff": "1", "chords": [[2, 1]], "sign": 1}],
        }
        e = BracketExpression.from_json_dict(data)
        assert e.terms == {((1, 2),): Fraction(-1)}

    def test_reading_rejects_vanishing(self):
        data = {
            "m": 1,
            "d": 2,
            "terms": [{"coeff": "1", "chords": [[1, 2]], "sign": 1}],
        }
        with pytest.raises(VanishingBracketError):
            BracketExpression.from_json_dict(data)

    @pytest.mark.parametrize("data, message", [
        ([{"m": 2, "d": 1, "terms": []}], "JSON object"),
        ({"d": 1, "terms": []}, "missing field 'm'"),
        ({"m": 2, "d": 1, "terms": None}, "terms must be a list"),
        ({"m": -1, "d": 1, "terms": []}, "nonnegative"),
        ({"m": 2.5, "d": 1, "terms": []}, "m must be an integer"),
        ({"m": 2, "d": "1", "terms": []}, "d must be an integer"),
        ({"m": True, "d": 1, "terms": []}, "m must be an integer"),
        ({"m": 2, "d": 1, "terms": [{"coeff": "1/0", "chords": [[1, 2]]}]}, "zero denominator"),
        ({"m": 2, "d": 1, "terms": [{"coeff": float("inf"), "chords": [[1, 2]]}]}, "coefficient"),
        ({"m": 2, "d": 1, "terms": [{"coeff": 0.5, "chords": [[1, 2]]}]}, "coefficient"),
        ({"m": 2, "d": 1, "terms": [{"coeff": "1e9", "chords": [[1, 2]]}]}, "coefficient"),
        ({"m": 2, "d": 1, "terms": [{"coeff": "1", "chords": [[1, 2]], "sign": 1.0}]}, "sign"),
        ({"m": 2, "d": 1, "terms": [{"coeff": "1", "chords": [[1, 2]], "sign": 2}]}, "sign"),
        ({"m": 2, "d": 1, "terms": [{"coeff": "1", "chords": [[1, 2, 3]]}]}, "slot pairs"),
        ({"m": 2, "d": 1, "terms": [{"coeff": "1", "chords": [[1, "2"]]}]}, "chord slot"),
        ({"m": 2, "d": 1, "terms": [{"chords": [[1, 2]]}]}, "missing field 'coeff'"),
        ({"m": 2, "d": 1, "terms": ["x"]}, "JSON object"),
        ({"m": 2, "d": 1, "terms": [{"coeff": None, "chords": [[1, 2]]}]}, "coefficient"),
    ])
    def test_malformed_rejected(self, data, message):
        with pytest.raises(ValueError, match=message):
            BracketExpression.from_json_dict(data)

    def test_accepted_coefficient_forms(self):
        for coeff, want in [(3, 3), ("-2/4", Fraction(-1, 2)), (" 0.25 ", Fraction(1, 4))]:
            data = {"m": 2, "d": 1, "terms": [{"coeff": coeff, "chords": [[1, 2]]}]}
            assert BracketExpression.from_json_dict(data).terms == {((1, 2),): Fraction(want)}

    def test_each_key_is_checked_once(self, monkeypatch):
        # The reader leaves the chord rule to BracketExpression, and what the
        # package builds from checked keys is not checked again.
        checked = brackets._chords
        calls = []

        def counting(m, d, chords):
            calls.append(chords)
            return checked(m, d, chords)

        monkeypatch.setattr(brackets, "_chords", counting)
        data = {"m": 4, "d": 1, "terms": [
            {"coeff": "1", "chords": [[1, 3], [2, 4]], "sign": 1},
            {"coeff": "2", "chords": [[4, 2], [3, 1]], "sign": 1},
            {"coeff": "1/2", "chords": [[2, 1], [3, 4]], "sign": -1},
        ]}
        e = BracketExpression.from_json_dict(data)
        assert e.terms == {((1, 3), (2, 4)): 3, ((1, 2), (3, 4)): Fraction(1, 2)}
        assert len(calls) == len(data["terms"])
        b = BracketMonomial(4, 1, ((1, 3), (2, 4)), -1)
        calls.clear()
        to_noncrossing(e)
        pluecker_step(b)
        BracketExpression.from_monomial(b)
        list(e.monomials())
        assert calls == []

    def test_huge_m_rejected_without_building_the_ground_set(self):
        data = {"m": 10 ** 15, "d": 10 ** 15,
                "terms": [{"coeff": "1", "chords": [[1, 2]], "sign": 1}]}
        with pytest.raises(ValueError, match="perfect matching"):
            BracketExpression.from_json_dict(data)


class TestDecode:
    def test_leading_word_decodes_to_its_pairing(self):
        # Every m-partite noncrossing pairing with md <= 16, listed by the
        # brute-force oracle rather than by the pairing walk.
        decoded = 0
        for m, d in md_cases(16):
            for chords in nc_perfect_matchings(1, m * d):
                if blocks_are_m_partite(chords, d):
                    word = predicted_leading_word(BracketMonomial(m, d, chords))
                    assert _decode_leading_word(word, d) == chords
                    decoded += 1
        assert decoded == sum(1 for m, d in md_cases(16)
                              for _ in _iter_nc_matchings(m * d, d))

    def test_empty_pairing(self):
        assert _decode_leading_word((0, 0, 0), 0) == ()
        assert _decode_leading_word((), 3) == ()


class TestTerminationCheck:
    @pytest.mark.parametrize("m, d", [(4, 2), (3, 3), (8, 1), (2, 4)])
    def test_every_resolution_lowers_the_recounted_crossings(self, m, d):
        # The slot-level step resolves a monomial's chords as a multigraph
        # with every multiplicity 1.  The returned count is the level a
        # resolution goes to; check it against the brute count, for every
        # crossing (not only the first).
        for mono in all_monomials(m, d):
            before = brute_crossing_quadruples(mono.chords)
            graph = mono.chords, (1,) * len(mono.chords)
            for quad in crossing_quads(mono.chords):
                for (chords, mults), left in _resolve_graph(graph, quad, before):
                    assert set(mults) == {1}
                    assert left == brute_crossing_quadruples(chords) < before

    @pytest.mark.parametrize("m, d", [(4, 2), (3, 3), (8, 1), (2, 4)])
    def test_every_graph_resolution_lowers_the_recounted_crossings(self, m, d):
        # Every crossing of every monomial's window multigraph: the recount
        # is the brute count and lower, and Pluecker's relation holds at a
        # point with distinct coordinates.
        t = [3 ** k + k for k in range(m)]
        graphs = {window_graph(mono.chords, d) for mono in all_monomials(m, d)}
        for graph in graphs:
            before = brute_graph_crossings(graph)
            for quad in crossing_quads(graph[0]):
                resolved = _resolve_graph(graph, quad, before)
                assert len(resolved) == 2
                for after, left in resolved:
                    assert left == brute_graph_crossings(after) < before
                assert graph_value(graph, t) == sum(graph_value(g, t) for g, _ in resolved)

    def test_active_under_optimize(self):
        # Make every crossing count read the same, so no resolution can
        # lower it; the check must still fire with asserts stripped by -O.
        out = run_optimized(
            "brackets._graph_count = lambda graph: 7\n"
            "brackets.pluecker_step(brackets.BracketMonomial(4, 1, ((1, 3), (2, 4)), 1))\n"
        )
        assert "raised: rewriting would not terminate" in out

    def test_graph_check_active_under_optimize(self):
        # The same for the window multigraphs that to_noncrossing rewrites.
        out = run_optimized(
            "brackets._graph_count = lambda graph: 7\n"
            "mono = brackets.BracketMonomial(4, 1, ((1, 3), (2, 4)), 1)\n"
            "brackets.to_noncrossing(brackets.BracketExpression.from_monomial(mono))\n"
        )
        assert "raised: rewriting would not terminate" in out


def run_optimized(body: str) -> str:
    """stdout of ``body`` (lines using ``brackets``) run by ``python -O``,
    with a RuntimeError it raises printed; fails unless asserts are off."""
    script = (
        "import sys\n"
        "assert False, 'asserts are on'\n"
        "from ncinv import brackets\n"
        "try:\n"
        + "".join(f"    {line}\n" for line in body.splitlines())
        + "except RuntimeError as exc:\n"
        "    print('raised:', exc)\n"
        "print('optimize', sys.flags.optimize)\n"
    )
    src = str(Path(ncinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "optimize 1" in done.stdout
    return done.stdout


@pytest.mark.parametrize("build, message", [
    (lambda: BracketMonomial(-1, 2, ()), "m and d must be nonnegative"),
    (lambda: BracketMonomial(2, 1, ((1, 2),), 2), "sign must be +1 or -1"),
], ids=["negative-m", "sign-2"])
def test_refusals_name_the_fault(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
