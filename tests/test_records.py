"""The package's immutable values: value equality and hashing, the
``Name(field=value, ...)`` repr, and no assignment or deletion."""

from fractions import Fraction

import pytest

from ncinv.brackets import BracketExpression, BracketMonomial
from ncinv.freeprob import CumulantSequence, MomentSequence
from ncinv.group_action import GroupElement
from ncinv.hilbert import DimensionSeries, MethodComparison
from ncinv.partitions import PairPartition, SetPartition
from ncinv.symbolic import NcPolynomial

# (build, an equal record built from other arguments, a record differing in
# one field, its repr)
RECORDS = {
    "SetPartition": (
        lambda: SetPartition(3, ((3, 1), (2,))),
        lambda: SetPartition(3, [(2,), [1, 3]]),
        lambda: SetPartition(3, ((1, 2), (3,))),
        "SetPartition(n=3, blocks=((1, 3), (2,)))",
    ),
    "DimensionSeries": (
        lambda: DimensionSeries(2, (1, 0, 1)),
        lambda: DimensionSeries(d=2, dims=(1, 0, 1), roundoff=None),
        lambda: DimensionSeries(2, (1, 0, 1), (0.0, 0.0, 0.0)),
        "DimensionSeries(d=2, dims=(1, 0, 1), roundoff=None)",
    ),
    "MethodComparison": (
        lambda: MethodComparison(1, ((0, 1, 1, 1.0, 0.0),), (0.5,)),
        lambda: MethodComparison(d=1, rows=((0, 1, 1, 1.0, 0.0),), roundoff=(0.5,)),
        lambda: MethodComparison(2, ((0, 1, 1, 1.0, 0.0),), (0.5,)),
        "MethodComparison(d=1, rows=((0, 1, 1, 1.0, 0.0),), roundoff=(0.5,))",
    ),
    "BracketMonomial": (
        lambda: BracketMonomial(2, 1, ((2, 1),), -1),
        lambda: BracketMonomial(m=2, d=1, chords=[(1, 2)], sign=-1),
        lambda: BracketMonomial(2, 1, ((1, 2),)),
        "BracketMonomial(m=2, d=1, chords=((1, 2),), sign=-1)",
    ),
    "MomentSequence": (
        lambda: MomentSequence((1, 0, 1)),
        lambda: MomentSequence([Fraction(1), 0, "1"]),
        lambda: MomentSequence((1, 0, 2)),
        "MomentSequence(values=(1, 0, 1))",
    ),
    "CumulantSequence": (
        lambda: CumulantSequence("table", ("1/2",)),
        lambda: CumulantSequence.from_table([Fraction(1, 2)]),
        lambda: CumulantSequence("table"),
        "CumulantSequence(kind='table', table=(Fraction(1, 2),))",
    ),
    "GroupElement": (
        lambda: GroupElement(2, 0, 0, "1/2"),
        lambda: GroupElement(a=Fraction(2), b=0, c=0, e=Fraction(1, 2)),
        lambda: GroupElement(2, 1, 0, "1/2"),
        "GroupElement(a=2, b=0, c=0, e=Fraction(1, 2))",
    ),
}

# The two sums of terms, held in dicts: equal fields give equal values, but
# no hash.  (build, an equal value, one differing in one field, its repr)
SUMS = {
    "NcPolynomial": (
        lambda: NcPolynomial(1, 2, {(1, 0): 1, (0, 1): -1}),
        lambda: NcPolynomial(d=1, m=2, terms={(0, 1): Fraction(-1), (1, 0): "1", (1, 1): 0}),
        lambda: NcPolynomial(2, 2, {(1, 0): 1, (0, 1): -1}),
        "NcPolynomial(d=1, m=2, 'a1·a0 - a0·a1')",
    ),
    "BracketExpression": (
        lambda: BracketExpression(4, 1, {((1, 3), (2, 4)): "1/2"}),
        lambda: BracketExpression(m=4, d=1, terms={((4, 2), (3, 1)): Fraction(1, 2)}),
        lambda: BracketExpression(4, 1, {((1, 3), (2, 4)): 1}),
        "BracketExpression(m=4, d=1: 1/2*((1, 3), (2, 4)))",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_records_and_hashes(name):
    build, twin, other, _ = RECORDS[name]
    assert build() == twin() and hash(build()) == hash(twin())
    assert build() != other()
    assert build() != repr(build())


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_every_field(name):
    build, _, _, text = RECORDS[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", SUMS)
def test_sums_compare_by_fields_but_do_not_hash(name):
    build, twin, other, text = SUMS[name]
    assert build() == twin() and build() != other()
    assert build() != repr(build())
    with pytest.raises(TypeError, match=f"unhashable type: '{name}'"):
        hash(build())
    assert repr(build()) == text


@pytest.mark.parametrize("name", [*RECORDS, *SUMS])
def test_fields_cannot_be_assigned_or_deleted(name):
    record = {**RECORDS, **SUMS}[name][0]()
    before = repr(record)
    for field in (*vars(record), "new_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == before


def test_pair_partition_equals_the_set_partition_of_its_blocks():
    pair = PairPartition(4, ((1, 4), (2, 3)))
    plain = SetPartition(4, ((2, 3), (1, 4)))
    assert pair == plain and hash(pair) == hash(plain)
    assert repr(pair) == "PairPartition(n=4, blocks=((1, 4), (2, 3)))"


def test_set_partition_caches_its_block_index():
    part = SetPartition(3, ((1, 3), (2,)))
    assert part.block_index is part.block_index == {1: 0, 3: 0, 2: 1}
