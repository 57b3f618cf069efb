"""The benchmark's workloads: the operations each one runs, their inputs
(generated from the workload seed), and the check on every output.

An operation is either a CLI job, run as ``python -m ncinv.cli <argv>`` in a
child process, or a library job, an in-process call to a public function.
Every check compares against ``references`` or against a property the
method must have; none compares against stored program output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import references as ref

CACHE = "{cache}"  # replaced by a fresh directory per cold job and round

# Widest quadrature error accepted against the exact dimension, relative to
# max(1, exact).  The CLI prints 12 significant digits (5e-12 relative), and
# the float error of a Gauss sum of |terms| up to (d+1)^m stays below 1e-13
# relative at the sizes used here.
QUAD_RTOL = 1e-9


# Basis elements per output whose invariance is checked exactly.
INVARIANCE_SAMPLE = 40


class CheckError(Exception):
    """An output disagrees with its reference."""


@dataclass
class Op:
    """One operation of a round.

    CLI ops have ``argv``; library ops have ``prepare``, which receives the
    imported ``ncinv`` package and returns the zero-argument call to time.
    ``check`` receives the CLI job's stdout bytes or the call's result and
    raises CheckError on a wrong output.
    """

    kind: str
    check: Callable
    argv: list[str] | None = None
    prepare: Callable | None = None
    repeat_of: int | None = None
    malformed: bool = False
    shape: tuple = field(default=())

    @property
    def cached(self) -> bool:
        return self.argv is not None and CACHE in self.argv

    @property
    def label(self) -> str:
        if self.argv is not None:
            return " ".join(a for a in self.argv if a != CACHE and a != "--cache-dir")
        return self.kind + repr(self.shape)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------- counting

def _check_dim(m: int, d: int):
    def check(out: bytes) -> None:
        _expect(out == f"{ref.transfer_count(m, d)}\n".encode(),
                f"dim d={d} m={m}: got {out[:80]!r}")
    return check


def _quad_ok(value: float, exact: int) -> bool:
    return abs(value - exact) <= QUAD_RTOL * max(1, abs(exact))


def _check_hilbert_all(d: int, max_m: int):
    def check(out: bytes) -> None:
        lines = out.decode().splitlines()
        _expect(lines[0] == "m,enum,cheb,quad,abs_err", "hilbert csv header")
        _expect(len(lines) == max_m + 2, "hilbert csv row count")
        for m, line in enumerate(lines[1:]):
            cols = line.split(",")
            exact = ref.transfer_count(m, d)
            _expect(int(cols[0]) == m and int(cols[1]) == exact and int(cols[2]) == exact,
                    f"hilbert d={d} m={m}: exact columns {cols[1:3]} != {exact}")
            _expect(_quad_ok(float(cols[3]), exact), f"hilbert d={d} m={m}: quad {cols[3]}")
    return check


def _check_series(d: int, max_m: int, parse):
    def check(out: bytes) -> None:
        values = [parse(v) for v in out.decode().strip().split(",")]
        _expect(len(values) == max_m + 1, "series length")
        for m, value in enumerate(values):
            exact = ref.transfer_count(m, d)
            good = value == exact if parse is int else _quad_ok(value, exact)
            _expect(good, f"series d={d} m={m}: {value} vs {exact}")
    return check


def counting(seed: int, inputs: Path) -> list[Op]:
    rng = random.Random(seed)
    cold = [
        Op("dim", _check_dim(m, d), ["dim", "--d", str(d), "--m", str(m), "--cache-dir", CACHE],
           shape=(d, m))
        for d, m in ((4, 11), (2, 16), (3, 10), (6, 8))
    ]
    cold += [
        Op("hilbert", _check_hilbert_all(d, mm),
           ["hilbert", "--d", str(d), "--max-m", str(mm), "--method", "all", "--cache-dir", CACHE],
           shape=(d, mm))
        for d, mm in ((4, 10), (2, 14), (6, 8))
    ]
    # Large m with even d: the exact routes and quadrature only; enumeration
    # at these sizes would run for years.
    for d, mm in ((2, 60), (4, 40)):
        cold.append(Op("hilbert", _check_series(d, mm, int),
                       ["hilbert", "--d", str(d), "--max-m", str(mm), "--method", "chebyshev",
                        "--no-cache"], shape=(d, mm)))
        cold.append(Op("hilbert", _check_series(d, mm, float),
                       ["hilbert", "--d", str(d), "--max-m", str(mm), "--method", "quadrature",
                        "--nodes", "4096", "--no-cache"], shape=(d, mm)))
    rng.shuffle(cold)
    ops = list(cold)
    for i, op in enumerate(cold):
        if op.cached:
            ops.append(Op("repeat", op.check, op.argv, repeat_of=i, shape=op.shape))
    return ops


# ----------------------------------------------------------------- algebra

def _number(text: str):
    """A printed rational as an int when it is one (much faster to multiply)."""
    value = Fraction(text)
    return value.numerator if value.denominator == 1 else value


def _parse_pretty(text: str) -> dict[tuple[int, ...], Fraction]:
    """Invert NcPolynomial.pretty: 'a2·a0 - 2·a1·a1 + a0·a2'."""
    poly: dict[tuple[int, ...], Fraction] = {}
    sign = 1
    for token in text.split(" "):
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -1, token[1:]
        parts = token.split("·")
        coeff = 1
        if not parts[0].startswith("a"):
            coeff = _number(parts.pop(0))
        word = tuple(int(p[1:]) for p in parts)
        poly[word] = poly.get(word, 0) + sign * coeff
        sign = 1
    return poly


def _check_basis_polys(polys, m: int, d: int, what: str) -> None:
    _expect(len(polys) == ref.transfer_count(m, d),
            f"{what} d={d} m={m}: {len(polys)} elements")
    leads = [max(p) for p in polys]
    _expect(len(set(leads)) == len(leads), f"{what} d={d} m={m}: repeated leading word")
    _expect(set(leads) == ref.leading_words(m, d),
            f"{what} d={d} m={m}: leading words differ from outgoing-chord counts")
    # Invariance of an evenly spaced sample, at most INVARIANCE_SAMPLE of them:
    # the shear check costs about as much as producing the whole basis.
    step = -(-len(polys) // INVARIANCE_SAMPLE)
    for i in range(0, len(polys), step):
        _expect(ref.is_annihilated(polys[i], d), f"{what} d={d} m={m}: element {i} not invariant")


def _check_basis_text(m: int, d: int):
    def check(out: bytes) -> None:
        lines = out.decode().splitlines()
        _check_basis_polys([_parse_pretty(line) for line in lines], m, d, "basis")
    return check


def _check_basis_json(m: int, d: int):
    def check(out: bytes) -> None:
        polys = []
        for entry in json.loads(out):
            _expect(entry["d"] == d and entry["m"] == m, "basis json header")
            polys.append({tuple(t["word"]): _number(t["coeff"]) for t in entry["terms"]})
        _check_basis_polys(polys, m, d, "basis json")
    return check


def _check_verify(m: int, d: int):
    def check(out: bytes) -> None:
        polys = []
        for i, line in enumerate(out.decode().splitlines()):
            head = f"PASS element {i}: "
            _expect(line.startswith(head), f"verify d={d} m={m}: line {i} is {line[:40]!r}")
            polys.append(_parse_pretty(line[len(head):]))
        _check_basis_polys(polys, m, d, "verify")
    return check


def _random_crossing_pairing(rng: random.Random, m: int, d: int, crossings: int):
    """A uniformly random m-partite pairing of [md] with exactly ``crossings``
    crossing chord pairs, each pair in a random orientation."""
    n = m * d
    while True:
        points = list(range(1, n + 1))
        rng.shuffle(points)
        pairs = [(points[2 * i], points[2 * i + 1]) for i in range(n // 2)]
        if any((p - 1) // d == (q - 1) // d for p, q in pairs):
            continue
        if ref.crossing_count([tuple(sorted(pair)) for pair in pairs]) == crossings:
            return pairs


# (m, d, crossings per monomial, monomials per file, files).  Rewrite cost
# is heavy-tailed in the crossing count, so every monomial of a make-up has
# the same count and each file sums many of them: the cost of a round then
# varies little from seed to seed, while the pairings themselves are random.
REWRITE_MAKEUP = ((8, 2, 14, 30, 2), (6, 3, 18, 30, 2), (5, 4, 20, 30, 2))

# The four malformed files, one for each way the JSON boundary is known to
# fail; each should exit 2 with an error message and no traceback.
MALFORMED = {
    "coeff_zero_denominator": '{"m": 2, "d": 1, "terms": [{"coeff": "1/0", "chords": [[1, 2]], "sign": 1}]}',
    "terms_null": '{"m": 2, "d": 1, "terms": null}',
    "top_level_array": '[{"m": 2, "d": 1, "terms": []}]',
    "coeff_overflow": '{"m": 2, "d": 1, "terms": [{"coeff": 1e400, "chords": [[1, 2]], "sign": 1}]}',
}


def _check_rewrite(expr: dict, vectors):
    def check(out: bytes) -> None:
        result = json.loads(out)
        m, d = expr["m"], expr["d"]
        _expect(result["m"] == m and result["d"] == d, "rewrite header")
        for term in result["terms"]:
            chords = [tuple(pair) for pair in term["chords"]]
            _expect(all(p < q and (p - 1) // d != (q - 1) // d for p, q in chords),
                    "rewrite: chord inside one symbol or reversed")
            _expect(not ref.crossing_count(chords), "rewrite: output term crosses")
        for vecs in vectors:
            _expect(ref.evaluate_brackets(result, vecs) == ref.evaluate_brackets(expr, vecs),
                    "rewrite: normal form evaluates differently from its input")
    return check


def rewrite_inputs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    exprs = []
    for m, d, crossings, size, files in REWRITE_MAKEUP:
        for _ in range(files):
            terms, seen = [], set()
            while len(terms) < size:
                pairs = _random_crossing_pairing(rng, m, d, crossings)
                key = tuple(sorted(tuple(sorted(p)) for p in pairs))
                if key in seen:
                    continue
                seen.add(key)
                coeff = Fraction(rng.randint(1, 9), rng.randint(1, 4))
                terms.append({"coeff": str(coeff), "chords": [list(p) for p in pairs],
                              "sign": rng.choice((1, -1))})
            exprs.append({"m": m, "d": d, "terms": terms})
    return exprs


def algebra(seed: int, inputs: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for d, m in ((2, 9), (4, 5), (3, 6)):
        ops.append(Op("basis", _check_basis_text(m, d),
                      ["basis", "--d", str(d), "--m", str(m)], shape=(d, m)))
        ops.append(Op("basis", _check_basis_json(m, d),
                      ["basis", "--d", str(d), "--m", str(m), "--format", "json"], shape=(d, m)))
    for d, m in ((2, 6), (4, 4)):
        ops.append(Op("verify", _check_verify(m, d),
                      ["verify", "--d", str(d), "--m", str(m)], shape=(d, m)))
    # One extra witness: a product of an upper and a lower integer shear.
    s, t = rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-3, -2, -1, 1, 2, 3))
    ops.append(Op("verify", _check_verify(5, 2),
                  ["verify", "--d", "2", "--m", "5",
                   "--witness-matrix", str(1 + s * t), str(s), str(t), "1"], shape=(2, 5)))
    for i, expr in enumerate(rewrite_inputs(seed)):
        path = inputs / f"rewrite-{i}.json"
        path.write_text(json.dumps(expr))
        vectors = [[(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(expr["m"])]
                   for _ in range(3)]
        ops.append(Op("rewrite", _check_rewrite(expr, vectors), ["rewrite", str(path)],
                      shape=(expr["m"], expr["d"], len(expr["terms"]))))
    for name, text in MALFORMED.items():
        path = inputs / f"malformed-{name}.json"
        path.write_text(text)
        ops.append(Op("rewrite", lambda out: None, ["rewrite", str(path)],
                      malformed=True, shape=(name,)))
    return ops


# -------------------------------------------------------- free probability

def _check_moments(cumulants, n: int):
    def check(out: bytes) -> None:
        values = [Fraction(v) for v in out.decode().strip().split(",")]
        _expect(values == ref.first_block_moments(cumulants, n),
                "moments differ from the first-block recursion")
    return check


def _table(values):
    return lambda s: values[s - 1] if s <= len(values) else Fraction(0)


def _random_table(rng: random.Random, length: int) -> list[Fraction]:
    """Nonzero entries: a zero cumulant would cut the cost of the sums it enters."""
    return [Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))
            for _ in range(length)]


def _expect_equal(expected):
    def check(result) -> None:
        _expect(result == expected, f"got {result}, expected {expected}")
    return check


def free_probability(seed: int, inputs: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for rule, cumulants, n in (
        ("semicircle", lambda s: 1 if s == 2 else 0, 11),
        ("free-poisson", lambda s: 1, 10),
    ):
        ops.append(Op("moments", _check_moments(cumulants, n),
                      ["moments", "--rule", rule, "--n", str(n)], shape=(rule, n)))
    table = _random_table(rng, 4)
    ops.append(Op("moments", _check_moments(_table(table), 10),
                  ["moments", "--rule", "table:[" + ",".join(map(str, table)) + "]", "--n", "10"],
                  shape=("table", 10)))

    # cumulants_from_moments inverts moments built here from a seeded table.
    cum_table = [Fraction(0), Fraction(1)] + _random_table(rng, 3)
    moments = ref.first_block_moments(_table(cum_table), 10)
    expected = cum_table + [Fraction(0)] * (10 - len(cum_table))

    def prepare_cumulants(nc):
        seq = nc.MomentSequence(tuple(moments))
        return lambda: nc.freeprob.cumulants_from_moments(seq, 10)

    ops.append(Op("cumulants", lambda c: _expect(list(c.table) == expected,
                                                  "cumulants differ from the seeded table"),
                  prepare=prepare_cumulants, shape=(10,)))

    # psi with semicircle equal windows counts m-partite noncrossing pairings.
    for sizes in ((3,) * 4, (2,) * 6, (4,) * 3):
        def prepare_psi(nc, sizes=sizes):
            rule = nc.CumulantSequence.semicircle()
            return lambda: nc.freeprob.psi_mixed_moment(sizes, rule)
        ops.append(Op("psi", _expect_equal(ref.transfer_count(len(sizes), sizes[0])),
                      prepare=prepare_psi, shape=("semicircle",) + sizes))
    psi_table = [Fraction(0), Fraction(1)] + _random_table(rng, 2)
    sizes = (3, 3, 3, 3)

    def prepare_psi_table(nc):
        rule = nc.CumulantSequence.from_table(psi_table)
        return lambda: nc.freeprob.psi_mixed_moment(sizes, rule)

    ops.append(Op("psi", _expect_equal(ref.interval_moment(sizes, _table(psi_table))),
                  prepare=prepare_psi_table, shape=("table",) + sizes))

    # nc_moebius on [0, q]: the whole of NC(7), and intervals of NC(8) below
    # seeded placements of fixed block sizes, so the interval's shape, and
    # with it the cost, is the same for every seed.
    targets = [(tuple(range(1, 8)),)]
    targets += [ref.random_nc_partition(rng, sizes) for sizes in ((7, 1), (6, 2), (4, 4))]
    for blocks in targets:
        def prepare_moebius(nc, blocks=blocks):
            n = sum(len(b) for b in blocks)
            zero, q = nc.zero_partition(n), nc.SetPartition(n, blocks)
            return lambda: nc.partitions.nc_moebius(zero, q)
        ops.append(Op("moebius", _expect_equal(ref.moebius_from_zero(blocks)),
                      prepare=prepare_moebius, shape=blocks))
    return ops


WORKLOADS = {
    "counting": counting,
    "algebra": algebra,
    "free-probability": free_probability,
}

# The end-to-end breakdown each workload prints besides the gated metrics:
# per operation kind, the summed wall time of one round.
KIND_METRICS = {
    "dim": "cli_dim_s", "hilbert": "cli_hilbert_s", "repeat": "cli_repeat_s",
    "basis": "cli_basis_s", "verify": "cli_verify_s", "rewrite": "cli_rewrite_s",
    "moments": "cli_moments_s", "cumulants": "api_cumulants_s", "psi": "api_psi_s",
    "moebius": "api_moebius_s",
}
