import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncinv
from ncinv import group_action, hilbert, symbolic
from ncinv.cli import main
from ncinv.partitions import catalan
from ncinv.symbolic import noncrossing_basis


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDim:
    def test_examples(self, capsys, tmp_path):
        cache = ["--cache-dir", str(tmp_path)]
        assert run_cli(capsys, "dim", "--d", "2", "--m", "2", *cache) == (0, "1\n", "")
        assert run_cli(capsys, "dim", "--d", "2", "--m", "4", *cache) == (0, "3\n", "")
        assert run_cli(capsys, "dim", "--d", "3", "--m", "3", *cache) == (0, "0\n", "")

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dim", "--d", "2"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["dim", "--d", "-1", "--m", "2"])
        assert exc.value.code == 2

    def test_large_count_fast_and_equal_to_chebyshev(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "dim", "--d", "6", "--m", "200")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        _, row, _ = run_cli(capsys, "hilbert", "--d", "6", "--max-m", "200",
                            "--method", "chebyshev")
        assert out == row.strip().split(",")[-1] + "\n"
        assert len(out.strip()) == 164


class TestBasis:
    def test_quadratic_text(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--d", "2", "--m", "2")
        assert code == 0
        assert out == "a2·a0 - 2·a1·a1 + a0·a2\n"

    def test_linear_text(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--d", "1", "--m", "2")
        assert code == 0
        assert out == "a1·a0 - a0·a1\n"

    def test_empty_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--d", "1", "--m", "3")
        assert code == 0
        assert out == ""

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--d", "2", "--m", "4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 3
        assert all(entry["d"] == 2 and entry["m"] == 4 for entry in data)

    # d = 2 keeps the ids "0", "2" and "4" of the runs at m = 0, 2 and 4.
    @pytest.mark.parametrize("d, m", [(2, 0), (2, 2), (2, 4), (1, 6), (3, 4), (3, 3),
                                      (10, 2), (10, 3), (256, 2)],
                             ids=["0", "2", "4", "d1-m6", "d3-m4", "d3-m3", "d10-m2", "d10-m3",
                                  "d256-m2"])
    def test_json_streamed_as_one_dump(self, capsys, d, m):
        # Written term by term, with no tree built, as json.dumps of the list.
        code, out, _ = run_cli(capsys, "basis", "--d", str(d), "--m", str(m), "--format", "json")
        assert code == 0
        whole = json.dumps([poly.to_json_dict() for poly in noncrossing_basis(m, d)])
        assert out == whole + "\n"


class TestStreaming:
    """basis and verify write each element before they build the next."""

    @pytest.mark.parametrize("argv, render, head, sep", [
        (["basis"], lambda i, poly: poly.pretty() + "\n", "", ""),
        (["basis", "--format", "json"], lambda i, poly: json.dumps(poly.to_json_dict()),
         "[", ", "),
        (["verify"], lambda i, poly: f"PASS element {i}: {poly.pretty()}\n", "", ""),
    ], ids=["text", "json", "verify"])
    def test_element_written_before_the_next_is_built(self, monkeypatch, argv, render,
                                                      head, sep):
        m, d = 6, 2
        elements = [render(i, poly) for i, poly in enumerate(noncrossing_basis(m, d))]
        out = io.StringIO()
        written = []  # stdout so far, each time restitution starts an element
        real = symbolic.restitution

        def recording(b):
            written.append(out.getvalue())
            return real(b)

        monkeypatch.setattr(symbolic, "restitution", recording)
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--d", str(d), "--m", str(m)]) == 0
        assert len(written) == len(elements) == 15
        for i, text in enumerate(written):
            assert text == head + sep.join(elements[:i]), i


class TestHilbert:
    def test_enumeration_row(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "hilbert", "--d", "2", "--max-m", "7",
            "--method", "enumeration", "--cache-dir", str(tmp_path),
        )
        assert code == 0
        assert out == "1,0,1,1,3,6,15,36\n"

    def test_chebyshev_row(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "hilbert", "--d", "1", "--max-m", "6",
            "--method", "chebyshev", "--cache-dir", str(tmp_path),
        )
        assert code == 0
        assert out == "1,0,1,0,2,0,5\n"

    def test_all_csv(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "hilbert", "--d", "2", "--max-m", "4",
            "--method", "all", "--cache-dir", str(tmp_path),
        )
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "m,enum,cheb,quad,abs_err"
        assert len(lines) == 6
        assert lines[3].startswith("2,1,1,")

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_quadrature_prints_finite_values_or_exits_2(self, capsys, fmt):
        quad = ["hilbert", "--method", "quadrature", "--format", fmt]
        code, out, err = run_cli(capsys, *quad, "--d", "2", "--max-m", "640")
        assert (code, err) == (0, "")
        assert "inf" not in out.lower()
        for argv, m in ((["--d", "1", "--max-m", "1100"], 1025),
                        (["--d", "2", "--max-m", "700"], 647),
                        (["--d", "99", "--max-m", "200"], 155)):
            code, out, err = run_cli(capsys, *quad, *argv)
            assert (code, out) == (2, "")
            assert f"overflows a float at m={m}" in err and "chebyshev" in err
            assert "fsum" not in err

    def test_default_panels_grow_to_the_exact_count(self, capsys):
        # 256 panels print 515589.367851 at m = 6; the dimension is 515201.
        code, out, err = run_cli(capsys, "hilbert", "--d", "100", "--max-m", "8",
                                 "--method", "quadrature", "--precision", "6")
        assert (code, err) == (0, "")
        assert out.split(",")[6] == "515201"

    @pytest.mark.parametrize("method", ["quadrature", "all"])
    def test_explicit_nodes_below_the_exact_count_exit_2(self, capsys, method):
        argv = ["hilbert", "--d", "1", "--max-m", "8", "--method", method]
        code, out, err = run_cli(capsys, *argv, "--nodes", "5")
        assert (code, out) == (2, "")
        assert err == ("error: --nodes 5 is below 6, the fewest panels that make the "
                       "quadrature exact at d=1, max-m 8\n")
        assert run_cli(capsys, *argv, "--nodes", "6")[0] == 0

    def test_nodes_are_not_checked_when_no_quadrature_runs(self, capsys):
        code, out, err = run_cli(capsys, "hilbert", "--d", "1", "--max-m", "8",
                                 "--method", "chebyshev", "--nodes", "0")
        assert (code, out, err) == (0, "1,0,1,0,2,0,5,0,14\n", "")

    def test_negative_precision_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hilbert", "--d", "2", "--max-m", "3", "--method", "quadrature",
                  "--precision", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--precision" in err and "nonnegative" in err

    def test_all_json_fixed(self, capsys):
        code, out, err = run_cli(capsys, "hilbert", "--d", "1", "--max-m", "4",
                                 "--method", "all", "--format", "json")
        assert (code, err) == (0, "")
        assert out == (
            '{"d": 1, "rows": ['
            '{"m": 0, "enum": 1, "cheb": 1, "quad": 1.0, "abs_err": 0.0}, '
            '{"m": 1, "enum": 0, "cheb": 0, "quad": 0.0, "abs_err": 0.0}, '
            '{"m": 2, "enum": 1, "cheb": 1, "quad": 1.0, "abs_err": 0.0}, '
            '{"m": 3, "enum": 0, "cheb": 0, "quad": 0.0, "abs_err": 0.0}, '
            '{"m": 4, "enum": 2, "cheb": 2, "quad": 2.0, "abs_err": 0.0}], '
            '"exact_mismatch": false, "quad_above_tol": false}\n'
        )

    def test_all_at_sizes_the_pairing_walk_cannot_reach(self, capsys):
        # dims[30] = 387,447,933,868,249,591 pairings, too many to walk.
        code, out, err = run_cli(capsys, "hilbert", "--d", "4", "--max-m", "30",
                                 "--method", "all")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].startswith("30,387447933868249591,387447933868249591,")

    def test_json_format(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "hilbert", "--d", "1", "--max-m", "4",
            "--method", "all", "--format", "json", "--cache-dir", str(tmp_path),
        )
        assert code == 0
        data = json.loads(out)
        assert data["exact_mismatch"] is False
        assert data["quad_above_tol"] is False


class TestRewrite:
    def write(self, tmp_path, payload):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_crossing_two_terms(self, capsys, tmp_path):
        path = self.write(tmp_path, {
            "m": 4, "d": 1,
            "terms": [{"coeff": "1", "chords": [[1, 3], [2, 4]], "sign": 1}],
        })
        code, out, _ = run_cli(capsys, "rewrite", path)
        assert code == 0
        data = json.loads(out)
        assert [t["chords"] for t in data["terms"]] == [[[1, 2], [3, 4]], [[1, 4], [2, 3]]]

    def test_noncrossing_echo(self, capsys, tmp_path):
        payload = {
            "m": 4, "d": 1,
            "terms": [{"coeff": "2/3", "chords": [[1, 4], [2, 3]], "sign": 1}],
        }
        path = self.write(tmp_path, payload)
        code, out, _ = run_cli(capsys, "rewrite", path)
        assert code == 0
        assert json.loads(out) == payload

    def test_vanishing_bracket_exit_2(self, capsys, tmp_path):
        path = self.write(tmp_path, {
            "m": 1, "d": 2,
            "terms": [{"coeff": "1", "chords": [[1, 2]], "sign": 1}],
        })
        code, _, err = run_cli(capsys, "rewrite", path)
        assert code == 2
        assert "vanishing bracket" in err

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "rewrite", str(path))
        assert code == 2
        assert err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "rewrite", str(tmp_path / "nope.json"))
        assert code == 2
        assert "No such file or directory" in err and "nope.json" in err

    def test_huge_file_name_not_echoed(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "rewrite", str(tmp_path / ("x" * 5000)))
        assert (code, out) == (2, "")
        assert "File name too long" in err
        assert len(err.encode()) < 400

    @pytest.mark.parametrize("payload, field", [
        ({"m": [0] * 50_000, "d": 1, "terms": []}, "m must be an integer"),
        ({"m": 2, "d": 1, "terms": [{"coeff": "1", "chords": [[1, 2]], "sign": 10 ** 4000}]},
         "sign must be 1 or -1"),
    ], ids=["long-list", "long-int"])
    def test_huge_field_not_echoed(self, capsys, tmp_path, payload, field):
        code, out, err = run_cli(capsys, "rewrite", self.write(tmp_path, payload))
        assert (code, out) == (2, "")
        assert len(err.encode()) < 200
        assert field in err

    def test_deep_nesting_exit_2(self, tmp_path):
        # json.load recurses once per level; run as a subprocess so that an
        # uncaught RecursionError would show as a traceback on stderr.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        src = str(Path(ncinv.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "ncinv.cli", "rewrite", str(path)],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert "nesting" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("text", [
        '{"m": 2, "d": 1, "terms": [{"coeff": "1/0", "chords": [[1, 2]], "sign": 1}]}',
        '{"m": 2, "d": 1, "terms": null}',
        '[{"m": 2, "d": 1, "terms": []}]',
        '{"m": 2, "d": 1, "terms": [{"coeff": 1e400, "chords": [[1, 2]], "sign": 1}]}',
        '{"m": -1, "d": 1, "terms": []}',
        '{"m": 2, "d": 1.5, "terms": []}',
        '{"m": 2, "d": 1, "terms": [{"coeff": "1", "chords": [[1, 2]], "sign": "1"}]}',
    ])
    def test_malformed_fields_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "rewrite", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=8) | st.sampled_from(["1", "2/3", "-1/2", "1/0", "0.5", "x"]))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["m", "d", "terms", "coeff", "chords", "sign"])
                      | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _near_valid(draw):
    """Objects shaped like a bracket file; each field is wrong one time in five."""
    def field(good):
        return draw(_JSON if draw(st.integers(0, 4)) == 0 else good)

    m = field(st.integers(min_value=0, max_value=4))
    d = field(st.integers(min_value=0, max_value=2))
    small = all(type(v) is int and 0 < v <= 4 for v in (m, d))
    slots = draw(st.permutations(range(1, m * d + 1 if small else 3)))
    terms = [
        {"coeff": field(st.integers(-5, 5) | st.sampled_from(["1", "-2/3", "0.5", "1/0"])),
         "chords": field(st.just([list(slots[i:i + 2]) for i in range(0, len(slots) - 1, 2)])),
         "sign": field(st.sampled_from([1, -1]))}
        for _ in range(draw(st.integers(0, 3)))
    ]
    return {"m": m, "d": d, "terms": field(st.just(terms))}


@settings(max_examples=300, deadline=None)
@given(st.one_of(_JSON, _near_valid()))
def test_rewrite_any_json_exits_0_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "expr.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["rewrite", path])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


class TestVerify:
    def test_quadratic_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--d", "2", "--m", "2")
        assert code == 0
        assert out.count("PASS") == 1

    def test_three_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--d", "2", "--m", "4")
        assert code == 0
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_seed_reproducible(self, capsys):
        first = run_cli(capsys, "verify", "--d", "1", "--m", "2", "--seed", "7")
        second = run_cli(capsys, "verify", "--d", "1", "--m", "2", "--seed", "7")
        assert first == second
        assert first[0] == 0

    def test_extra_witness_matrix(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--d", "1", "--m", "2",
            "--witness-matrix", "2", "1", "1", "1",
        )
        assert code == 0

    def test_bad_witness_matrix_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--d", "1", "--m", "2",
            "--witness-matrix", "2", "0", "0", "2",
        )
        assert code == 2
        assert "determinant" in err

    def test_zero_denominator_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--d", "1", "--m", "2",
            "--witness-matrix", "1/0", "0", "0", "1",
        )
        assert code == 2
        assert "zero denominator" in err


    def test_stdout_fixed(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--d", "1", "--m", "4")
        assert (code, err) == (0, "")
        assert out == (
            "PASS element 0: a1·a0·a1·a0 - a1·a0·a0·a1 - a0·a1·a1·a0 + a0·a1·a0·a1\n"
            "PASS element 1: a1·a1·a0·a0 - a1·a0·a1·a0 - a0·a1·a0·a1 + a0·a0·a1·a1\n"
        )

    def test_random_witnesses_leave_stdout_unchanged(self, capsys):
        plain = run_cli(capsys, "verify", "--d", "2", "--m", "4")
        checked = run_cli(capsys, "verify", "--d", "2", "--m", "4",
                          "--witnesses", "3", "--seed", "5",
                          "--witness-matrix", "1", "2", "0", "1")
        assert plain == checked
        assert plain[0] == 0 and plain[1].count("PASS") == 3

    def test_exponent_witness_exit_2(self, capsys):
        # "1e0" is 1, so the matrix would have determinant 1; it is refused
        # as text before any power of ten is built.
        code, out, err = run_cli(
            capsys, "verify", "--d", "1", "--m", "2",
            "--witness-matrix", "1e0", "0", "0", "1",
        )
        assert (code, out) == (2, "")
        assert "plain decimal" in err and "'1e0'" in err


class TestVerificationFailureExit1:
    """Exit code 1: a basis element fails its invariance check, or the
    dimension routes disagree; the report is printed in full either way."""

    def test_verify_prints_each_failing_element(self, capsys, monkeypatch):
        monkeypatch.setattr(group_action, "is_invariant", lambda poly, witnesses=None: False)
        code, out, err = run_cli(capsys, "verify", "--d", "2", "--m", "4")
        assert (code, err) == (1, "")
        assert [line.split(": ")[0] for line in out.splitlines()] == [
            "FAIL element 0", "FAIL element 1", "FAIL element 2"]

    @staticmethod
    def shift_row(monkeypatch, name, delta, m=4):
        """Make hilbert's ``name`` return its series with row m moved by delta."""
        method = getattr(hilbert, name)

        def shifted(*args):
            series = method(*args)
            dims = list(series.dims)
            dims[m] += delta
            return hilbert.DimensionSeries(series.d, tuple(dims), series.roundoff)

        monkeypatch.setattr(hilbert, name, shifted)

    def test_exact_mismatch(self, capsys, monkeypatch):
        self.shift_row(monkeypatch, "dims_by_chebyshev", 1)
        code, out, err = run_cli(capsys, "hilbert", "--d", "2", "--max-m", "4")
        assert (code, err) == (1, "method comparison failed\n")
        lines = out.splitlines()
        assert lines[0] == "m,enum,cheb,quad,abs_err" and len(lines) == 6
        assert lines[-1].startswith("4,3,4,")
        code, out, err = run_cli(capsys, "hilbert", "--d", "2", "--max-m", "4",
                                 "--format", "json")
        assert (code, err) == (1, "method comparison failed\n")
        assert '"exact_mismatch": true, "quad_above_tol": false' in out

    def test_quadrature_above_tolerance(self, capsys, monkeypatch):
        self.shift_row(monkeypatch, "dims_by_quadrature", 1e-6)
        code, out, err = run_cli(capsys, "hilbert", "--d", "2", "--max-m", "4",
                                 "--format", "json")
        assert (code, err) == (1, "method comparison failed\n")
        assert '"exact_mismatch": false, "quad_above_tol": true' in out


class TestMoments:
    def test_semicircle(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--rule", "semicircle", "--n", "8")
        assert code == 0
        assert out == "1,0,1,0,2,0,5,0,14\n"

    def test_free_poisson(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--rule", "free-poisson", "--n", "5")
        assert code == 0
        assert out == "1,1,2,5,14,42\n"

    def test_table_rationals(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--rule", "table:[1/2]", "--n", "3")
        assert code == 0
        assert out == "1,1/2,1/4,1/8\n"

    def test_unknown_rule_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--rule", "cauchy", "--n", "3")
        assert code == 2

    def test_zero_denominator_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--rule", "table:[1/0]", "--n", "3")
        assert code == 2
        assert "zero denominator" in err

    def test_exponent_entry_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "moments", "--rule", "table:[1,1e3]", "--n", "3")
        assert (code, out) == (2, "")
        assert "plain decimal" in err and "'1e3'" in err

    @pytest.mark.parametrize("rule", ["table:[1,,2]", "table:[,]", "table:[1,2,]"])
    def test_empty_table_entry_exit_2(self, capsys, rule):
        code, out, err = run_cli(capsys, "moments", "--rule", rule, "--n", "4")
        assert (code, out) == (2, "")
        assert "empty entry in cumulant table" in err

    def test_empty_table_is_all_zero(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--rule", "table:[]", "--n", "3")
        assert (code, out) == (0, "1,0,0,0\n")

    @pytest.mark.parametrize("rule, field", [
        ("table:[" + "[" * 100_000, "cumulant must be an integer"),
        ("x" * 5_000, "unknown cumulant rule"),
    ], ids=["deep-table", "long-name"])
    def test_huge_rule_not_echoed(self, capsys, rule, field):
        code, out, err = run_cli(capsys, "moments", "--rule", rule, "--n", "3")
        assert (code, out) == (2, "")
        assert len(err.encode()) < 200
        assert field in err

    @pytest.mark.parametrize("rule, want", [
        ("free-poisson", lambda k: catalan(k)),
        ("semicircle", lambda k: 0 if k % 2 else catalan(k // 2)),
    ])
    def test_order_60_fast(self, capsys, rule, want):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "moments", "--rule", rule, "--n", "60")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out == ",".join(str(want(k)) for k in range(61)) + "\n"


HUGE = "x" * 5000


class TestUsageErrorsQuoteShortened:
    """argparse's own errors quote a bad value shortened, like the program's."""

    @pytest.mark.parametrize("argv", [
        ["dim", "--d", HUGE, "--m", "2"],
        ["hilbert", "--d", "2", "--max-m", "3", "--nodes", HUGE],
        ["verify", "--d", "2", "--m", "2", "--seed", HUGE],
        ["basis", "--d", "2", "--m", "2", "--format", HUGE],
        ["hilbert", "--d", "2", "--max-m", "3", "--method", HUGE],
        [HUGE],
        ["dim", "--d", "2", "--m", "2", HUGE],
    ], ids=["dim-d", "hilbert-nodes", "verify-seed", "basis-format", "hilbert-method",
            "command", "unrecognized"])
    def test_huge_value_not_echoed(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert len(err.encode()) < 400

    @pytest.mark.parametrize("argv, message", [
        (["dim", "--d", "1.5", "--m", "2"], "argument --d: invalid integer: '1.5'"),
        (["verify", "--d", "2", "--m", "2", "--seed", "s"], "argument --seed: invalid integer: 's'"),
        (["basis", "--d", "2", "--m", "2", "--format", "xml"],
         "argument --format: invalid choice: 'xml'"),
        (["frob"], "argument command: invalid choice: 'frob'"),
    ])
    def test_short_value_quoted_whole(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestIgnoredCacheFlags:
    def test_no_cache_writes_nothing(self, capsys, tmp_path):
        run_cli(capsys, "dim", "--d", "2", "--m", "3",
                "--cache-dir", str(tmp_path), "--no-cache")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["dim", "--d", "2", "--m", "6"],
        ["hilbert", "--d", "2", "--max-m", "5", "--method", "enumeration"],
        ["hilbert", "--d", "2", "--max-m", "5", "--method", "all"],
    ])
    def test_cache_dir_writes_nothing(self, capsys, tmp_path, argv):
        plain = run_cli(capsys, *argv)
        flagged = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
        assert flagged == plain
        assert plain[0] == 0
        assert not list(tmp_path.iterdir())
