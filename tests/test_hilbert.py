import math
from itertools import zip_longest

import pytest

from ncinv import hilbert
from ncinv.brackets import _iter_nc_matchings
from ncinv.freeprob import CumulantSequence, psi_mixed_moment
from ncinv.hilbert import (
    QUADRATURE_TOL,
    MethodComparison,
    compare_methods,
    dims_by_chebyshev,
    dims_by_enumeration,
    dims_by_quadrature,
    exact_panels,
)
from ncinv.partitions import catalan

from _oracles import chebyshev_u, listed_folded_quadrature, unfolded_quadrature


def horner(coeffs, x):
    """The polynomial with ascending coefficients `coeffs`, evaluated at x."""
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def times(p, q):
    """The product of two ascending coefficient tuples."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


class TestChebyshev:
    def test_base_cases(self):
        assert chebyshev_u(0) == (1,)
        assert chebyshev_u(1) == (0, 1)
        assert chebyshev_u(2) == (-1, 0, 1)
        assert chebyshev_u(3) == (0, -2, 0, 1)

    def test_recursion(self):
        for n in range(2, 11):
            pairs = zip_longest(times((0, 1), chebyshev_u(n - 1)), chebyshev_u(n - 2),
                                fillvalue=0)
            assert chebyshev_u(n) == tuple(a - b for a, b in pairs)
            assert chebyshev_u(n)[-1] == 1  # degree n, no trailing zeros

    def test_trigonometric_identity(self):
        for n in range(7):
            u = chebyshev_u(n)
            for theta in (0.3, 1.1, 2.4):
                want = math.sin((n + 1) * theta) / math.sin(theta)
                assert abs(horner(u, 2 * math.cos(theta)) - want) < 1e-9

    def test_negative_rejected(self):
        for d, max_m in ((-1, 3), (3, -1)):
            with pytest.raises(ValueError, match="must be nonnegative"):
                dims_by_chebyshev(d, max_m)


class TestExactSeries:
    def test_enumeration_rows(self):
        assert dims_by_enumeration(1, 8).dims == (1, 0, 1, 0, 2, 0, 5, 0, 14)
        assert dims_by_enumeration(2, 8).dims == (1, 0, 1, 1, 3, 6, 15, 36, 91)

    def test_quadratic_dimension(self):
        assert dims_by_enumeration(2, 2).dims[2] == 1

    def test_chebyshev_rows(self):
        assert dims_by_chebyshev(1, 8).dims == (1, 0, 1, 0, 2, 0, 5, 0, 14)
        assert dims_by_chebyshev(2, 2).dims[2] == 1
        assert dims_by_chebyshev(3, 2).dims[2] == 1

    def test_chebyshev_matches_expansion_by_catalan(self):
        # The semicircle moments of U_d(x)^m: the moment of order 2n is the
        # Catalan number C_n, the odd ones vanish.
        for d in range(7):
            u, power, want = chebyshev_u(d), (1,), []
            for _m in range(41):
                want.append(sum(c * catalan(k // 2) for k, c in enumerate(power)
                                if k % 2 == 0))
                power = times(power, u)
            assert dims_by_chebyshev(d, 40).dims == tuple(want), d

    def test_methods_agree(self):
        for d in range(9):
            assert dims_by_enumeration(d, 24).dims == dims_by_chebyshev(d, 24).dims, d
        for d, max_m in ((255, 2), (4, 100), (2, 300), (50, 20), (60, 60)):
            assert dims_by_enumeration(d, max_m).dims == dims_by_chebyshev(d, max_m).dims, d

    def test_chebyshev_rows_of_degree_one_are_catalan(self):
        # dims[2n] counts the noncrossing pairings of [2n]; no odd row pairs.
        dims = dims_by_chebyshev(1, 2000).dims
        assert dims[::2] == tuple(catalan(n) for n in range(1001))
        assert set(dims[1::2]) == {0}

    def test_enumeration_equals_the_semicircle_psi_moments(self):
        for d in range(1, 7):
            dims = dims_by_enumeration(d, 12 // d).dims
            for m in range(12 // d + 1):
                assert psi_mixed_moment((d,) * m, CumulantSequence.semicircle()) == dims[m]

    def test_enumeration_counts_the_singleton_free_thickenings(self):
        # Thickening doubles each point of [m d/2] (windows of d/2) and joins
        # the consecutive points of each block by chords.  A singleton would
        # give a chord inside a window, so the m-partite pairings of [m d] are
        # the thickenings of the m-partite partitions with no singleton:
        # c_1 = 0 and c_k = 1 for k >= 2.
        no_singletons = CumulantSequence.from_table([0] + [1] * 10)
        for d in (2, 4, 6, 8):
            dims = dims_by_enumeration(d, 10).dims
            for m in range(11):
                assert psi_mixed_moment((d // 2,) * m, no_singletons) == dims[m], (d, m)

    def test_enumeration_counts_the_walk(self):
        # The transfer counts what the pairing walk lists, row by row.
        for d in range(1, 6):
            for m in range(16 // d + 1):
                walked = sum(1 for _ in _iter_nc_matchings(m * d, d))
                assert dims_by_enumeration(d, m).dims[m] == walked, (d, m)
        assert dims_by_enumeration(0, 5).dims == (1,) * 6

    def test_parity_zeros(self):
        for d in (1, 3):
            dims = dims_by_chebyshev(d, 8).dims
            assert all(dims[m] == 0 for m in range(1, 9, 2))

    def test_unit_head(self):
        for d in range(5):
            assert dims_by_chebyshev(d, 0).dims == (1,)


class TestQuadrature:
    def test_normalisation(self):
        q = dims_by_quadrature(3, 0, 64)
        assert abs(q.dims[0] - 1.0) < 1e-12

    def test_quadratic_case(self):
        q = dims_by_quadrature(2, 2, 128)
        assert abs(q.dims[2] - 1.0) < 1e-8

    def test_matches_exact(self):
        for d in (1, 2, 3, 4):
            exact = dims_by_chebyshev(d, 8).dims
            q = dims_by_quadrature(d, 8, 256)
            for m in range(9):
                assert abs(q.dims[m] - exact[m]) < 1e-8

    @pytest.mark.parametrize("d, first", [(1, 1025), (2, 647), (99, 155)])
    def test_overflow_refused_at_the_first_row_that_leaves_the_float_range(self, d, first):
        q = dims_by_quadrature(d, first - 1, 256)
        assert all(math.isfinite(v) for v in q.dims + q.roundoff)
        with pytest.raises(ValueError, match=f"d={d} overflows a float at m={first};"):
            dims_by_quadrature(d, first, 256)

    def test_overflow_inside_fsum_is_refused_the_same_way(self, monkeypatch):
        # An even row can overflow in the sum alone, with every term finite.
        def overflowing(terms):
            raise OverflowError("intermediate overflow in fsum")

        monkeypatch.setattr(math, "fsum", overflowing)
        with pytest.raises(ValueError, match="d=2 overflows a float at m=0;"):
            dims_by_quadrature(2, 3, 4)

    @pytest.mark.parametrize("d, max_m", [(1, 8), (2, 21), (9, 11), (100, 8)])
    def test_exact_up_to_rounding_from_exact_panels_on(self, d, max_m):
        panels = exact_panels(d, max_m)
        assert panels == (max_m * d + 2) // 2 + 1
        exact = dims_by_chebyshev(d, max_m).dims
        q = dims_by_quadrature(d, max_m, panels)
        for m in range(max_m + 1):
            assert abs(q.dims[m] - exact[m]) <= q.roundoff[m], (m, q.dims[m], exact[m])

    def test_one_panel_fewer_misses_the_top_degree(self):
        # At (1, 8) the integrand has degree 10: 5 panels alias cos(10x).
        exact = dims_by_chebyshev(1, 8).dims
        q = dims_by_quadrature(1, 8, exact_panels(1, 8) - 1)
        assert all(abs(q.dims[m] - exact[m]) <= q.roundoff[m] for m in range(8))
        assert abs(q.dims[8] - exact[8]) > 1e6 * q.roundoff[8]

    def test_rejects_bad_nodes(self):
        with pytest.raises(ValueError):
            dims_by_quadrature(2, 4, 0)


class TestPackedNodes:
    """The packed rule against the same rule with listed nodes and terms:
    every float operation in the same order, so equal to the last bit."""

    @pytest.mark.parametrize("d", range(14))
    def test_rows_and_bounds_equal_the_listed_rule(self, d):
        for nodes in (1, 2, 3, 5, 31, 256, 257, 4097):
            for max_m in (0, 1, 7, 20):
                q = dims_by_quadrature(d, max_m, nodes)
                assert (q.dims, q.roundoff) == listed_folded_quadrature(d, max_m, nodes), \
                    (nodes, max_m)

    @pytest.mark.parametrize("d, first", [(1, 1025), (2, 647), (99, 155)])
    def test_same_first_overflow(self, d, first):
        q = dims_by_quadrature(d, first - 1, 256)
        assert (q.dims, q.roundoff) == listed_folded_quadrature(d, first - 1, 256)
        with pytest.raises(ValueError) as listed:
            listed_folded_quadrature(d, first, 256)
        with pytest.raises(ValueError) as packed:
            dims_by_quadrature(d, first, 256)
        assert str(packed.value) == str(listed.value)


class TestMirrorFold:
    """The folded rule against the rule that evaluates both halves."""

    @pytest.mark.parametrize("d", range(13))
    def test_each_row_within_its_bound_of_the_unfolded_rule(self, d):
        # Rows m <= max_m at exact_panels(d, max_m) and one fewer, every
        # max_m <= 16; all rows m <= 16 at the fixed panel counts.
        rows = dict.fromkeys((1, 2, 3, 256, 257), 16)
        for max_m in range(17):
            for panels in (exact_panels(d, max_m) - 1, exact_panels(d, max_m)):
                rows[panels] = max(rows.get(panels, 0), max_m)
        for panels, max_m in rows.items():
            q = dims_by_quadrature(d, max_m, panels)
            for m, (folded, unfolded) in enumerate(zip(q.dims, unfolded_quadrature(
                    d, max_m, panels), strict=True)):
                # One panel has only three nodes, too few to average the
                # rounding of the mirror pair: there the unfolded rule's own
                # error passes its bound (d = 7 reads 1.2e-15 for an odd row
                # that the symmetric rule makes 0, 2.3 times its bound).
                gate = q.roundoff[m] if panels > 1 else max(QUADRATURE_TOL, q.roundoff[m])
                assert abs(folded - unfolded) <= gate, (panels, m, folded, unfolded)
                if d * m % 2:
                    assert folded == 0.0, (panels, m)


class TestCompareMethods:
    def test_no_mismatch(self):
        report = compare_methods(2, 7)
        assert report.exact_methods_agree
        assert report.quadrature_within_tolerance
        assert report.ok

    def test_rows_shape(self):
        report = compare_methods(3, 4)
        assert [row[0] for row in report.rows] == [0, 1, 2, 3, 4]
        for _m, en, ch, _qu, err in report.rows:
            assert en == ch
            assert err <= QUADRATURE_TOL

    def test_odd_entries_zero_in_all_columns(self):
        report = compare_methods(3, 4, nodes=128)
        for m, en, ch, qu, _err in report.rows:
            if (m * 3) % 2:
                assert en == 0 and ch == 0
                assert abs(qu) < 1e-10

    def test_quadrature_refusal_comes_before_the_enumeration(self, monkeypatch):
        def enumeration_not_expected(d, max_m):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(hilbert, "dims_by_enumeration", enumeration_not_expected)
        with pytest.raises(ValueError, match="panel"):
            compare_methods(2, 17, nodes=0)
        with pytest.raises(ValueError, match="overflows"):
            compare_methods(2, 700)

    def test_default_panels_are_256_or_the_exact_count(self, monkeypatch):
        # 256 panels are one fewer than exact_panels(255, 2) = 257.
        assert compare_methods(255, 2).ok
        with pytest.raises(ValueError, match="^--nodes 256 is below 257, the fewest panels"):
            compare_methods(255, 2, nodes=256)
        seen = []

        def recording(d, max_m, nodes):
            seen.append(nodes)
            return dims_by_quadrature(d, max_m, nodes)

        monkeypatch.setattr(hilbert, "dims_by_quadrature", recording)
        for d, max_m, nodes in ((2, 4, None), (255, 2, None), (2, 4, 9)):
            compare_methods(d, max_m, nodes=nodes)
        assert seen == [256, 257, 9]

    def test_csv_format(self):
        lines = compare_methods(1, 2, nodes=64).to_csv().splitlines()
        assert lines[0] == "m,enum,cheb,quad,abs_err"
        assert len(lines) == 4
        assert lines[1].startswith("0,1,1,")


def chebyshev_comparison(d, max_m, nodes=256):
    """compare_methods at a fixed number of panels, with the Chebyshev column
    standing in for enumeration."""
    exact = dims_by_chebyshev(d, max_m).dims
    quad = dims_by_quadrature(d, max_m, nodes)
    rows = tuple((m, exact[m], exact[m], q, abs(q - exact[m]))
                 for m, q in enumerate(quad.dims))
    return MethodComparison(d, rows, quad.roundoff)


class TestRoundoffGate:
    """Each row is gated on max(QUADRATURE_TOL, the quadrature's roundoff
    bound): large integrands pass, a wrong value still fails."""

    @pytest.mark.parametrize("d, m", [(9, 12), (8, 12), (4, 18), (2, 22)])
    def test_rounding_error_above_tol_passes(self, d, m):
        report = chebyshev_comparison(d, m)
        assert report.rows[m][4] > QUADRATURE_TOL
        assert report.quadrature_within_tolerance

    @pytest.mark.parametrize("m", [0, 6, 11])
    def test_row_off_by_1e_6_fails(self, m):
        report = chebyshev_comparison(9, 11)
        rows = list(report.rows)
        _m, en, ch, qu, _err = rows[m]
        rows[m] = (m, en, ch, qu + 1e-6, abs(qu + 1e-6 - en))
        assert not MethodComparison(9, tuple(rows), report.roundoff).quadrature_within_tolerance

    def test_bound_covers_the_error(self):
        for d in range(13):
            report = chebyshev_comparison(d, 24 if d <= 4 else 16)
            for (m, en, _ch, _qu, err), bound in zip(report.rows, report.roundoff):
                assert err <= bound or err <= QUADRATURE_TOL, (d, m, err, bound)

    def test_small_rows_keep_the_fixed_tolerance(self):
        q = dims_by_quadrature(4, 8, 256)
        assert max(q.roundoff) < QUADRATURE_TOL


@pytest.mark.parametrize("build, message", [
    (lambda: dims_by_chebyshev(-1, 3), "d and max_m must be nonnegative"),
    (lambda: dims_by_quadrature(-1, 3, 8), "d and max_m must be nonnegative"),
], ids=["chebyshev-negative-d", "quadrature-negative-d"])
def test_refusals_name_the_fault(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
