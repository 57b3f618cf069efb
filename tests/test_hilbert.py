import math

import pytest

from ncinv.hilbert import (
    QUADRATURE_TOL,
    IntPolynomial,
    chebyshev_poly,
    compare_methods,
    dims_by_chebyshev,
    dims_by_enumeration,
    dims_by_quadrature,
    semicircle_moment,
)
from ncinv.partitions import catalan


class TestIntPolynomial:
    def test_normalisation(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPolynomial(()).coeffs == ()

    def test_mul(self):
        p = IntPolynomial((1, 1))
        assert (p * p).coeffs == (1, 2, 1)

    def test_eval(self):
        p = IntPolynomial((-1, 0, 1))
        assert p(3) == 8


class TestChebyshev:
    def test_base_cases(self):
        assert chebyshev_poly(0).coeffs == (1,)
        assert chebyshev_poly(1).coeffs == (0, 1)
        assert chebyshev_poly(2).coeffs == (-1, 0, 1)
        assert chebyshev_poly(3).coeffs == (0, -2, 0, 1)

    def test_recursion(self):
        x = IntPolynomial((0, 1))
        for n in range(2, 11):
            lhs = chebyshev_poly(n)
            rhs = x * chebyshev_poly(n - 1) - chebyshev_poly(n - 2)
            assert lhs.coeffs == rhs.coeffs

    def test_trigonometric_identity(self):
        for n in range(7):
            u = chebyshev_poly(n)
            for theta in (0.3, 1.1, 2.4):
                want = math.sin((n + 1) * theta) / math.sin(theta)
                assert abs(u(2 * math.cos(theta)) - want) < 1e-9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_poly(-1)


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

    def test_semicircle_moments(self):
        for k in range(9):
            assert semicircle_moment(2 * k) == catalan(k)
            assert semicircle_moment(2 * k + 1) == 0

    def test_methods_agree(self):
        for d in range(5):
            assert dims_by_enumeration(d, 6).dims == dims_by_chebyshev(d, 6).dims

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

    def test_error_estimates_present(self):
        q = dims_by_quadrature(2, 4, 32)
        assert q.error is not None and len(q.error) == 5
        assert all(e >= 0 for e in q.error)

    def test_rejects_bad_nodes(self):
        with pytest.raises(ValueError):
            dims_by_quadrature(2, 4, 0)


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

    def test_csv_format(self):
        lines = compare_methods(1, 2, nodes=64).to_csv().splitlines()
        assert lines[0] == "m,enum,cheb,quad,abs_err"
        assert len(lines) == 4
        assert lines[1].startswith("0,1,1,")
