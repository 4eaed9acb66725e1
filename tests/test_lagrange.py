import random
from fractions import Fraction as F
from math import comb

import pytest

import golden_data as gd
from golden_data import geometric, rand_unit_series
from riordan_gep.errors import DegreeTooHigh, OutOfRange
from riordan_gep.lagrange import abeta_matrix, lagrange_coeffs, lagrange_series, log_abeta
from riordan_gep.matrix import RMatrix
from riordan_gep.series import Poly, Series, compose, power
from riordan_gep.suites.abeta import (
    check_functional_eq,
    diagonal_table,
    diagonal_table_direct,
    gbs_alpha_closed_form,
    vtilde_transform,
)
from riordan_gep.verify import _apply, _diag, _reversed_to, rational_binomial

ONE_PLUS_X = lambda order: Series([1, 1], order=order)


def monomial(k):
    return Poly([1]).shift_up(k)


def catalan(order):
    """(1 - sqrt(1-4x)) / (2x) truncated."""
    root = power(Series([1, -4], order=order + 1), F(1, 2))
    return Series([F(c, 2) for c in (Series.one(order + 1) - root).coeffs[1:]])


class TestRationalBinomial:
    def test_integer_tops(self):
        for r in range(7):
            for k in range(9):
                assert rational_binomial(r, k) == comb(r, k)

    def test_negative_k_is_zero(self):
        assert rational_binomial(F(5, 2), -1) == 0

    def test_half(self):
        assert rational_binomial(F(1, 2), 2) == F(-1, 8)


class TestLagrangeCoeffs:
    def test_beta_one_gives_geometric(self):
        assert lagrange_coeffs(ONE_PLUS_X(10), 1, 10) == geometric(10)

    def test_beta_two_gives_catalan(self):
        got = lagrange_coeffs(ONE_PLUS_X(10), 2, 10)
        assert got.coeffs[:6] == (1, 1, 2, 5, 14, 42)
        assert got == catalan(10)

    def test_beta_zero_is_plain_power(self):
        assert lagrange_coeffs(ONE_PLUS_X(8), 0, 8, F(3, 2)) == power(ONE_PLUS_X(8), F(3, 2))

    def test_removable_pole_matches_closed_form(self):
        # phi + beta n = 0 at n = 1; b = (1 + sqrt(1+4x)) / 2
        got = lagrange_coeffs(ONE_PLUS_X(8), -1, 8)
        assert got == lagrange_series(ONE_PLUS_X(8), -1, 8)
        root = power(Series([1, 4], order=8), F(1, 2))
        assert got == (Series.one(8) + root) * F(1, 2)

    def test_removable_pole_is_the_power_of_the_series(self):
        rng = random.Random(47)
        for _ in range(40):
            order = rng.randint(1, 9)
            a = rand_unit_series(rng, order, bound=3)
            beta = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            phi = -beta * rng.randint(1, order)
            assert lagrange_coeffs(a, beta, order, phi) == power(lagrange_series(a, beta, order), phi)

    def test_preconditions(self):
        with pytest.raises(OutOfRange, match="a\\(0\\) = 1"):
            lagrange_coeffs(Series([2, 1], order=4), 1, 4)
        with pytest.raises(OutOfRange, match="below requested order"):
            lagrange_coeffs(ONE_PLUS_X(4), 1, 5)

    def test_power_formula_consistency(self):
        # phi-th power from the formula equals the power of the phi=1 series
        base = lagrange_coeffs(ONE_PLUS_X(10), 2, 10)
        assert lagrange_coeffs(ONE_PLUS_X(10), 2, 10, 3) == power(base, 3)
        assert lagrange_coeffs(ONE_PLUS_X(10), 2, 10, F(1, 2)) == power(base, F(1, 2))


class TestLagrangeSeries:
    def test_agrees_with_formula_route(self):
        rng = random.Random(41)
        for beta in (1, 2, F(1, 2)):
            a = rand_unit_series(rng, 10, bound=3)
            assert lagrange_series(a, beta, 10) == lagrange_coeffs(a, beta, 10)

    def test_closed_forms_to_order_ten(self):
        order = 10
        a = ONE_PLUS_X(order)
        assert lagrange_series(a, 1, order) == geometric(order)
        assert lagrange_series(a, 2, order) == catalan(order)
        # (1 + sqrt(1+4x)) / 2
        root = power(Series([1, 4], order=order), F(1, 2))
        assert lagrange_series(a, -1, order) == (Series.one(order) + root) * F(1, 2)
        # (x/2 + sqrt(1 + x^2/4))^2
        half_root = power(Series([1, 0, F(1, 4)], order=order), F(1, 2))
        hyper = power(Series([0, F(1, 2)], order=order) + half_root, 2)
        assert lagrange_series(a, F(1, 2), order) == hyper


class TestFunctionalEquations:
    def test_beta_one_instance(self):
        # 1/(1-.) composed with x/(1+x) returns 1+x
        order = 10
        composed = compose(geometric(order), Series.x(order) * power(ONE_PLUS_X(order), -1))
        assert composed == ONE_PLUS_X(order)
        check_functional_eq(ONE_PLUS_X(order), 1, order)

    def test_beta_zero_trivial(self):
        check_functional_eq(ONE_PLUS_X(8), 0, 8)

    def test_beta_minus_one(self):
        check_functional_eq(ONE_PLUS_X(12), -1, 12)

    def test_random_series_sweep(self):
        rng = random.Random(43)
        for _ in range(10):
            a = rand_unit_series(rng, 12, bound=3)
            for beta in (1, -1, 2, F(1, 2)):
                check_functional_eq(a, beta, 12)


class TestDiagonalTables:
    def window(self, beta, v):
        return diagonal_table(ONE_PLUS_X(8), beta, v, range(3, -4, -1), 4)

    def test_displayed_tables(self):
        assert self.window(1, 0) == RMatrix(gd.BINOMIAL_TABLE_V0)
        assert self.window(1, 1) == RMatrix(gd.BINOMIAL_TABLE_V1)
        assert self.window(1, 2) == RMatrix(gd.BINOMIAL_TABLE_V2)
        assert self.window(1, -1) == RMatrix(gd.BINOMIAL_TABLE_VM1)
        assert self.window(1, -2) == RMatrix(gd.BINOMIAL_TABLE_VM2)

    def test_central_binomial_row(self):
        got = diagonal_table(ONE_PLUS_X(8), 1, 2, [0], 4)
        assert got == RMatrix([[1, 2, 6, 20]])

    def test_plain_power_table(self):
        got = diagonal_table(ONE_PLUS_X(8), F(1, 2), 0, [2], 4)
        assert got == RMatrix([[1, 1, 0, 0]])

    def test_direct_reading_agrees(self):
        a = rand_unit_series(random.Random(47), 8, bound=3)
        for v in (1, 2, -1, -2):
            lhs = diagonal_table(a, 1, v, range(-2, 3), 5)
            assert lhs == diagonal_table_direct(a, 1, v, range(-2, 3), 5)


class TestABetaMatrix:
    def test_unit_beta_displays(self):
        assert abeta_matrix(2, 1) == gd.A2
        assert abeta_matrix(3, 1) == gd.A3
        assert abeta_matrix(4, 1) == gd.A4

    def test_inverse_displays(self):
        assert abeta_matrix(2, -1) == gd.A2_INV
        assert abeta_matrix(3, -1) == gd.A3_INV
        assert abeta_matrix(4, -1) == gd.A4_INV

    def test_half_beta_displays(self):
        assert abeta_matrix(2, F(1, 2)) == gd.A2_HALF
        assert abeta_matrix(3, F(1, 2)) == gd.A3_HALF
        assert abeta_matrix(4, F(1, 2)) == gd.A4_HALF

    def test_zero_beta_is_identity(self):
        for n in (1, 3, 5):
            assert abeta_matrix(n, 0) == _diag([1] * n)

    def test_log_generator_displays(self):
        assert log_abeta(2) == gd.LOG_A2
        assert log_abeta(3) == gd.LOG_A3
        assert log_abeta(3) * log_abeta(3) == gd.LOG_A3_SQ
        assert log_abeta(4) == gd.LOG_A4
        assert log_abeta(4) * log_abeta(4) == gd.LOG_A4_SQ
        assert log_abeta(4) * log_abeta(4) * log_abeta(4) == gd.LOG_A4_CUBE

    def test_reversal_conjugation_is_inverse(self):
        rev = _diag([1] * 2, anti=True)
        assert rev * gd.A2 * rev == gd.A2_INV

    def test_column_sums_display(self):
        assert all(s == 1 for s in map(sum, zip(*gd.A4_HALF.entries)))


class TestABetaApply:
    def test_zero_beta_identity(self):
        p = Poly([3, 1, 4])
        assert _apply(abeta_matrix(3, 0), p) == p

    def test_last_column_is_deformed_alpha(self):
        # alpha~ of 1+x is x^(n-1); its image is the last matrix column
        for n in range(1, 8):
            for beta in (1, 2, F(1, 2)):
                A = abeta_matrix(n, beta)
                got = _apply(A, monomial(n - 1))
                assert got == Poly(row[-1] for row in A.entries)

    def test_even_half_beta_column(self):
        for k in (1, 2, 3):
            A = abeta_matrix(2 * k, F(1, 2))
            got = _apply(A, monomial(2 * k - 1))
            assert got == (Poly([1, 1]) * F(1, 2)).shift_up(k - 1)

    def test_degree_bound(self):
        with pytest.raises(DegreeTooHigh):
            _apply(abeta_matrix(2, 1), Poly([0, 0, 1]))


class TestClosedForm:
    def test_special_betas(self):
        for n in range(1, 9):
            assert gbs_alpha_closed_form(n, 1) == Poly([0, 1])
            assert gbs_alpha_closed_form(n, 0) == monomial(n)
        for k in range(1, 5):
            assert gbs_alpha_closed_form(2 * k, F(1, 2)) == (
                Poly([1, 1]) * F(1, 2)
            ).shift_up(k)

    def test_equals_last_column(self):
        # and the beta <-> 1-beta duality reverses it
        for n in range(1, 11):
            for beta in (1, -1, 2, F(1, 2), F(2, 3)):
                closed = gbs_alpha_closed_form(n, beta)
                last = Poly(row[-1] for row in abeta_matrix(n, beta).entries)
                assert closed == last.shift_up(1)
                assert gbs_alpha_closed_form(n, 1 - beta) == _reversed_to(closed, n).shift_up(1)


class TestVTilde:
    def test_unit_beta_cubic(self):
        got = vtilde_transform(3, 1, monomial(2))
        assert got == Poly([1, 2, 1])

    def test_zero_beta_identity(self):
        p = Poly([2, 0, 5])
        assert vtilde_transform(3, 0, p) == p

    def test_catalan_leading_column(self):
        # the rescaled binomial rows turn into powers of the Catalan series
        lhs = RMatrix(
            [
                [F(e * (j + 1), i + 1) for j, e in enumerate(row)]
                for i, row in enumerate(gd.EX7_BINOMIAL_ROWS)
            ]
        )
        assert lhs == RMatrix(gd.EX7_CONJUGATED)
        order = 8
        c2 = power(catalan(order), 2)
        for n, row in enumerate(gd.EX7_CONJUGATED):
            for k, e in enumerate(row):
                if k <= n:
                    assert power(c2, k + 1).coeff(n - k) == e

    def test_binomial_row_values(self):
        for n, row in enumerate(gd.EX7_BINOMIAL_ROWS):
            for k, e in enumerate(row):
                assert rational_binomial(2 * (n + 1), n - k) == e

    def test_deformed_v_values(self):
        # for a = 1+x: coefficient m of the deformed v~ is ((m+1)/n) C(n beta, n-m-1)
        for n in (2, 3, 5):
            for beta in (1, 2, F(1, 2)):
                got = vtilde_transform(n, beta, monomial(n - 1))
                expected = Poly(
                    [
                        F(m + 1, n) * rational_binomial(n * beta, n - m - 1)
                        for m in range(n)
                    ]
                )
                assert got == expected
