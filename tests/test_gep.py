import random
from fractions import Fraction as F
from math import comb, factorial

import pytest

import golden_data as gd
from riordan_gep import gep
from riordan_gep.errors import ConstantTermNotOne, InsufficientOrder, OutOfRange
from golden_data import convolution_numerator, geometric
from riordan_gep.gep import (
    GepContext,
    eulerian_poly,
    matrix_u,
    matrix_u_inv,
    matrix_v,
    matrix_v_inv,
    stirling_products,
)
from riordan_gep.matrix import RMatrix
from riordan_gep.riordan import RiordanArray, RiordanKind, row_of_pair
from riordan_gep.series import Poly, Series, binomial_poly, exp, log, power, reciprocal
from riordan_gep.routes import row_numerator
from riordan_gep.verify import alpha_gf_check, check_theorem1, check_theorem2, reduce_degenerate


def moebius_ratio(order):
    """(1+x)/(1-x) truncated."""
    return Series([1, 1], order=order) * geometric(order)


def hyperbolic_square(order):
    """(x/2 + sqrt(1+x^2/4))^2 truncated."""
    root = power(Series([1, 0, F(1, 4)], order=order), F(1, 2))
    return power(Series([0, F(1, 2)], order=order) + root, 2)


def u_by_log_row(a, n):
    """Reference u_n: row n of the exponential array (1, log a), coefficient m scaled by n!/m!."""
    row = row_of_pair(Series.one(n), log(a.truncate(n)), n, n + 1)
    return Poly([F(factorial(n), factorial(m)) * row.coeff(m) for m in range(n + 1)])


def rand_unit_series(rng, order, a1=None):
    coeffs = [F(1)] + [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order)]
    if a1 is not None:
        coeffs[1] = F(a1)
    return Series(coeffs)


class TestEulerian:
    def test_small_polynomials(self):
        assert eulerian_poly(1) == Poly([0, 1])
        assert eulerian_poly(2) == Poly([0, 1, 1])
        assert eulerian_poly(3) == Poly([0, 1, 4, 1])
        assert eulerian_poly(4) == Poly([0, 1, 11, 11, 1])

    def test_degree_five_against_summation(self):
        # (1-x)^6 times the truncated sum of m^5 x^m, low-degree part
        s = Poly([m**5 for m in range(13)])
        prod = s * binomial_poly(6, -1)
        expected = Poly([prod.coeff(k) for k in range(6)])
        assert eulerian_poly(5) == expected
        assert expected == Poly([0, 1, 26, 66, 26, 1])

    def test_value_at_one_is_factorial(self):
        for n in range(1, 11):
            assert eulerian_poly(n)(1) == factorial(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(OutOfRange):
            eulerian_poly(0)


class TestContext:
    def test_order_requirement(self):
        # u, v and alpha read coefficients up to x^n only
        with pytest.raises(InsufficientOrder, match="order 3 required"):
            GepContext(Series([1, 1], order=2), 3)
        GepContext(Series([1, 1], order=3), 3)

    def test_order_n_gives_the_same_polynomials_as_order_2n_plus_2(self):
        rng = random.Random(41)
        for n in range(1, 13):
            for a1 in (None, 0):
                a = rand_unit_series(rng, 2 * n + 2, a1=a1)
                short, long = GepContext(a.truncate(n), n), GepContext(a, n)
                assert (short.u, short.v, short.alpha) == (long.u, long.v, long.alpha)

    def test_u_interpolates_powers_of_a(self):
        # u_n(m) = n! [x^n] a^m, also at negative m and past n
        rng = random.Random(43)
        for n in range(1, 9):
            a = rand_unit_series(rng, n, a1=0 if n % 2 else None)
            u = GepContext(a, n).u
            for m in range(-3, n + 4):
                assert u(m) == factorial(n) * power(a, m).coeff(n)

    def test_unit_constant_requirement(self):
        with pytest.raises(ConstantTermNotOne):
            GepContext(Series([2, 1], order=10), 3)

    def test_u_is_built_on_first_read_only(self, monkeypatch):
        calls = []
        build = gep.matrix_u_inv
        monkeypatch.setattr(gep, "matrix_u_inv", lambda n: calls.append(n) or build(n))
        ctx = GepContext(exp(Series.x(12)), 12)
        assert ctx.alpha == eulerian_poly(12) * F(1, factorial(12))
        assert ctx.v.coeff(12) == 1
        assert calls == []
        assert ctx.u == Poly([0] * 12 + [1])  # row n of (1, x) is x^n
        assert ctx.u is ctx.u
        assert calls == [12]


class TestUPoly:
    def test_u_is_row_n_of_one_log_a(self):
        # the constructor reads u as x U_n^-1 alpha~; the reference is the (1, log a) row
        rng = random.Random(47)
        for n in (1, 2, 3, 5, 8, 13, 21, 30):
            dense = rand_unit_series(rng, n)
            sparse = [F(1)] + [F(0)] * n  # at most three nonzero terms past the constant
            for k in rng.sample(range(1, n + 1), min(n, 3)):
                sparse[k] = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            for a in (dense, Series(sparse), exp(Series.x(n))):
                assert GepContext(a, n).u == u_by_log_row(a, n)
        assert GepContext(exp(Series.x(9)), 9).u == Poly([0] * 9 + [1])  # row n of (1, x) is x^n

    def test_hyperbolic_square_even_factorization(self):
        # u_{2n}(x) = prod_{m=0}^{n-1} (x^2 - m^2)
        for n in (1, 2, 3):
            a = hyperbolic_square(4 * n + 2)
            ctx = GepContext(a, 2 * n)
            expected = Poly([1])
            for m in range(n):
                expected = expected * Poly([-(m * m), 0, 1])
            assert ctx.u == expected

    def test_binomial_base_gives_falling_factorial(self):
        ctx = GepContext(Series([1, 1], order=8), 3)
        assert ctx.u == Poly([0, 2, -3, 1])  # x(x-1)(x-2)

    def test_moebius_ratio_quadratic(self):
        # interpolation oracle: u_2(m) = 2! [x^2] ((1+x)/(1-x))^m for m = 0,1,2
        a = moebius_ratio(6)
        vals = [2 * power(a, m).coeff(2) for m in range(3)]
        assert vals == [0, 4, 16]  # forces u_2(x) = 4x^2
        assert GepContext(a, 2).u == Poly([0, 0, 4])

    def test_interpolation_property(self):
        rng = random.Random(2)
        for n in (3, 5):
            a = rand_unit_series(rng, 2 * n + 2)
            u = GepContext(a, n).u
            for m in range(n + 2):
                assert u(m) == factorial(n) * power(a, m).coeff(n)


class TestVPoly:
    def test_moebius_ratio(self):
        ctx = GepContext(moebius_ratio(8), 3)
        assert ctx.v == Poly([0, 2, 8, 8])  # x * 2^3 (1/2 + x)^2

    def test_binomial_base(self):
        for n in (1, 3, 5):
            ctx = GepContext(Series([1, 1], order=2 * n + 2), n)
            assert ctx.v == Poly([1]).shift_up(n)

    def test_exponential_base(self):
        # row 3 of (1, e^x - 1): direct powers of e^x - 1
        e = exp(Series.x(8))
        em1 = e - 1
        expected = Poly([0] + [power(em1, m).coeff(3) for m in range(1, 4)])
        assert expected == Poly([0, F(1, 6), 1, 1])
        assert GepContext(e, 3).v == expected


class TestAlphaPoly:
    def test_moebius_ratio_closed_form(self):
        for n in range(1, 7):
            ctx = GepContext(moebius_ratio(2 * n + 2), n)
            assert ctx.alpha == (binomial_poly(n - 1, 1) * 2).shift_up(1)

    def test_geometric_base(self):
        for n in range(1, 7):
            ctx = GepContext(geometric(2 * n + 2), n)
            assert ctx.alpha == Poly([0, 1])

    def test_hyperbolic_square_even(self):
        for k in (1, 2, 3):
            ctx = GepContext(hyperbolic_square(8 * k), 2 * k)
            expected = (Poly([1, 1]) * F(1, 2)).shift_up(k)  # x^k (1+x)/2
            assert ctx.alpha == expected

    def test_verify_mode_cross_checks(self):
        # convolution over v (the constructor), V^-1 v~, U u~ and the row numerator
        rng = random.Random(7)
        for n in (2, 4, 6):
            ctx = GepContext(rand_unit_series(rng, 2 * n + 2), n)
            vt = tuple(ctx.v.coeff(k) for k in range(1, n + 1))
            ut = tuple(ctx.u.coeff(k) for k in range(1, n + 1))
            assert Poly(matrix_v_inv(n).apply(vt)).shift_up(1) == ctx.alpha
            assert Poly(matrix_u(n).apply(ut)).shift_up(1) == ctx.alpha
            square = RiordanArray(RiordanKind.SQUARE, Series.one(ctx.a.order), ctx.a)
            assert row_numerator(square, n) == ctx.alpha


class TestMatrices:
    def test_u_displays(self):
        assert matrix_u(2) == gd.U2
        assert matrix_u(3) == gd.U3
        assert matrix_u(4) == gd.U4
        assert matrix_u(1) == RMatrix([[1]])

    def test_u_inverse_displays(self):
        assert matrix_u_inv(2) == gd.U2_INV
        assert matrix_u_inv(3) == gd.U3_INV
        assert matrix_u_inv(4) == gd.U4_INV

    def test_v_displays(self):
        assert matrix_v(2) == gd.V2
        assert matrix_v(3) == gd.V3
        assert matrix_v(4) == gd.V4
        assert matrix_v_inv(2) == gd.V2_INV
        assert matrix_v_inv(3) == gd.V3_INV
        assert matrix_v_inv(4) == gd.V4_INV

    def test_inverse_pairs(self):
        for n in range(1, 17):
            assert matrix_u(n) * matrix_u_inv(n) == RMatrix.identity(n)
        for n in range(1, 11):
            assert matrix_v(n) * matrix_v_inv(n) == RMatrix.identity(n)

    def test_v_action_on_polynomials(self):
        # V_n c(x) = (1+x)^(n-1) c(x/(1+x))
        rng = random.Random(4)
        for n in range(1, 11):
            c = Poly([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)])
            lhs = Poly(matrix_v(n).apply(c.to_vector(n)))
            rhs = Poly()
            for j in range(n):
                rhs = rhs + (binomial_poly(n - 1 - j, 1) * c.coeff(j)).shift_up(j)
            assert lhs == rhs


class TestReversal:
    def test_display(self):
        assert RMatrix.anti_identity(4) == RMatrix(
            [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
        )

    def test_involution(self):
        m = RMatrix.anti_identity(6)
        assert m * m == RMatrix.identity(6)


class TestTheorems:
    def test_theorem1(self):
        for n in (1, 2, 7, 12, 16):
            assert check_theorem1(n)

    def test_theorem2_exponential(self):
        # A_n(1) = n! means alpha_n(1) = 1 for a = e^x
        for n in (1, 3, 5):
            ctx = GepContext(exp(Series.x(2 * n + 2)), n)
            assert ctx.alpha(1) == 1
            assert check_theorem2(ctx)

    def test_theorem2_moebius_ratio(self):
        for n in (2, 4):
            ctx = GepContext(moebius_ratio(2 * n + 2), n)
            assert ctx.alpha(1) == 2**n
            assert check_theorem2(ctx)

    def test_theorem2_degenerate_a1(self):
        ctx = GepContext(Series([1, 0, 1], order=10), 4)
        assert ctx.alpha(1) == 0
        assert check_theorem2(ctx)

    def test_theorem2_random(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(1, 8)
            assert check_theorem2(GepContext(rand_unit_series(rng, 2 * n + 2), n))


class TestStirlingProducts:
    def test_displays(self):
        vu, uv = stirling_products(4)
        assert vu == gd.VU4
        assert uv == gd.UV4

    def test_inverse_pair(self):
        for n in range(1, 13):
            vu, uv = stirling_products(n)
            assert vu * uv == RMatrix.identity(n)

    def test_closed_forms_are_the_matrix_products(self):
        for n in range(1, 13):
            vu, uv = stirling_products(n)
            assert vu == matrix_v(n) * matrix_u(n)
            assert uv == matrix_u_inv(n) * matrix_v_inv(n)


class TestReduceDegenerate:
    def test_three_one(self):
        first, second = reduce_degenerate(3, 1)
        assert first == matrix_u_inv(2) * 3
        assert second == matrix_u(2) * F(1, 3)

    def test_two_one_scalar(self):
        first, second = reduce_degenerate(2, 1)
        assert first == RMatrix([[2]])
        assert second == RMatrix([[F(1, 2)]])

    def test_range_check(self):
        with pytest.raises(OutOfRange):
            reduce_degenerate(3, 3)

    def test_sweep(self):
        for n in range(2, 9):
            for m in range(1, n):
                reduce_degenerate(n, m)  # raises if any identity fails


class TestConvolutionNumerators:
    def test_degree_three_and_four(self):
        assert convolution_numerator(1, 3) == Poly([3, -2])
        assert convolution_numerator(1, 4) == Poly([5, -5, 1])

    def test_zero_weight_degenerates(self):
        for n in range(6):
            assert convolution_numerator(0, n) == Poly([1])

    def test_rows_match_companion_array(self):
        for n, expected in enumerate(gd.FIB_NUMERATOR_ROWS):
            got = convolution_numerator(1, n)
            assert [got.coeff(j) for j in range(4)] == [F(e) for e in expected]

    def test_numerators_reproduce_square_rows(self):
        # N_n / (1-x)^(n+1) must reproduce row n of the square array
        order = 16
        f = reciprocal(Series([1, -1, -1], order=order))
        for n in (2, 3, 4):
            num = convolution_numerator(1, n)
            regen = Series(num.coeffs, order=order) * power(geometric(order), n + 1)
            expected_row = [power(f, k + 1).coeff(n) for k in range(6)]
            assert list(regen.coeffs[:6]) == expected_row

    def test_star_variant(self):
        # 1/(1-kx-x^2) with k=1 coincides with the plain k=1 arrays
        assert convolution_numerator(1, 4, star=True) == convolution_numerator(1, 4)
        # k=2: row 2 of (1/(1-2x-x^2), -x^2/(1-2x-x^2)): f = 1,2,5,...
        assert convolution_numerator(2, 2, star=True) == Poly([5, -1])


class TestGeneratingFunctionCheck:
    def test_zero_t(self):
        assert alpha_gf_check(1, 1, 0, 6)

    def test_fibonacci_case(self):
        assert alpha_gf_check(-1, -1, F(3, 5), 8)

    def test_t_equal_one(self):
        assert alpha_gf_check(2, 1, 1, 6)

    def test_random_parameters(self):
        rng = random.Random(17)
        for _ in range(5):
            phi = F(rng.randint(-3, 3), rng.randint(1, 3))
            beta = F(rng.randint(-3, 3), rng.randint(1, 3))
            t = F(rng.randint(-3, 3), rng.randint(1, 3))
            assert alpha_gf_check(phi, beta, t, 8)


class TestPipeline:
    def test_transforms_connect_u_alpha_v(self):
        rng = random.Random(29)
        for n in range(1, 9):
            ctx = GepContext(rand_unit_series(rng, 2 * n + 2), n)
            ut = tuple(ctx.u.coeff(k) for k in range(1, n + 1))
            at = tuple(ctx.alpha.coeff(k) for k in range(1, n + 1))
            vt = tuple(ctx.v.coeff(k) for k in range(1, n + 1))
            assert matrix_u(n).apply(ut) == at
            assert matrix_v(n).apply(at) == vt
            assert matrix_u_inv(n).apply(matrix_v_inv(n).apply(vt)) == ut

    def test_reciprocal_series_reversal(self):
        rng = random.Random(31)
        for n in range(1, 9):
            a = rand_unit_series(rng, 2 * n + 2)
            alpha = GepContext(a, n).alpha
            alpha_rec = GepContext(reciprocal(a), n).alpha
            assert alpha_rec == (alpha.reversed_to(n) * ((-1) ** n)).shift_up(1)

    def test_eulerian_specialization(self):
        for n in range(1, 9):
            ctx = GepContext(exp(Series.x(2 * n + 2)), n)
            assert ctx.alpha * factorial(n) == eulerian_poly(n)


class TestExampleOneFormulas:
    """Both closed forms for u_n at a = (1+x)/(1-x)."""

    def test_products_of_shifted_factors(self):
        for n in range(1, 8):
            a = moebius_ratio(2 * n + 2)
            u = GepContext(a, n).u
            first = Poly()
            for p in range(n):
                prod = Poly([1])
                for m in range(n):
                    prod = prod * Poly([m - p, 1])
                first = first + prod * (2 * comb(n - 1, p))
            assert u == first
            second = Poly()
            for p in range(n):
                prod = Poly([1])
                for m in range(p + 1):
                    prod = prod * Poly([-m, 1])
                weight = F(factorial(n) * comb(n - 1, p) * 2 ** (p + 1), factorial(p + 1))
                second = second + prod * weight
            assert u == second
