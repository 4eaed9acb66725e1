import random
from fractions import Fraction as F
from math import comb, factorial

import pytest

import golden_data as gd
from golden_data import geometric
from riordan_gep.dirichlet import (
    DirichletSeries,
    array_window,
    big_omega,
    carlitz_hoggatt,
    dir_alpha_poly,
    dir_v_poly,
    dirichlet_exp,
    dirichlet_inv,
    dirichlet_log,
    dirichlet_mul,
    divisors,
    factorize,
)
from riordan_gep.errors import LeadingCoefficientNotOne, OutOfRange
from riordan_gep.gep import eulerian_poly, matrix_u
from riordan_gep.matrix import RMatrix
from riordan_gep.series import Poly, Series, binomial_poly, power
from riordan_gep.routes import dir_u_poly, rational_binomial, rising_factorial_poly
from riordan_gep.verify import dir_palindromy_check


def zeta(n):
    return DirichletSeries.zeta(n)


def dirichlet_pow(a, phi):
    """a^phi = exp(phi log a); requires a_1 = 1."""
    return dirichlet_exp(DirichletSeries([phi * c for c in dirichlet_log(a).coeffs]))


def dir_alpha_reversal(a, n):
    """Numerator of row n of <a^-1>: (-1)^Omega(n) x Ihat alpha_n."""
    omega = big_omega(n)
    return (dir_alpha_poly(a, n).reversed_to(omega) * (-1) ** omega).shift_up(1)


def rand_series(rng, n):
    return DirichletSeries([1] + [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n - 1)])


class TestArithmetic:
    def test_divisor_count_at_twelve(self):
        z2 = dirichlet_mul(zeta(16), zeta(16))
        assert z2[12] == 6

    def test_identity_neutral(self):
        rng = random.Random(61)
        a = rand_series(rng, 24)
        assert dirichlet_mul(a, DirichletSeries.one(24)) == a

    def test_moebius_cancellation(self):
        z = zeta(32)
        assert dirichlet_mul(z, dirichlet_inv(z)) == DirichletSeries.one(32)

    def test_moebius_values(self):
        mu = dirichlet_inv(zeta(12))
        assert [mu[n] for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]

    def test_inverse_needs_unit_lead(self):
        with pytest.raises(LeadingCoefficientNotOne):
            dirichlet_inv(DirichletSeries([2, 1]))


class TestLogExp:
    def test_log_zeta_prime_powers(self):
        lz = dirichlet_log(zeta(16))
        assert lz[4] == F(1, 2)
        assert lz[8] == F(1, 3)
        assert lz[16] == F(1, 4)
        assert lz[6] == 0 and lz[12] == 0
        for p in (2, 3, 5, 7, 11, 13):
            assert lz[p] == 1

    def test_log_of_identity_is_zero(self):
        lz = dirichlet_log(DirichletSeries.one(20))
        assert all(c == 0 for c in lz.coeffs)

    def test_exp_log_round_trip(self):
        rng = random.Random(67)
        a = rand_series(rng, 30)
        assert dirichlet_exp(dirichlet_log(a)) == a

    def test_pow_matches_repeated_mul(self):
        z = zeta(24)
        assert dirichlet_pow(z, 2) == dirichlet_mul(z, z)
        assert dirichlet_pow(z, -1) == dirichlet_inv(z)

    def test_fractional_pow_squares_back(self):
        rng = random.Random(71)
        a = rand_series(rng, 24)
        half = dirichlet_pow(a, F(1, 2))
        assert dirichlet_mul(half, half) == a


class TestWindows:
    def test_zeta_window(self):
        assert array_window(zeta(12), "plain", 12, 5) == RMatrix(gd.ZETA_WINDOW)

    def test_zeta_inverse_window(self):
        got = array_window(dirichlet_inv(zeta(12)), "plain", 12, 5)
        assert got == RMatrix(gd.ZETA_INV_WINDOW)

    def test_zeta_minus_one_window(self):
        assert array_window(zeta(12), "minus-one", 12, 4) == RMatrix(gd.ZETA_MINUS_ONE_WINDOW)

    def test_zeta_log_window(self):
        assert array_window(zeta(12), "log", 12, 4) == RMatrix(gd.ZETA_LOG_WINDOW)

    def test_shift_identities_on_rows(self):
        # row-level products with the polynomial columns of (1, 1+x) and
        # (1, 1/(1+x)) reconstruct <a> and <a^-1> from <a-1>
        rng = random.Random(73)
        rows = 64
        a = rand_series(rng, rows)
        max_omega = max(big_omega(n) for n in range(2, rows + 1))
        minus = array_window(a, "minus-one", rows, max_omega + 1)
        plain = array_window(a, "plain", rows, 5)
        inv = array_window(dirichlet_inv(a), "plain", rows, 5)
        logw = array_window(a, "log", rows, max_omega + 1)
        for n in range(1, rows + 1):
            omega = big_omega(n) if n > 1 else 0
            for k in range(5):
                js = range(omega + 1)
                assert plain[n - 1, k] == sum(minus[n - 1, j] * comb(k, j) for j in js)
                assert inv[n - 1, k] == sum(
                    minus[n - 1, j] * rational_binomial(-k, j) for j in js
                )
                # <log a>(1, e^x) = <a>
                assert plain[n - 1, k] == sum(
                    logw[n - 1, j] * F(k**j, factorial(j)) for j in js
                )


class TestVPoly:
    def test_zeta_twelve(self):
        assert dir_v_poly(zeta(12), 12) == Poly([0, 1, 4, 3])

    def test_primes(self):
        for p in (2, 3, 5, 7, 11):
            assert dir_v_poly(zeta(12), p) == Poly([0, 1])

    def test_zeta_sixteen(self):
        # decompositions of 16: {16}, {2,8}, {4,4}, {2,2,4}, {2,2,2,2}
        assert dir_v_poly(zeta(16), 16) == Poly([0, 1, 3, 3, 1])

    def test_matches_power_route(self):
        rng = random.Random(79)
        a = rand_series(rng, 48)
        window = array_window(a, "minus-one", 48, 7)
        for n in range(2, 49):
            v = dir_v_poly(a, n)
            for m in range(7):
                assert v.coeff(m) == window[n - 1, m]

    def test_needs_unit_lead(self):
        with pytest.raises(LeadingCoefficientNotOne):
            dir_v_poly(DirichletSeries([2, 1, 1]), 2)


class TestUPoly:
    def test_rising_factorial_products(self):
        log_z = dirichlet_log(zeta(64))
        for n in range(2, 65):
            expected = Poly([1])
            for mult in factorize(n).values():
                expected = expected * rising_factorial_poly(mult) * F(1, factorial(mult))
            assert dir_u_poly(log_z, n) == expected * factorial(n)

    def test_interpolation_values(self):
        # u_n(m) = n! [a^m]_n for the first few convolution powers
        rng = random.Random(83)
        a = rand_series(rng, 36)
        powers = [DirichletSeries.one(36)]
        for _ in range(4):
            powers.append(dirichlet_mul(powers[-1], a))
        log_a = dirichlet_log(a)
        for n in (4, 12, 30, 36):
            u = dir_u_poly(log_a, n)
            for m in range(5):
                assert u(m) == factorial(n) * powers[m][n]


class TestAlphaPoly:
    def test_four(self):
        assert dir_alpha_poly(zeta(4), 4) == Poly([0, 1])

    def test_primes(self):
        for p in (2, 3, 5):
            assert dir_alpha_poly(zeta(8), p) == Poly([0, 1])

    def test_thirty_six_is_carlitz_hoggatt(self):
        assert dir_alpha_poly(zeta(36), 36) == carlitz_hoggatt(2, 2)

    def test_routes_agree(self):
        rng = random.Random(89)
        a = rand_series(rng, 64)
        z = zeta(64)
        for base in (a, z):
            log_base = dirichlet_log(base)
            for n in range(2, 65):
                # the u route: x (Omega!/n!) U applied to u~_n
                omega = big_omega(n)
                u = dir_u_poly(log_base, n)
                ut = [u.coeff(k) for k in range(1, omega + 1)]
                scale = F(factorial(omega), factorial(n))
                by_u = Poly([scale * c for c in matrix_u(omega).apply(ut)]).shift_up(1)
                assert dir_alpha_poly(base, n) == by_u

    def test_row_generating_function(self):
        # alpha_n / (1-x)^(Omega+1) reproduces row n of <zeta>
        z = zeta(36)
        window = array_window(z, "plain", 36, 10)
        for n in (4, 12, 36):
            omega = big_omega(n)
            alpha = dir_alpha_poly(z, n)
            regen = Series(alpha.coeffs, order=16) * power(geometric(16), omega + 1)
            assert list(regen.coeffs[:10]) == [window[n - 1, k] for k in range(10)]

    def test_reversal_matches_inverse_rows(self):
        # the reversal of alpha_n is the numerator of row n of <zeta^-1>
        z = zeta(36)
        inv_window = array_window(dirichlet_inv(z), "plain", 36, 12)
        for n in (4, 12, 36):
            omega = big_omega(n)
            rev = dir_alpha_reversal(z, n)
            row_poly = Poly([inv_window[n - 1, k] for k in range(12)])
            prod = row_poly * binomial_poly(omega + 1, -1)
            num = Poly([prod.coeff(k) for k in range(omega + 1)])
            for k in range(omega + 2, 11):
                assert prod.coeff(k) == 0
            assert rev == num


class TestCarlitzHoggatt:
    def test_unit_p_is_eulerian(self):
        for n in range(1, 6):
            assert carlitz_hoggatt(n, 1) == eulerian_poly(n)

    def test_two_two(self):
        g = carlitz_hoggatt(2, 2)
        assert g == Poly([0, 1, 4, 1])
        assert g(1) == 6

    def test_value_at_one(self):
        for p in range(1, 4):
            for r in range(1, 4):
                g = carlitz_hoggatt(r, p)
                assert g(1) == F(factorial(p * r), factorial(p) ** r)

    def test_degree(self):
        for p in range(1, 4):
            for r in range(1, 4):
                assert carlitz_hoggatt(r, p).degree() == p * r - p + 1

    def test_palindromy(self):
        for p in range(1, 4):
            for r in range(1, 4):
                assert dir_palindromy_check(r, p)

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(OutOfRange):
            carlitz_hoggatt(0, 2)
        with pytest.raises(OutOfRange):
            carlitz_hoggatt(2, 0)

    def test_reversal_identity_at_36(self):
        # numerator of row 36 of <zeta^-1> equals (-1)^(pr) x^(p-1) G for p=r=2
        z = zeta(36)
        rev = dir_alpha_reversal(z, 36)
        assert rev == carlitz_hoggatt(2, 2).shift_up(1)

    def test_big_square_free_cube(self):
        # n = 2^2 3^2 5^2 = 900 realizes r=3, p=2
        assert dir_alpha_poly(zeta(900), 900) == carlitz_hoggatt(3, 2)


class TestHelpers:
    def test_factorize(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert big_omega(360) == 6

    def test_divisors(self):
        assert divisors(28) == [1, 2, 4, 7, 14, 28]

    def test_rising_factorial(self):
        assert rising_factorial_poly(0) == Poly([1])
        assert rising_factorial_poly(3) == Poly([0, 2, 3, 1])  # x(x+1)(x+2)
