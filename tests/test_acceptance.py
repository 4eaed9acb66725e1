"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every comparison is exact rational equality; there are no tolerances.
"""

import random
from fractions import Fraction as F
from math import comb, factorial

import golden_data as gd
from golden_data import convolution_numerator, geometric
from riordan_gep import dirichlet as ds
from riordan_gep import gep, lagrange, routes, verify, wmatrix
from riordan_gep.cli import main
from riordan_gep.matrix import RMatrix
from riordan_gep.series import Poly, Series, binomial_poly, power, reciprocal


def report(name, ok):
    print(f"{name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def rand_unit_series(rng, order):
    return Series([F(1)] + [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order)])


def test_criterion_1_golden_matrix_suite():
    ok = (
        gep.matrix_u(2) == gd.U2
        and gep.matrix_u(3) == gd.U3
        and gep.matrix_u(4) == gd.U4
        and gep.matrix_u_inv(2) == gd.U2_INV
        and gep.matrix_u_inv(3) == gd.U3_INV
        and gep.matrix_u_inv(4) == gd.U4_INV
        and gep.matrix_v(2) == gd.V2
        and gep.matrix_v(3) == gd.V3
        and gep.matrix_v(4) == gd.V4
        and gep.matrix_v_inv(2) == gd.V2_INV
        and gep.matrix_v_inv(3) == gd.V3_INV
        and gep.matrix_v_inv(4) == gd.V4_INV
        and gep.stirling_products(4) == (gd.VU4, gd.UV4)
    )
    for (n, m), rows in gd.W_TABLES.items():
        ok = ok and wmatrix.w_matrix(n, m) == RMatrix(rows)
    ok = ok and (
        lagrange.abeta_matrix(2, 1) == gd.A2
        and lagrange.abeta_matrix(3, 1) == gd.A3
        and lagrange.abeta_matrix(4, 1) == gd.A4
        and lagrange.abeta_matrix(2, -1) == gd.A2_INV
        and lagrange.abeta_matrix(3, -1) == gd.A3_INV
        and lagrange.abeta_matrix(4, -1) == gd.A4_INV
        and lagrange.abeta_matrix(2, F(1, 2)) == gd.A2_HALF
        and lagrange.abeta_matrix(3, F(1, 2)) == gd.A3_HALF
        and lagrange.abeta_matrix(4, F(1, 2)) == gd.A4_HALF
    )
    report("criterion 1 (golden matrices)", ok)


def test_criterion_2_eulerian_polynomials():
    ok = (
        gep.eulerian_poly(1) == Poly([0, 1])
        and gep.eulerian_poly(2) == Poly([0, 1, 1])
        and gep.eulerian_poly(3) == Poly([0, 1, 4, 1])
        and gep.eulerian_poly(4) == Poly([0, 1, 11, 11, 1])
    )
    for n in range(1, 11):
        ok = ok and gep.eulerian_poly(n)(1) == factorial(n)
    report("criterion 2 (Eulerian polynomials)", ok)


def test_criterion_3_theorem_suites():
    rng = random.Random(101)
    ok = all(verify.check_theorem1(n) for n in range(1, 17))
    for _ in range(20):
        n = rng.randint(1, 8)
        ok = ok and verify.check_theorem2(gep.GepContext(rand_unit_series(rng, 2 * n + 2), n))
    ok = ok and all(
        gep.matrix_u(n) * gep.matrix_u_inv(n) == RMatrix.identity(n) for n in range(1, 17)
    )
    # W three ways: decimation, U-conjugation and the V-form
    for n in range(1, 9):
        for m in range(1, 5):
            ok = ok and verify.w_routes_agree(wmatrix.w_matrix(n, m), m)
    for n in range(1, 11):
        for m in range(1, 6):
            ok = ok and all(
                s == F(m) ** n for s in wmatrix.w_matrix(n, m).col_sums()
            )
    for n in range(1, 11):
        for beta in (1, -1, 2, -2, F(1, 2), F(-1, 2), F(1, 3)):
            sums = lagrange.abeta_matrix(n, beta).col_sums()
            ok = ok and all(s == 1 for s in sums)
    report("criterion 3 (theorem suites)", ok)


def test_criterion_4_pipeline_identities():
    rng = random.Random(103)
    ok = True
    for n in range(1, 9):
        for _ in range(3):
            a = rand_unit_series(rng, 2 * n + 2)
            ctx = gep.GepContext(a, n)
            ut = tuple(ctx.u.coeff(k) for k in range(1, n + 1))
            at = tuple(ctx.alpha.coeff(k) for k in range(1, n + 1))
            vt = tuple(ctx.v.coeff(k) for k in range(1, n + 1))
            ok = ok and gep.matrix_u(n).apply(ut) == at
            ok = ok and gep.matrix_v(n).apply(at) == vt
            # coefficient reversal under series reciprocal
            alpha_rec = gep.GepContext(reciprocal(a), n).alpha
            ok = ok and alpha_rec == (ctx.alpha.reversed_to(n) * ((-1) ** n)).shift_up(1)
    # degenerate-row reductions of U and U^-1
    for n in range(2, 9):
        for m in range(1, n):
            try:
                verify.reduce_degenerate(n, m)
            except ArithmeticError:
                ok = False
    # restriction identity for the shift conjugation
    for n in range(2, 9):
        ok = ok and verify.abeta_identities(n, F(1, 2)) and verify.log_abeta_top_power(n)
    # Bell-sum identities for the v/u coefficients and log
    from riordan_gep.series import log as series_log
    from riordan_gep.routes import bell_partial

    for n in range(1, 9):
        a = rand_unit_series(rng, 2 * n + 2)
        ctx = gep.GepContext(a, n)
        b = series_log(a)
        for m in range(1, n + 1):
            ok = ok and ctx.v.coeff(m) == bell_partial(n, m, a.coeffs[1 : n + 1])
            expected_u = F(factorial(n), factorial(m)) * bell_partial(
                n, m, b.coeffs[1 : n + 1]
            )
            ok = ok and ctx.u.coeff(m) == expected_u
        for p in range(1, n + 1):
            s = sum(
                F((-1) ** (m + 1), m) * bell_partial(p, m, a.coeffs[1 : p + 1])
                for m in range(1, p + 1)
            )
            ok = ok and s == b.coeff(p)
    report("criterion 4 (pipeline identities)", ok)


def test_criterion_5_example_reproductions():
    rng = random.Random(107)
    ok = True

    # ratio (1+x)/(1-x): alpha~_n = 2(1+x)^(n-1) and both closed u_n forms
    for n in range(1, 9):
        a = Series([1, 1], order=2 * n + 2) * geometric(2 * n + 2)
        ctx = gep.GepContext(a, n)
        ok = ok and ctx.alpha == (binomial_poly(n - 1, 1) * 2).shift_up(1)
        u = ctx.u
        first = Poly()
        second = Poly()
        for p in range(n):
            prod = Poly([1])
            for m in range(n):
                prod = prod * Poly([m - p, 1])
            first = first + prod * (2 * comb(n - 1, p))
            prod2 = Poly([1])
            for m in range(p + 1):
                prod2 = prod2 * Poly([-m, 1])
            second = second + prod2 * F(
                factorial(n) * comb(n - 1, p) * 2 ** (p + 1), factorial(p + 1)
            )
        ok = ok and u == first == second

    # hyperbolic square: u_{2n} = prod (x^2 - m^2), alpha~_{2n} = (1+x)x^(n-1)/2
    for k in (1, 2, 3):
        order = 4 * k + 2
        root = power(Series([1, 0, F(1, 4)], order=order), F(1, 2))
        a = power(Series([0, F(1, 2)], order=order) + root, 2)
        ctx = gep.GepContext(a, 2 * k)
        expected_u = Poly([1])
        for m in range(k):
            expected_u = expected_u * Poly([-(m * m), 0, 1])
        ok = ok and ctx.u == expected_u
        ok = ok and ctx.alpha == (Poly([1, 1]) * F(1, 2)).shift_up(k)

    # quadratic-denominator numerators and the closed generating function
    ok = ok and convolution_numerator(1, 3) == Poly([3, -2])
    ok = ok and convolution_numerator(1, 4) == Poly([5, -5, 1])
    for _ in range(5):
        phi = F(rng.randint(-3, 3), rng.randint(1, 3))
        beta = F(rng.randint(-3, 3), rng.randint(1, 3))
        t = F(rng.randint(-3, 3), rng.randint(1, 3))
        ok = ok and verify.alpha_gf_check(phi, beta, t, 8)

    # odd-part identity for the doubled geometric series
    for n in range(1, 11):
        col = Poly(wmatrix.w_matrix(n, 2).column(0))  # W applied to alpha~ = 1
        spread = Poly([col.coeff(k // 2) if k % 2 == 0 else 0 for k in range(2 * n + 1)])
        rhs = (binomial_poly(n + 1, 1) - binomial_poly(n + 1, -1)) * F(1, 2)
        ok = ok and spread.shift_up(1) == rhs

    # the four closed-form deformations of 1+x, to order 10
    order = 10
    one_plus_x = Series([1, 1], order=order)
    ok = ok and lagrange.lagrange_series(one_plus_x, 1, order) == geometric(order)
    root4 = power(Series([1, -4], order=order + 1), F(1, 2))
    catalan = Series([F(c, 2) for c in (Series.one(order + 1) - root4).coeffs[1:]])
    ok = ok and lagrange.lagrange_series(one_plus_x, 2, order) == catalan
    root4p = power(Series([1, 4], order=order), F(1, 2))
    ok = ok and lagrange.lagrange_series(one_plus_x, -1, order) == (
        Series.one(order) + root4p
    ) * F(1, 2)
    half_root = power(Series([1, 0, F(1, 4)], order=order), F(1, 2))
    hyper = power(Series([0, F(1, 2)], order=order) + half_root, 2)
    ok = ok and lagrange.lagrange_series(one_plus_x, F(1, 2), order) == hyper

    # closed binomial form = last matrix column, and the reversal duality
    for n in range(1, 11):
        for beta in (1, -1, 2, F(1, 2), F(2, 3)):
            closed = routes.gbs_alpha_closed_form(n, beta)
            last = Poly(lagrange.abeta_matrix(n, beta).column(n - 1))
            ok = ok and closed == last.shift_up(1)
            dual = routes.gbs_alpha_closed_form(n, 1 - beta)
            ok = ok and dual == closed.reversed_to(n).shift_up(1)
    report("criterion 5 (worked examples)", ok)


def test_criterion_6_functional_equations():
    rng = random.Random(109)
    ok = True
    for _ in range(10):
        a = rand_unit_series(rng, 12)
        for beta in (1, -1, 2, F(1, 2)):
            ok = ok and verify.check_functional_eq(a, beta, 12)
    report("criterion 6 (functional equations)", ok)


def test_criterion_7_dirichlet_suite():
    z12 = ds.DirichletSeries.zeta(12)
    ok = (
        ds.array_window(z12, "plain", 12, 5) == RMatrix(gd.ZETA_WINDOW)
        and ds.array_window(ds.dirichlet_inv(z12), "plain", 12, 5)
        == RMatrix(gd.ZETA_INV_WINDOW)
        and ds.array_window(z12, "minus-one", 12, 4) == RMatrix(gd.ZETA_MINUS_ONE_WINDOW)
        and ds.array_window(z12, "log", 12, 4) == RMatrix(gd.ZETA_LOG_WINDOW)
    )
    log_z64 = ds.dirichlet_log(ds.DirichletSeries.zeta(64))
    for n in range(2, 65):
        expected = Poly([1])
        for mult in ds.factorize(n).values():
            expected = expected * routes.rising_factorial_poly(mult) * F(1, factorial(mult))
        ok = ok and routes.dir_u_poly(log_z64, n) == expected * factorial(n)
    for p in range(1, 4):
        for r in range(1, 4):
            g = ds.carlitz_hoggatt(r, p)
            ok = ok and g(1) == F(factorial(p * r), factorial(p) ** r)
            ok = ok and verify.dir_palindromy_check(r, p)
    for n in range(1, 6):
        ok = ok and ds.carlitz_hoggatt(n, 1) == gep.eulerian_poly(n)
    report("criterion 7 (Dirichlet suite)", ok)


def test_criterion_8_polynomial_stand_ins():
    # the product factorizations with irrational roots are out of scope;
    # their exact polynomial counterparts are the two identities below.
    rng = random.Random(113)
    ok = True
    for _ in range(5):
        phi = F(rng.randint(-3, 3), rng.randint(1, 3))
        beta = F(rng.randint(-3, 3), rng.randint(1, 3))
        t = F(rng.randint(-3, 3), rng.randint(1, 3))
        ok = ok and verify.alpha_gf_check(phi, beta, t, 8)
    for n in range(1, 11):
        col = Poly(wmatrix.w_matrix(n, 2).column(0))  # W applied to alpha~ = 1
        spread = Poly([col.coeff(k // 2) if k % 2 == 0 else 0 for k in range(2 * n + 1)])
        rhs = (binomial_poly(n + 1, 1) - binomial_poly(n + 1, -1)) * F(1, 2)
        ok = ok and spread.shift_up(1) == rhs
    report("criterion 8 (polynomial stand-ins)", ok)


def test_criterion_9_cli_goldens(capsys):
    ok = main(["euler", "--n", "4"]) == 0
    ok = ok and capsys.readouterr().out == "x+11x^2+11x^3+x^4\n"
    ok = ok and main(["w", "--n", "3", "--m", "2", "--format", "csv"]) == 0
    ok = ok and capsys.readouterr().out == "4,1,0\n4,6,4\n0,1,4\n"
    ok = ok and main(["verify", "all", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    ok = ok and "0 failed" in out
    with capsys.disabled():
        report("criterion 9 (CLI goldens and verify)", ok)
