"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every comparison is exact rational equality; there are no tolerances.
Criteria 1, 2 and 7 reproduce the paper's displayed matrices, Eulerian
polynomials and Dirichlet tables; criterion 9 runs the CLI goldens and the
one full-size `verify all --seed 7` of tier-1.  The identity sweeps that
criteria 3-6 and 8 repeated live in the module tests and in
verify.REGISTRY, whose rows criterion 9 runs at their default sizes.
"""

from fractions import Fraction as F
from math import factorial

import golden_data as gd
from riordan_gep import dirichlet as ds
from riordan_gep import gep, lagrange, wmatrix
from riordan_gep.cli import main
from riordan_gep.matrix import RMatrix
from riordan_gep.series import Poly
from riordan_gep.suites.dirichlet import dir_palindromy_check, dir_u_poly, rising_factorial_poly
from riordan_gep.verify import _value


def report(name, ok):
    print(f"{name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


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
        ok = ok and _value(gep.eulerian_poly(n), 1) == factorial(n)
    report("criterion 2 (Eulerian polynomials)", ok)


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
            expected = expected * rising_factorial_poly(mult) * F(1, factorial(mult))
        ok = ok and dir_u_poly(log_z64, n) == expected * factorial(n)
    for p in range(1, 4):
        for r in range(1, 4):
            g = ds.carlitz_hoggatt(r, p)
            ok = ok and _value(g, 1) == F(factorial(p * r), factorial(p) ** r)
            dir_palindromy_check(r, p)
    for n in range(1, 6):
        ok = ok and ds.carlitz_hoggatt(n, 1) == gep.eulerian_poly(n)
    report("criterion 7 (Dirichlet suite)", ok)


def test_criterion_9_cli_goldens(capsys):
    ok = main(["euler", "--n", "4"]) == 0
    ok = ok and capsys.readouterr().out == "x+11x^2+11x^3+x^4\n"
    ok = ok and main(["w", "--n", "3", "--m", "2", "--format", "csv"]) == 0
    ok = ok and capsys.readouterr().out == "4,1,0\n4,6,4\n0,1,4\n"
    ok = ok and main(["verify", "all", "--seed", "7"]) == 0
    ok = ok and "0 failed" in capsys.readouterr().out
    report("criterion 9 (CLI goldens and verify)", ok)
