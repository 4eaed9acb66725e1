import random
from fractions import Fraction as F

import pytest

import golden_data as gd
from riordan_gep.errors import DegreeTooHigh, OutOfRange
from riordan_gep.gep import GepContext, matrix_u, matrix_u_inv
from riordan_gep.matrix import RMatrix
from riordan_gep.series import Poly, Series, binomial_poly, geometric, power
from riordan_gep.verify import w_identities, w_restriction
from riordan_gep.wmatrix import w_alt_form, w_apply, w_matrix


def test_all_displayed_tables():
    for (n, m), rows in gd.W_TABLES.items():
        assert w_matrix(n, m).matrix == RMatrix(rows)


def test_column_sums():
    for n in range(1, 11):
        for m in range(1, 6):
            assert all(s == F(m) ** n for s in w_matrix(n, m).matrix.col_sums())


def test_column_sums_at_large_n():
    assert all(s == 3**40 for s in w_matrix(40, 3).matrix.col_sums())


def test_decimation_equals_conjugation():
    # W_(n,m) = U_n diag(m, m^2, ..., m^n) U_n^-1
    for n in range(1, 9):
        for m in range(1, 5):
            scale = RMatrix.diagonal([F(m) ** (p + 1) for p in range(n)])
            assert w_matrix(n, m).matrix == matrix_u(n) * scale * matrix_u_inv(n)


def test_entries_are_nonnegative_integers():
    for n in range(1, 8):
        for m in range(1, 5):
            for row in w_matrix(n, m).matrix.entries:
                for e in row:
                    assert e.denominator == 1 and e >= 0


def test_square_of_w32():
    w32 = w_matrix(3, 2).matrix
    assert w32 * w32 == RMatrix(gd.W_TABLES[(3, 4)])


def test_eulerian_eigenvector():
    vec = (F(1), F(4), F(1))
    assert w_matrix(3, 2).matrix.apply(vec) == (8, 32, 8)
    assert w_matrix(3, 3).matrix.apply(vec) == (27, 108, 27)


def test_identities_and_commutation():
    for n in range(1, 9):
        for m, p in ((2, 2), (2, 3), (3, 2), (4, 4)):
            assert w_identities(n, m, p)


def test_restriction_examples():
    assert w_restriction(3, 2, 1)
    assert w_restriction(3, 2, 2)
    assert w_restriction(3, 2, 0)  # degenerate case: the identity is W = W
    with pytest.raises(OutOfRange):
        w_restriction(3, 2, 3)


def test_restriction_sweep():
    for n in range(2, 8):
        for m in (2, 3):
            for p in range(1, n):
                assert w_restriction(n, m, p)


def test_alt_form_sandwich():
    # the middle factor for n=3, m=2 is the displayed triangular matrix
    from riordan_gep.gep import matrix_v, matrix_v_inv

    middle = RMatrix([[2, 1, 0], [0, 4, 4], [0, 0, 8]])
    assert matrix_v_inv(3) * middle * matrix_v(3) == w_matrix(3, 2).matrix
    assert w_alt_form(3, 2) == w_matrix(3, 2).matrix


def test_alt_form_matches_everywhere():
    for n in range(1, 9):
        for m in range(1, 5):
            assert w_alt_form(n, m) == w_matrix(n, m).matrix


def test_alt_form_unit_is_identity():
    for n in range(1, 6):
        assert w_alt_form(n, 1) == RMatrix.identity(n)


class TestApply:
    def test_unit_m_is_identity(self):
        p = Poly([1, 2, 3])
        assert w_apply(w_matrix(4, 1), p) == p

    def test_geometric_base_first_column(self):
        # alpha~ of 1/(1-x) is 1; the image under W_(3,2) is its first column
        got = w_apply(w_matrix(3, 2), Poly([1]))
        assert got == Poly([4, 4, 0])

    def test_degree_bound(self):
        with pytest.raises(DegreeTooHigh):
            w_apply(w_matrix(3, 2), Poly([0, 0, 0, 1]))

    def test_moves_alpha_to_power_alpha(self):
        rng = random.Random(37)
        for n in range(1, 7):
            for m in (2, 3):
                coeffs = [F(1)] + [
                    F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2 * n + 2)
                ]
                a = Series(coeffs)
                alpha_t = GepContext(a, n).alpha.shift_down(1)
                moved = w_apply(w_matrix(n, m), alpha_t)
                direct = GepContext(power(a, m), n).alpha.shift_down(1)
                assert moved == direct


def test_odd_part_identity():
    # x alpha~^(2)(x^2) = ((1+x)^(n+1) - (1-x)^(n+1)) / 2 for a = 1/(1-x)
    for n in range(1, 11):
        col = w_apply(w_matrix(n, 2), Poly([1]))
        spread = Poly([col.coeff(k // 2) if k % 2 == 0 else 0 for k in range(2 * n + 1)])
        lhs = spread.shift_up(1)
        rhs = (binomial_poly(n + 1, 1) - binomial_poly(n + 1, -1)) * F(1, 2)
        assert lhs == rhs


def test_corresponds_to_squared_geometric():
    # the same alpha~^(2) arises directly from a = (1-x)^(-2)
    order = 20
    sq = power(geometric(order), 2)
    for n in (2, 3, 5):
        direct = GepContext(sq, n).alpha.shift_down(1)
        assert direct == w_apply(w_matrix(n, 2), Poly([1]))
