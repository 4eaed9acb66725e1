import random
from fractions import Fraction as F
from math import comb

import pytest

import golden_data as gd
from riordan_gep.errors import InsufficientOrder, KindMismatch
from riordan_gep.matrix import RMatrix
from riordan_gep.riordan import (
    RiordanArray,
    RiordanKind,
    decimate,
    entry,
    exp_conjugate,
    exp_conjugate_inv,
    pascal_power,
    riordan_mul,
    row,
    row_numerator,
    window,
)
from riordan_gep.series import Series, exp, geometric, reciprocal

ORD = RiordanKind.ORDINARY
SQ = RiordanKind.SQUARE
EXP = RiordanKind.EXPONENTIAL


def pascal_array(order=12):
    return RiordanArray(ORD, geometric(order), geometric(order) * Series.x(order))


def test_pascal_entries():
    assert entry(pascal_array(), 4, 2) == 6
    assert window(pascal_array(), 5, 5) == gd.PASCAL5


def test_pascal_window_at_large_size():
    assert window(pascal_array(42), 40, 40) == pascal_power(1, 40)


def test_exponential_window_is_conjugated_ordinary_window():
    rng = random.Random(19)
    f = _random_series(rng, 12, first=1)
    g = Series([0, 1] + [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(11)])
    ordinary = window(RiordanArray(ORD, f, g), 10, 8)
    expo = RiordanArray(EXP, f, g)
    got = window(expo, 10, 8)
    assert got == exp_conjugate(ordinary)
    assert all(got[n, k] == entry(expo, n, k) for n in range(10) for k in range(8))


def test_square_reciprocal_shift_entries():
    arr = RiordanArray(SQ, Series.one(8), reciprocal(Series([1, 1], order=8)))
    assert entry(arr, 3, 3) == -10
    assert window(arr, 4, 4) == gd.RECIP_SHIFT_SQUARE


def test_exponential_pascal():
    arr = RiordanArray(EXP, exp(Series.x(8)), Series.x(8))
    for n in range(5):
        for k in range(5):
            assert entry(arr, n, k) == comb(n, k)


def test_shift_square_rows():
    arr = RiordanArray(SQ, Series.one(8), Series([1, 1], order=8))
    assert row(arr, 2, 5).coeffs == tuple(map(F, (0, 0, 1, 3, 6)))
    assert window(arr, 4, 4) == gd.SHIFT_SQUARE


def test_fibonacci_square_row():
    f = reciprocal(Series([1, -1, -1], order=10))
    arr = RiordanArray(SQ, f, f)
    assert row(arr, 3, 5).coeffs == tuple(map(F, (3, 10, 22, 40, 65)))
    assert window(arr, 5, 5) == gd.FIB_SQUARE


def test_identity_array_rows():
    ident = RiordanArray(ORD, Series.one(8), Series.x(8))
    for n in range(5):
        r = row(ident, n, 6)
        assert r.degree() == n and r.coeff(n) == 1


def test_mul_pascal_squared():
    p = pascal_array()
    assert window(riordan_mul(p, p), 6, 6) == pascal_power(2, 6)


def test_mul_identity_neutral():
    p = pascal_array()
    ident = RiordanArray(ORD, Series.one(12), Series.x(12))
    prod = riordan_mul(p, ident)
    assert window(prod, 6, 6) == window(p, 6, 6)


def test_mul_shift_completes_square():
    # (1, a-1)(1, 1+x) = (1, a) for a = (1+x)/(1-x)
    order = 12
    a = Series([1, 1], order=order) * geometric(order)
    left = RiordanArray(ORD, Series.one(order), a - 1)
    shift = RiordanArray(SQ, Series.one(order), Series([1, 1], order=order))
    prod = riordan_mul(left, shift)
    assert prod.kind is SQ
    assert window(prod, 5, 5) == window(RiordanArray(SQ, Series.one(order), a), 5, 5)


def test_mul_kind_mismatch():
    sq = RiordanArray(SQ, Series.one(6), Series([1, 1], order=6))
    with pytest.raises(KindMismatch):
        riordan_mul(sq, sq)


class TestPascalPower:
    def test_unit_is_binomial(self):
        assert pascal_power(1, 5) == gd.PASCAL5

    def test_zero_is_identity(self):
        assert pascal_power(0, 6) == RMatrix.identity(6)

    def test_group_inverse(self):
        assert pascal_power(1, 6) * pascal_power(-1, 6) == RMatrix.identity(6)

    def test_group_law_random(self):
        rng = random.Random(5)
        for _ in range(10):
            p = F(rng.randint(-6, 6), rng.randint(1, 4))
            q = F(rng.randint(-6, 6), rng.randint(1, 4))
            assert pascal_power(p, 6) * pascal_power(q, 6) == pascal_power(p + q, 6)


class TestDecimate:
    def test_step_two_layout(self):
        b = Series(range(10, 18))  # b_k = 10 + k, all distinct
        m = decimate(b, 2, 4, 4)
        expected = [
            [11, 10, 0, 0],
            [13, 12, 11, 10],
            [15, 14, 13, 12],
            [17, 16, 15, 14],
        ]
        assert m == RMatrix(expected)

    def test_step_one_is_toeplitz(self):
        b = Series([3, 1, 4, 1, 5])
        m = decimate(b, 1, 5, 5)
        for i in range(5):
            for j in range(5):
                assert m[i, j] == (b.coeff(i - j) if i >= j else 0)

    def test_binomial_fourth_power(self):
        b = Series([comb(4, k) for k in range(5)], order=7)
        assert decimate(b, 2, 3, 3) == RMatrix(gd.W_TABLES[(3, 2)])

    def test_insufficient_order(self):
        with pytest.raises(InsufficientOrder):
            decimate(Series([1, 2, 3]), 2, 4, 4)


class TestExpConjugation:
    def test_sends_exp_window_to_pascal(self):
        arr = RiordanArray(ORD, exp(Series.x(8)), Series.x(8))
        assert exp_conjugate(window(arr, 5, 5)) == gd.PASCAL5

    def test_identity_fixed(self):
        assert exp_conjugate(RMatrix.identity(4)) == RMatrix.identity(4)

    def test_round_trip(self):
        m = RMatrix([[1, 2], [3, 4]])
        assert exp_conjugate_inv(exp_conjugate(m)) == m


def _random_series(rng, order, first=None):
    coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order + 1)]
    if first is not None:
        coeffs[0] = F(first)
    return Series(coeffs)


def test_fundamental_theorem_on_windows():
    rng = random.Random(11)
    size, order = 7, 18
    for _ in range(5):
        f = _random_series(rng, order, first=1)
        g = Series([0, 1] + [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order - 1)])
        A = RiordanArray(ORD, f, g)
        b = _random_series(rng, order, first=1)
        a = _random_series(rng, order, first=1)
        B = RiordanArray(SQ, b, a)
        assert window(riordan_mul(A, B), size, size) == window(A, size, size) * window(
            B, size, size
        )


def test_row_numerator_polynomiality():
    rng = random.Random(3)
    for n in (2, 4, 6):
        a = _random_series(rng, 2 * n + 2, first=1)
        arr = RiordanArray(SQ, Series.one(2 * n + 2), a)
        num = row_numerator(arr, n)
        assert num.degree() <= n


def test_row_numerator_needs_enough_coefficients():
    small = RiordanArray(SQ, Series.one(2), Series([1, 1, 1], order=2))
    with pytest.raises(InsufficientOrder):
        row_numerator(small, 3)


def test_construction_invariants():
    with pytest.raises(KindMismatch):
        RiordanArray(ORD, Series.one(4), Series([1, 1], order=4))  # g(0) != 0
    with pytest.raises(KindMismatch):
        RiordanArray(ORD, Series.x(4), Series.x(4))  # f(0) = 0
    with pytest.raises(KindMismatch):
        RiordanArray(ORD, Series.one(4), Series([0, 0, 1], order=4))  # g'(0) = 0
    with pytest.raises(KindMismatch):
        RiordanArray(SQ, Series.one(4), Series([0, 1], order=4))  # a(0) != 1
