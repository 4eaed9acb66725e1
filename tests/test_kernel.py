"""The integer product kernel against the schoolbook algorithms it replaced.

The reference functions below are the Fraction double loop and the O(n^2)
recurrences that Series.__mul__, Poly.__mul__, reciprocal, log and exp used
before the Kronecker product and Newton iteration; every comparison is
exact equality.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordan_gep.series import Poly, Series, exp, log, reciprocal

# ---------------------------------------------------------------- references


def ref_mul(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    out = [F(0)] * (n + 1)
    for i, x in enumerate(a.coeffs[: n + 1]):
        if x == 0:
            continue
        for j in range(n + 1 - i):
            y = b.coeffs[j]
            if y != 0:
                out[i + j] += x * y
    return Series(out)


def ref_poly_mul(p: Poly, q: Poly) -> Poly:
    dp, dq = p.degree(), q.degree()
    if dp < 0 or dq < 0:
        return Poly()
    out = [F(0)] * (dp + dq + 1)
    for i in range(dp + 1):
        for j in range(dq + 1):
            out[i + j] += p.coeffs[i] * q.coeffs[j]
    return Poly(out)


def ref_reciprocal(a: Series) -> Series:
    inv0 = 1 / a.coeffs[0]
    out = [inv0]
    for n in range(1, a.order + 1):
        s = sum((a.coeffs[k] * out[n - k] for k in range(1, n + 1)), F(0))
        out.append(-inv0 * s)
    return Series(out)


def ref_log(a: Series) -> Series:
    # from l'*a = a':  n*l_n = n*a_n - sum_{j<n} j*l_j*a_{n-j}
    out = [F(0)]
    for n in range(1, a.order + 1):
        s = n * a.coeffs[n] - sum((j * out[j] * a.coeffs[n - j] for j in range(1, n)), F(0))
        out.append(s / n)
    return Series(out)


def ref_exp(a: Series) -> Series:
    # from e' = a'*e:  n*e_n = sum_{k<=n} k*a_k*e_{n-k}
    out = [F(1)]
    for n in range(1, a.order + 1):
        s = sum((k * a.coeffs[k] * out[n - k] for k in range(1, n + 1)), F(0))
        out.append(s / n)
    return Series(out)


# ---------------------------------------------------------------- inputs


def rand_frac(rng, bits=8, den_bits=8):
    return F(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**den_bits))


def rand_series(rng, order, bits=8, den_bits=8, a0=None):
    cs = [rand_frac(rng, bits, den_bits) for _ in range(order + 1)]
    if a0 is not None:
        cs[0] = F(a0)
    return Series(cs)


def sparse_series(rng, order):
    """Shapes the expression evaluator builds: constants, x, c*x^k."""
    kind = rng.choice(("constant", "x", "monomial", "binomial"))
    if kind == "constant":
        return Series.constant(rand_frac(rng), order)
    if kind == "x":
        return Series.x(order)
    cs = [F(0)] * (order + 1)
    cs[rng.randint(0, order)] = rand_frac(rng)
    if kind == "binomial":
        cs[0] = F(1)
    return Series(cs)


fracs = st.fractions(max_denominator=10**6).filter(lambda q: abs(q.numerator) < 10**12)
coeff_lists = st.lists(fracs, min_size=1, max_size=24)


# ---------------------------------------------------------------- products


class TestProduct:
    def test_order_zero(self):
        assert Series([F(-3, 4)]) * Series([F(5, 6)]) == Series([F(-5, 8)])
        assert ref_mul(Series([7]), Series([0])) == Series([7]) * Series([0])

    def test_different_orders_truncate_to_smaller(self):
        rng = random.Random(1)
        for lo, hi in ((0, 5), (3, 17), (16, 40)):
            a, b = rand_series(rng, lo), rand_series(rng, hi)
            assert (a * b).order == lo
            assert a * b == ref_mul(a, b) == b * a

    def test_all_zero_operands(self):
        rng = random.Random(2)
        z = Series.zero(9)
        a = rand_series(rng, 9)
        assert a * z == z * a == z * z == ref_mul(a, z) == Series.zero(9)
        assert Poly([0, 0]) * Poly([1, 2]) == Poly() == Poly([3]) * Poly()

    def test_sparse_operands(self):
        rng = random.Random(3)
        for order in (0, 1, 2, 7, 64, 200):
            for _ in range(6):
                a, b = sparse_series(rng, order), rand_series(rng, order)
                assert a * b == ref_mul(a, b)
                c = sparse_series(rng, order)
                assert a * c == ref_mul(a, c)

    def test_negative_values_and_large_denominators(self):
        rng = random.Random(4)
        for order in (1, 5, 30):
            a = rand_series(rng, order, bits=40, den_bits=90)
            b = Series([-abs(c) for c in rand_series(rng, order, bits=3, den_bits=120).coeffs])
            assert a * b == ref_mul(a, b)
            assert a * a == ref_mul(a, a)

    def test_product_that_cancels_to_zero(self):
        a = Series([1, 1], order=6)
        b = Series([0, 0, 1, -1], order=6)
        assert a * b == ref_mul(a, b)
        assert Poly([1, 1]) * Poly([1, -1]) == Poly([1, 0, -1])

    # Wide denominators stay at low orders: their sums make the reference's
    # Fractions grow to thousands of bits and it would take minutes.
    @pytest.mark.parametrize("order, den_bits", [(0, 60), (1, 60), (2, 60), (63, 60), (64, 3), (255, 3), (512, 1)])
    def test_dense_kbit_operands(self, order, den_bits):
        rng = random.Random(f"dense:{order}")
        a = rand_series(rng, order, bits=1000, den_bits=den_bits)
        b = rand_series(rng, order, bits=1000, den_bits=den_bits)
        assert a * b == ref_mul(a, b)

    def test_poly_products(self):
        rng = random.Random(5)
        for da, db in ((0, 0), (0, 9), (4, 11), (30, 2)):
            p = Poly(rand_series(rng, da, bits=30, den_bits=20).coeffs)
            q = Poly(list(rand_series(rng, db).coeffs) + [0, 0])
            assert p * q == ref_poly_mul(p, q) == q * p

    def test_coefficients_stay_fractions(self):
        prod = Series([1, F(1, 2)], order=3) * Series([2, 4], order=3)
        assert type(prod.coeffs) is tuple
        assert all(type(c) is F for c in prod.coeffs)
        assert all(type(c) is F for c in (Poly([1, 2]) * Poly([3])).coeffs)

    @settings(max_examples=150, deadline=None)
    @given(a=coeff_lists, b=coeff_lists)
    def test_generated_series(self, a, b):
        sa, sb = Series(a), Series(b)
        assert sa * sb == ref_mul(sa, sb)

    @settings(max_examples=150, deadline=None)
    @given(a=coeff_lists, b=coeff_lists)
    def test_generated_polys(self, a, b):
        assert Poly(a) * Poly(b) == ref_poly_mul(Poly(a), Poly(b))


# ---------------------------------------------------------------- Newton


class TestNewton:
    def test_order_zero(self):
        assert reciprocal(Series([F(-2, 3)])) == Series([F(-3, 2)])
        assert log(Series([1])) == Series([0])
        assert exp(Series([0])) == Series([1])

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 7, 8, 33, 100])
    def test_seeded_against_recurrences(self, order):
        rng = random.Random(f"newton:{order}")
        a = rand_series(rng, order, bits=20, den_bits=20)
        while a.coeffs[0] == 0:
            a = rand_series(rng, order, bits=20, den_bits=20)
        assert reciprocal(a) == ref_reciprocal(a)
        unit = rand_series(rng, order, a0=1)
        assert log(unit) == ref_log(unit)
        nil = rand_series(rng, order, a0=0)
        assert exp(nil) == ref_exp(nil)

    def test_sparse_inputs(self):
        rng = random.Random(6)
        for order in (1, 5, 40):
            one_plus = Series([1, 0, 0, F(-7, 3)], order=order)
            assert reciprocal(one_plus) == ref_reciprocal(one_plus)
            assert log(one_plus) == ref_log(one_plus)
            mono = Series([0] * min(order, 2) + [F(5, 2)], order=order)
            assert exp(mono) == ref_exp(mono)
            const = sparse_series(rng, order)
            if const.coeffs[0] != 0:
                assert reciprocal(const) == ref_reciprocal(const)

    def test_large_denominators(self):
        rng = random.Random(7)
        a = rand_series(rng, 24, bits=60, den_bits=100)
        assert reciprocal(a) == ref_reciprocal(a)
        unit = rand_series(rng, 24, bits=60, den_bits=100, a0=1)
        assert log(unit) == ref_log(unit)
        assert exp(log(unit)) == unit

    @settings(max_examples=60, deadline=None)
    @given(cs=st.lists(fracs, min_size=0, max_size=20), a0=fracs.filter(bool))
    def test_generated(self, cs, a0):
        assert reciprocal(Series([a0] + cs)) == ref_reciprocal(Series([a0] + cs))
        assert log(Series([1] + cs)) == ref_log(Series([1] + cs))
        assert exp(Series([0] + cs)) == ref_exp(Series([0] + cs))
