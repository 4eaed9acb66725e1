"""The exact integer kernels against the algorithms they replaced.

The reference functions below are the Fraction double loop and the O(n^2)
recurrences that Series.__mul__, Poly.__mul__, reciprocal, log and exp used
before the Kronecker product and Newton iteration; the Fraction divisor
convolution, divisor-sum inverse and decomposition sums, the trial-division
factorizations and the linear-scan decomposition enumeration that the
Dirichlet layer used before its integer kernels and sieve; the
integer power and column loop that started from a product by 1; and the
Fraction dot products of RMatrix.__mul__ and apply before their
common-denominator kernel; the product of n linear factors per column
that matrix_u_inv used before its column recurrence; and the binomial shift
matrix between U_n and U_n^-1, two RMatrix products, that abeta_matrix used
before it shifted the columns of U_n^-1.  The same references, with
ref_exp(phi ref_log(a)) for fractional powers, check the O(n t) recurrences
that reciprocal, log, exp and power run on operands with at most
_SPARSE_TERMS nonzero terms past the constant, and a product counter pins
which operands take them and which still run Newton; ref_product checks
the product's trimming of trailing zeros and its one-term scalar path.
Every comparison is exact equality.
"""

import random
import tracemalloc
from fractions import Fraction as F
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordan_gep import gep, series
from riordan_gep.dirichlet import (
    DirichletSeries,
    big_omega,
    dirichlet_exp,
    dirichlet_inv,
    dirichlet_log,
    dirichlet_mul,
    divisors,
    factorize,
)
from riordan_gep.errors import ConstantTermNotOne, NonzeroConstantTerm, ZeroConstantTerm
from riordan_gep.matrix import RMatrix
from riordan_gep.riordan import _columns
from riordan_gep.series import Poly, Series, exp, log, power, reciprocal
from riordan_gep.stirling import mult_decompositions

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

    # Orders up to _SPARSE_TERMS have at most that many terms past the
    # constant, so they take the sparse recurrences; the larger ones run Newton.
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 7, 8, 9, 12, 16, 33, 100])
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


# ---------------------------------------------------------------- sparse operands


T = series._SPARSE_TERMS


def ref_product(a, b, length: int) -> list:
    out = [F(0)] * length
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < length:
                out[i + j] += x * y
    return out


def ref_int_power(a: Series, e: int) -> Series:
    out = Series.one(a.order)
    for _ in range(abs(e)):
        out = ref_mul(out, a)
    return ref_reciprocal(out) if e < 0 else out


def ref_frac_power(a: Series, phi) -> Series:
    return ref_exp(ref_log(a) * phi)


def with_terms(rng, order, t, a0):
    """a_0 = a0 plus t nonzero seeded terms at distinct positions 1..order."""
    cs = [F(0)] * (order + 1)
    cs[0] = F(a0)
    for k in rng.sample(range(1, order + 1), t):
        cs[k] = rand_frac(rng) or F(1)
    return Series(cs)


def count_products(monkeypatch):
    calls = []
    product = series._product
    monkeypatch.setattr(series, "_product", lambda *args: calls.append(1) or product(*args))
    return calls


class TestSparse:
    @pytest.mark.parametrize("order, t", [(0, 0), (1, 0), (1, 1), (2, 2), (9, 0), (9, 3), (9, T), (9, T + 1),
                                          (30, 1), (30, T), (30, T + 1), (80, 2), (80, T), (80, T + 1)])
    def test_against_references(self, order, t):
        rng = random.Random(f"sparse:{order}:{t}")
        a = with_terms(rng, order, t, rand_frac(rng) or F(-5, 3))
        assert reciprocal(a) == ref_reciprocal(a)
        for e in (-3, -1, 0, 1, 2, 5):
            assert power(a, e) == ref_int_power(a, e)
        unit = with_terms(rng, order, t, 1)
        assert log(unit) == ref_log(unit)
        for phi in (F(1, 2), F(-1, 3), F(5, 3), F(-7, 2)):
            assert power(unit, phi) == ref_frac_power(unit, phi)
        nil = with_terms(rng, order, t, 0)
        assert exp(nil) == ref_exp(nil)

    def test_terms_beyond_the_order(self):
        # x^5 enters the sums from n = 5 on; x^16 is cut by the truncation
        a = Series([1, 0, 0, 0, 0, F(3, 2)] + [0] * 10 + [-2], order=12)
        for e in (-2, 2, 3):
            assert power(a, e) == ref_int_power(a, e)
        assert power(a, F(-1, 3)) == ref_frac_power(a, F(-1, 3))
        assert reciprocal(a) == ref_reciprocal(a) and log(a) == ref_log(a)
        assert exp(a - 1) == ref_exp(a - 1)
        assert power(Series([2, 0, 1], order=1), 3) == Series([8, 0])

    def test_errors_are_unchanged(self):
        with pytest.raises(ZeroConstantTerm):
            power(Series([0, 1], order=5), -1)
        with pytest.raises(ConstantTermNotOne):
            power(Series([2, 1], order=5), F(1, 2))
        with pytest.raises(ConstantTermNotOne):
            log(Series([2, 1], order=5))
        with pytest.raises(NonzeroConstantTerm):
            exp(Series([1, 1], order=5))

    def test_sparse_routes_make_no_product(self, monkeypatch):
        calls = count_products(monkeypatch)
        a = Series([1, F(-2, 3), 0, F(5, 7)], order=500)
        reciprocal(a), log(a), exp(a - 1), power(a, F(2, 5)), power(a * 3, -3)
        assert calls == []
        power(a, 4)  # nonnegative integer powers within the order square
        assert len(calls) == 2

    @pytest.mark.parametrize("tail, phi", [((0, 0, F(-5, 7)), 4), ((0, 0, F(-5, 7)), 12),
                                           ((F(1, 2), 0, F(-5, 7)), 40)])
    def test_integer_power_at_and_past_the_order(self, monkeypatch, tail, phi):
        # a^phi has degree 3 phi: below order 3 phi squaring multiplies short
        # polynomials; from there on its products are full size, so the
        # recurrence runs
        calls = count_products(monkeypatch)
        for a0 in (1, F(-2, 3)):
            for order, squares in ((3 * phi + 1, True), (3 * phi, False), (3 * phi - 1, False)):
                a = Series((a0,) + tail, order=order)
                want = ref_power(a, phi)
                calls.clear()
                assert power(a, phi) == want
                assert bool(calls) is squares, (a0, order)

    def test_many_terms_and_a_small_power_still_square(self, monkeypatch):
        # 6 terms against phi = 6: squaring is cheaper even past the order
        a = Series([1, 1, 1, 1, 1, 1, 1], order=20)
        want = ref_power(a, 6)
        calls = count_products(monkeypatch)
        assert power(a, 6) == want and calls

    def test_zero_constant_term_still_squares(self, monkeypatch):
        a = Series([0, 1, F(2, 3)], order=9)  # no recurrence without a_0
        want = ref_power(a, 7)
        calls = count_products(monkeypatch)
        assert power(a, 7) == want and calls

    def test_dense_operands_run_newton(self, monkeypatch):
        rng = random.Random(9)
        a = with_terms(rng, 30, T + 1, 1)
        calls = count_products(monkeypatch)
        for f in (reciprocal, log, lambda s: exp(s - 1), lambda s: power(s, F(1, 3))):
            calls.clear()
            f(a)
            assert len(calls) > 1

    def test_product_trims_and_scales(self):
        rng = random.Random(10)
        for _ in range(200):
            a = [rand_frac(rng) if rng.random() < 0.6 else F(0) for _ in range(rng.randint(1, 12))]
            b = [rand_frac(rng) if rng.random() < 0.6 else F(0) for _ in range(rng.randint(1, 12))]
            if rng.random() < 0.3:  # one term c x^k, possibly past the output
                b = [F(0)] * rng.randint(0, 12) + [rand_frac(rng) or F(1)]
            b += [F(0)] * rng.randint(0, 4)
            for length in {1, len(a) + len(b) - 1, rng.randint(1, len(a) + len(b) - 1)}:
                got = series._product(a, b, length)
                assert got == ref_product(a, b, length) == series._product(b, a, length)
                assert len(got) == length and all(type(c) is F for c in got)


# ---------------------------------------------------------------- products by one


def ref_power(a: Series, e: int) -> Series:
    result = Series.one(a.order)
    base = a
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def ref_columns(f: Series, g: Series, cols: int) -> list:
    out = []
    for k in range(cols):
        out.append(out[-1] * g if k else f)
    return out


class TestProductsByOne:
    @pytest.mark.parametrize("order", [0, 1, 2, 5, 17, 40])
    def test_integer_power(self, order):
        rng = random.Random(f"power:{order}")
        a = rand_series(rng, order, bits=20, den_bits=20)
        for e in range(9):
            got = power(a, e)
            assert got == ref_power(a, e) and got.order == a.order
        unit = rand_series(rng, order, a0=F(-3, 2))
        assert power(unit, -3) == ref_power(reciprocal(unit), 3)

    @pytest.mark.parametrize("f_order, g_order", [(0, 0), (3, 3), (2, 9), (9, 2), (12, 30), (30, 12)])
    def test_columns(self, f_order, g_order):
        rng = random.Random(f"columns:{f_order}:{g_order}")
        g = rand_series(rng, g_order, a0=0)
        for f in (Series.one(f_order), rand_series(rng, f_order), Series([1, 0, 5], order=f_order)):
            got, want = _columns(f, g, 5), ref_columns(f, g, 5)
            assert got == want
            assert [c.order for c in got] == [c.order for c in want]
        assert _columns(Series.one(f_order), g, 0) == []

    def test_no_product_by_one(self, monkeypatch):
        calls = count_products(monkeypatch)
        g = Series([0, 1, F(2, 3)], order=6)
        power(g, 1)
        _columns(Series.one(4), g, 2)
        assert calls == []
        power(g, 3)
        assert len(calls) == 2


# ---------------------------------------------------------------- Dirichlet


def ref_factorize(n: int) -> dict:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def ref_divisors(n: int) -> list:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def ref_mult_decompositions(n: int, m: int) -> list:
    if n < 2 or m < 1:
        return []
    out = []

    def rec(remaining, parts_left, max_factor, acc):
        if parts_left == 0:
            if remaining == 1:
                out.append(dict(acc))
            return
        f = min(max_factor, remaining)
        while f >= 2:
            if remaining % f == 0:
                acc[f] = acc.get(f, 0) + 1
                rec(remaining // f, parts_left - 1, f, acc)
                if acc[f] == 1:
                    del acc[f]
                else:
                    acc[f] -= 1
            f -= 1

    rec(n, m, n, {})
    return out


def ref_dirichlet_mul(a: DirichletSeries, b: DirichletSeries) -> DirichletSeries:
    n_max = min(a.n_max, b.n_max)
    out = [F(0)] * n_max
    for i in range(1, n_max + 1):
        ai = a.coeffs[i - 1]
        if ai == 0:
            continue
        for j in range(1, n_max // i + 1):
            bj = b.coeffs[j - 1]
            if bj != 0:
                out[i * j - 1] += ai * bj
    return DirichletSeries(out)


def ref_dirichlet_inv(a: DirichletSeries) -> DirichletSeries:
    out = [F(1)] + [F(0)] * (a.n_max - 1)
    for n in range(2, a.n_max + 1):
        s = F(0)
        for d in ref_divisors(n):
            if d > 1:
                s += a.coeffs[d - 1] * out[n // d - 1]
        out[n - 1] = -s
    return DirichletSeries(out)


def ref_exp_term(coeffs, n: int) -> F:
    total = F(0)
    for m in range(1, sum(ref_factorize(n).values()) + 1):
        for decomp in ref_mult_decompositions(n, m):
            term = F(1)
            for factor, mult in decomp.items():
                term *= coeffs[factor - 1] ** mult / factorial(mult)
            total += term
    return total


def ref_dirichlet_log(a: DirichletSeries) -> DirichletSeries:
    out = [F(0)] * a.n_max
    for n in range(2, a.n_max + 1):
        out[n - 1] = a.coeffs[n - 1] - ref_exp_term(out, n)
    return DirichletSeries(out)


def ref_dirichlet_exp(a: DirichletSeries) -> DirichletSeries:
    return DirichletSeries([F(1)] + [ref_exp_term(a.coeffs, n) for n in range(2, a.n_max + 1)])


def rand_dirichlet(rng, n, a1, dens):
    """a_1 = a1, then about 30% zeros and signed 24-bit numerators over `dens()`."""
    cs = [F(0) if rng.random() < 0.3 else F(rng.randint(-(2**24), 2**24), dens()) for _ in range(n)]
    cs[0] = F(a1)
    return DirichletSeries(cs)


def wide(rng):
    return lambda: rng.randint(2**60, 2**64)


def denominators(rng, n):
    """Independent wide denominators while n is small; past that, wide ones
    drawn from a pool of four, whose lcm (and so the common denominator) stays
    at 256 bits instead of growing with n.  dirichlet_mul still puts each
    operand over one common denominator, which grows with n on independent
    wide ones (open in ROADMAP item 1), so its operands come from the pool."""
    if n <= 40:
        return wide(rng)
    pool = [rng.randint(2**60, 2**64) for _ in range(4)] + [1, 2, 3]
    return lambda: rng.choice(pool)


DIRICHLET_SIZES = [1, 2, 3, 4, 5, 8, 13, 30, 40, 64, 128, 300, 600]


class TestDirichlet:
    @pytest.mark.parametrize("n", DIRICHLET_SIZES)
    def test_mul_and_inverse(self, n):
        rng = random.Random(f"dirichlet:{n}")
        dens = denominators(rng, n)
        a, b = rand_dirichlet(rng, n, 1, dens), rand_dirichlet(rng, n, F(-7, 3), dens)
        assert dirichlet_mul(a, b) == ref_dirichlet_mul(a, b)
        assert dirichlet_mul(b, b) == ref_dirichlet_mul(b, b)
        assert dirichlet_inv(a) == ref_dirichlet_inv(a)
        # inv keeps each index over the denominators of its own divisors
        independent = rand_dirichlet(rng, n, 1, wide(rng))
        assert dirichlet_inv(independent) == ref_dirichlet_inv(independent)
        small = rand_dirichlet(rng, n, 1, lambda: rng.randint(1, 3))
        assert dirichlet_inv(small) == ref_dirichlet_inv(small)
        assert dirichlet_mul(a, small) == ref_dirichlet_mul(a, small)

    def test_unequal_lengths_zeros_and_zeta(self):
        rng = random.Random(8)
        a = rand_dirichlet(rng, 50, 2, lambda: rng.randint(1, 9))
        b = rand_dirichlet(rng, 31, 0, lambda: rng.randint(1, 9))
        assert dirichlet_mul(a, b) == ref_dirichlet_mul(a, b) == dirichlet_mul(b, a)
        zero = DirichletSeries([0] * 20)
        assert dirichlet_mul(a, zero) == zero == ref_dirichlet_mul(zero, a)
        z = DirichletSeries.zeta(600)
        assert dirichlet_inv(z) == ref_dirichlet_inv(z)
        assert dirichlet_mul(z, z) == ref_dirichlet_mul(z, z)

    def test_zero_outputs_share_one_object(self):
        mu = dirichlet_inv(DirichletSeries.zeta(40))
        zeros = {id(c) for c in mu.coeffs if c == 0}
        prod = dirichlet_mul(DirichletSeries.one(40), DirichletSeries.one(40))
        zeros |= {id(c) for c in prod.coeffs if c == 0}
        assert len(zeros) == 1
        assert all(type(c) is F for c in mu.coeffs + prod.coeffs)

    def test_inverse_memory_follows_the_divisors(self):
        # one 4096-bit denominator at the prime index 1999 reaches no other
        # index below 2000, so no other coefficient may pay for it
        cs = [F(1)] * 2000
        cs[1998] = F(1, 2**4096 - 3)
        a = DirichletSeries(cs)
        tracemalloc.start()
        try:
            got = dirichlet_inv(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert got == ref_dirichlet_inv(a)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 13, 40, 150, 300])
    def test_log_and_exp(self, n):
        rng = random.Random(f"dirichlet-log:{n}")
        dens = denominators(rng, n) if n <= 40 else (lambda: rng.randint(1, 9))
        a = rand_dirichlet(rng, n, 1, dens)
        assert dirichlet_log(a) == ref_dirichlet_log(a)
        nil = rand_dirichlet(rng, n, 0, dens)
        assert dirichlet_exp(nil) == ref_dirichlet_exp(nil)

    def test_sieve_against_trial_division(self):
        for n in list(range(-2, 3000)) + [4096, 9973, 10007, 65536, 2**5 * 3**4 * 7**2]:
            assert factorize(n) == ref_factorize(n)
            assert list(factorize(n)) == list(ref_factorize(n))
            assert divisors(n) == ref_divisors(n)
            assert big_omega(n) == sum(ref_factorize(n).values())

    @pytest.mark.parametrize("lo, hi", [(-1, 700), (700, 1200), (1200, 1501)])
    def test_decompositions_in_order(self, lo, hi):
        for n in range(lo, hi):
            for m in range(13):
                got, want = mult_decompositions(n, m), ref_mult_decompositions(n, m)
                assert got == want
                assert [list(d) for d in got] == [list(d) for d in want]


# ---------------------------------------------------------------- matrices


def ref_matmul(a: RMatrix, b: RMatrix) -> RMatrix:
    ot = b.transpose().entries
    return RMatrix([[sum(x * y for x, y in zip(row, col)) for col in ot] for row in a.entries])


def ref_apply(a: RMatrix, vec) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, vec)) for row in a.entries)


def rand_entries(rng, rows, cols, integer=False):
    """About 30% zeros, signed 64-bit numerators over 60-64-bit denominators
    (or over 1 when `integer`)."""
    def entry():
        if rng.random() < 0.3:
            return F(0)
        return F(rng.randint(-(2**64), 2**64), 1 if integer else rng.randint(2**60, 2**64))

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def all_fractions(values):
    return all(type(e) is F for e in values)


MATRIX_SHAPES = [(1, 1, 1), (1, 7, 1), (7, 1, 7), (1, 1, 9), (9, 1, 1), (1, 12, 12), (12, 12, 1),
                 (3, 5, 2), (5, 2, 8), (8, 8, 8), (12, 12, 12)]


class TestMatrix:
    @pytest.mark.parametrize("r, k, c", MATRIX_SHAPES)
    @pytest.mark.parametrize("integer", [False, True])
    def test_mul_and_apply(self, r, k, c, integer):
        rng = random.Random(f"matrix:{r}:{k}:{c}:{integer}")
        for _ in range(4):
            a = RMatrix(rand_entries(rng, r, k, integer))
            b = RMatrix(rand_entries(rng, k, c, integer))
            prod = a * b
            assert prod == ref_matmul(a, b)
            assert all_fractions(e for row in prod.entries for e in row)
            vec = rand_entries(rng, 1, k, integer)[0]
            out = a.apply(vec)
            assert out == ref_apply(a, vec) and type(out) is tuple and all_fractions(out)
            assert a.apply([int(v) for v in vec]) == ref_apply(a, [F(int(v)) for v in vec])

    def test_zero_rows_columns_and_mixed_denominators(self):
        rng = random.Random(12)
        for _ in range(10):
            ea, eb = rand_entries(rng, 6, 5), rand_entries(rng, 5, 4, integer=True)
            ea[rng.randrange(6)] = [F(0)] * 5
            for row in eb:
                row[rng.randrange(4)] = F(0)
            j = rng.randrange(4)
            for row in eb:
                row[j] = F(0)
            a, b = RMatrix(ea), RMatrix(eb)
            prod = a * b
            assert prod == ref_matmul(a, b) and all_fractions(e for row in prod.entries for e in row)
            assert a.apply([F(0)] * 5) == ref_apply(a, [F(0)] * 5)
        zero = RMatrix([[0] * 3] * 2) * RMatrix([[0] * 4] * 3)
        assert zero.is_zero() and len({id(e) for row in zero.entries for e in row}) == 1

    def test_shape_errors_and_scalar_products(self):
        a = RMatrix(rand_entries(random.Random(3), 3, 4))
        with pytest.raises(ValueError):
            a * a
        with pytest.raises(ValueError):
            a.apply([1, 2, 3])
        assert F(2, 3) * a == a * F(2, 3) == RMatrix([[F(2, 3) * e for e in row] for row in a.entries])

    def test_transform_matrices(self):
        for n in (1, 2, 5, 16, 24):
            u, ui, v, vi = gep.matrix_u(n), gep.matrix_u_inv(n), gep.matrix_v(n), gep.matrix_v_inv(n)
            assert u * ui == ref_matmul(u, ui) == RMatrix.identity(n)
            assert v * u == ref_matmul(v, u)
            assert ui * vi == ref_matmul(ui, vi)
            alpha = gep.eulerian_poly(n).shift_down(1).to_vector(n)
            assert u.apply(alpha) == ref_apply(u, alpha)


# ---------------------------------------------------------------- Eulerian


def eulerian_by_formula(n: int) -> Poly:
    return Poly([sum((-1) ** i * comb(n + 1, i) * (j - i) ** n for i in range(j + 1)) for j in range(n + 1)])


class TestEulerian:
    def test_recurrence_is_the_pipeline(self):
        for n in range(1, 31):
            assert gep.eulerian_poly(n) == gep.GepContext(exp(Series.x(n)), n).alpha * factorial(n)

    def test_recurrence_is_the_alternating_sum(self):
        for n in range(1, 61):
            assert gep.eulerian_poly(n) == eulerian_by_formula(n)

    def test_matrix_u_columns_are_the_eulerian_columns(self):
        # the construction matrix_u used before: one eulerian_poly per column
        for n in (1, 2, 7, 20):
            fn = factorial(n)
            cols = []
            for p in range(n):
                col = series.binomial_poly(n - 1 - p, -1) * eulerian_by_formula(p + 1).shift_down(1)
                cols.append([col.coeff(i) / fn for i in range(n)])
            assert gep.matrix_u(n) == RMatrix.from_cols(cols)


# ---------------------------------------------------------------- U^-1


def ref_matrix_u_inv(n: int) -> RMatrix:
    """Column p as the product of the n linear factors x - p + m, divided by x."""
    cols = []
    for p in range(n):
        prod = Poly([1])
        for m in range(n):
            prod = prod * Poly([m - p, 1])
        cols.append(prod.shift_down(1).to_vector(n))
    return RMatrix.from_cols(cols)


def test_matrix_u_inv_column_recurrence():
    for n in range(1, 41):
        assert gep.matrix_u_inv(n) == ref_matrix_u_inv(n)


# ---------------------------------------------------------------- A^beta


def ref_shift_matrix(n: int, s) -> RMatrix:
    """The action of c(x) -> c(x+s) on coefficient columns of degree-<n polynomials."""
    return RMatrix.from_cols(
        [[comb(j, i) * s ** (j - i) if i <= j else F(0) for i in range(n)] for j in range(n)]
    )


def ref_abeta_matrix(n: int, beta) -> RMatrix:
    """A_n^beta as U_n times the shift matrix times U_n^-1, two RMatrix products."""
    return gep.matrix_u(n) * ref_shift_matrix(n, n * beta) * gep.matrix_u_inv(n)


def wide_betas(rng):
    """Seeded betas: integers, small fractions and numerators and denominators up to 10^6."""
    yield F(rng.randint(-9, 9))
    yield F(rng.randint(-9, 9), rng.randint(2, 9))
    yield F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


class TestShiftedColumns:
    def test_abeta_matrix_is_the_conjugated_shift(self):
        from riordan_gep.lagrange import abeta_matrix

        rng = random.Random(29)
        for n in range(1, 25):
            for beta in wide_betas(rng):
                got = abeta_matrix(n, beta)
                assert got == ref_abeta_matrix(n, beta), (n, beta)
                assert all_fractions(e for row in got.entries for e in row)

    def test_columns_are_the_shifted_inverse(self):
        rng = random.Random(31)
        for n in range(1, 17):
            for s in (F(0), F(n), F(-n)) + tuple(wide_betas(rng)):
                cols = RMatrix.from_cols(gep.shifted_u_inv_columns(n, s))
                assert cols == ref_shift_matrix(n, s) * ref_matrix_u_inv(n), (n, s)

    def test_zero_shift_is_matrix_u_inv(self):
        for n in range(1, 41):
            assert RMatrix.from_cols(gep.shifted_u_inv_columns(n, 0)) == gep.matrix_u_inv(n)
