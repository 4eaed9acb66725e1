import itertools
import random
from fractions import Fraction as F
from math import factorial

import pytest

from golden_data import rand_unit_series
from riordan_gep.errors import OutOfRange
from riordan_gep.gep import GepContext
from riordan_gep.series import Poly, log
from riordan_gep.stirling import bell_partial_mult, mult_decompositions, stirling1_signed, stirling2
from riordan_gep.suites.stirling import additive_partitions, bell_partial


def count_set_partitions(n, k):
    """Brute-force count of partitions of {0..n-1} into k nonempty blocks.

    Label assignments are counted once per partition by requiring block
    labels to appear in first-occurrence order.
    """
    count = 0
    for labels in itertools.product(range(k), repeat=n):
        first = []
        for lab in labels:
            if lab not in first:
                first.append(lab)
        if first == list(range(k)):
            count += 1
    return count


class TestStirlingNumbers:
    def test_second_kind_values(self):
        assert stirling2(4, 2) == 7
        for n in range(8):
            assert stirling2(n, n) == 1

    def test_second_kind_against_enumeration(self):
        assert stirling2(5, 3) == count_set_partitions(5, 3)
        assert stirling2(4, 2) == count_set_partitions(4, 2)

    def test_first_kind_values(self):
        assert stirling1_signed(3, 1) == 2
        assert stirling1_signed(3, 2) == -3
        for n in range(8):
            assert stirling1_signed(n, n) == 1

    def test_falling_factorial_expansion(self):
        # x(x-1)(x-2)(x-3) = x^4 - 6x^3 + 11x^2 - 6x
        prod = Poly([1])
        for m in range(4):
            prod = prod * Poly([-m, 1])
        assert prod == Poly([0, -6, 11, -6, 1])
        assert [prod.coeff(k) for k in range(5)] == [stirling1_signed(4, k) for k in range(5)]

    def test_recurrences(self):
        for n in range(1, 10):
            for k in range(1, n):
                assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)
                assert stirling1_signed(n, k) == (
                    stirling1_signed(n - 1, k - 1) - (n - 1) * stirling1_signed(n - 1, k)
                )

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            stirling2(3, 4)
        with pytest.raises(OutOfRange):
            stirling1_signed(-1, 0)


class TestAdditivePartitions:
    def test_counts(self):
        # partitions of 4 into 2 parts: {3,1}, {2,2}
        parts = additive_partitions(4, 2)
        assert sorted(tuple(sorted(p.items())) for p in parts) == [
            ((1, 1), (3, 1)),
            ((2, 2),),
        ]

    def test_all_partitions_valid(self):
        for n in range(1, 10):
            for m in range(1, n + 1):
                for p in additive_partitions(n, m):
                    assert sum(part * mult for part, mult in p.items()) == n
                    assert sum(p.values()) == m


class TestBellPartial:
    def test_single_part(self):
        a = [F(k + 2, 3) for k in range(6)]
        for n in range(1, 7):
            assert bell_partial(n, 1, a) == a[n - 1]

    def test_all_ones(self):
        # partitions of 4 into 2 parts: 2!/1!1! * a1 a3 + 2!/2! * a2^2 = 2 + 1
        assert bell_partial(4, 2, [1, 1, 1, 1]) == 3

    def test_matches_square_array_rows(self):
        # v_n, row n of (1, a-1), and u_n, row n of the exponential array
        # (1, log a), written against Bell sums in the coefficients
        rng = random.Random(19)
        for n in range(1, 9):
            a = rand_unit_series(rng, 2 * n + 2)
            ctx, b = GepContext(a, n), log(a)
            for m in range(1, n + 1):
                assert ctx.v.coeff(m) == bell_partial(n, m, a.coeffs[1 : n + 1])
                assert ctx.u.coeff(m) == F(factorial(n), factorial(m)) * bell_partial(n, m, b.coeffs[1 : n + 1])

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            bell_partial(3, 4, [1, 1, 1])
        with pytest.raises(OutOfRange):
            bell_partial(3, 1, [1])


class TestMultDecompositions:
    def test_twelve_into_two(self):
        got = sorted(tuple(sorted(d.items())) for d in mult_decompositions(12, 2))
        assert got == [((2, 1), (6, 1)), ((3, 1), (4, 1))]

    def test_prime_into_two_is_empty(self):
        assert mult_decompositions(13, 2) == []

    def test_sixteen_into_two(self):
        got = sorted(tuple(sorted(d.items())) for d in mult_decompositions(16, 2))
        assert got == [((2, 1), (8, 1)), ((4, 2),)]

    def test_products_and_counts(self):
        for n in (12, 16, 30, 36, 64):
            for m in range(1, 7):
                for d in mult_decompositions(n, m):
                    prod = 1
                    for factor, mult in d.items():
                        assert factor >= 2
                        prod *= factor**mult
                    assert prod == n
                    assert sum(d.values()) == m


class TestBellPartialMult:
    # a_2..a_16 with distinguishable values so products are recognizable
    A = [F(1, p) for p in range(2, 17)]

    def _a(self, p):
        return self.A[p - 2]

    def test_twelve_into_three(self):
        # only decomposition is 2*2*3 with multiplicities (2,1): 3!/2! = 3
        assert bell_partial_mult(12, 3, self.A) == 3 * self._a(2) ** 2 * self._a(3)

    def test_prime_single_factor(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert bell_partial_mult(p, 1, self.A) == self._a(p)

    def test_sixteen_into_four(self):
        assert bell_partial_mult(16, 4, self.A) == self._a(2) ** 4

    def test_no_decompositions_gives_zero(self):
        assert bell_partial_mult(7, 2, self.A) == 0


def test_log_coefficient_bell_identity():
    a = rand_unit_series(random.Random(23), 9, bound=3)
    la = log(a)
    for p in range(1, 9):
        s = sum(
            F((-1) ** (m + 1), m) * bell_partial(p, m, a.coeffs[1 : p + 1])
            for m in range(1, p + 1)
        )
        assert s == la.coeff(p)
