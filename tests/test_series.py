from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordan_gep.errors import (
    ConstantTermNotOne,
    InsufficientOrder,
    NonzeroConstantTerm,
    NotInvertibleForComposition,
    ZeroConstantTerm,
)
from golden_data import geometric
from riordan_gep.series import (
    Poly,
    Series,
    compose,
    derivative,
    exp,
    log,
    power,
    reciprocal,
    reversion,
)
from riordan_gep.suites.abeta import _shifted
from riordan_gep.verify import _reversed_to, _value


def S(*coeffs, order=None):
    return Series(coeffs, order=order)


fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
series_st = st.lists(fracs, min_size=6, max_size=13).map(Series)
zero_ct_st = st.lists(fracs, min_size=6, max_size=13).map(lambda cs: Series([0] + cs))
unit_ct_st = st.lists(fracs, min_size=6, max_size=13).map(lambda cs: Series([1] + cs))


class TestMul:
    def test_binomial_square(self):
        assert S(1, 1, order=2) * S(1, 1, order=2) == S(1, 2, 1)

    def test_inverse_pair(self):
        assert geometric(4) * S(1, -1, order=4) == Series.one(4)

    def test_multinomial_cube(self):
        p = S(1, 1, 1, order=6)
        assert (p * p * p).coeffs == tuple(map(F, (1, 3, 6, 7, 6, 3, 1)))

    def test_order_is_min(self):
        assert (S(1, 2, order=7) * S(1, order=3)).order == 3


class TestCompose:
    def test_telescopes_to_geometric(self):
        inner = geometric(4) * Series.x(4)  # x/(1-x)
        assert compose(S(1, 1, order=4), inner) == geometric(4)

    def test_constant_inner(self):
        e = exp(Series.x(4))
        assert compose(e, Series.zero(4)) == Series.one(4)

    def test_moebius_pair(self):
        # x/(1-x) composed with x/(1+x) is x, checked term by term to order 5
        f = geometric(5) * Series.x(5)
        g = reciprocal(S(1, 1, order=5)) * Series.x(5)
        assert compose(f, g) == Series.x(5)

    def test_rejects_nonzero_constant(self):
        with pytest.raises(NonzeroConstantTerm):
            compose(S(1, 1, order=3), S(1, 1, order=3))


class TestReciprocal:
    def test_geometric(self):
        assert reciprocal(S(1, -1, order=5)) == Series([1] * 6)

    def test_alternating(self):
        assert reciprocal(S(1, 1, order=5)) == Series([(-1) ** k for k in range(6)])

    def test_quadratic(self):
        # solve (1 + x + x^2) b = 1 by hand: b = 1 - x + x^3 - x^4
        got = reciprocal(S(1, 1, 1, order=4))
        assert got == S(1, -1, 0, 1, -1)
        assert S(1, 1, 1, order=4) * got == Series.one(4)

    def test_rejects_zero_constant(self):
        with pytest.raises(ZeroConstantTerm):
            reciprocal(Series.x(3))


class TestLogExp:
    def test_log_of_one(self):
        assert log(Series.one(5)) == Series.zero(5)

    def test_log_of_moebius_ratio(self):
        a = S(1, 1, order=3) * reciprocal(S(1, -1, order=3))
        assert log(a) == S(0, 2, 0, F(2, 3))

    def test_log_of_hyperbolic_square(self):
        # a = (x/2 + sqrt(1 + x^2/4))^2, so log a = 2 arcsinh(x/2);
        # arcsinh u = u - u^3/6 + ... gives x - x^3/24
        root = power(S(1, 0, F(1, 4), order=3), F(1, 2))
        a = power(S(0, F(1, 2), order=3) + root, 2)
        assert log(a) == S(0, 1, 0, F(-1, 24))

    def test_exp_examples(self):
        assert exp(Series.zero(4)) == Series.one(4)
        assert exp(Series.x(4)) == S(1, 1, F(1, 2), F(1, 6), F(1, 24))

    def test_round_trip(self):
        a = S(1, 3, 1, order=6)
        assert exp(log(a)) == a

    def test_domain_errors(self):
        with pytest.raises(ConstantTermNotOne):
            log(S(2, 1, order=3))
        with pytest.raises(NonzeroConstantTerm):
            exp(S(1, 1, order=3))


class TestPower:
    def test_square_root_of_one_plus_x(self):
        assert power(S(1, 1, order=2), F(1, 2)) == S(1, F(1, 2), F(-1, 8))

    def test_zeroth_power(self):
        assert power(S(1, 5, 7, order=4), 0) == Series.one(4)

    def test_cube_of_cube_root(self):
        a = power(S(1, 1, order=6), F(1, 3))
        assert power(a, 3) == S(1, 1, order=6)

    def test_negative_integer_power(self):
        assert power(S(1, -1, order=4), -2) == Series([comb(k + 1, 1) for k in range(5)])

    def test_fractional_needs_unit_constant(self):
        with pytest.raises(ConstantTermNotOne):
            power(S(2, 1, order=3), F(1, 2))


@pytest.mark.parametrize("order", (0, 1, 256))
class TestConstantOperand:
    """A series with no term past the constant has constant reciprocal, log, exp and powers."""

    @pytest.mark.parametrize("c", (F(1), F(-3), F(2, 5)))
    def test_reciprocal(self, order, c):
        assert reciprocal(Series.constant(c, order)) == Series.constant(1 / c, order)

    def test_log_and_exp(self, order):
        assert log(Series.one(order)) == Series.zero(order)
        assert exp(Series.zero(order)) == Series.one(order)

    @pytest.mark.parametrize("c, phi, value", [
        (F(-3), -1, F(-1, 3)), (F(2, 5), -3, F(125, 8)), (F(1), F(2, 3), F(1)), (F(1), F(-5, 2), F(1)),
    ])
    def test_negative_or_fractional_power(self, order, c, phi, value):
        assert power(Series.constant(c, order), phi) == Series.constant(value, order)


class TestReversion:
    def test_moebius_pair(self):
        g = geometric(4) * Series.x(4)
        assert reversion(g) == reciprocal(S(1, 1, order=4)) * Series.x(4)

    def test_hyperbolic_relation(self):
        # with g = x/2 + sqrt(1 + x^2/4) and b = sqrt(1+x), the series
        # x g(x) and x b^-1(x) are compositional inverses
        order = 8
        root = power(S(1, 0, F(1, 4), order=order), F(1, 2))
        xg = Series.x(order) * (S(0, F(1, 2), order=order) + root)
        xbinv = Series.x(order) * power(S(1, 1, order=order), F(-1, 2))
        assert compose(xg, xbinv) == Series.x(order)
        assert reversion(xg) == xbinv

    def test_lagrange_inversion_coefficients(self):
        # inverse of x + x^2 via h_n = (1/n) [x^(n-1)] (1+x)^(-n)
        expected = [F(0)]
        for n in range(1, 5):
            sign = (-1) ** (n - 1)
            expected.append(F(sign * comb(2 * n - 2, n - 1), n))
        assert reversion(S(0, 1, 1, order=4)) == Series(expected)

    def test_rejects_bad_input(self):
        with pytest.raises(NotInvertibleForComposition):
            reversion(S(0, 0, 1, order=4))
        with pytest.raises(NotInvertibleForComposition):
            reversion(S(1, 1, order=4))


class TestTruncationContract:
    def test_coeff_beyond_order_raises(self):
        with pytest.raises(InsufficientOrder):
            S(1, 2, order=3).coeff(4)

    def test_truncate_never_extends(self):
        with pytest.raises(InsufficientOrder):
            S(1, 2, order=3).truncate(9)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Series([0.5, 1])


@settings(max_examples=60, deadline=None)
@given(a=series_st, b=series_st, c=series_st)
def test_mul_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(a=unit_ct_st)
def test_log_exp_mutually_inverse(a):
    assert exp(log(a)) == a


@settings(max_examples=60, deadline=None)
@given(b=zero_ct_st)
def test_exp_log_mutually_inverse(b):
    assert log(exp(b)) == b


@settings(max_examples=40, deadline=None)
@given(
    a=unit_ct_st,
    p=st.fractions(min_value=-3, max_value=3, max_denominator=4),
    q=st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_power_additive(a, p, q):
    assert power(a, p + q) == power(a, p) * power(a, q)


@settings(max_examples=40, deadline=None)
@given(a=series_st, g=zero_ct_st, h=zero_ct_st)
def test_compose_associative(a, g, h):
    assert compose(compose(a, g), h) == compose(a, compose(g, h))


@settings(max_examples=40, deadline=None)
@given(tail=st.lists(fracs, min_size=5, max_size=10), g1=st.sampled_from([1, -1, 2, F(1, 2), F(-2, 3)]))
def test_reversion_round_trips(tail, g1):
    g = Series([0, g1] + tail)
    h = reversion(g)
    ident = Series.x(g.order)
    assert compose(h, g) == ident
    assert compose(g, h) == ident


class TestPoly:
    def test_degree_of_zero_is_minus_one(self):
        assert Poly().degree() == -1
        assert Poly([0, 0]).degree() == -1

    def test_trailing_zeros_ignored(self):
        assert Poly([1, 2]) == Poly([1, 2, 0, 0])

    def test_eval_and_shift(self):
        p = Poly([1, 2, 1])  # (1+x)^2
        assert _value(p, 3) == 16
        assert _shifted(p, 1) == Poly([4, 4, 1])

    def test_reversal_window(self):
        assert _reversed_to(Poly([0, 1, 4, 1]), 3) == Poly([1, 4, 1, 0])

    def test_derivative(self):
        assert derivative(S(5, 1, 3, order=2)) == S(1, 6)
