"""Suite `gep`: the u/alpha/v pipeline, U and V, Theorems 1 and 2, and the
identity functions of U_n that the tests call (reduce_degenerate,
alpha_gf_check)."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .. import gep, riordan
from ..errors import OutOfRange
from ..series import Poly, Series, as_rational, binomial_poly, exp, log, reciprocal
from ..verify import _cap, _diag, _frac, _restrict, _reversed_to, _same, _series, _value


def check_pipeline(rng, max_n):
    top = _cap(8, max_n)
    for n in range(1, top + 1):
        for _ in range(3):
            a = _series(rng, 2 * n + 2, a0=1)
            ctx = gep.GepContext(a, n)
            # u~ by the second route: row n of (1, log a), coefficient m scaled by n!/m!
            row = riordan.row_of_pair(Series.one(n), log(a.truncate(n)), n, n + 1)
            ut = tuple(Fraction(factorial(n), factorial(m)) * row.coeff(m) for m in range(1, n + 1))
            at = tuple(ctx.alpha.coeff(k) for k in range(1, n + 1))
            vt = tuple(ctx.v.coeff(k) for k in range(1, n + 1))
            _same(ut, tuple(ctx.u.coeff(k) for k in range(1, n + 1)), n=n)
            _same(gep.matrix_u(n).apply(ut), at, n=n)
            _same(gep.matrix_v(n).apply(at), vt, n=n)
            _same(gep.matrix_v_inv(n).apply(vt), at, n=n)


def check_u_inverse(rng, max_n):
    for n in range(1, _cap(16, max_n) + 1):
        _same(gep.matrix_u(n) * gep.matrix_u_inv(n), _diag([1] * n), n=n)


def check_theorem1(n: int):
    """U_n . diag((-1)^p) == (-1)^(n+1) . Itilde_n . U_n, exactly."""
    u = gep.matrix_u(n)
    signs = _diag([(-1) ** p for p in range(n)])
    _same(u * signs, (_diag([1] * n, anti=True) * u) * ((-1) ** (n + 1)), n=n)


def check_theorem1_suite(rng, max_n):
    for n in range(1, _cap(16, max_n) + 1):
        check_theorem1(n)


def check_theorem2(ctx: gep.GepContext):
    """alpha_n(1) == a_1^n."""
    _same(_value(ctx.alpha, 1), ctx.a.coeff(1) ** ctx.n, n=ctx.n)


def check_theorem2_suite(rng, max_n):
    top = _cap(8, max_n)
    for _ in range(20):
        n = rng.randint(1, top)
        check_theorem2(gep.GepContext(_series(rng, 2 * n + 2, a0=1), n))


def check_reversal_identity(rng, max_n):
    top = _cap(8, max_n)
    for n in range(1, top + 1):
        a = _series(rng, 2 * n + 2, a0=1)
        alpha = gep.GepContext(a, n).alpha
        alpha_inv = gep.GepContext(reciprocal(a), n).alpha
        _same(alpha_inv, (_reversed_to(alpha, n) * ((-1) ** n)).shift_up(1), n=n)


def check_eulerian_specialization(rng, max_n):
    # A_n from the recurrence = n! alpha_n at a = e^x = the direct formula
    # [x^j] A_n = sum_i (-1)^i C(n+1, i) (j-i)^n
    for n in range(1, _cap(10, max_n) + 1):
        direct = Poly(
            [
                sum((-1) ** i * comb(n + 1, i) * (j - i) ** n for i in range(j + 1))
                for j in range(n + 1)
            ]
        )
        a = gep.eulerian_poly(n)
        _same(a, direct, n=n)
        _same(gep.GepContext(exp(Series.x(n)), n).alpha * factorial(n), a, n=n)


def check_stirling_products_suite(rng, max_n):
    for n in range(1, _cap(12, max_n) + 1):
        vu, uv = gep.stirling_products(n)
        _same(vu, gep.matrix_v(n) * gep.matrix_u(n), n=n)
        _same(uv, gep.matrix_u_inv(n) * gep.matrix_v_inv(n), n=n)
        _same(vu * uv, _diag([1] * n), n=n)


def reduce_degenerate(n: int, m: int):
    """Degenerate-row reductions of U_n^-1 and U_n.

    The products U_n^-1 . ((1-x)^m, x) I_{n-m} and ((1-x)^{-m}, x) . U_n I_{n-m}
    have m vanishing trailing rows, and their leading (n-m)x(n-m) blocks equal
    n!/(n-m)! U_{n-m}^-1 and (n-m)!/n! U_{n-m}; Mismatch reports the first
    that does not hold.
    """
    if not (1 <= m < n):
        raise OutOfRange("need 1 <= m < n")
    k = n - m
    first = _restrict(gep.matrix_u_inv(n), m, grow=False)
    _same(first, gep.matrix_u_inv(k) * Fraction(factorial(n), factorial(k)), n=n, m=m)
    second = _restrict(gep.matrix_u(n), m, shrink=False)
    _same(second, gep.matrix_u(k) * Fraction(factorial(k), factorial(n)), n=n, m=m)


def alpha_gf_check(phi, beta, t, order: int):
    """Closed generating function for alpha_n(t) at a = (1 + phi x + beta x^2)^-1.

    sum_n alpha_n(t) x^n must equal
    (1 + phi(1-t) x + beta (1-t)^2 x^2) / (1 + phi x + beta (1-t) x^2)
    through the given order.
    """
    phi, beta, t = as_rational(phi), as_rational(beta), as_rational(t)
    if order < 2:
        raise OutOfRange("order must be >= 2")
    a = reciprocal(Series([1, phi, beta], order=order))
    lhs = [Fraction(1)]
    for n in range(1, order + 1):
        lhs.append(_value(gep.GepContext(a.truncate(n), n).alpha, t))
    numer = Series([1, phi * (1 - t), beta * (1 - t) ** 2], order=order)
    denom = Series([1, phi, beta * (1 - t)], order=order)
    _same(lhs, list((numer * reciprocal(denom)).coeffs), phi=phi, beta=beta, t=t)


def check_v_action(rng, max_n):
    top = _cap(10, max_n)
    for n in range(1, top + 1):
        c = Poly([_frac(rng) for _ in range(n)])
        lhs = Poly(gep.matrix_v(n).apply(c.to_vector(n)))
        rhs = Poly()
        for j in range(n):
            rhs = rhs + (binomial_poly(n - 1 - j, 1) * c.coeff(j)).shift_up(j)
        _same(lhs, rhs, n=n)
