"""Suite `abeta`: A_n^beta three ways, its group law and identities, and the
generalized Lagrange series behind it."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .. import gep, lagrange
from ..errors import OutOfRange
from ..matrix import RMatrix
from ..series import (
    Poly,
    Series,
    as_rational,
    binomial_poly,
    compose,
    derivative,
    exp,
    log,
    power,
    reciprocal,
)
from ..verify import (
    _cap,
    _diag,
    _frac,
    _maps_alpha,
    _restrict,
    _reversed_to,
    _same,
    _series,
    _series_a1_nonzero,
    rational_binomial,
)

_BETAS = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1, 3),
    Fraction(-1, 3),
)


def vtilde_transform(n: int, beta, v_tilde: Poly) -> Poly:
    """v~ of the deformed series from v~ of a: D T^t D^-1 applied to the column."""
    beta = as_rational(beta)
    vec = [c / (i + 1) for i, c in enumerate(v_tilde.to_vector(n))]
    # T^t is Toeplitz: entry (i, j) is C(n beta, j - i)
    binoms = [rational_binomial(n * beta, k) for k in range(n)]
    return Poly([(i + 1) * sum(map(Fraction.__mul__, binoms, vec[i:])) for i in range(n)])


def abeta_routes_agree(n: int, beta):
    """abeta_matrix, V_n^-1 D T^t D^-1 V_n and sum_{m<n} beta^m/m! (log A_n)^m agree."""
    beta, v = as_rational(beta), gep.matrix_v(n)
    by_dtilde = gep.matrix_v_inv(n) * RMatrix.from_cols(
        vtilde_transform(n, beta, Poly(col)).to_vector(n) for col in zip(*v.entries)
    )
    powers = _log_abeta_powers(n)
    weights = [beta**m / factorial(m) for m in range(n)]
    by_log = RMatrix([sum(w * P[i, j] for w, P in zip(weights, powers)) for j in range(n)] for i in range(n))
    A = lagrange.abeta_matrix(n, beta)
    _same(A, by_dtilde, n=n, beta=beta)
    _same(A, by_log, n=n, beta=beta)


@lru_cache(maxsize=64)
def _log_abeta_powers(n: int) -> tuple:
    """(log A_n)^m for m = 0, ..., n-1, built once per n for every beta."""
    gen = lagrange.log_abeta(n)
    powers = [_diag([1] * n)]
    for _ in range(1, n):
        powers.append(powers[-1] * gen)
    return tuple(powers)


def check_abeta_constructions(rng, max_n):
    for n in range(1, _cap(8, max_n) + 1):
        for beta in _BETAS:
            abeta_routes_agree(n, beta)


def check_abeta_group_law(rng, max_n):
    for n in range(1, _cap(8, max_n) + 1):
        for _ in range(3):
            b1, b2 = _frac(rng, -3, 3, 3), _frac(rng, -3, 3, 3)
            lhs = lagrange.abeta_matrix(n, b1) * lagrange.abeta_matrix(n, b2)
            _same(lhs, lagrange.abeta_matrix(n, b1 + b2), n=n, b1=b1, b2=b2)


def abeta_identities(n: int, beta):
    """Reversal inversion, unit column sums and restriction.

    Itilde A^beta Itilde = A^-beta = (A^beta)^-1; every column of A_n^beta
    sums to 1; conjugating by ((1-x)^m, x) restricts to A_{n-m}^{n beta/(n-m)}.
    """
    n_beta = n * as_rational(beta)
    A = _abeta_scaled(n, n_beta)
    rev = _diag([1] * n, anti=True)
    flipped = rev * A * rev
    _same(flipped, _abeta_scaled(n, -n_beta), n=n, beta=beta)
    _same(flipped * A, _diag([1] * n), n=n, beta=beta)
    _same(tuple(map(sum, zip(*A.entries))), (1,) * n, n=n, beta=beta)
    for m in range(1, n):
        _same(_restrict(A, m), _abeta_scaled(n - m, n_beta), n=n, beta=beta, m=m)


@lru_cache(maxsize=512)
def _abeta_scaled(k: int, k_beta: Fraction) -> RMatrix:
    """A_k^(k_beta / k).  Keyed by k*beta, so the restriction targets of every
    (n, beta) with the same n*beta are built once."""
    return lagrange.abeta_matrix(k, k_beta / k)


def log_abeta_top_power(n: int):
    """Every column of (log A_n)^(n-1) is n^(n-2) (1-x)^(n-1); nothing to compare at n = 1."""
    if n < 2:
        return
    top = _log_abeta_powers(n)[n - 1]
    expected_col = tuple(Fraction(n) ** (n - 2) * c for c in binomial_poly(n - 1, -1).to_vector(n))
    for j, col in enumerate(zip(*top.entries)):
        _same(col, expected_col, n=n, j=j)


def check_abeta_identities_suite(rng, max_n):
    for n in range(1, _cap(10, max_n) + 1):
        for beta in _BETAS:
            abeta_identities(n, beta)
        log_abeta_top_power(n)


def check_abeta_gep_semantics(rng, max_n):
    top = _cap(6, max_n)
    for n in range(1, top + 1):
        for beta in (Fraction(1), Fraction(2), Fraction(1, 2)):
            a = _series(rng, 2 * n + 2, a0=1)
            deformed = lagrange.lagrange_coeffs(a, beta, 2 * n + 2)
            _maps_alpha(lagrange.abeta_matrix(n, beta), a, deformed, beta=beta)


def check_functional_eq(a: Series, beta, order: int):
    """The deformed series by the coefficient formula equals it by reversion
    plus composition, and satisfies both functional equations to the order:
    b(x a^-beta(x)) = a(x)  and  a(x b^beta(x)) = b(x).
    """
    b = lagrange.lagrange_coeffs(a, beta, order)
    _same(b, lagrange.lagrange_series(a, beta, order), beta=beta)
    a = a.truncate(order)
    _same(compose(b, Series.x(order) * power(a, -beta)), a, beta=beta)
    _same(compose(a, Series.x(order) * power(b, beta)), b, beta=beta)


def check_functional_equations(rng, max_n):
    order = _cap(12, max_n + 4 if max_n else 12)
    bases = [
        Series([1, 1], order=order),
        exp(Series.x(order)),
    ] + [_series(rng, order, a0=1) for _ in range(3)]
    for a in bases:
        for beta in (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)):
            check_functional_eq(a, beta, order)


def _shifted(p: Poly, s) -> Poly:
    """p(x + s), by Horner."""
    acc, x_plus_s = Poly(), Poly([s, 1])
    for c in reversed(p.coeffs):
        acc = acc * x_plus_s + c
    return acc


def check_deformed_u_identity(rng, max_n):
    top = _cap(6, max_n)
    for n in range(1, top + 1):
        for beta in (Fraction(1), Fraction(1, 2), Fraction(-2)):
            a = _series_a1_nonzero(rng, 2 * n + 2)
            u = gep.GepContext(a, n).u
            deformed = lagrange.lagrange_coeffs(a, beta, 2 * n + 2)
            # u_b = x u_a(x + n beta) / (x + n beta); n beta != 0, so x and x + n beta are coprime
            lhs = gep.GepContext(deformed, n).u * Poly([n * beta, 1])
            _same(lhs, _shifted(u, n * beta).shift_up(1), n=n, beta=beta)


def gbs_alpha_closed_form(n: int, beta) -> Poly:
    """alpha_n of the deformed series of 1+x, in closed binomial form.

    (1/n) sum_{m=1}^{n} C(n(1-beta), m-1) C(n beta, n-m) x^m.
    """
    beta = as_rational(beta)
    if n < 1:
        raise OutOfRange("n must be positive")
    out = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        out[m] = rational_binomial(n * (1 - beta), m - 1) * rational_binomial(n * beta, n - m) / n
    return Poly(out)


def check_gbs_closed_form(rng, max_n):
    for n in range(1, _cap(10, max_n) + 1):
        for beta in _BETAS:
            last = Poly(row[-1] for row in lagrange.abeta_matrix(n, beta).entries)
            _same(gbs_alpha_closed_form(n, beta), last.shift_up(1), n=n, beta=beta)


def duality_check(n: int, beta):
    """The beta <-> 1-beta duality for the base series 1+x.

    Series level: the (1-beta)-deformation equals the reciprocal of the
    beta-deformation evaluated at -x (checked to order 2n).  Polynomial
    level: alpha_n picks up reversal, x Ihat_n alpha_n.
    """
    beta = as_rational(beta)
    order = 2 * n
    a = Series([1, 1], order=order)
    lhs = lagrange.lagrange_coeffs(a, 1 - beta, order)
    rhs_base = reciprocal(lagrange.lagrange_coeffs(a, beta, order))
    _same(lhs, Series([c * (-1) ** i for i, c in enumerate(rhs_base.coeffs)]), n=n, beta=beta)
    left_poly = gbs_alpha_closed_form(n, 1 - beta)
    right_poly = _reversed_to(gbs_alpha_closed_form(n, beta), n).shift_up(1)
    _same(left_poly, right_poly, n=n, beta=beta)


def check_duality(rng, max_n):
    for n in range(1, _cap(8, max_n) + 1):
        for beta in (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1)):
            duality_check(n, beta)


def diagonal_table(a: Series, beta, v: int, k_range, cols: int) -> RMatrix:
    """Diagonal rearrangements of the power table of a^beta.

    Row k of the v-th rearrangement is the series
        (1 + x v beta (log b)') b^(beta k),   b = lagrange_coeffs(a, v beta),
    which equals the direct reading [x^j] a^(beta (k + v j)).  v = 0 gives
    the plain power table a^(beta k).
    """
    beta = as_rational(beta)
    if a.coeff(0) != 1:
        raise OutOfRange("needs a(0) = 1")
    if a.order < cols:
        raise OutOfRange(f"need series order >= {cols}")
    if v == 0:
        return RMatrix([power(a.truncate(cols), beta * k).coeffs[:cols] for k in k_range])
    b = lagrange.lagrange_coeffs(a, v * beta, cols)
    weight = Series.one(cols) + Series.x(cols) * derivative(log(b)).truncate(cols - 1) * (v * beta)
    return RMatrix([(weight * power(b, beta * k)).coeffs[:cols] for k in k_range])


def diagonal_table_direct(a: Series, beta, v: int, k_range, cols: int) -> RMatrix:
    """Independent entry formula for the same table: entry (k, j) = [x^j] a^(beta(k+vj))."""
    beta = as_rational(beta)
    return RMatrix(
        [[power(a.truncate(j), beta * (k + v * j)).coeff(j) for j in range(cols)] for k in k_range]
    )


def check_diagonal_tables(rng, max_n):
    cols = _cap(6, max_n)
    ks = range(-3, 4)
    one_plus_x = Series([1, 1], order=cols + 2)
    cases = [(a, Fraction(1), v) for a in (one_plus_x, _series(rng, cols + 2, a0=1)) for v in (1, 2, -1, -2)]
    for a, beta, v in cases + [(one_plus_x, Fraction(2), 1)]:
        table = diagonal_table(a, beta, v, ks, cols)
        _same(table, diagonal_table_direct(a, beta, v, ks, cols), beta=beta, v=v)
