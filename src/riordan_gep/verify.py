"""Seeded verification suites covering every module invariant.

Each check re-derives an identity with freshly generated random data (or
fixed golden data) and compares by exact equality.  The CLI `verify`
subcommand reports run_suites and `w --check` reports w_check_rows; both
make each row with _row.  An object that several checks of a sweep read
is built once (the powers of log A_n, the Dirichlet log a).

Constructors build each object one way.  Every comparison with another
route, and every module identity, lives here: W three ways, A^beta three
ways, the Stirling factorizations, alpha through V^-1, U and the row
numerator, and the rest of REGISTRY.  The other routes themselves are in
routes.py, which only this module imports, except four that perfbench
traces in their runtime modules: riordan.riordan_mul, wmatrix.w_alt_form,
lagrange.lagrange_series and lagrange.log_abeta.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial

from . import dirichlet as ds
from . import gep, lagrange, riordan, routes, stirling, wmatrix
from .errors import OutOfRange
from .matrix import RMatrix
from .series import (
    Poly,
    Series,
    as_rational,
    binomial_poly,
    compose,
    exp,
    log,
    power,
    reciprocal,
    reversion,
)


def _frac(rng, lo=-5, hi=5, den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _series(rng, order, a0=None):
    first = _frac(rng) if a0 is None else Fraction(a0)
    return Series([first] + [_frac(rng) for _ in range(order)])


def _series_a1_nonzero(rng, order):
    a1 = Fraction(0)
    while a1 == 0:
        a1 = _frac(rng)
    return Series([Fraction(1), a1] + [_frac(rng) for _ in range(order - 1)])


def _cap(n, max_n):
    return min(n, max_n) if max_n else n


def _apply(M: RMatrix, p: Poly) -> Poly:
    """M applied to the coefficient column of p; DegreeTooHigh if p does not fit."""
    return Poly(M.apply(p.to_vector(M.cols)))


# ---------------------------------------------------------------- series


def check_ring_axioms(rng, max_n):
    order = _cap(12, max_n + 4 if max_n else 12)
    for _ in range(6):
        a, b, c = (_series(rng, order) for _ in range(3))
        if (a * b) * c != a * (b * c):
            return False
        if a * (b + c) != a * b + a * c:
            return False
        if a * b != b * a:
            return False
    return True


def check_log_exp_inverse(rng, max_n):
    order = _cap(12, max_n + 4 if max_n else 12)
    for _ in range(6):
        a = _series(rng, order, a0=1)
        if exp(log(a)) != a:
            return False
        b = Series([0] + [_frac(rng) for _ in range(order)])
        if log(exp(b)) != b:
            return False
    return True


def check_pow_additivity(rng, max_n):
    order = _cap(10, max_n + 2 if max_n else 10)
    for _ in range(5):
        a = _series(rng, order, a0=1)
        p, q = _frac(rng, -3, 3, 3), _frac(rng, -3, 3, 3)
        if power(a, p + q) != power(a, p) * power(a, q):
            return False
    return True


def check_compose_associative(rng, max_n):
    order = _cap(10, max_n + 2 if max_n else 10)
    for _ in range(5):
        a = _series(rng, order)
        g = Series([0] + [_frac(rng) for _ in range(order)])
        h = Series([0] + [_frac(rng) for _ in range(order)])
        if compose(compose(a, g), h) != compose(a, compose(g, h)):
            return False
    return True


def check_reversion_roundtrip(rng, max_n):
    order = _cap(10, max_n + 2 if max_n else 10)
    ident = Series.x(order)
    for _ in range(5):
        g = _series_a1_nonzero(rng, order) - 1
        h = reversion(g)
        if compose(h, g) != ident or compose(g, h) != ident:
            return False
    return True


# --------------------------------------------------------------- riordan


def check_fundamental_theorem(rng, max_n):
    size = _cap(8, max_n)
    order = 2 * size + 2
    for _ in range(4):
        f = Series([1] + [_frac(rng) for _ in range(order)])
        g = Series([0, 1] + [_frac(rng) for _ in range(order - 1)])
        A = riordan.RiordanArray(riordan.RiordanKind.ORDINARY, f, g)
        b = _series(rng, order, a0=1)
        a = _series(rng, order, a0=1)
        for B in (
            riordan.RiordanArray(riordan.RiordanKind.SQUARE, b, a),
            riordan.RiordanArray(riordan.RiordanKind.ORDINARY, b, g),
        ):
            lhs = riordan.window(riordan.riordan_mul(A, B), size, size)
            if lhs != riordan.window(A, size, size) * riordan.window(B, size, size):
                return False
    return True


def check_pascal_group(rng, max_n):
    size = _cap(8, max_n)
    for _ in range(5):
        p, q = _frac(rng), _frac(rng)
        lhs = routes.pascal_power(p, size) * routes.pascal_power(q, size)
        if lhs != routes.pascal_power(p + q, size):
            return False
    return True


def check_inverse_series_array(rng, max_n):
    size = _cap(8, max_n)
    order = 2 * size + 2
    for _ in range(4):
        a = _series_a1_nonzero(rng, order)
        lhs = riordan.riordan_mul(
            riordan.RiordanArray(riordan.RiordanKind.ORDINARY, Series.one(order), a - 1),
            riordan.RiordanArray(
                riordan.RiordanKind.SQUARE,
                Series.one(order),
                reciprocal(Series([1, 1], order=order)),
            ),
        )
        rhs = riordan.RiordanArray(riordan.RiordanKind.SQUARE, Series.one(order), reciprocal(a))
        if riordan.window(lhs, size, size) != riordan.window(rhs, size, size):
            return False
    return True


def check_shift_is_pascal_transpose(rng, max_n):
    size = _cap(8, max_n)
    order = size + 2
    shift = riordan.RiordanArray(
        riordan.RiordanKind.SQUARE, Series.one(order), Series([1, 1], order=order)
    )
    return riordan.window(shift, size, size) == routes.pascal_power(1, size).transpose()


def check_row_numerator(rng, max_n):
    n = _cap(6, max_n)
    order = 2 * n + 2
    for _ in range(4):
        a = _series(rng, order, a0=1)
        A = riordan.RiordanArray(riordan.RiordanKind.SQUARE, Series.one(order), a)
        # row_numerator raises NotPolynomial unless the numerator has degree <= n
        if routes.row_numerator(A, n) != gep.GepContext(a, n).alpha:
            return False
    return True


# -------------------------------------------------------------- stirling


def check_stirling_orthogonality(rng, max_n):
    top = _cap(12, max_n + 4 if max_n else 12)
    for n in range(top + 1):
        for m in range(top + 1):
            s = sum(
                stirling.stirling1_signed(n, k) * stirling.stirling2(k, m)
                for k in range(m, n + 1)
            )
            if s != (1 if n == m else 0):
                return False
    return True


def check_v_is_bell(rng, max_n):
    n = _cap(8, max_n)
    order = 2 * n + 2
    for _ in range(4):
        a = _series(rng, order, a0=1)
        ctx = gep.GepContext(a, n)
        for m in range(1, n + 1):
            if ctx.v.coeff(m) != routes.bell_partial(n, m, a.coeffs[1 : n + 1]):
                return False
    return True


def check_log_coeff_identity(rng, max_n):
    p_top = _cap(8, max_n)
    for _ in range(4):
        a = _series(rng, p_top + 1, a0=1)
        la = log(a)
        for p in range(1, p_top + 1):
            s = sum(
                Fraction((-1) ** (m + 1), m) * routes.bell_partial(p, m, a.coeffs[1 : p + 1])
                for m in range(1, p + 1)
            )
            if s != la.coeff(p):
                return False
    return True


def check_u_bell_identity(rng, max_n):
    n = _cap(8, max_n)
    order = 2 * n + 2
    for _ in range(4):
        a = _series(rng, order, a0=1)
        ctx = gep.GepContext(a, n)
        an, acc = a.truncate(n), Series.one(n)
        for m in range(n + 1):  # u_n(m) = n! [x^n]a^m
            if ctx.u(m) != factorial(n) * acc.coeff(n):
                return False
            acc = acc * an
        b = log(a)
        expected = Poly(
            [Fraction(0)]
            + [
                Fraction(factorial(n), factorial(m)) * routes.bell_partial(n, m, b.coeffs[1 : n + 1])
                for m in range(1, n + 1)
            ]
        )
        if ctx.u != expected:
            return False
    return True


# ------------------------------------------------------------------ gep


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
            if ut != tuple(ctx.u.coeff(k) for k in range(1, n + 1)):
                return False
            if gep.matrix_u(n).apply(ut) != at:
                return False
            if gep.matrix_v(n).apply(at) != vt:
                return False
            if gep.matrix_v_inv(n).apply(vt) != at:
                return False
    return True


def check_u_inverse(rng, max_n):
    for n in range(1, _cap(16, max_n) + 1):
        if gep.matrix_u(n) * gep.matrix_u_inv(n) != RMatrix.identity(n):
            return False
    return True


def check_theorem1(n: int) -> bool:
    """U_n . diag((-1)^p) == (-1)^(n+1) . Itilde_n . U_n, exactly."""
    u = gep.matrix_u(n)
    signs = RMatrix.diagonal([(-1) ** p for p in range(n)])
    lhs = u * signs
    rhs = (RMatrix.anti_identity(n) * u) * ((-1) ** (n + 1))
    return lhs == rhs


def check_theorem1_suite(rng, max_n):
    return all(check_theorem1(n) for n in range(1, _cap(16, max_n) + 1))


def check_theorem2(ctx: gep.GepContext) -> bool:
    """alpha_n(1) == a_1^n."""
    return ctx.alpha(1) == ctx.a.coeff(1) ** ctx.n


def check_theorem2_suite(rng, max_n):
    top = _cap(8, max_n)
    for _ in range(20):
        n = rng.randint(1, top)
        a = _series(rng, 2 * n + 2, a0=1)
        if not check_theorem2(gep.GepContext(a, n)):
            return False
    return True


def check_reversal_identity(rng, max_n):
    top = _cap(8, max_n)
    for n in range(1, top + 1):
        a = _series(rng, 2 * n + 2, a0=1)
        alpha = gep.GepContext(a, n).alpha
        alpha_inv = gep.GepContext(reciprocal(a), n).alpha
        expected = (alpha.reversed_to(n) * ((-1) ** n)).shift_up(1)
        if alpha_inv != expected:
            return False
    return True


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
        if a != direct or gep.GepContext(exp(Series.x(n)), n).alpha * factorial(n) != a:
            return False
    return True


def check_stirling_products_suite(rng, max_n):
    for n in range(1, _cap(12, max_n) + 1):
        vu, uv = gep.stirling_products(n)
        if vu != gep.matrix_v(n) * gep.matrix_u(n):
            return False
        if uv != gep.matrix_u_inv(n) * gep.matrix_v_inv(n):
            return False
        if vu * uv != RMatrix.identity(n):
            return False
    return True


def reduce_degenerate(n: int, m: int):
    """Degenerate-row reductions of U_n^-1 and U_n.

    Returns the pair
      (U_n^-1 . ((1-x)^m, x) I_{n-m},  ((1-x)^{-m}, x) . U_n I_{n-m})
    as (n-m)x(n-m) matrices.  The products have m vanishing trailing rows
    and the retained blocks equal n!/(n-m)! U_{n-m}^-1 and (n-m)!/n! U_{n-m};
    ArithmeticError reports the first that does not hold.
    """
    if not (1 <= m < n):
        raise OutOfRange("need 1 <= m < n")
    k = n - m
    first = _restrict(gep.matrix_u_inv(n), m, grow=False)
    if first is None:
        raise ArithmeticError("reduction of U^-1 left nonzero tail rows")
    if first != gep.matrix_u_inv(k) * Fraction(factorial(n), factorial(k)):
        raise ArithmeticError("reduced U^-1 block has wrong value")

    second = _restrict(gep.matrix_u(n), m, shrink=False)
    if second is None:
        raise ArithmeticError("reduction of U left nonzero tail rows")
    if second != gep.matrix_u(k) * Fraction(factorial(k), factorial(n)):
        raise ArithmeticError("reduced U block has wrong value")
    return first, second


def _restrict(M: RMatrix, m: int, grow: bool = True, shrink: bool = True):
    """Leading (n-m) block of ((1-x)^-m, x) . M . ((1-x)^m, x) I_{n-m}, n = M.rows.

    grow=False drops the left factor, shrink=False the (1-x)^m.  None (equal to
    no matrix) when the m trailing rows of the product do not vanish.
    """
    n = M.rows
    k = n - m
    if shrink:
        M = M * routes.toeplitz_window(binomial_poly(m, -1), n, k)
    else:
        M = M.block(0, n, 0, k)
    if grow:
        M = routes.toeplitz_window(routes.geometric_negative_power(m, n), n, n) * M
    if not M.block(k, n, 0, k).is_zero():
        return None
    return M.block(0, k, 0, k)


def alpha_gf_check(phi, beta, t, order: int) -> bool:
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
        lhs.append(gep.GepContext(a.truncate(n), n).alpha(t))
    numer = Series([1, phi * (1 - t), beta * (1 - t) ** 2], order=order)
    denom = Series([1, phi, beta * (1 - t)], order=order)
    rhs = numer * reciprocal(denom)
    return lhs == list(rhs.coeffs)


def check_v_action(rng, max_n):
    top = _cap(10, max_n)
    for n in range(1, top + 1):
        c = Poly([_frac(rng) for _ in range(n)])
        lhs = Poly(gep.matrix_v(n).apply(c.to_vector(n)))
        rhs = Poly()
        for j in range(n):
            rhs = rhs + (binomial_poly(n - 1 - j, 1) * c.coeff(j)).shift_up(j)
        if lhs != rhs:
            return False
    return True


# -------------------------------------------------------------------- w


def w_column_sums_ok(W: RMatrix, m: int) -> bool:
    """Every column of W = W_(n,m) sums to m^n."""
    return all(s == Fraction(m) ** W.rows for s in W.col_sums())


def check_w_column_sums(rng, max_n):
    for n in range(1, _cap(10, max_n) + 1):
        for m in range(1, 6):
            if not w_column_sums_ok(wmatrix.w_matrix(n, m), m):
                return False
    return True


def w_routes_agree(W: RMatrix, m: int) -> bool:
    """W = W_(n,m) by decimation, U_n diag(m..m^n) U_n^-1 and V_n^-1 T^t V_n agree."""
    n = W.rows
    scale = RMatrix.diagonal([Fraction(m) ** (p + 1) for p in range(n)])
    by_conjugation = gep.matrix_u(n) * scale * gep.matrix_u_inv(n)
    return W == by_conjugation == wmatrix.w_alt_form(n, m)


def check_w_constructions(rng, max_n):
    for n in range(1, _cap(8, max_n) + 1):
        for m in range(1, 5):
            if not w_routes_agree(wmatrix.w_matrix(n, m), m):
                return False
    return True


def w_check_rows(W: RMatrix, m: int) -> list:
    """The report of `riordan-gep w --check` on W = W_(n,m): one
    [suite, check, ok/FAIL, detail] row per check."""
    return [
        _row("w", "column sums are m^n", lambda: w_column_sums_ok(W, m)),
        _row("w", "alternative construction agrees", lambda: w_routes_agree(W, m)),
        _row("w", "multiplicativity/reversal/eigenvector", lambda: w_identities(W.rows, m, 2)),
    ]


def w_identities(n: int, m: int, p: int) -> bool:
    """Multiplicativity, reversal commutation and the Eulerian eigenvector.

    W_(n,m) W_(n,p) = W_(n,mp);  W_(n,m) Itilde = Itilde W_(n,m);
    W_(n,m) A~_n = m^n A~_n.
    """
    wm = wmatrix.w_matrix(n, m)
    wp = wmatrix.w_matrix(n, p)
    if wm * wp != wmatrix.w_matrix(n, m * p):
        return False
    rev = RMatrix.anti_identity(n)
    if wm * rev != rev * wm:
        return False
    at = gep.eulerian_poly(n).shift_down(1).to_vector(n)
    expected = tuple(Fraction(m) ** n * c for c in at)
    return wm.apply(at) == expected


def check_w_identities_suite(rng, max_n):
    for n in range(1, _cap(8, max_n) + 1):
        for m, p in ((2, 2), (2, 3), (3, 4), (4, 2)):
            if not w_identities(n, m, p):
                return False
    return True


def w_restriction(n: int, m: int, p: int) -> bool:
    """((1-x)^-p, x) W_(n,m) ((1-x)^p, x) I_{n-p} == W_(n-p, m).

    p = 0 degenerates to W_(n,m) == W_(n,m) and returns True.
    """
    if p == 0:
        return True
    if not (1 <= p < n):
        raise OutOfRange("need 0 <= p < n")
    return _restrict(wmatrix.w_matrix(n, m), p) == wmatrix.w_matrix(n - p, m)


def _maps_alpha(M: RMatrix, a: Series, b: Series) -> bool:
    """M maps alpha~_n of a to alpha~_n of b, n = M.rows."""
    n = M.rows
    return _apply(M, gep.GepContext(a, n).alpha.shift_down(1)) == gep.GepContext(b, n).alpha.shift_down(1)


def check_w_gep_semantics(rng, max_n):
    top = _cap(6, max_n)
    for n in range(1, top + 1):
        for m in (2, 3):
            a = _series(rng, 2 * n + 2, a0=1)
            if not _maps_alpha(wmatrix.w_matrix(n, m), a, power(a, m)):
                return False
    return True


# ---------------------------------------------------------------- abeta


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


def abeta_routes_agree(n: int, beta) -> bool:
    """abeta_matrix, V_n^-1 D T^t D^-1 V_n and sum_{m<n} beta^m/m! (log A_n)^m agree."""
    beta, v = as_rational(beta), gep.matrix_v(n)
    by_dtilde = gep.matrix_v_inv(n) * RMatrix.from_cols(
        routes.vtilde_transform(n, beta, Poly(v.column(j))).to_vector(n) for j in range(n)
    )
    powers = _log_abeta_powers(n)
    by_log = powers[0]
    for m in range(1, n):
        by_log = by_log + powers[m] * (beta**m / factorial(m))
    return lagrange.abeta_matrix(n, beta) == by_dtilde == by_log


@lru_cache(maxsize=64)
def _log_abeta_powers(n: int) -> tuple:
    """(log A_n)^m for m = 0, ..., n-1, built once per n for every beta."""
    gen = lagrange.log_abeta(n)
    powers = [RMatrix.identity(n)]
    for _ in range(1, n):
        powers.append(powers[-1] * gen)
    return tuple(powers)


def check_abeta_constructions(rng, max_n):
    for n in range(1, _cap(8, max_n) + 1):
        if not all(abeta_routes_agree(n, beta) for beta in _BETAS):
            return False
    return True


def check_abeta_group_law(rng, max_n):
    for n in range(1, _cap(8, max_n) + 1):
        for _ in range(3):
            b1, b2 = _frac(rng, -3, 3, 3), _frac(rng, -3, 3, 3)
            lhs = lagrange.abeta_matrix(n, b1) * lagrange.abeta_matrix(n, b2)
            if lhs != lagrange.abeta_matrix(n, b1 + b2):
                return False
    return True


def abeta_identities(n: int, beta) -> bool:
    """Reversal inversion, unit column sums and restriction.

    Itilde A^beta Itilde = A^-beta = (A^beta)^-1; every column of A_n^beta
    sums to 1; conjugating by ((1-x)^m, x) restricts to A_{n-m}^{n beta/(n-m)}.
    """
    n_beta = n * as_rational(beta)
    A = _abeta_scaled(n, n_beta)
    rev = RMatrix.anti_identity(n)
    flipped = rev * A * rev
    if flipped != _abeta_scaled(n, -n_beta):
        return False
    if flipped * A != RMatrix.identity(n):
        return False
    if any(s != 1 for s in A.col_sums()):
        return False
    for m in range(1, n):
        if _restrict(A, m) != _abeta_scaled(n - m, n_beta):
            return False
    return True


@lru_cache(maxsize=512)
def _abeta_scaled(k: int, k_beta: Fraction) -> RMatrix:
    """A_k^(k_beta / k).  Keyed by k*beta, so the restriction targets of every
    (n, beta) with the same n*beta are built once."""
    return lagrange.abeta_matrix(k, k_beta / k)


def log_abeta_top_power(n: int) -> bool:
    """Every column of (log A_n)^(n-1) is n^(n-2) (1-x)^(n-1); trivially true at n = 1."""
    if n < 2:
        return True
    top = _log_abeta_powers(n)[n - 1]
    expected_col = tuple(Fraction(n) ** (n - 2) * c for c in binomial_poly(n - 1, -1).to_vector(n))
    return all(top.column(j) == expected_col for j in range(n))


def check_abeta_identities_suite(rng, max_n):
    for n in range(1, _cap(10, max_n) + 1):
        if not all(abeta_identities(n, beta) for beta in _BETAS):
            return False
        if not log_abeta_top_power(n):
            return False
    return True


def check_abeta_gep_semantics(rng, max_n):
    top = _cap(6, max_n)
    for n in range(1, top + 1):
        for beta in (Fraction(1), Fraction(2), Fraction(1, 2)):
            a = _series(rng, 2 * n + 2, a0=1)
            deformed = lagrange.lagrange_coeffs(a, beta, 2 * n + 2)
            if not _maps_alpha(lagrange.abeta_matrix(n, beta), a, deformed):
                return False
    return True


def check_functional_eq(a: Series, beta, order: int) -> bool:
    """The deformed series by the coefficient formula equals it by reversion
    plus composition, and satisfies both functional equations to the order:
    b(x a^-beta(x)) = a(x)  and  a(x b^beta(x)) = b(x).
    """
    b = lagrange.lagrange_coeffs(a, beta, order)
    if b != lagrange.lagrange_series(a, beta, order):
        return False
    a = a.truncate(order)
    if compose(b, Series.x(order) * power(a, -beta)) != a:
        return False
    return compose(a, Series.x(order) * power(b, beta)) == b


def check_functional_equations(rng, max_n):
    order = _cap(12, max_n + 4 if max_n else 12)
    bases = [
        Series([1, 1], order=order),
        exp(Series.x(order)),
    ] + [_series(rng, order, a0=1) for _ in range(3)]
    for a in bases:
        for beta in (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)):
            if not check_functional_eq(a, beta, order):
                return False
    return True


def check_deformed_u_identity(rng, max_n):
    top = _cap(6, max_n)
    for n in range(1, top + 1):
        for beta in (Fraction(1), Fraction(1, 2), Fraction(-2)):
            a = _series_a1_nonzero(rng, 2 * n + 2)
            u = gep.GepContext(a, n).u
            deformed = lagrange.lagrange_coeffs(a, beta, 2 * n + 2)
            # u_b = x u_a(x + n beta) / (x + n beta); n beta != 0, so x and x + n beta are coprime
            lhs = gep.GepContext(deformed, n).u * Poly([n * beta, 1])
            if lhs != u.shifted(n * beta).shift_up(1):
                return False
    return True


def check_gbs_closed_form(rng, max_n):
    for n in range(1, _cap(10, max_n) + 1):
        for beta in _BETAS:
            closed = routes.gbs_alpha_closed_form(n, beta)
            last = Poly(lagrange.abeta_matrix(n, beta).column(n - 1))
            if closed != last.shift_up(1):
                return False
    return True


def duality_check(n: int, beta) -> bool:
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
    rhs = Series([c * (-1) ** i for i, c in enumerate(rhs_base.coeffs)])
    if lhs != rhs:
        return False
    left_poly = routes.gbs_alpha_closed_form(n, 1 - beta)
    right_poly = routes.gbs_alpha_closed_form(n, beta).reversed_to(n).shift_up(1)
    return left_poly == right_poly


def check_duality(rng, max_n):
    for n in range(1, _cap(8, max_n) + 1):
        for beta in (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1)):
            if not duality_check(n, beta):
                return False
    return True


def check_diagonal_tables(rng, max_n):
    cols = _cap(6, max_n)
    ks = range(-3, 4)
    one_plus_x = Series([1, 1], order=cols + 2)
    cases = [(a, Fraction(1), v) for a in (one_plus_x, _series(rng, cols + 2, a0=1)) for v in (1, 2, -1, -2)]
    for a, beta, v in cases + [(one_plus_x, Fraction(2), 1)]:
        if routes.diagonal_table(a, beta, v, ks, cols) != routes.diagonal_table_direct(a, beta, v, ks, cols):
            return False
    return True


# ------------------------------------------------------------- dirichlet


def check_dirichlet_window_identities(rng, max_n):
    rows = _cap(64, max_n * 8 if max_n else 64)
    cols = 6
    a = ds.DirichletSeries([1] + [_frac(rng) for _ in range(rows - 1)])
    max_omega = max(ds.big_omega(n) for n in range(2, rows + 1))
    minus = ds.array_window(a, "minus-one", rows, max_omega + 1)
    plain = ds.array_window(a, "plain", rows, cols)
    inv = ds.array_window(ds.dirichlet_inv(a), "plain", rows, cols)
    for n in range(1, rows + 1):
        omega = ds.big_omega(n) if n > 1 else 0
        for k in range(cols):
            up = sum(minus[n - 1, j] * comb(k, j) for j in range(omega + 1))
            if up != plain[n - 1, k]:
                return False
            # [x^j](1+x)^-k = C(-k, j)
            down = sum(
                minus[n - 1, j] * routes.rational_binomial(-k, j) for j in range(omega + 1)
            )
            if down != inv[n - 1, k]:
                return False
    return True


def check_zeta_u_product(rng, max_n):
    rows = _cap(64, max_n * 8 if max_n else 64)
    log_z = ds.dirichlet_log(ds.DirichletSeries.zeta(rows))
    for n in range(2, rows + 1):
        u = routes.dir_u_poly(log_z, n)
        expected = Poly([1])
        for _, mult in ds.factorize(n).items():
            expected = expected * routes.rising_factorial_poly(mult) * Fraction(1, factorial(mult))
        if u != expected * factorial(n):
            return False
    return True


def check_dir_alpha_routes(rng, max_n):
    rows = _cap(64, max_n * 8 if max_n else 64)
    z = ds.DirichletSeries.zeta(rows)
    a = ds.DirichletSeries([1] + [_frac(rng) for _ in range(rows - 1)])
    for base in (z, a):
        log_base = ds.dirichlet_log(base)
        for n in range(2, rows + 1):
            # the u route: x (Omega!/n!) U applied to u~_n
            omega = ds.big_omega(n)
            u = routes.dir_u_poly(log_base, n)
            ut = tuple(u.coeff(k) for k in range(1, omega + 1))
            scale = Fraction(factorial(omega), factorial(n))
            by_u = Poly([scale * c for c in gep.matrix_u(omega).apply(ut)]).shift_up(1)
            if ds.dir_alpha_poly(base, n) != by_u:
                return False
    return True


def dir_palindromy_check(r: int, p: int) -> bool:
    """Palindromy of the Carlitz-Hoggatt polynomial and its reversal identity.

    Coefficients satisfy g_m = g_{p*r - p - m + 2} for 1 <= m <= p*r - p + 1,
    equivalently x Ihat_{pr} G = x^(p-1) G.
    """
    g = ds.carlitz_hoggatt(r, p)
    deg = p * r - p + 1
    for m in range(1, deg + 1):
        if g.coeff(m) != g.coeff(p * r - p - m + 2):
            return False
    return g.reversed_to(p * r).shift_up(1) == g.shift_up(p - 1)


def check_carlitz_values(rng, max_n):
    for p in range(1, 4):
        for r in range(1, 4):
            g = ds.carlitz_hoggatt(r, p)
            # the coefficient sum is (p r)! / (p!)^r
            if g(1) != Fraction(factorial(p * r), factorial(p) ** r):
                return False
            if not dir_palindromy_check(r, p):
                return False
    return True


# ------------------------------------------------------------------ cli


def check_parser_roundtrip(rng, max_n):
    from .expr import parse_expr

    corpus = _expression_corpus()
    for text in corpus:
        ast = parse_expr(text)
        if parse_expr(routes.unparse(ast)) != ast:
            return False
    return True


def check_json_roundtrip(rng, max_n):
    from .output import OutputDoc, matrix_doc, poly_doc, series_doc

    docs = [
        poly_doc(gep.eulerian_poly(4), n=4),
        series_doc(Series([1, 2, Fraction(1, 3)], order=4)),
        matrix_doc(gep.matrix_u(3), n=3),
        OutputDoc(kind="VerifyReport", entries=[["gep", "demo", "FAIL", "ValueError: a, \"b\""]]),
    ]
    return all(OutputDoc.from_json(d.to_json()) == d for d in docs)


def _expression_corpus():
    return [
        "(1+x)/(1-x)",
        "(x/2 + sqrt(1+x^2/4))^2",
        "1/(1-x-x^2)",
        "exp(x)",
        "log(1+x)",
        "inv(1-x)",
        "rev(x/(1-x))",
        "compose(1/(1-x), x^2)",
        "x",
        "3",
        "3/4",
        "-x",
        "-x^2",
        "-(x^2)",
        "x^-2",
        "(1+x)^(1/2)",
        "(1+x)^(-1/2)",
        "(1-4*x)^(1/2)",
        "1-2*x+x^2",
        "x*x*x",
        "x/2/3",
        "1-(x-1)",
        "2*-x",
        "sqrt(sqrt(1+x))",
        "exp(log(1+x))",
        "x^2/4",
        "1+x+x^2+x^3",
        "(1+x)*(1-x)",
        "inv(inv(1+x))",
        "rev(x+x^2)",
        "compose(exp(x)-1, x/(1-x))",
        "(2+3*x)/(5-x)",
        "1/2+x",
        "x^3-x",
        "-1",
        "10/4",
        "x*(1+x)^2",
        "(x)",
        "((x))",
        "exp(x)*exp(-x)",
        "log((1+x)/(1-x))",
        "sqrt(1+4*x)",
        "(1-(1-4*x)^(1/2))/(2*x)",
        "(1+(1+4*x)^(1/2))/2",
        "x/(1+x)",
        "1/(1+x+x^2)",
        "compose(x/(1-x), x/(1+x))",
        "5*x^4",
        "x^2*x^3",
        "1+1/2*x",
    ]


REGISTRY = [
    ("series", "ring axioms (assoc/dist/comm)", check_ring_axioms),
    ("series", "log and exp are mutually inverse", check_log_exp_inverse),
    ("series", "power is additive in the exponent", check_pow_additivity),
    ("series", "composition is associative", check_compose_associative),
    ("series", "compositional inverse round trips", check_reversion_roundtrip),
    ("riordan", "fundamental theorem on windows", check_fundamental_theorem),
    ("riordan", "pascal powers form a group", check_pascal_group),
    ("riordan", "(1,a-1)(1,1/(1+x)) = (1,a^-1)", check_inverse_series_array),
    ("riordan", "shift array is pascal transpose", check_shift_is_pascal_transpose),
    ("riordan", "row numerators are polynomial", check_row_numerator),
    ("stirling", "first/second kind orthogonality", check_stirling_orthogonality),
    ("stirling", "v rows are Bell sums", check_v_is_bell),
    ("stirling", "log coefficients from Bell sums", check_log_coeff_identity),
    ("stirling", "u rows from Bell sums of log", check_u_bell_identity),
    ("gep", "U u~ = alpha~ and V alpha~ = v~", check_pipeline),
    ("gep", "U U^-1 = I", check_u_inverse),
    ("gep", "sign conjugation reversal (thm 1)", check_theorem1_suite),
    ("gep", "alpha(1) = a_1^n (thm 2)", check_theorem2_suite),
    ("gep", "reciprocal-series reversal", check_reversal_identity),
    ("gep", "Eulerian specialization at e^x", check_eulerian_specialization),
    ("gep", "Stirling factorizations of VU/U^-1V^-1", check_stirling_products_suite),
    ("gep", "V acts as x -> x/(1+x)", check_v_action),
    ("w", "column sums are m^n (thm 5)", check_w_column_sums),
    ("w", "three constructions agree (thm 4)", check_w_constructions),
    ("w", "multiplicativity, reversal, eigenvector", check_w_identities_suite),
    ("w", "maps alpha~ of a to alpha~ of a^m", check_w_gep_semantics),
    ("abeta", "three constructions agree", check_abeta_constructions),
    ("abeta", "group law in beta", check_abeta_group_law),
    ("abeta", "column sums 1, inverse, restriction", check_abeta_identities_suite),
    ("abeta", "maps alpha~ of a to deformed alpha~", check_abeta_gep_semantics),
    ("abeta", "functional equations of the deformation", check_functional_equations),
    ("abeta", "deformed u polynomial identity", check_deformed_u_identity),
    ("abeta", "closed binomial form = last column", check_gbs_closed_form),
    ("abeta", "beta <-> 1-beta duality", check_duality),
    ("abeta", "diagonal tables match direct reading", check_diagonal_tables),
    ("dirichlet", "window identities of <a-1>", check_dirichlet_window_identities),
    ("dirichlet", "zeta u rows are rising factorials", check_zeta_u_product),
    ("dirichlet", "alpha v-route equals u-route", check_dir_alpha_routes),
    ("dirichlet", "Carlitz-Hoggatt values and palindromy", check_carlitz_values),
    ("cli", "expression parser round trip", check_parser_roundtrip),
    ("cli", "JSON documents round trip", check_json_roundtrip),
]


def run_suites(which: str = "all", seed: int = 0, max_n: int | None = None) -> list:
    """The report rows of the selected suites, in REGISTRY order.  REGISTRY
    is read at call time: perfbench/tracer.py rebinds its checks in place."""
    return [
        _row(suite, name, partial(check, random.Random(f"{seed}:{suite}:{name}"), max_n))
        for suite, name, check in REGISTRY
        if which in ("all", suite)
    ]


def _row(suite: str, name: str, check) -> list:
    """The VerifyReport row [suite, name, "ok" | "FAIL", detail] of check();
    a check that raises fails with the exception as its detail."""
    try:
        return [suite, name, "ok" if check() else "FAIL", ""]
    except Exception as exc:
        return [suite, name, "FAIL", f"{type(exc).__name__}: {exc}"]
