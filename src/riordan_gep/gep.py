"""Generalized Euler polynomial machinery.

For a series a with a(0) = 1 and a positive integer n, three polynomials
are attached:

  v_n(x)      row n of the square array (1, a-1); coefficient m is
              [x^n](a-1)^m.
  alpha_n(x)  the numerator of row n of (1, a):
              row-gf = alpha_n(x) / (1-x)^(n+1), computed as
              alpha_n = sum_m v_{n,m} x^m (1-x)^(n-m).
  u_n(x)      row n of the exponential array (1, log a); coefficient m
              is (n!/m!) [x^n](log a)^m, and u_n(m) = n! [x^n]a^m for
              every integer m.  Computed as x U_n^-1 alpha~.

The transform matrices U_n, U_n^-1, V_n, V_n^-1 act on the coefficient
columns of the reduced polynomials u~ = u/x, alpha~ = alpha/x, v~ = v/x
(lowest degree first) and satisfy U u~ = alpha~ and V alpha~ = v~.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial

from .errors import ConstantTermNotOne, InsufficientOrder, OutOfRange
from .matrix import RMatrix
from .series import Poly, Series, as_rational, binomial_poly


class GepContext:
    """A series a (a(0) = 1, order >= n) together with its row polynomials.

    Only a truncated to order n is read.  v_n is row n of (1, a-1), off the
    column loop of riordan.row_of_pair; alpha_n is convolved from v_n; u_n,
    built on first read, is x U_n^-1 alpha~ with the cached U_n^-1.  The
    verify row "U u~ = alpha~ and V alpha~ = v~" compares u with row n of (1, log a).
    """

    def __init__(self, a: Series, n: int):
        if n < 1:
            raise OutOfRange("n must be positive")
        if a.coeff(0) != 1:
            raise ConstantTermNotOne("generalized Euler polynomials need a(0) = 1")
        if a.order < n:
            raise InsufficientOrder(f"order {n} required for n={n}, series has order {a.order}")
        from .riordan import row_of_pair

        self.a = a
        self.n = n
        self.v = row_of_pair(Series.one(n), a.truncate(n) - 1, n, n + 1)
        self.alpha = alpha_from_v(self.v, n)

    @cached_property
    def u(self) -> Poly:
        return Poly(matrix_u_inv(self.n).apply(self.alpha.shift_down(1).to_vector(self.n))).shift_up(1)


def alpha_from_v(v: Poly, n: int) -> Poly:
    """alpha = sum_m v_m x^m (1-x)^(n-m): alpha_n from v_n, and with n = Omega(n) the Dirichlet row numerator."""
    alpha = Poly()
    for m in range(1, n + 1):
        c = v.coeff(m)
        if c != 0:
            alpha = alpha + (binomial_poly(n - m, -1) * c).shift_up(m)
    return alpha


def _eulerian_rows(n: int):
    """Integer coefficient lists of A_1, ..., A_n, by A(m, k) = k A(m-1, k) + (m-k+1) A(m-1, k-1)."""
    row = [0, 1]
    yield row
    for m in range(2, n + 1):
        row = [k * a + (m - k + 1) * b for k, a, b in zip(range(m + 1), row + [0], [0] + row)]
        yield row


@lru_cache(maxsize=None)
def eulerian_poly(n: int) -> Poly:
    """A_n(x) with A_n(x)/(1-x)^(n+1) = sum_m m^n x^m; A_n(1) = n!.

    Built by the Eulerian recurrence A(n, k) = k A(n-1, k) + (n-k+1) A(n-1, k-1)
    over the integers; the verify row "Eulerian specialization at e^x" checks
    that it is n! alpha_n for a = e^x.
    """
    if n < 1:
        raise OutOfRange("n must be positive")
    for row in _eulerian_rows(n):
        pass
    return Poly(row)


@lru_cache(maxsize=None)
def matrix_u(n: int) -> RMatrix:
    """Column p holds the coefficients of (1-x)^(n-1-p) A~_{p+1}(x) / n!.

    A~_1, ..., A~_n come off one pass of the Eulerian recurrence.
    """
    if n < 1:
        raise OutOfRange("n must be positive")
    fn = factorial(n)
    cols = []
    for p, row in enumerate(_eulerian_rows(n)):
        col = binomial_poly(n - 1 - p, -1) * Poly(row[1:])
        cols.append([col.coeff(i) / fn for i in range(n)])
    return RMatrix.from_cols(cols)


@lru_cache(maxsize=None)
def matrix_u_inv(n: int) -> RMatrix:
    """Column p holds the coefficients of (1/x) * prod_{m=0}^{n-1}(x - p + m)."""
    if n < 1:
        raise OutOfRange("n must be positive")
    return RMatrix.from_cols(shifted_u_inv_columns(n, 0))


def shifted_u_inv_columns(n: int, s) -> list:
    """The columns of E^s U_n^-1 (E^s: c(x) -> c(x + s)): column p holds the
    coefficients of prod_{m != p}(x + s - p + m).

    Column 0 is (x+s+1)...(x+s+n-1); column p+1 is column p times
    (x+s-p-1) / (x+s-p+n-1), one multiplication and one exact synthetic
    division.  For s = a/q the step runs over the integers in y = q x, and
    coefficient i is divided by q^(n-1-i) at the end.
    """
    a, q = as_rational(s).as_integer_ratio()
    col = [1]
    for j in range(1, n):
        col = _times_linear(col, a + q * j)
    cols = [col]
    for p in range(n - 1):
        cols.append(_over_linear(_times_linear(cols[-1], a - q * (p + 1)), a + q * (n - 1 - p)))
    if q == 1:
        return cols
    scale = [q ** (n - 1 - i) for i in range(n)]
    return [[Fraction(c, d) for c, d in zip(col, scale)] for col in cols]


def _times_linear(c, b):
    """Coefficients (lowest first) of c(x) * (x + b)."""
    return [b * ck + below for ck, below in zip(c + [0], [0] + c)]


def _over_linear(c, b):
    """Coefficients of c(x) / (x + b), which must divide it exactly."""
    q = [0] * (len(c) - 1)
    carry = 0
    for k in range(len(c) - 1, 0, -1):
        carry = c[k] - b * carry
        q[k - 1] = carry
    return q


@lru_cache(maxsize=None)
def matrix_v(n: int) -> RMatrix:
    """Column p holds the coefficients of (1+x)^(n-p-1) x^p."""
    return _binomial_columns(n, 1)


@lru_cache(maxsize=None)
def matrix_v_inv(n: int) -> RMatrix:
    """Column p holds the coefficients of (1-x)^(n-p-1) x^p."""
    return _binomial_columns(n, -1)


def _binomial_columns(n: int, sign: int) -> RMatrix:
    if n < 1:
        raise OutOfRange("n must be positive")
    return RMatrix.from_cols([binomial_poly(n - p - 1, sign).shift_up(p).to_vector(n) for p in range(n)])


def stirling_products(n: int):
    """(V_n U_n, U_n^-1 V_n^-1) in closed Stirling form.

    Column p of V_n U_n is (1/n!) sum_m m! S2(p+1,m) x^(m-1); column p of
    U_n^-1 V_n^-1 is (n!/(p+1)!) sum_m s(p+1,m) x^(m-1).
    """
    from .stirling import stirling1_signed, stirling2

    fn = factorial(n)
    vu_cols, uv_cols = [], []
    for p in range(n):
        vu = [Fraction(0)] * n
        uv = [Fraction(0)] * n
        scale = Fraction(fn, factorial(p + 1))
        for m in range(1, p + 2):
            vu[m - 1] = Fraction(factorial(m) * stirling2(p + 1, m), fn)
            uv[m - 1] = scale * stirling1_signed(p + 1, m)
        vu_cols.append(vu)
        uv_cols.append(uv)
    return RMatrix.from_cols(vu_cols), RMatrix.from_cols(uv_cols)

