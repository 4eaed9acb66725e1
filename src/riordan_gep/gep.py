"""Generalized Euler polynomial machinery.

For a series a with a(0) = 1 and a positive integer n, three polynomials
are attached:

  v_n(x)      row n of the square array (1, a-1); coefficient m is
              [x^n](a-1)^m.
  u_n(x)      the unique degree-<=n polynomial with u_n(m) = n! [x^n]a^m
              for every integer m (row n of the exponential array of
              (1, log a)).
  alpha_n(x)  the numerator of row n of (1, a):
              row-gf = alpha_n(x) / (1-x)^(n+1), computed as
              alpha_n = sum_m v_{n,m} x^m (1-x)^(n-m).

The transform matrices U_n, U_n^-1, V_n, V_n^-1 act on the coefficient
columns of the reduced polynomials u~ = u/x, alpha~ = alpha/x, v~ = v/x
(lowest degree first) and satisfy U u~ = alpha~ and V alpha~ = v~.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import ConstantTermNotOne, InsufficientOrder, OutOfRange
from .matrix import RMatrix
from .riordan import row_of_pair
from .series import Poly, Series, as_rational, binomial_poly, exp, reciprocal


class GepContext:
    """A series a (a(0)=1, order >= 2n+2) together with its row polynomials."""

    __slots__ = ("a", "n", "u", "v", "alpha")

    def __init__(self, a: Series, n: int):
        if n < 1:
            raise OutOfRange("n must be positive")
        if a.coeff(0) != 1:
            raise ConstantTermNotOne("generalized Euler polynomials need a(0) = 1")
        if a.order < 2 * n + 2:
            raise InsufficientOrder(
                f"order {2 * n + 2} required for n={n}, series has order {a.order}"
            )
        self.a = a
        self.n = n
        self.v = _v_poly(a, n)
        self.u = _u_poly(a, n)
        self.alpha = _alpha_from_v(self.v, n)


def _v_poly(a: Series, n: int) -> Poly:
    am1 = (a - 1).truncate(n)
    out = [Fraction(0)]
    acc = am1
    for _ in range(1, n + 1):
        out.append(acc.coeff(n))
        acc = acc * am1
    return Poly(out)


def _newton_interpolate(values) -> Poly:
    """Polynomial through the points (i, values[i]) for i = 0..len-1."""
    diffs = list(values)
    lead = [diffs[0]]
    for j in range(1, len(values)):
        diffs = [(diffs[i + 1] - diffs[i]) / j for i in range(len(diffs) - 1)]
        lead.append(diffs[0])
    result = Poly()
    basis = Poly([1])
    for j, c in enumerate(lead):
        result = result + basis * c
        basis = basis * Poly([-j, 1])
    return result


def _u_poly(a: Series, n: int) -> Poly:
    an = a.truncate(n)
    fn = factorial(n)
    values = [Fraction(0)]
    acc = an
    for _ in range(1, n + 1):
        values.append(fn * acc.coeff(n))
        acc = acc * an
    return _newton_interpolate(values)


def _alpha_from_v(v: Poly, n: int) -> Poly:
    alpha = Poly()
    for m in range(1, n + 1):
        c = v.coeff(m)
        if c != 0:
            alpha = alpha + (binomial_poly(n - m, -1) * c).shift_up(m)
    return alpha


@lru_cache(maxsize=None)
def eulerian_poly(n: int) -> Poly:
    """A_n(x) with A_n(x)/(1-x)^(n+1) = sum_m m^n x^m; A_n(1) = n!.

    Computed through the generalized pipeline at a = e^x, where
    alpha_n = A_n / n!.
    """
    if n < 1:
        raise OutOfRange("n must be positive")
    e = exp(Series.x(2 * n + 2))
    ctx = GepContext(e, n)
    return ctx.alpha * factorial(n)


def eulerian_tilde(n: int) -> Poly:
    return eulerian_poly(n).shift_down(1)


@lru_cache(maxsize=None)
def matrix_u(n: int) -> RMatrix:
    """Column p holds the coefficients of (1-x)^(n-1-p) A~_{p+1}(x) / n!."""
    if n < 1:
        raise OutOfRange("n must be positive")
    fn = factorial(n)
    cols = []
    for p in range(n):
        col = binomial_poly(n - 1 - p, -1) * eulerian_tilde(p + 1)
        cols.append([col.coeff(i) / fn for i in range(n)])
    return RMatrix.from_cols(cols)


@lru_cache(maxsize=None)
def matrix_u_inv(n: int) -> RMatrix:
    """Column p holds the coefficients of (1/x) * prod_{m=0}^{n-1}(x - p + m)."""
    if n < 1:
        raise OutOfRange("n must be positive")
    cols = []
    for p in range(n):
        prod = Poly([1])
        for m in range(n):
            prod = prod * Poly([m - p, 1])
        col = prod.shift_down(1)
        cols.append([col.coeff(i) for i in range(n)])
    return RMatrix.from_cols(cols)


@lru_cache(maxsize=None)
def matrix_v(n: int) -> RMatrix:
    """Column p holds the coefficients of (1+x)^(n-p-1) x^p."""
    if n < 1:
        raise OutOfRange("n must be positive")
    cols = []
    for p in range(n):
        col = binomial_poly(n - p - 1, 1).shift_up(p)
        cols.append([col.coeff(i) for i in range(n)])
    return RMatrix.from_cols(cols)


@lru_cache(maxsize=None)
def matrix_v_inv(n: int) -> RMatrix:
    """Column p holds the coefficients of (1-x)^(n-p-1) x^p."""
    if n < 1:
        raise OutOfRange("n must be positive")
    cols = []
    for p in range(n):
        col = binomial_poly(n - p - 1, -1).shift_up(p)
        cols.append([col.coeff(i) for i in range(n)])
    return RMatrix.from_cols(cols)


def reversal(n: int, variant: str) -> RMatrix:
    """Coefficient-reversal permutation: 'Ihat' is (n+1)x(n+1), 'Itilde' n x n."""
    if variant == "Ihat":
        return RMatrix.anti_identity(n + 1)
    if variant == "Itilde":
        return RMatrix.anti_identity(n)
    raise OutOfRange(f"unknown reversal variant {variant!r}")


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


def convolution_numerator(k, n: int, star: bool = False) -> Poly:
    """Numerator polynomial of row n of the quadratic convolution array.

    Row n of (1/(1-x-k x^2), 1/(1-x-k x^2)) equals N_n(x)/(1-x)^(n+1);
    N_n is row n of the companion array with second component
    -k x^2/(1-x-k x^2).  With star=True the roles of the coefficients are
    swapped: denominator 1 - k x - x^2, second component -x^2/(...).
    """
    k = as_rational(k)
    if star:
        denom = Series([1, -k, -1], order=max(n, 2))
        top = -1
    else:
        denom = Series([1, -1, -k], order=max(n, 2))
        top = -k
    f = reciprocal(denom)
    g = f * Series([0, 0, top], order=max(n, 2))
    return row_of_pair(f, g, n, n // 2 + 1)
