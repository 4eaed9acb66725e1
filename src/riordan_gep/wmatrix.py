"""The multinomial transform W_(n,m) mapping alpha~ of a to alpha~ of a^m.

W_(n,m) is simultaneously
  * the n x n window of the m-decimation of the Toeplitz array of
    ((1-x^m)/(1-x))^(n+1)  (rows of multinomial coefficients),
  * the conjugation U_n diag(m, m^2, ..., m^n) U_n^-1,
  * V_n^-1 T^t V_n with T the triangular array of ((1+x)^m - 1).
Columns sum to m^n and the matrix commutes with the reversal Itilde_n.
w_matrix builds the first form.  verify compares it with the other two;
w_alt_form, the third, stays here because perfbench traces it by module.
"""

from __future__ import annotations

from .errors import OutOfRange
from .gep import matrix_u, matrix_v, matrix_v_inv  # noqa: F401  perfbench's tracer test pins the matrix_u alias
from .matrix import RMatrix
from .riordan import RiordanArray, RiordanKind, decimate, window
from .series import Poly, Series, binomial_poly, power


def w_matrix(n: int, m: int) -> RMatrix:
    """Build W_(n,m) by decimation of the Toeplitz array of ((1-x^m)/(1-x))^(n+1)."""
    if n < 1 or m < 1:
        raise OutOfRange("need n >= 1 and m >= 1")
    # ((1-x^m)/(1-x))^(n+1); decimation reads coefficients up to m*n - 1 only
    ones = power(Series([1] * m, order=m * n - 1), n + 1)
    return decimate(ones, m, n, n)


def w_alt_form(n: int, m: int) -> RMatrix:
    """V_n^-1 . T^t . V_n with T the window of (((1+x)^m - 1)/x, (1+x)^m - 1)."""
    if n < 1 or m < 1:
        raise OutOfRange("need n >= 1 and m >= 1")
    a = binomial_poly(m, 1) - Poly([1])
    # order n >= 1 keeps g'(0) = m within reach of the kind check at n = 1
    b = Series(a.shift_down(1).coeffs, order=n)
    T = RiordanArray(RiordanKind.ORDINARY, b, Series(a.coeffs, order=n))
    return matrix_v_inv(n) * window(T, n, n).transpose() * matrix_v(n)
