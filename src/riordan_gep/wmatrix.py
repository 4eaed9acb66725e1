"""The multinomial transform W_(n,m) mapping alpha~ of a to alpha~ of a^m.

W_(n,m) is simultaneously
  * the n x n window of the m-decimation of the Toeplitz array of
    ((1-x^m)/(1-x))^(n+1)  (rows of multinomial coefficients),
  * the conjugation U_n diag(m, m^2, ..., m^n) U_n^-1,
  * V_n^-1 T^t V_n with T the triangular array of ((1+x)^m - 1).
Columns sum to m^n and the matrix commutes with the reversal Itilde_n.
w_matrix builds the first form; verify compares it with the other two.
"""

from __future__ import annotations

from .errors import DegreeTooHigh, OutOfRange
from .gep import matrix_u, matrix_v, matrix_v_inv  # noqa: F401  perfbench's tracer test pins the matrix_u alias
from .matrix import RMatrix
from .riordan import decimate
from .series import Poly, Series, binomial_poly


class WMatrix:
    __slots__ = ("n", "m", "matrix")

    def __init__(self, n: int, m: int, matrix: RMatrix):
        self.n = n
        self.m = m
        self.matrix = matrix

    def __repr__(self):
        return f"WMatrix(n={self.n}, m={self.m})"


def _ones_power(m: int, n: int, order: int) -> Series:
    """((1-x^m)/(1-x))^(n+1) = (1 + x + ... + x^(m-1))^(n+1), zero padded."""
    block = Poly([1] * m)
    acc = Poly([1])
    for _ in range(n + 1):
        acc = acc * block
    return Series(acc.coeffs, order=order)


def w_matrix(n: int, m: int) -> WMatrix:
    """Build W_(n,m) by decimation of the Toeplitz array of ((1-x^m)/(1-x))^(n+1)."""
    if n < 1 or m < 1:
        raise OutOfRange("need n >= 1 and m >= 1")
    # decimation reads coefficients up to m*n - 1 only
    return WMatrix(n, m, decimate(_ones_power(m, n, m * n - 1), m, n, n))


def w_apply(W: WMatrix, alpha_tilde: Poly) -> Poly:
    """alpha~ of a^m from alpha~ of a."""
    if alpha_tilde.degree() >= W.n:
        raise DegreeTooHigh(f"polynomial degree must be < {W.n}")
    return Poly(W.matrix.apply(alpha_tilde.to_vector(W.n)))


def w_alt_form(n: int, m: int) -> RMatrix:
    """V_n^-1 . T^t . V_n with T the window of (((1+x)^m - 1)/x, (1+x)^m - 1)."""
    if n < 1 or m < 1:
        raise OutOfRange("need n >= 1 and m >= 1")
    a = binomial_poly(m, 1) - Poly([1])
    b = a.shift_down(1)
    rows = []
    for i in range(n):
        gf = b
        for _ in range(i):
            gf = gf * a
        rows.append([gf.coeff(j) for j in range(n)])
    # rows[i][j] = [x^j] b a^i is already the transpose of the array window
    middle = RMatrix(rows)
    return matrix_v_inv(n) * middle * matrix_v(n)
