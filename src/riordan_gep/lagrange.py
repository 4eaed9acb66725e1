"""Generalized Lagrange series and the shift-conjugation transform A_n^beta.

For a series a with a(0) = 1 and rational beta, the generalized Lagrange
series b is the unique series with b(x a^-beta(x)) = a(x).  Its powers are
built one way, lagrange_coeffs, by the coefficient formula
[x^n] b^phi = phi/(phi + beta n) [x^n] a^(phi + beta n), whose one
singularity at phi + beta n = 0 is removable.  lagrange_series (reversion
plus composition) is the verify row "functional equations of the
deformation".

A_n^beta maps alpha~ of a to alpha~ of b.  It is built one way: U_n
applied to the columns of E^(n beta) U_n^-1, E^s the shift c(x) -> c(x+s).
The paper's other two constructions, V_n^-1 D T^t D^-1 V_n and the
truncated exponential of the nilpotent generator log_abeta, are the
verify row "three constructions agree".
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import DegreeTooHigh, OutOfRange
from .gep import matrix_u, shifted_u_inv_columns
from .matrix import RMatrix
from .series import (
    Poly,
    Series,
    as_rational,
    compose,
    derivative,
    log,
    power,
    reversion,
)


def rational_binomial(r, k: int) -> Fraction:
    """Generalized binomial C(r, k) = r(r-1)...(r-k+1)/k! for rational r."""
    r = as_rational(r)
    if k < 0:
        return Fraction(0)
    num = Fraction(1)
    for i in range(k):
        num *= r - i
    return num / factorial(k)


def lagrange_coeffs(a: Series, beta, order: int, phi=1) -> Series:
    """The phi-th power of the deformed series, coefficient by coefficient.

    Coefficient n is phi/(phi + beta n) [x^n] a^(phi + beta n).  At the one
    n with phi + beta n = 0 the singularity is removable: by Lagrange-Buermann
    [x^n] b^phi = (phi/n) [x^(n-1)] a' a^(phi + beta n - 1), there phi [x^n] log a.
    """
    phi, beta = as_rational(phi), as_rational(beta)
    if a.coeff(0) != 1:
        raise OutOfRange("Lagrange family needs a(0) = 1")
    if a.order < order:
        raise OutOfRange(f"series order {a.order} below requested order {order}")
    a = a.truncate(order)
    if phi == 0:
        return Series.one(order)
    if beta == 0:
        return power(a, phi)
    step = power(a, beta)
    acc = power(a, phi)  # holds a^(phi + beta*n) after n steps
    out = [Fraction(1)]
    for n in range(1, order + 1):
        denom = phi + beta * n
        acc = acc * step
        out.append(phi / denom * acc.coeff(n) if denom else phi * log(a).coeff(n))
    return Series(out)


def lagrange_series(a: Series, beta, order: int) -> Series:
    """The deformed series by reversion and composition, the verify route.

    Solves b(x a^-beta(x)) = a(x) by compositional inversion of
    w = x a^-beta, so b = a(w^<-1>).  The verify row "functional equations
    of the deformation" compares it with lagrange_coeffs.
    """
    beta = as_rational(beta)
    if a.coeff(0) != 1:
        raise OutOfRange("needs a(0) = 1")
    if a.order < order:
        raise OutOfRange(f"series order {a.order} below requested order {order}")
    a = a.truncate(order)
    if beta == 0:
        return a
    w = Series.x(order) * power(a, -beta)
    return compose(a, reversion(w))


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
    rows = []
    if v == 0:
        for k in k_range:
            rows.append(power(a.truncate(cols), beta * k).coeffs[:cols])
        return RMatrix(rows)
    b = lagrange_coeffs(a, v * beta, cols)
    weight = Series.one(cols) + Series.x(cols) * derivative(log(b)).truncate(cols - 1) * (
        v * beta
    )
    for k in k_range:
        r = weight * power(b, beta * k)
        rows.append(r.coeffs[:cols])
    return RMatrix(rows)


def diagonal_table_direct(a: Series, beta, v: int, k_range, cols: int) -> RMatrix:
    """Independent entry formula for the same table: entry (k, j) = [x^j] a^(beta(k+vj))."""
    beta = as_rational(beta)
    rows = []
    for k in k_range:
        rows.append(
            [power(a.truncate(j if j > 0 else 0), beta * (k + v * j)).coeff(j) for j in range(cols)]
        )
    return RMatrix(rows)


class ABetaMatrix:
    __slots__ = ("n", "beta", "matrix")

    def __init__(self, n: int, beta, matrix: RMatrix):
        self.n = n
        self.beta = as_rational(beta)
        self.matrix = matrix

    def __repr__(self):
        return f"ABetaMatrix(n={self.n}, beta={self.beta})"


def log_abeta(n: int) -> RMatrix:
    """The nilpotent generator U_n (n D) U_n^-1, D differentiation on coefficient
    columns: U_n times the columns n c' of U_n^-1."""
    return matrix_u(n) * RMatrix.from_cols(
        [n * k * c[k] for k in range(1, n)] + [0] for c in shifted_u_inv_columns(n, 0)
    )


def abeta_matrix(n: int, beta) -> ABetaMatrix:
    """A_n^beta = U_n E^(n beta) U_n^-1, one matrix product."""
    beta = as_rational(beta)
    if n < 1:
        raise OutOfRange("n must be positive")
    return ABetaMatrix(n, beta, matrix_u(n) * RMatrix.from_cols(shifted_u_inv_columns(n, n * beta)))


def abeta_apply(A: ABetaMatrix, alpha_tilde: Poly) -> Poly:
    """alpha~ of the deformed series from alpha~ of a."""
    if alpha_tilde.degree() >= A.n:
        raise DegreeTooHigh(f"polynomial degree must be < {A.n}")
    return Poly(A.matrix.apply(alpha_tilde.to_vector(A.n)))


def gbs_alpha_closed_form(n: int, beta) -> Poly:
    """alpha_n of the deformed series of 1+x, in closed binomial form.

    (1/n) sum_{m=1}^{n} C(n(1-beta), m-1) C(n beta, n-m) x^m.
    """
    beta = as_rational(beta)
    if n < 1:
        raise OutOfRange("n must be positive")
    out = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        out[m] = rational_binomial(n * (1 - beta), m - 1) * rational_binomial(
            n * beta, n - m
        ) / n
    return Poly(out)


def vtilde_transform(n: int, beta, v_tilde: Poly) -> Poly:
    """v~ of the deformed series from v~ of a: D T^t D^-1 applied to the column."""
    beta = as_rational(beta)
    if v_tilde.degree() >= n:
        raise DegreeTooHigh(f"polynomial degree must be < {n}")
    vec = [c / (i + 1) for i, c in enumerate(v_tilde.to_vector(n))]
    # T^t is Toeplitz: entry (i, j) is C(n beta, j - i)
    binoms = [rational_binomial(n * beta, k) for k in range(n)]
    return Poly([(i + 1) * sum(map(Fraction.__mul__, binoms, vec[i:])) for i in range(n)])
