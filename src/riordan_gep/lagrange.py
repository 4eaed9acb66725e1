"""Generalized Lagrange series and the shift-conjugation transform A_n^beta.

For a series a with a(0) = 1 and rational beta, the generalized Lagrange
series b = lagrange_series(a, beta) is the unique series with
b(x a^-beta(x)) = a(x); its powers satisfy the coefficient formula
[x^n] b^phi = phi/(phi + beta n) [x^n] a^(phi + beta n).

A_n^beta maps alpha~ of a to alpha~ of b and can be built three ways:
conjugating the argument shift x -> x + n beta by U_n, the diagonal
construction V_n^-1 D T^t D^-1 V_n, or the truncated exponential of
n * (conjugated differentiation).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import DegreeTooHigh, OutOfRange, PoleAtCoefficient
from .gep import matrix_u, matrix_u_inv, matrix_v, matrix_v_inv
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


class LagrangeFamily:
    """A base series (a(0) = 1), a rational deformation parameter, and an order."""

    __slots__ = ("a", "beta", "order")

    def __init__(self, a: Series, beta, order: int):
        beta = as_rational(beta)
        if a.coeff(0) != 1:
            raise OutOfRange("Lagrange family needs a(0) = 1")
        if a.order < order:
            raise OutOfRange(f"series order {a.order} below requested order {order}")
        self.a = a
        self.beta = beta
        self.order = order


def lagrange_coeffs(fam: LagrangeFamily, phi) -> Series:
    """The phi-th power of the deformed series, coefficient by coefficient.

    Coefficient n is phi/(phi + beta n) [x^n] a^(phi + beta n).  When
    phi + beta n = 0 exact arithmetic cannot take the limit and
    PoleAtCoefficient is raised; pick phi (or use lagrange_series) to
    avoid poles.
    """
    phi = as_rational(phi)
    beta, order, a = fam.beta, fam.order, fam.a
    if phi == 0:
        return Series.one(order)
    if beta == 0:
        return power(a.truncate(order), phi)
    step = power(a.truncate(order), beta)
    acc = power(a.truncate(order), phi)  # holds a^(phi + beta*n) after n steps
    out = [Fraction(1)]
    for n in range(1, order + 1):
        denom = phi + beta * n
        if denom == 0:
            raise PoleAtCoefficient(n)
        acc = acc * step
        out.append(phi / denom * acc.coeff(n))
    return Series(out)


def lagrange_series(a: Series, beta, order: int) -> Series:
    """Pole-free construction through the functional equation.

    Solves b(x a^-beta(x)) = a(x) by compositional inversion of
    w = x a^-beta, so b = a(w^<-1>).  Agrees with lagrange_coeffs at
    phi = 1 wherever the coefficient formula has no pole.
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
        (1 + x v beta (log b)') b^(beta k),   b = lagrange_series(a, v beta),
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
    b = lagrange_series(a, v * beta, cols)
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


def _shift_matrix(n: int, s) -> RMatrix:
    """Action of c(x) -> c(x+s) on coefficient columns of degree-<n polynomials."""
    from math import comb

    s = as_rational(s)
    cols = []
    for j in range(n):
        cols.append([comb(j, i) * s ** (j - i) if i <= j else Fraction(0) for i in range(n)])
    return RMatrix.from_cols(cols)


def _diff_matrix(n: int) -> RMatrix:
    """Differentiation on coefficient columns: column j has j at row j-1."""
    return RMatrix(
        [[Fraction(j) if i == j - 1 else Fraction(0) for j in range(n)] for i in range(n)]
    )


def log_abeta(n: int) -> RMatrix:
    """The nilpotent generator: U_n . (n D) . U_n^-1."""
    return matrix_u(n) * (_diff_matrix(n) * n) * matrix_u_inv(n)


def abeta_matrix(n: int, beta, construction: str = "conj") -> ABetaMatrix:
    """A_n^beta by one of the three constructions: 'conj', 'dtilde' or 'log'."""
    beta = as_rational(beta)
    if n < 1:
        raise OutOfRange("n must be positive")
    if construction == "conj":
        mat = matrix_u(n) * _shift_matrix(n, n * beta) * matrix_u_inv(n)
    elif construction == "dtilde":
        t = RMatrix(
            [[rational_binomial(n * beta, j - i) for j in range(n)] for i in range(n)]
        )
        d = RMatrix.diagonal(range(1, n + 1))
        d_inv = RMatrix.diagonal([Fraction(1, i) for i in range(1, n + 1)])
        mat = matrix_v_inv(n) * d * t * d_inv * matrix_v(n)
    elif construction == "log":
        gen = log_abeta(n)
        mat = RMatrix.identity(n)
        term = RMatrix.identity(n)
        for m in range(1, n):
            term = term * gen
            mat = mat + term * (beta**m / factorial(m))
    else:
        raise OutOfRange(f"unknown construction {construction!r}")
    return ABetaMatrix(n, beta, mat)


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
    vec = list(v_tilde.to_vector(n))
    vec = [c / (i + 1) for i, c in enumerate(vec)]
    t = RMatrix([[rational_binomial(n * beta, j - i) for j in range(n)] for i in range(n)])
    vec = t.apply(vec)
    return Poly([c * (i + 1) for i, c in enumerate(vec)])
