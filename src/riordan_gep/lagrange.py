"""Generalized Lagrange series and the shift-conjugation transform A_n^beta.

For a series a with a(0) = 1 and rational beta, the generalized Lagrange
series b is the unique series with b(x a^-beta(x)) = a(x).  Its powers are
built one way, lagrange_coeffs, by the coefficient formula
[x^n] b^phi = phi/(phi + beta n) [x^n] a^(phi + beta n), whose one
singularity at phi + beta n = 0 is removable.

A_n^beta maps alpha~ of a to alpha~ of b.  It is built one way: U_n
applied to the columns of E^(n beta) U_n^-1, E^s the shift c(x) -> c(x+s).

Every other route lives on the verify side: suites/abeta.py builds the
paper's V_n^-1 D T^t D^-1 V_n, the closed binomial form of alpha_n for
1+x and the diagonal tables, and compares them.  Two routes stay
here because perfbench traces them by module: lagrange_series (reversion
plus composition, row "functional equations of the deformation") and
log_abeta (the truncated exponential of row "three constructions agree").
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OutOfRange
from .gep import matrix_u, shifted_u_inv_columns
from .matrix import RMatrix
from .series import Series, as_rational, compose, log, power, reversion


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


def log_abeta(n: int) -> RMatrix:
    """The nilpotent generator U_n (n D) U_n^-1, D differentiation on coefficient
    columns: U_n times the columns n c' of U_n^-1."""
    return matrix_u(n) * RMatrix.from_cols(
        [n * k * c[k] for k in range(1, n)] + [0] for c in shifted_u_inv_columns(n, 0)
    )


def abeta_matrix(n: int, beta) -> RMatrix:
    """A_n^beta = U_n E^(n beta) U_n^-1, one matrix product."""
    beta = as_rational(beta)
    if n < 1:
        raise OutOfRange("n must be positive")
    return matrix_u(n) * RMatrix.from_cols(shifted_u_inv_columns(n, n * beta))

