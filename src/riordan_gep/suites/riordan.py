"""Suite `riordan`: the fundamental theorem, Pascal powers and row numerators."""

from __future__ import annotations

from math import comb

from .. import gep, riordan
from ..errors import KindMismatch
from ..matrix import RMatrix
from ..series import Poly, Series, as_rational, binomial_poly, reciprocal
from ..verify import _cap, _frac, _same, _series, _series_a1_nonzero


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
            _same(lhs, riordan.window(A, size, size) * riordan.window(B, size, size), B=B.kind.value)


def pascal_power(phi, size: int) -> RMatrix:
    """Finite window of the phi-th Pascal power: entries C(n,k) * phi^(n-k)."""
    phi = as_rational(phi)
    return RMatrix(
        [
            [comb(n, k) * phi ** (n - k) if k <= n else 0 for k in range(size)]
            for n in range(size)
        ]
    )


def check_pascal_group(rng, max_n):
    size = _cap(8, max_n)
    for _ in range(5):
        p, q = _frac(rng), _frac(rng)
        lhs = pascal_power(p, size) * pascal_power(q, size)
        _same(lhs, pascal_power(p + q, size), p=p, q=q)


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
        _same(riordan.window(lhs, size, size), riordan.window(rhs, size, size))


def check_shift_is_pascal_transpose(rng, max_n):
    size = _cap(8, max_n)
    order = size + 2
    shift = riordan.RiordanArray(
        riordan.RiordanKind.SQUARE, Series.one(order), Series([1, 1], order=order)
    )
    _same(riordan.window(shift, size, size), pascal_power(1, size).transpose())


def row_numerator(A: riordan.RiordanArray, n: int) -> Poly:
    """Numerator polynomial of row n of a square array (b, a).

    Row n of (b, a) has generating function N(x)/(1-x)^(n+1) with
    deg N <= n.  Computed by multiplying the row by (1-x)^(n+1) out to
    2n+2 columns; _same checks that coefficients n+1..2n+2 vanish.
    """
    if A.kind is not riordan.RiordanKind.SQUARE:
        raise KindMismatch("row numerator is defined for square arrays")
    cols = 2 * n + 3
    prod = riordan.row_of_pair(A.f, A.g, n, cols) * binomial_poly(n + 1, -1)
    _same(Poly(prod.coeffs[n + 1 : cols]), Poly(), n=n)
    return Poly(prod.coeffs[: n + 1])


def check_row_numerator(rng, max_n):
    n = _cap(6, max_n)
    order = 2 * n + 2
    for _ in range(4):
        a = _series(rng, order, a0=1)
        A = riordan.RiordanArray(riordan.RiordanKind.SQUARE, Series.one(order), a)
        # row_numerator's own _same checks that the numerator has degree <= n
        _same(row_numerator(A, n), gep.GepContext(a, n).alpha)
