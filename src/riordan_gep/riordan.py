"""Riordan arrays in three flavors, their windows and the decimation operator.

An ordinary array (f, g) with g(0) = 0 is lower triangular with column k
generated by f*g^k.  A "square" array (b, a) with a(0) = 1 has infinite
rows; only finite windows are ever materialized, one series product per
column, and every read (window, row_of_pair, entry) cuts f and g to its
last row first.  Exponential arrays are the diagonal factorial
conjugation of ordinary ones.

The Pascal powers and row numerators that verify checks these windows
against live in suites/riordan.py.  riordan_mul, which only verify
calls, stays here because perfbench traces it as riordan.riordan_mul.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import accumulate
from math import factorial
from operator import mul

from .errors import InsufficientOrder, KindMismatch
from .matrix import RMatrix
from .series import Poly, Series, compose, power


class RiordanKind(enum.Enum):
    ORDINARY = "ordinary"
    SQUARE = "square"
    EXPONENTIAL = "exponential"


class RiordanArray:
    """Pair of series (f, g) under one of the three kind conventions."""

    __slots__ = ("kind", "f", "g")

    def __init__(self, kind: RiordanKind, f: Series, g: Series):
        if kind is RiordanKind.SQUARE:
            if g.coeff(0) != 1:
                raise KindMismatch("square array needs a(0) = 1")
        else:
            if g.coeff(0) != 0:
                raise KindMismatch("triangular array needs g(0) = 0")
            if g.order < 1 or g.coeff(1) == 0:
                raise KindMismatch("triangular array needs g'(0) != 0")
            if f.coeff(0) == 0:
                raise KindMismatch("triangular array needs f(0) != 0")
        self.kind = kind
        self.f = f
        self.g = g

    def __repr__(self):
        return f"RiordanArray({self.kind.value}, {self.f!r}, {self.g!r})"


def _to_row(s: Series, n: int) -> Series:
    """s cut to order n: rows 0..n of any column f*g^k read nothing past x^n."""
    return s.truncate(n) if n < s.order else s


def _columns(f: Series, g: Series, cols: int) -> list:
    """The column series f*g^k for k = 0..cols-1, one product each (none for f*g when f = 1)."""
    out = []
    for k in range(cols):
        if not k:
            out.append(f)
        elif k == 1 and f.coeffs[0] == 1 and not any(f.coeffs[1:]):
            out.append(g.truncate(min(f.order, g.order)))
        else:
            out.append(out[-1] * g)
    return out


def row_of_pair(f: Series, g: Series, n: int, cols: int) -> Poly:
    """Row n of the array with column gf f*g^k, for any series pair.

    Bypasses the RiordanArray kind checks; used for arrays whose g has
    higher valuation (still row-finite when g(0) = 0).
    """
    return Poly([col.coeff(n) for col in _columns(_to_row(f, n), _to_row(g, n), cols)])


def entry(A: RiordanArray, n: int, k: int) -> Fraction:
    """Matrix entry (n, k); exponential arrays carry the n!/k! scaling."""
    if n < 0 or k < 0:
        raise InsufficientOrder("indices must be nonnegative")
    c = (_to_row(A.f, n) * power(_to_row(A.g, n), k)).coeff(n)
    if A.kind is RiordanKind.EXPONENTIAL:
        c = c * Fraction(factorial(n), factorial(k))
    return c


def window(A: RiordanArray, rows: int, cols: int) -> RMatrix:
    """Rows 0..rows-1 and columns 0..cols-1, read off the column series."""
    columns = _columns(_to_row(A.f, rows - 1), _to_row(A.g, rows - 1), cols)
    M = RMatrix([[col.coeff(n) for col in columns] for n in range(rows)])
    return exp_conjugate(M) if A.kind is RiordanKind.EXPONENTIAL else M


def riordan_mul(A: RiordanArray, B: RiordanArray) -> RiordanArray:
    """(f, g)(b, a) = (f * b(g), a(g)); the left factor must be triangular."""
    pairs = {
        (RiordanKind.ORDINARY, RiordanKind.ORDINARY): RiordanKind.ORDINARY,
        (RiordanKind.ORDINARY, RiordanKind.SQUARE): RiordanKind.SQUARE,
        (RiordanKind.EXPONENTIAL, RiordanKind.EXPONENTIAL): RiordanKind.EXPONENTIAL,
    }
    result_kind = pairs.get((A.kind, B.kind))
    if result_kind is None:
        raise KindMismatch(f"cannot multiply {A.kind.value} by {B.kind.value}")
    f = A.f * compose(B.f, A.g)
    g = compose(B.g, A.g)
    return RiordanArray(result_kind, f, g)


def decimate(b: Series, m: int, rows: int, cols: int) -> RMatrix:
    """Window of the m-decimated Toeplitz array: entry (n,k) = b[m*n + m-1 - k].

    Row n is row m*n + m - 1 of the ordinary Toeplitz array of b.
    """
    if m < 1:
        raise InsufficientOrder("decimation step must be >= 1")
    top = m * (rows - 1) + m - 1
    if b.order < top:
        raise InsufficientOrder(
            f"decimation needs coefficients up to {top}, series has order {b.order}"
        )
    out = []
    for n in range(rows):
        base = m * n + m - 1
        out.append([b.coeff(base - k) if base - k >= 0 else 0 for k in range(cols)])
    return RMatrix(out)


def exp_conjugate(M: RMatrix) -> RMatrix:
    """Conjugate by the factorial diagonal: entry (n,k) scaled by n!/k!.

    Sends the window of an ordinary array (f, g) to the window of its
    exponential counterpart, e.g. the window of (e^x, x) to Pascal.  The
    factorials come from one running list; zero entries stay as they are.
    """
    fact = list(accumulate(range(1, max(M.rows, M.cols)), mul, initial=1))
    return RMatrix._of(tuple(tuple(c * Fraction(fact[n], fact[k]) if c else c for k, c in enumerate(row))
                             for n, row in enumerate(M.entries)))

