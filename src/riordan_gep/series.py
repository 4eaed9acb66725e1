"""Exact truncated formal power series and polynomials over the rationals.

Coefficients are always fractions.Fraction; no floating point enters any
computation.  A Series carries an explicit truncation order and binary
operations truncate to the smaller of the two operand orders, so precision
is never silently promoted.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from .errors import (
    ConstantTermNotOne,
    DegreeTooHigh,
    InsufficientOrder,
    NonzeroConstantTerm,
    NotInvertibleForComposition,
    ZeroConstantTerm,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def over_lcm(values):
    """(integer numerators, d) with values[i] = numerators[i] / d, d the lcm of the
    denominators: how every exact integer kernel writes its Fraction operands."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _stripped(cs):
    """cs without its trailing zeros."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return cs[:n]


def _product(a, b, length: int) -> list:
    """Coefficients 0..length-1 of the product of two Fraction sequences.

    Each operand counts only up to its last nonzero coefficient, and one with
    a single nonzero term c x^k scales and shifts the other.  Otherwise
    Kronecker substitution: each operand becomes integer numerators over one
    common denominator, packed into one int with a byte-aligned slot per
    coefficient, wide enough for any signed coefficient of the product.  One
    bigint multiply does all the work; each slot is offset by half its range
    so packing and unpacking see only nonnegative slots.  `length` is at most
    len(a) + len(b) - 1.
    """
    a, b = _stripped(a), _stripped(b)
    if not a or not b:
        return [_ZERO] * length
    for p, q in ((a, b), (b, a)):
        if not any(p[:-1]):
            out = [_ZERO] * (len(p) - 1) + [p[-1] * v for v in q[: length - len(p) + 1]]
            return out[:length] + [_ZERO] * (length - len(out))
    na, da = over_lcm(a)
    nb, db = over_lcm(b)
    ma, mb = max(map(abs, na)), max(map(abs, nb))
    # |coefficient| <= min(len) * ma * mb, plus a sign bit, rounded up to bytes
    width = (ma.bit_length() + mb.bit_length() + min(len(a), len(b)).bit_length() + 8) // 8
    bias = 1 << (8 * width - 1)
    bias_bytes = bias.to_bytes(width, "little")

    def pack(nums):
        slots = b"".join((v + bias).to_bytes(width, "little") for v in nums)
        return int.from_bytes(slots, "little") - int.from_bytes(bias_bytes * len(nums), "little")

    size = width * length
    shifted = pack(na) * pack(nb) + int.from_bytes(bias_bytes * length, "little")
    data = (shifted & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    d = da * db
    return [
        Fraction(int.from_bytes(data[i : i + width], "little") - bias, d)
        for i in range(0, size, width)
    ]


def as_rational(value) -> Fraction:
    """Coerce int/str/Fraction to Fraction; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"exact rational expected, got {value!r}")


class Series:
    """Dense truncated power series: coefficients 0..order inclusive."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order=None):
        cs = [as_rational(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            else:
                cs.extend([_ZERO] * (order + 1 - len(cs)))
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, order):
        return cls([], order=order)

    @classmethod
    def one(cls, order):
        return cls([1], order=order)

    @classmethod
    def x(cls, order):
        return cls([0, 1], order=order)

    @classmethod
    def constant(cls, value, order):
        return cls([value], order=order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        if k < 0:
            return _ZERO
        if k > self.order:
            raise InsufficientOrder(
                f"coefficient {k} requested from a series truncated at order {self.order}"
            )
        return self.coeffs[k]

    __getitem__ = coeff

    def truncate(self, order: int) -> "Series":
        """Shrink to a smaller order.  Growing would invent coefficients."""
        if order > self.order:
            raise InsufficientOrder(
                f"cannot extend order {self.order} series to order {order}"
            )
        return Series(self.coeffs[: order + 1])

    def __eq__(self, other):
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"Series([{shown}{tail}]; order={self.order})"

    def __add__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])
        c = as_rational(other)
        return Series((self.coeffs[0] + c,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return Series([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Series) else -as_rational(other))

    def __rsub__(self, other):
        return (-self) + as_rational(other)

    def __mul__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series(_product(self.coeffs[: n + 1], other.coeffs[: n + 1], n + 1))
        c = as_rational(other)
        return Series([c * v for v in self.coeffs])

    __rmul__ = __mul__


def compose(a: Series, g: Series) -> Series:
    """a(g(x)), requires g(0) = 0.  Horner from the highest coefficient down."""
    if g.coeffs[0] != 0:
        raise NonzeroConstantTerm("composition needs inner constant term 0")
    n = min(a.order, g.order)
    g = g.truncate(n)
    acc = Series.constant(a.coeffs[n], n)
    for k in range(n - 1, -1, -1):
        acc = acc * g + a.coeffs[k]
    return acc


def _newton_orders(n: int):
    """Orders 1, 3, 7, ... capped at n: each Newton step doubles the correct terms."""
    m = 0
    while m < n:
        m = min(2 * m + 1, n)
        yield m


# Up to this many nonzero terms past the constant, the O(n t) recurrences
# below beat Newton's full-size products (measured at orders 128 and up).
_SPARSE_TERMS = 8


def _sparse_terms(a: Series):
    """The nonzero (k, a_k) with k >= 1, or None when there are more than _SPARSE_TERMS."""
    terms = [(k, c) for k, c in enumerate(a.coeffs) if k and c]
    return terms if len(terms) <= _SPARSE_TERMS else None


def _recurrence(a: Series, terms, y0, u, v, d, plus_a=False) -> Series:
    """y_0 = y0, n d y_n = sum_k (k u - n v) a_k y_(n-k) (+ n d a_n if plus_a).

    (d + v (a - a_0)) y' = (u - v) a' y (+ a') at x^(n-1), Miller's recurrence
    (Knuth, TAOCP 4.7): O(n t) operations over the t sparse terms of a.
    With no terms (a constant a) every y_n past y_0 is 0.
    """
    if not terms:
        return Series.constant(y0, a.order)
    cs, y = a.coeffs, [y0]
    for n in range(1, len(cs)):
        s = sum([(k * u - n * v) * c * y[n - k] for k, c in terms if k <= n], _ZERO) / (n * d)
        y.append(s + cs[n] if plus_a else s)
    return Series(y)


def reciprocal(a: Series) -> Series:
    """Multiplicative inverse; requires a(0) != 0.

    A sparse a takes the power recurrence at phi = -1; a dense one Newton's
    b <- b(2 - a b).
    """
    a0 = a.coeffs[0]
    if a0 == 0:
        raise ZeroConstantTerm("reciprocal needs nonzero constant term")
    terms = _sparse_terms(a)
    if terms is not None:
        return _recurrence(a, terms, 1 / a0, 0, 1, a0)
    b = Series([1 / a0])
    for m in _newton_orders(a.order):
        b = Series(b.coeffs, order=m)
        b = b * (2 - a.truncate(m) * b)
    return b


def log(a: Series) -> Series:
    """Formal logarithm; requires a(0) = 1.

    A sparse a takes n L_n = n a_n - sum_k (n - k) a_k L_(n-k); a dense one
    the integral of a' * (1/a).
    """
    if a.coeffs[0] != 1:
        raise ConstantTermNotOne("log needs constant term 1")
    terms = _sparse_terms(a)
    if terms is not None:
        return _recurrence(a, terms, _ZERO, 1, 1, 1, plus_a=True)
    q = derivative(a) * reciprocal(a.truncate(a.order - 1))
    return Series([_ZERO] + [c / k for k, c in enumerate(q.coeffs, 1)])


def exp(a: Series) -> Series:
    """Formal exponential; requires a(0) = 0.

    A sparse a takes n e_n = sum_k k a_k e_(n-k); a dense one Newton's
    e <- e(1 + a - log e).
    """
    if a.coeffs[0] != 0:
        raise NonzeroConstantTerm("exp needs constant term 0")
    terms = _sparse_terms(a)
    if terms is not None:
        return _recurrence(a, terms, _ONE, 1, 0, 1)
    e = Series.one(0)
    for m in _newton_orders(a.order):
        e = Series(e.coeffs, order=m)
        e = e * (1 + a.truncate(m) - log(e))
    return e


def power(a: Series, phi) -> Series:
    """a^phi for rational phi; fractional phi requires a(0) = 1.

    A sparse a with a(0) != 0 takes the recurrence
    n a_0 b_n = sum_k (k (phi + 1) - n) a_k b_(n-k) for negative or
    fractional phi.  Otherwise integer phi multiplies by repeated squaring
    (of 1/a when phi < 0), and fractional phi is exp(phi log a).  For
    integer phi >= 0, squaring beats the recurrence's Fraction steps while
    a^phi stays below the order, since it then multiplies short polynomials.
    Once a^phi reaches the order its products are full size, and the
    recurrence wins if its t terms are few against the ~2 log2(phi) products
    of squaring: 2 t < bit length of phi, the crossover measured at orders
    30 to 1000.
    """
    phi = as_rational(phi)
    a0 = a.coeffs[0]
    if phi.denominator != 1 and a0 != 1:
        raise ConstantTermNotOne("fractional power needs constant term 1")
    terms = _sparse_terms(a) if a0 else None
    if terms is not None and (
        phi < 0
        or phi.denominator != 1
        or terms and phi * terms[-1][0] >= a.order and 2 * len(terms) < phi.numerator.bit_length()
    ):
        # b_0 = a_0^phi, and a_0 = 1 when phi is fractional
        return _recurrence(a, terms, a0**phi.numerator, phi + 1, 1, a0)
    if phi.denominator != 1:
        return exp(log(a) * phi)
    e = int(phi)
    if e < 0:
        return power(reciprocal(a), -e)
    if not e:
        return Series.one(a.order)
    result, base = None, a
    while e:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    return result


def reversion(g: Series) -> Series:
    """Compositional inverse h with h(g(x)) = x = g(h(x)).

    Requires g(0) = 0 and g'(0) != 0; solved as a triangular system against
    the powers of g.
    """
    if g.coeffs[0] != 0 or g.order < 1 or g.coeffs[1] == 0:
        raise NotInvertibleForComposition(
            "compositional inverse needs g(0) = 0 and g'(0) != 0"
        )
    n = g.order
    g1 = g.coeffs[1]
    powers = [None, g]  # powers[k] = g^k
    for k in range(2, n + 1):
        powers.append(powers[-1] * g)
    h = [_ZERO, 1 / g1]
    for m in range(2, n + 1):
        s = _ZERO
        for k in range(1, m):
            if h[k] != 0:
                s += h[k] * powers[k].coeffs[m]
        h.append(-s / g1**m)
    return Series(h)


def derivative(a: Series) -> Series:
    if a.order == 0:
        return Series.zero(0)
    return Series([k * a.coeffs[k] for k in range(1, a.order + 1)])


class Poly:
    """Exact polynomial; trailing zeros are permitted and ignored by ==."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = tuple(as_rational(c) for c in coeffs)

    def degree(self) -> int:
        return len(_stripped(self.coeffs)) - 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return _ZERO

    __getitem__ = coeff

    def __eq__(self, other):
        return isinstance(other, Poly) and _stripped(self.coeffs) == _stripped(other.coeffs)

    def __repr__(self):
        return f"Poly({list(_stripped(self.coeffs))})"

    def __add__(self, other):
        if isinstance(other, Poly):
            n = max(len(self.coeffs), len(other.coeffs))
            return Poly([self.coeff(k) + other.coeff(k) for k in range(n)])
        return self + Poly([other])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-(other if isinstance(other, Poly) else Poly([other])))

    def __mul__(self, other):
        if isinstance(other, Poly):
            da, db = self.degree(), other.degree()
            if da < 0 or db < 0:
                return Poly()
            return Poly(_product(self.coeffs, other.coeffs, da + db + 1))
        c = as_rational(other)
        return Poly([c * v for v in self.coeffs])

    __rmul__ = __mul__

    def shift_up(self, k=1) -> "Poly":
        """Multiply by x^k."""
        return Poly((0,) * k + self.coeffs)

    def shift_down(self, k=1) -> "Poly":
        """Divide by x^k; the low k coefficients must vanish."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValueError("polynomial is not divisible by x^%d" % k)
        return Poly(self.coeffs[k:])

    def to_vector(self, length: int):
        if self.degree() >= length:
            raise DegreeTooHigh(
                f"degree {self.degree()} polynomial does not fit in {length} slots"
            )
        return tuple(self.coeff(k) for k in range(length))


def binomial_poly(k: int, sign: int = 1) -> Poly:
    """(1 + sign*x)^k as a polynomial, k >= 0."""
    return Poly([comb(k, j) * (sign**j) for j in range(k + 1)])

