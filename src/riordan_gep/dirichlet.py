"""Formal Dirichlet series and the multiplicative analogue of the GEP pipeline.

A DirichletSeries stores exact coefficients for indices 1..N; the product
is divisor convolution.  The row polynomials of the power arrays <a>,
<a-1>, <log a> mirror the power-series case with additive partitions
replaced by decompositions into factors >= 2, and the numerator of row n
lives over (1-x)^(Omega(n)+1).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import LeadingCoefficientNotOne, NotPolynomial, OutOfRange
from .gep import matrix_u, matrix_v_inv  # noqa: F401  perfbench's tracer test pins the matrix_u alias
from .matrix import RMatrix
from .series import Poly, as_rational, binomial_poly
from .stirling import bell_partial_mult, mult_decompositions


def factorize(n: int) -> dict:
    """Prime factorization as {prime: exponent}."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def big_omega(n: int) -> int:
    """Number of prime factors with multiplicity; the degree v(n) of v_n."""
    return sum(factorize(n).values())


def divisors(n: int):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


class DirichletSeries:
    """Coefficients a_1..a_N of a truncated formal Dirichlet series."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(as_rational(c) for c in coeffs)
        if not cs:
            raise ValueError("need at least the leading coefficient a_1")
        self.coeffs = cs

    @classmethod
    def zeta(cls, n_max: int):
        return cls([1] * n_max)

    @classmethod
    def one(cls, n_max: int):
        return cls([1] + [0] * (n_max - 1))

    @property
    def n_max(self) -> int:
        return len(self.coeffs)

    def coeff(self, n: int) -> Fraction:
        if not (1 <= n <= self.n_max):
            raise OutOfRange(f"index {n} outside 1..{self.n_max}")
        return self.coeffs[n - 1]

    __getitem__ = coeff

    def __eq__(self, other):
        return isinstance(other, DirichletSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        return f"DirichletSeries([{head}{', ...' if self.n_max > 8 else ''}])"

    def __add__(self, other):
        n = min(self.n_max, other.n_max)
        return DirichletSeries([self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def __sub__(self, other):
        n = min(self.n_max, other.n_max)
        return DirichletSeries([self.coeffs[i] - other.coeffs[i] for i in range(n)])


def dirichlet_mul(a: DirichletSeries, b: DirichletSeries) -> DirichletSeries:
    """Divisor convolution: coefficient n is sum over d|n of a_d b_{n/d}."""
    n_max = min(a.n_max, b.n_max)
    out = [Fraction(0)] * n_max
    for i in range(1, n_max + 1):
        ai = a.coeffs[i - 1]
        if ai == 0:
            continue
        for j in range(1, n_max // i + 1):
            bj = b.coeffs[j - 1]
            if bj != 0:
                out[i * j - 1] += ai * bj
    return DirichletSeries(out)


def dirichlet_inv(a: DirichletSeries) -> DirichletSeries:
    """Convolution inverse; requires a_1 = 1."""
    if a.coeff(1) != 1:
        raise LeadingCoefficientNotOne("inverse needs a_1 = 1")
    n_max = a.n_max
    out = [Fraction(1)] + [Fraction(0)] * (n_max - 1)
    for n in range(2, n_max + 1):
        s = Fraction(0)
        for d in divisors(n):
            if d > 1:
                s += a.coeffs[d - 1] * out[n // d - 1]
        out[n - 1] = -s
    return DirichletSeries(out)


def _exp_term(log_coeffs, n: int) -> Fraction:
    """sum over decompositions of n into factors >= 2 of prod L_p^{m_p}/m_p!.

    This is sum_k (L^k)_n / k! for a series L with L_1 = 0.
    """
    total = Fraction(0)
    for m in range(1, big_omega(n) + 1):
        for decomp in mult_decompositions(n, m):
            term = Fraction(1)
            for factor, mult in decomp.items():
                c = log_coeffs[factor - 1]
                if c == 0:
                    term = Fraction(0)
                    break
                term *= c**mult / factorial(mult)
            total += term
    return total


def dirichlet_log(a: DirichletSeries) -> DirichletSeries:
    """Formal logarithm; requires a_1 = 1.

    Solved over the divisor lattice: at each n the coefficient L_n is a_n
    minus the exponential terms built from strictly smaller indices.
    """
    if a.coeff(1) != 1:
        raise LeadingCoefficientNotOne("log needs a_1 = 1")
    n_max = a.n_max
    out = [Fraction(0)] * n_max
    for n in range(2, n_max + 1):
        # out[n-1] is still 0 here, so the single-factor term drops out
        out[n - 1] = a.coeffs[n - 1] - _exp_term(out, n)
    return DirichletSeries(out)


def dirichlet_exp(a: DirichletSeries) -> DirichletSeries:
    """Formal exponential of a series with a_1 = 0."""
    if a.coeff(1) != 0:
        raise LeadingCoefficientNotOne("exp needs a_1 = 0")
    out = [Fraction(1)]
    for n in range(2, a.n_max + 1):
        out.append(_exp_term(a.coeffs, n))
    return DirichletSeries(out)


def dirichlet_pow(a: DirichletSeries, phi) -> DirichletSeries:
    """a^phi = exp(phi log a) for rational phi; requires a_1 = 1."""
    phi = as_rational(phi)
    la = dirichlet_log(a)
    return dirichlet_exp(DirichletSeries([phi * c for c in la.coeffs]))


def array_window(a: DirichletSeries, variant: str, rows: int, cols: int) -> RMatrix:
    """Window (rows 1..rows, columns k = 0..cols-1) of <a>, <a-1> or <log a>.

    Column k holds the coefficients of the k-th convolution power of the
    chosen base series.
    """
    if rows > a.n_max:
        raise OutOfRange(f"only {a.n_max} coefficients available")
    if variant == "plain":
        base = a
    elif variant == "minus-one":
        base = a - DirichletSeries.one(a.n_max)
    elif variant == "log":
        base = dirichlet_log(a)
    else:
        raise OutOfRange(f"unknown variant {variant!r}")
    cols_list = []
    acc = DirichletSeries.one(a.n_max)
    for k in range(cols):
        cols_list.append([acc.coeff(n) for n in range(1, rows + 1)])
        if k + 1 < cols:
            acc = dirichlet_mul(acc, base)
    return RMatrix.from_cols(cols_list)


def dir_v_poly(a: DirichletSeries, n: int) -> Poly:
    """Row n of <a-1>: coefficient m is the Bell sum over decompositions of n."""
    if n < 2:
        raise OutOfRange("rows are defined for n >= 2")
    if a.coeff(1) != 1:
        raise LeadingCoefficientNotOne("needs a_1 = 1")
    tail = a.coeffs[1:n]
    out = [Fraction(0)]
    for m in range(1, big_omega(n) + 1):
        out.append(bell_partial_mult(n, m, tail))
    return Poly(out)


def dir_u_poly(a: DirichletSeries, n: int) -> Poly:
    """The interpolation polynomial with u_n(m) = n! [a^m]_n.

    Computed from the log coefficients by the Bell sum:
    u_n = n! sum_m B~_{n,m}(b_2..b_n)/m! x^m with b = log a.
    """
    if n < 2:
        raise OutOfRange("rows are defined for n >= 2")
    b = dirichlet_log(a)
    tail = b.coeffs[1:n]
    out = [Fraction(0)]
    fn = factorial(n)
    for m in range(1, big_omega(n) + 1):
        out.append(Fraction(fn, factorial(m)) * bell_partial_mult(n, m, tail))
    return Poly(out)


def dir_alpha_poly(a: DirichletSeries, n: int) -> Poly:
    """Numerator of row n of <a> over (1-x)^(Omega(n)+1): x V^-1 applied to v~_n."""
    if n < 2:
        raise OutOfRange("rows are defined for n >= 2")
    omega = big_omega(n)
    v = dir_v_poly(a, n)
    vec = tuple(v.coeff(k) for k in range(1, omega + 1))
    return Poly(matrix_v_inv(omega).apply(vec)).shift_up(1)


def dir_alpha_reversal(a: DirichletSeries, n: int) -> Poly:
    """Numerator of row n of <a^-1>: (-1)^Omega(n) x Ihat alpha_n."""
    omega = big_omega(n)
    alpha = dir_alpha_poly(a, n)
    return (alpha.reversed_to(omega) * ((-1) ** omega)).shift_up(1)


def rising_factorial_poly(m: int) -> Poly:
    """x(x+1)...(x+m-1); the empty product for m = 0."""
    acc = Poly([1])
    for i in range(m):
        acc = acc * Poly([i, 1])
    return acc


def carlitz_hoggatt(r: int, p: int) -> Poly:
    """The degree p*r - p + 1 numerator of sum_m C(m+p-1, p)^r x^m.

    The sum is truncated at m = 2(p*r + 1); multiplying it by
    (1-x)^(p*r+1) must kill everything above the stated degree.
    Equals the <zeta> row numerator at n = (product of r distinct primes)^p.
    """
    if r < 1 or p < 1:
        raise OutOfRange("need r >= 1 and p >= 1")
    m_cut = 2 * (p * r + 1)
    series = Poly([Fraction(comb(m + p - 1, p)) ** r for m in range(m_cut + 1)])
    prod = series * binomial_poly(p * r + 1, -1)
    deg = p * r - p + 1
    for k in range(deg + 1, m_cut + 1):
        if prod.coeff(k) != 0:
            raise NotPolynomial(f"nonzero coefficient {k} above degree {deg}")
    return Poly([prod.coeff(k) for k in range(deg + 1)])


def carlitz_hoggatt_at_one(r: int, p: int) -> Fraction:
    """(p*r)! / (p!)^r, the coefficient sum of the Carlitz-Hoggatt polynomial."""
    return Fraction(factorial(p * r), factorial(p) ** r)
