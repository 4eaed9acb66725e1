"""Formal Dirichlet series and the multiplicative analogue of the GEP pipeline.

A DirichletSeries stores exact coefficients for indices 1..N; the product
is divisor convolution.  The row polynomials of the power arrays <a>,
<a-1>, <log a> mirror the power-series case with additive partitions
replaced by decompositions into factors >= 2, and the numerator of row n
lives over (1-x)^(Omega(n)+1).

The kernels work on integer numerators: inv and log are one exact division
(log through the derivation f -> Omega f), mul convolves over common
denominators, and exp sums over the decompositions of n into factors >= 2.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

from .errors import LeadingCoefficientNotOne, NotPolynomial, OutOfRange
from .gep import alpha_from_v, matrix_u  # noqa: F401  perfbench's tracer test pins the matrix_u alias
from .matrix import RMatrix
from .series import Poly, as_rational, binomial_poly, over_lcm
from .stirling import big_omega, divisors, factorize  # noqa: F401  sieve-backed, re-exported
from .stirling import bell_partial_mult, mult_decompositions

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DirichletSeries:
    """Coefficients a_1..a_N of a truncated formal Dirichlet series."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(as_rational(c) for c in coeffs)
        if not cs:
            raise ValueError("need at least the leading coefficient a_1")
        self.coeffs = cs

    @classmethod
    def _of(cls, coeffs: tuple):
        """Wrap a nonempty tuple of Fractions as it is."""
        s = cls.__new__(cls)
        s.coeffs = coeffs
        return s

    @classmethod
    def zeta(cls, n_max: int):
        return cls((_ONE,) * n_max)

    @classmethod
    def one(cls, n_max: int):
        return cls((_ONE,) + (_ZERO,) * (n_max - 1))

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


def dirichlet_mul(a: DirichletSeries, b: DirichletSeries) -> DirichletSeries:
    """Divisor convolution: coefficient n is sum over d|n of a_d b_{n/d}.

    Both operands become integer numerators over their common denominators
    da, db; the numerators are convolved over i*j <= N as integers, and each
    output is one Fraction over da*db (zeros share one Fraction object).
    Unlike _divide, it bets that the denominators share factors, as they do
    for every series the CLI builds (ROADMAP item 1 weighs the per-index push).
    """
    n_max = min(a.n_max, b.n_max)
    na, da = over_lcm(a.coeffs[:n_max])
    nb, db = over_lcm(b.coeffs[:n_max])
    out = [0] * (n_max + 1)  # out[n] is the numerator of coefficient n
    for i, x in enumerate(na, 1):
        if x:
            out[i::i] = [v + x * y for v, y in zip(out[i::i], nb)]
    d = da * db
    return DirichletSeries._of(tuple(Fraction(v, d) if v else _ZERO for v in out[1:]))


def _divide(b, a) -> tuple:
    """The coefficients y = b * a^-1 of two coefficient tuples of one length, a_1 = 1.

    The forward recurrence y_n = b_n - sum_{k|n, k<n} y_k a_{n/k}: once y_k is
    final, y_k a_m is added to index k*m as an integer pair.  Each index keeps
    one running numerator over the lcm of the denominators pushed to it, so
    it sees only the denominators of its own divisors.
    """
    n_max = len(a)
    nums, dens = [c.numerator for c in a], [c.denominator for c in a]
    num, den = [0] * (n_max + 1), [1] * (n_max + 1)  # the sum pushed to index n
    out = []
    for n, x in enumerate(b, 1):
        if num[n]:
            x = Fraction(x.numerator * den[n] - num[n] * x.denominator, x.denominator * den[n])
        out.append(x or _ZERO)
        if not x:
            continue
        xn, xd = x.numerator, x.denominator
        for m in range(2, n_max // n + 1):
            p = nums[m - 1]
            if p:
                j, p, q = n * m, xn * p, xd * dens[m - 1]
                if q == den[j]:
                    num[j] += p
                else:
                    dl = lcm(den[j], q)
                    num[j], den[j] = num[j] * (dl // den[j]) + p * (dl // q), dl
    return tuple(out)


def dirichlet_inv(a: DirichletSeries) -> DirichletSeries:
    """Convolution inverse, the division of the identity by a; requires a_1 = 1."""
    if a.coeff(1) != 1:
        raise LeadingCoefficientNotOne("inverse needs a_1 = 1")
    return DirichletSeries._of(_divide(DirichletSeries.one(a.n_max).coeffs, a.coeffs))


def _exp_term(coeffs, n: int) -> Fraction:
    """sum over decompositions of n into factors >= 2 of prod c_p^{m_p}/m_p!.

    This is sum_k (c^k)_n / k! for a series c with c_1 = 0, coefficient n of
    exp c.  The c_d with d | n are written as integers A_d over their common
    denominator D; the decompositions into k factors then add up to the
    integer S_k = sum k!/prod m_p! prod A_p^{m_p}, and the result is the one
    Fraction sum_k S_k / (k! D^k).
    """
    factors = divisors(n)[1:]
    nums, den = over_lcm([coeffs[d - 1] for d in factors])
    num = dict(zip(factors, nums))
    top = big_omega(n)
    total = 0  # over top! D^top
    for k in range(1, top + 1):
        s = 0
        for decomp in mult_decompositions(n, k):
            weight, prod = factorial(k), 1
            for factor, mult in decomp.items():
                x = num[factor]
                if not x:
                    break
                weight //= factorial(mult)
                prod *= x**mult
            else:
                s += weight * prod
        total += s * (factorial(top) // factorial(k)) * den ** (top - k)
    return Fraction(total, factorial(top) * den**top) if total else _ZERO


def dirichlet_log(a: DirichletSeries) -> DirichletSeries:
    """Formal logarithm; requires a_1 = 1.

    Omega is completely additive, so f -> Omega f is a derivation of the
    convolution, and L = log a satisfies Omega a = (Omega L) * a (Apostol,
    Introduction to Analytic Number Theory, 2.18).  So Omega L is the one
    division (Omega a) / a, and L_n is its coefficient n over Omega(n).
    """
    if a.coeff(1) != 1:
        raise LeadingCoefficientNotOne("log needs a_1 = 1")
    omega = [big_omega(n) for n in range(1, a.n_max + 1)]
    scaled = _divide(tuple(w * c for w, c in zip(omega, a.coeffs)), a.coeffs)
    return DirichletSeries._of(tuple(c / w if c else _ZERO for w, c in zip(omega, scaled)))


def dirichlet_exp(a: DirichletSeries) -> DirichletSeries:
    """Formal exponential of a series with a_1 = 0, by decomposition sums.

    On the benchmark's Dirichlet workload exp is the one caller of the traced
    stirling.mult_decompositions, so it keeps these sums until that span moves.
    """
    if a.coeff(1) != 0:
        raise LeadingCoefficientNotOne("exp needs a_1 = 0")
    out = [Fraction(1)]
    for n in range(2, a.n_max + 1):
        out.append(_exp_term(a.coeffs, n))
    return DirichletSeries(out)


def array_window(a: DirichletSeries, variant: str, rows: int, cols: int) -> RMatrix:
    """Window (rows 1..rows, columns k = 0..cols-1) of <a>, <a-1> or <log a>.

    Column k holds the coefficients of the k-th convolution power of the
    chosen base series, truncated to `rows`.
    """
    if rows < 1 or cols < 1:
        raise OutOfRange(f"window needs rows >= 1 and cols >= 1, got {rows}x{cols}")
    if rows > a.n_max:
        raise OutOfRange(f"only {a.n_max} coefficients available")
    a = DirichletSeries._of(a.coeffs[:rows])
    if variant == "plain":
        base = a
    elif variant == "minus-one":
        base = DirichletSeries._of((a.coeffs[0] - 1,) + a.coeffs[1:])
    elif variant == "log":
        base = dirichlet_log(a)
    else:
        raise OutOfRange(f"unknown variant {variant!r}")
    acc = DirichletSeries.one(rows)
    powers = [acc.coeffs]
    for _ in range(1, cols):
        acc = dirichlet_mul(acc, base)
        powers.append(acc.coeffs)
    return RMatrix._of(tuple(zip(*powers)))


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


def dir_alpha_poly(a: DirichletSeries, n: int) -> Poly:
    """Numerator of row n of <a> over (1-x)^(Omega(n)+1), from v_n as for power series."""
    if n < 2:
        raise OutOfRange("rows are defined for n >= 2")
    return alpha_from_v(dir_v_poly(a, n), big_omega(n))


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

