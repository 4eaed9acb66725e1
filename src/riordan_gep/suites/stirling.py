"""Suite `stirling`: Stirling orthogonality and the Bell sums behind u and v."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .. import gep, stirling
from ..errors import OutOfRange
from ..series import Poly, Series, as_rational, log
from ..verify import _cap, _same, _series, _value


def check_stirling_orthogonality(rng, max_n):
    top = _cap(12, max_n + 4 if max_n else 12)
    for n in range(top + 1):
        for m in range(top + 1):
            s = sum(
                stirling.stirling1_signed(n, k) * stirling.stirling2(k, m)
                for k in range(m, n + 1)
            )
            _same(s, 1 if n == m else 0, n=n, m=m)


def additive_partitions(n: int, m: int):
    """All partitions of n into exactly m parts >= 1, as {part: multiplicity}."""
    out = []

    def rec(remaining, parts_left, max_part, acc):
        if parts_left == 0:
            if remaining == 0:
                out.append(dict(acc))
            return
        for p in range(min(max_part, remaining - parts_left + 1), 0, -1):
            acc[p] = acc.get(p, 0) + 1
            rec(remaining - p, parts_left - 1, p, acc)
            if acc[p] == 1:
                del acc[p]
            else:
                acc[p] -= 1

    if n >= 1 and m >= 1:
        rec(n, m, n, {})
    return out


def bell_partial(n: int, m: int, a) -> Fraction:
    """Partial Bell sum over additive partitions of n into m parts.

    `a` lists the values a_1..a_n, so a[0] is the index-1 entry.  The sum is
    stirling's, over partitions instead of multiplicative decompositions.
    """
    if not (1 <= m <= n):
        raise OutOfRange(f"bell_partial needs 1 <= m <= n, got ({n}, {m})")
    if len(a) < n:
        raise OutOfRange(f"need at least {n} coefficients, got {len(a)}")
    a = [as_rational(v) for v in a]
    return stirling._bell_sum(additive_partitions(n, m), a, 1)


def check_v_is_bell(rng, max_n):
    n = _cap(8, max_n)
    order = 2 * n + 2
    for _ in range(4):
        a = _series(rng, order, a0=1)
        ctx = gep.GepContext(a, n)
        for m in range(1, n + 1):
            _same(ctx.v.coeff(m), bell_partial(n, m, a.coeffs[1 : n + 1]), m=m)


def check_log_coeff_identity(rng, max_n):
    p_top = _cap(8, max_n)
    for _ in range(4):
        a = _series(rng, p_top + 1, a0=1)
        la = log(a)
        for p in range(1, p_top + 1):
            s = sum(
                Fraction((-1) ** (m + 1), m) * bell_partial(p, m, a.coeffs[1 : p + 1])
                for m in range(1, p + 1)
            )
            _same(s, la.coeff(p), p=p)


def check_u_bell_identity(rng, max_n):
    n = _cap(8, max_n)
    order = 2 * n + 2
    for _ in range(4):
        a = _series(rng, order, a0=1)
        ctx = gep.GepContext(a, n)
        an, acc = a.truncate(n), Series.one(n)
        for m in range(n + 1):  # u_n(m) = n! [x^n]a^m
            _same(_value(ctx.u, m), factorial(n) * acc.coeff(n), m=m)
            acc = acc * an
        b = log(a)
        expected = Poly(
            [Fraction(0)]
            + [
                Fraction(factorial(n), factorial(m)) * bell_partial(n, m, b.coeffs[1 : n + 1])
                for m in range(1, n + 1)
            ]
        )
        _same(ctx.u, expected)
