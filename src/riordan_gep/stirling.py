"""Stirling numbers, the factor sieve, decomposition enumeration and partial Bell sums.

The Bell sums use the plain multiplicity normalization
    B~_{n,m}(a) = sum m!/(m_1! ... m_k!) * a_{d_1}^{m_1} ... a_{d_k}^{m_k}
over the decompositions of n into m factors >= 2; there is no a_i/i!
weighting.  The additive B_{n,m} over partitions of n, which only
verify uses, is suites.stirling.bell_partial on this _bell_sum.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt

from .errors import OutOfRange
from .series import as_rational

# growable triangles: _s2[n][k], _s1[n][k] (signed)
_s2 = [[1]]
_s1 = [[1]]


def _grow(table, second_kind, n):
    while len(table) <= n:
        r = len(table)
        prev = table[-1]
        row = [0] * (r + 1)
        for k in range(1, r + 1):
            left = prev[k - 1]
            mid = prev[k] if k < r else 0
            if second_kind:
                row[k] = k * mid + left
            else:
                row[k] = left - (r - 1) * mid
        table.append(row)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind (set partitions into k blocks)."""
    if n < 0 or k < 0 or k > n:
        raise OutOfRange(f"stirling2 needs 0 <= k <= n, got ({n}, {k})")
    _grow(_s2, True, n)
    return _s2[n][k]


def stirling1_signed(n: int, k: int) -> int:
    """Signed Stirling number of the first kind: sum_k s(n,k) x^k = falling factorial."""
    if n < 0 or k < 0 or k > n:
        raise OutOfRange(f"stirling1 needs 0 <= k <= n, got ({n}, {k})")
    _grow(_s1, False, n)
    return _s1[n][k]


# growable sieve: _spf[n] is the smallest prime factor of n (n itself for
# n < 2) and _omega[n] = Omega(n), for 0 <= n < len(_spf)
_spf = [0, 1]
_omega = [0, 0]


def _grow_sieve(n):
    global _spf, _omega
    if n < len(_spf):
        return
    size = max(n + 1, 2 * len(_spf))
    spf = list(range(size))
    # descending, so the smallest divisor p with p*p <= k writes spf[k] last
    for p in range(isqrt(size - 1), 1, -1):
        spf[p * p :: p] = [p] * len(range(p * p, size, p))
    omega = [0] * size
    for k in range(2, size):
        omega[k] = omega[k // spf[k]] + 1
    _spf, _omega = spf, omega


def factorize(n: int) -> dict:
    """Prime factorization as {prime: exponent}, primes ascending."""
    _grow_sieve(n)
    spf, out = _spf, {}
    while n > 1:
        p = spf[n]
        out[p] = out.get(p, 0) + 1
        n //= p
    return out


def big_omega(n: int) -> int:
    """Number of prime factors with multiplicity; 0 for n < 2."""
    if n < 2:
        return 0
    _grow_sieve(n)
    return _omega[n]


def divisors(n: int) -> list:
    """Divisors of n in ascending order, built from its factorization."""
    if n < 1:
        return []
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    out.sort()
    return out


def mult_decompositions(n: int, m: int):
    """All decompositions of n into exactly m factors >= 2, as {factor: multiplicity}.

    Factors never increase along a decomposition: the list runs through the
    largest first factor first, and so on down, and each dict lists its
    factors in decreasing order.  The search walks divisors only: n's are
    built once from its factorization, each level keeps those of the rest
    that are at most the factor just taken, a branch is cut when the rest
    has fewer than parts_left - 1 prime factors (or exceeds f^(parts_left-1)),
    and the last factor is the rest itself.
    """
    if n < 2 or m < 1 or big_omega(n) < m:
        return []
    if m == 1:
        return [{n: 1}]
    omega = _omega
    out = []
    acc = {}

    def rec(remaining, parts_left, cands):
        # cands: the divisors >= 2 of `remaining` up to the last factor, ascending
        for i in range(len(cands) - 1, -1, -1):
            f = cands[i]
            rest = remaining // f
            if rest > f ** (parts_left - 1):
                break
            if omega[rest] < parts_left - 1:
                continue
            acc[f] = acc.get(f, 0) + 1
            if parts_left == 2:
                acc[rest] = acc.get(rest, 0) + 1
                out.append(dict(acc))
                if acc[rest] == 1:
                    del acc[rest]
                else:
                    acc[rest] -= 1
            else:
                rec(rest, parts_left - 1, [d for d in cands[: i + 1] if rest % d == 0])
            if acc[f] == 1:
                del acc[f]
            else:
                acc[f] -= 1

    rec(n, m, divisors(n)[1:])
    return out


def _bell_sum(partitions, a, offset):
    total = Fraction(0)
    for multi in partitions:
        m = sum(multi.values())
        coeff = factorial(m)
        term = Fraction(1)
        for part, mult in multi.items():
            coeff //= factorial(mult)
            term *= a[part - offset] ** mult
        total += coeff * term
    return total


def bell_partial_mult(n: int, m: int, a) -> Fraction:
    """Bell sum over decompositions of n into m factors >= 2; 0 if there are none.

    `a` lists the values a_2..a_n, so a[0] is the index-2 entry.
    """
    if n < 2 or m < 1:
        raise OutOfRange(f"bell_partial_mult needs n >= 2, m >= 1, got ({n}, {m})")
    if len(a) < n - 1:
        raise OutOfRange(f"need the {n - 1} coefficients a_2..a_{n}, got {len(a)}")
    a = [as_rational(v) for v in a]
    return _bell_sum(mult_decompositions(n, m), a, 2)
