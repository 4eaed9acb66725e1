"""Independent answers for every benchmark job, and the output checkers.

Nothing here imports riordan_gep: each expected value comes from a closed
form, a recurrence or a sieve written for the benchmark, so a checker can
reject a wrong output from the program it measures.  A checker takes the
job's standard output (the CLI's ``--format json`` document) and returns
None when the output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial


class Rejected(Exception):
    """The output does not have the shape the job asked for."""


# ------------------------------------------------------------ arithmetic


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def linear_factors(roots):
    """Coefficients of prod (1 + r x), lowest degree first."""
    out = [Fraction(1)]
    for r in roots:
        out = poly_mul(out, [Fraction(1), Fraction(r)])
    return out


def rational_binomial(r, k: int) -> Fraction:
    """C(r, k) = r (r-1) ... (r-k+1) / k! for rational r."""
    num = Fraction(1)
    for i in range(k):
        num *= r - i
    return num / factorial(k)


def eulerian_rows(n: int):
    """rows[k] lists A(k, 1..k), the coefficients of x..x^k in A_k(x)."""
    rows = [[], [1]]
    for k in range(2, n + 1):
        prev = rows[-1] + [0]
        rows.append(
            [j * prev[j - 1] + (k - j + 1) * (prev[j - 2] if j >= 2 else 0) for j in range(1, k + 1)]
        )
    return rows


def smallest_prime_factors(n: int):
    spf = list(range(n + 1))
    for p in range(2, int(n**0.5) + 1):
        if spf[p] == p:
            for q in range(p * p, n + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


def moebius(n: int):
    """mu(0..n) from the smallest-prime-factor sieve; index 0 is unused."""
    spf = smallest_prime_factors(n)
    mu = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        p = spf[k]
        rest = k // p
        mu[k] = 0 if rest % p == 0 else -mu[rest]
    return mu


def log_zeta(n: int):
    """Coefficients 0..n of log zeta: 1/e at n = p^e, else 0."""
    spf = smallest_prime_factors(n)
    out = [Fraction(0)] * (n + 1)
    for k in range(2, n + 1):
        p, e, rest = spf[k], 0, k
        while rest % p == 0:
            rest //= p
            e += 1
        if rest == 1:
            out[k] = Fraction(1, e)
    return out


def dirichlet_conv(a, b):
    """Divisor convolution of two lists indexed 0..n (index 0 unused)."""
    n = len(a) - 1
    out = [0] * (n + 1)
    for i in range(1, n + 1):
        if a[i]:
            for j in range(1, n // i + 1):
                if b[j]:
                    out[i * j] += a[i] * b[j]
    return out


def dirichlet_powers(base, cols: int):
    """Columns k = 0..cols-1 of the power array of `base` (0-indexed lists)."""
    n = len(base) - 1
    acc = [0, 1] + [0] * (n - 1)
    columns = []
    for k in range(cols):
        columns.append(acc)
        if k + 1 < cols:
            acc = dirichlet_conv(acc, base)
    return columns


# ------------------------------------------------------------ output shapes


def _doc(stdout: str, kind: str):
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise Rejected(f"output is not JSON: {exc}") from None
    if doc.get("kind") != kind:
        raise Rejected(f"expected a {kind} document, got {doc.get('kind')!r}")
    return doc


def _fractions(row):
    try:
        return [Fraction(s) for s in row]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise Rejected(f"not an exact rational: {exc}") from None


def series_out(stdout: str, order: int):
    coeffs = _fractions(_doc(stdout, "SeriesCoeffs")["entries"][0])
    if len(coeffs) != order + 1:
        raise Rejected(f"expected {order + 1} coefficients, got {len(coeffs)}")
    return coeffs


def poly_out(stdout: str):
    return _fractions(_doc(stdout, "Polynomial")["entries"][0])


def matrix_out(stdout: str, rows: int, cols: int):
    entries = _doc(stdout, "Matrix")["entries"]
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise Rejected(f"expected a {rows}x{cols} matrix")
    return [_fractions(r) for r in entries]


def _first_difference(got, want, what="coefficient"):
    if len(got) != len(want):
        return f"expected {len(want)} values, got {len(got)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"{what} {i} is {g}, expected {w}"
    return None


def _matrix_difference(got, want):
    for i, (g, w) in enumerate(zip(got, want)):
        diff = _first_difference(g, w, f"row {i} entry")
        if diff:
            return diff
    return None


def _checked(fn):
    """Turn Rejected into a returned reason."""

    def run(stdout, *args, **kwargs):
        try:
            return fn(stdout, *args, **kwargs)
        except Rejected as exc:
            return str(exc)

    run.__name__ = fn.__name__
    run.__doc__ = fn.__doc__
    return run


# ------------------------------------------------------------ series jobs


@_checked
def inverse_product(stdout, p, q, order):
    """S = inv(P) inv(Q) to `order`: S P Q = 1 up to x^order."""
    s = series_out(stdout, order)
    pq = poly_mul(p, q)
    for k in range(order + 1):
        acc = sum(pq[j] * s[k - j] for j in range(min(k, len(pq) - 1) + 1))
        if acc != (1 if k == 0 else 0):
            return f"coefficient {k} of S*P*Q is {acc}"
    return None


@_checked
def fractional_power(stdout, p, phi, order):
    """S = P^phi, phi = a/b: S(0) = 1 and b P S' = a P' S up to x^(order-1)."""
    s = series_out(stdout, order)
    if s[0] != 1:
        return f"constant term is {s[0]}, expected 1"
    a, b = phi.numerator, phi.denominator
    dp = [j * p[j] for j in range(1, len(p))]
    for k in range(order):
        lhs = sum(p[j] * (k - j + 1) * s[k - j + 1] for j in range(min(k, len(p) - 1) + 1))
        rhs = sum(dp[j] * s[k - j] for j in range(min(k, len(dp) - 1) + 1))
        if b * lhs != a * rhs:
            return f"b P S' and a P' S differ at x^{k}"
    return None


@_checked
def equals_poly(stdout, poly, order, shift=0):
    """S is x^shift * poly, zero padded to `order`."""
    s = series_out(stdout, order)
    want = [Fraction(0)] * shift + list(poly)
    want += [Fraction(0)] * (order + 1 - len(want))
    return _first_difference(s, want[: order + 1])


@_checked
def lagrange_linear(stdout, c, beta, order):
    """Lagrange series of 1 + c x: b_n = c^n C(1 + beta n, n) / (1 + beta n)."""
    s = series_out(stdout, order)
    want = [c**n * rational_binomial(1 + beta * n, n) / (1 + beta * n) for n in range(order + 1)]
    return _first_difference(s, want)


@_checked
def gep_alpha_exp(stdout, c, n):
    """alpha_n of exp(c x) is c^n A_n(x) / n!."""
    got = poly_out(stdout)
    want = [Fraction(0)] + [Fraction(c**n * e, factorial(n)) for e in eulerian_rows(n)[n]]
    return _first_difference(got, want)


# ------------------------------------------------------------ dirichlet jobs


def _columns_to_rows(columns):
    return [list(r) for r in zip(*columns)]


def _dirichlet_table(stdout, base, rows, cols):
    got = matrix_out(stdout, rows, cols)
    want = _columns_to_rows([col[1 : rows + 1] for col in dirichlet_powers(base, cols)])
    return _matrix_difference(got, [[Fraction(e) for e in r] for r in want])


@_checked
def dirichlet_table(stdout, preset, rows, cols):
    """Columns are d_k(n), mu^{*k}(n) or (log zeta)^{*k}(n) from the sieve."""
    if preset == "zeta":
        base = [0] + [1] * rows
    elif preset == "zeta-inv":
        base = moebius(rows)
    elif preset == "zeta-log":
        base = log_zeta(rows)
    else:
        raise ValueError(f"unknown preset {preset!r}")
    return _dirichlet_table(stdout, base, rows, cols)


@_checked
def carlitz_hoggatt(stdout, p, r):
    """Degree pr-p+1, palindromic g_m = g_{pr-p-m+2}, coefficient sum (pr)!/(p!)^r."""
    g = poly_out(stdout)
    deg = p * r - p + 1
    if len(g) != deg + 1 or g[0] != 0:
        return f"expected coefficients 0..{deg} with g_0 = 0"
    for m in range(1, deg + 1):
        if g[m] != g[deg + 1 - m]:
            return f"g_{m} != g_{deg + 1 - m}"
    want = Fraction(factorial(p * r), factorial(p) ** r)
    if sum(g) != want:
        return f"coefficient sum is {sum(g)}, expected {want}"
    return None


@_checked
def same_series(stdout, coeffs):
    """The job printed exactly `coeffs` as a JSON list of rationals."""
    try:
        got = _fractions(json.loads(stdout))
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    return _first_difference(got, list(coeffs))


# ------------------------------------------------------------ verify jobs


@_checked
def verify_report(stdout, suite, labels):
    """The suite's report has one row per check in `labels`, in that order,
    and every row is ok."""
    entries = _doc(stdout, "VerifyReport")["entries"]
    if any(not isinstance(row, list) or len(row) < 3 for row in entries):
        return "a report row is not [suite, check, status, ...]"
    got = tuple(row[1] for row in entries)
    if got != tuple(labels):
        return f"checks {got!r}, expected {tuple(labels)!r}"
    for row in entries:
        if row[0] != suite:
            return f"row from suite {row[0]!r}, expected {suite!r}"
        if row[2] != "ok":
            return f"check failed: {row[1]}"
    return None
