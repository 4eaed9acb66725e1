"""Suite `dirichlet`: the array windows, u and alpha rows of Dirichlet series,
and the Carlitz-Hoggatt polynomials."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .. import dirichlet as ds
from .. import gep, stirling
from ..errors import OutOfRange
from ..series import Poly, Series, binomial_poly
from ..verify import _cap, _frac, _reversed_to, _same, _value, rational_binomial


def check_dirichlet_window_identities(rng, max_n):
    rows = _cap(64, max_n * 8 if max_n else 64)
    cols = 6
    a = ds.DirichletSeries([1] + [_frac(rng) for _ in range(rows - 1)])
    max_omega = max(ds.big_omega(n) for n in range(2, rows + 1))
    minus = ds.array_window(a, "minus-one", rows, max_omega + 1)
    plain = ds.array_window(a, "plain", rows, cols)
    inv = ds.array_window(ds.dirichlet_inv(a), "plain", rows, cols)
    for n in range(1, rows + 1):
        omega = ds.big_omega(n) if n > 1 else 0
        for k in range(cols):
            up = sum(minus[n - 1, j] * comb(k, j) for j in range(omega + 1))
            _same(up, plain[n - 1, k], n=n, k=k)
            # [x^j](1+x)^-k = C(-k, j)
            down = sum(
                minus[n - 1, j] * rational_binomial(-k, j) for j in range(omega + 1)
            )
            _same(down, inv[n - 1, k], n=n, k=k)


def dir_u_poly(log_a: ds.DirichletSeries, n: int) -> Poly:
    """The interpolation polynomial with u_n(m) = n! [a^m]_n, given b = log a.

    Computed from the log coefficients by the Bell sum:
    u_n = n! sum_m B~_{n,m}(b_2..b_n)/m! x^m.  Taking log a rather than a
    lets a caller that reads many rows of one series take its log once.
    """
    if n < 2:
        raise OutOfRange("rows are defined for n >= 2")
    tail = log_a.coeffs[1:n]
    out = [Fraction(0)]
    for m in range(1, ds.big_omega(n) + 1):
        out.append(Fraction(factorial(n), factorial(m)) * stirling.bell_partial_mult(n, m, tail))
    return Poly(out)


def rising_factorial_poly(m: int) -> Poly:
    """x(x+1)...(x+m-1); the empty product for m = 0."""
    acc = Poly([1])
    for i in range(m):
        acc = acc * Poly([i, 1])
    return acc


@lru_cache(maxsize=8)
def _log_zeta(rows: int):
    """log zeta truncated to `rows`, built once per sweep for both checks that read it."""
    return ds.dirichlet_log(ds.DirichletSeries.zeta(rows))


def check_zeta_u_product(rng, max_n):
    rows = _cap(64, max_n * 8 if max_n else 64)
    log_z = _log_zeta(rows)
    for n in range(2, rows + 1):
        u = dir_u_poly(log_z, n)
        expected = Poly([1])
        for _, mult in ds.factorize(n).items():
            expected = expected * rising_factorial_poly(mult) * Fraction(1, factorial(mult))
        _same(u, expected * factorial(n), n=n)


def check_dir_alpha_routes(rng, max_n):
    rows = _cap(64, max_n * 8 if max_n else 64)
    a = ds.DirichletSeries([1] + [_frac(rng) for _ in range(rows - 1)])
    for base, log_base in ((ds.DirichletSeries.zeta(rows), _log_zeta(rows)), (a, ds.dirichlet_log(a))):
        for n in range(2, rows + 1):
            # the u route: x (Omega!/n!) U applied to u~_n
            omega = ds.big_omega(n)
            u = dir_u_poly(log_base, n)
            ut = tuple(u.coeff(k) for k in range(1, omega + 1))
            scale = Fraction(factorial(omega), factorial(n))
            by_u = Poly([scale * c for c in gep.matrix_u(omega).apply(ut)]).shift_up(1)
            _same(ds.dir_alpha_poly(base, n), by_u, n=n)


def dir_palindromy_check(r: int, p: int):
    """Palindromy of the Carlitz-Hoggatt polynomial and its reversal identity.

    Coefficients satisfy g_m = g_{p*r - p - m + 2} for 1 <= m <= p*r - p + 1,
    equivalently x Ihat_{pr} G = x^(p-1) G.
    """
    g = ds.carlitz_hoggatt(r, p)
    deg = p * r - p + 1
    for m in range(1, deg + 1):
        _same(g.coeff(m), g.coeff(p * r - p - m + 2), r=r, p=p, m=m)
    _same(_reversed_to(g, p * r).shift_up(1), g.shift_up(p - 1), r=r, p=p)


def check_carlitz_values(rng, max_n):
    for p in range(1, 4):
        for r in range(1, 4):
            g = ds.carlitz_hoggatt(r, p)
            # the sum cut at m = 2(pr+1) times (1-x)^(pr+1) is g and vanishes up to the cut
            cut = 2 * (p * r + 1)
            terms = Series([comb(m + p - 1, p) ** r for m in range(cut + 1)])
            head = terms * Series(binomial_poly(p * r + 1, -1).coeffs, order=cut)
            _same(Poly(head.coeffs), g, r=r, p=p)
            # the coefficient sum is (p r)! / (p!)^r
            _same(_value(g, 1), Fraction(factorial(p * r), factorial(p) ** r), r=r, p=p)
            dir_palindromy_check(r, p)
