"""Suite `series`: the ring and calculus laws of truncated power series."""

from __future__ import annotations

from ..series import Series, compose, exp, log, power, reversion
from ..verify import _cap, _frac, _same, _series, _series_a1_nonzero


def check_ring_axioms(rng, max_n):
    order = _cap(12, max_n + 4 if max_n else 12)
    for _ in range(6):
        a, b, c = (_series(rng, order) for _ in range(3))
        _same((a * b) * c, a * (b * c))
        _same(a * (b + c), a * b + a * c)
        _same(a * b, b * a)


def check_log_exp_inverse(rng, max_n):
    order = _cap(12, max_n + 4 if max_n else 12)
    for _ in range(6):
        a = _series(rng, order, a0=1)
        _same(exp(log(a)), a)
        b = Series([0] + [_frac(rng) for _ in range(order)])
        _same(log(exp(b)), b)


def check_pow_additivity(rng, max_n):
    order = _cap(10, max_n + 2 if max_n else 10)
    for _ in range(5):
        a = _series(rng, order, a0=1)
        p, q = _frac(rng, -3, 3, 3), _frac(rng, -3, 3, 3)
        _same(power(a, p + q), power(a, p) * power(a, q), p=p, q=q)


def check_compose_associative(rng, max_n):
    order = _cap(10, max_n + 2 if max_n else 10)
    for _ in range(5):
        a = _series(rng, order)
        g = Series([0] + [_frac(rng) for _ in range(order)])
        h = Series([0] + [_frac(rng) for _ in range(order)])
        _same(compose(compose(a, g), h), compose(a, compose(g, h)))


def check_reversion_roundtrip(rng, max_n):
    order = _cap(10, max_n + 2 if max_n else 10)
    ident = Series.x(order)
    for _ in range(5):
        g = _series_a1_nonzero(rng, order) - 1
        h = reversion(g)
        _same(compose(h, g), ident)
        _same(compose(g, h), ident)
