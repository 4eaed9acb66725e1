"""The verdict protocol and the registry of the seeded verification suites.

Each check re-derives an identity with freshly generated random data (or
fixed golden data) and states every comparison as _same(lhs, rhs, **case):
exact equality, or Mismatch (an ArithmeticError) whose text quotes the
comparison's source line and the case, say `n=3, beta=1/2`.  Checks and
the identity functions return nothing.  The CLI `verify` subcommand
reports run_suites and `w --check` reports suites.w.w_check_rows; both
make each row with _row, which reads ok only when the check raised
nothing and made a comparison.

The checks live in suites/, one module per suite, together with the other
routes and references that only they compare with.  REGISTRY names each
row's check by its suite and function name, and the suite module is
imported when one of its rows first runs, so a job compiles only the
suites it runs and the domain modules they use.  This module keeps the
protocol, REGISTRY and the helpers that several suites share;
_maps_alpha imports gep when called, so `verify series` loads no gep.

Constructors build each object one way.  Every comparison with another
route, and every module identity, lives in the suites: W three ways,
A^beta three ways, the Stirling factorizations, alpha through V^-1, U and
the row numerator, and the rest of REGISTRY.  Four other routes stay in
their runtime modules, because perfbench traces them there:
riordan.riordan_mul, wmatrix.w_alt_form, lagrange.lagrange_series and
lagrange.log_abeta.
"""

from __future__ import annotations

import importlib
import random
import sys
from fractions import Fraction
from functools import partial
from math import comb, factorial

from .matrix import RMatrix
from .series import Poly, Series, as_rational, binomial_poly


class Mismatch(ArithmeticError):
    """An identity that did not hold: the comparison's source line and its case."""


_compared = 0  # comparisons made so far; _row reads whether a check made one


def _same(lhs, rhs, **case):
    """Count one comparison and raise Mismatch unless lhs == rhs.  The text
    quotes the caller's line, so every call to _same fits on one line."""
    global _compared
    _compared += 1
    if lhs != rhs:
        import linecache

        caller = sys._getframe(1)
        text = linecache.getline(caller.f_code.co_filename, caller.f_lineno).strip()
        where = ", ".join(f"{k}={v}" for k, v in case.items())
        raise Mismatch(f"{text} at {where}" if case else text)


def _frac(rng, lo=-5, hi=5, den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _series(rng, order, a0=None):
    first = _frac(rng) if a0 is None else Fraction(a0)
    return Series([first] + [_frac(rng) for _ in range(order)])


def _series_a1_nonzero(rng, order):
    a1 = Fraction(0)
    while a1 == 0:
        a1 = _frac(rng)
    return Series([Fraction(1), a1] + [_frac(rng) for _ in range(order - 1)])


def _cap(n, max_n):
    return min(n, max_n) if max_n else n


def _diag(values, anti: bool = False) -> RMatrix:
    """The square matrix with values down its diagonal (its antidiagonal if
    anti) and zeros elsewhere: _diag([1] * n) is the identity."""
    n = len(values)
    return RMatrix([[values[i] if j == (n - 1 - i if anti else i) else 0 for j in range(n)] for i in range(n)])


def _reversed_to(p: Poly, n: int) -> Poly:
    """x^n p(1/x): the coefficients of p reversed within degrees 0..n; DegreeTooHigh past n."""
    return Poly(p.to_vector(n + 1)[::-1])


def _value(p: Poly, x) -> Fraction:
    """p(x), by Horner."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def rational_binomial(r, k: int) -> Fraction:
    """Generalized binomial C(r, k) = r(r-1)...(r-k+1)/k! for rational r."""
    r = as_rational(r)
    if k < 0:
        return Fraction(0)
    num = Fraction(1)
    for i in range(k):
        num *= r - i
    return num / factorial(k)


def _apply(M: RMatrix, p: Poly) -> Poly:
    """M applied to the coefficient column of p; DegreeTooHigh if p does not fit."""
    return Poly(M.apply(p.to_vector(M.cols)))


def _restrict(M: RMatrix, m: int, grow: bool = True, shrink: bool = True) -> RMatrix:
    """Leading (n-m) block of ((1-x)^-m, x) . M . ((1-x)^m, x) I_{n-m}, n = M.rows,
    whose m trailing rows must vanish.

    grow=False drops the left factor, shrink=False the (1-x)^m.
    """
    n = M.rows
    k = n - m
    if shrink:
        M = M * _toeplitz_window(binomial_poly(m, -1), n, k)
    else:
        M = RMatrix([row[:k] for row in M.entries])
    if grow:
        M = _toeplitz_window(_geometric_negative_power(m, n), n, n) * M
    _same(M.entries[k:], ((0,) * k,) * m, m=m)
    return RMatrix(M.entries[:k])


def _toeplitz_window(coeffs: Poly | Series, rows: int, cols: int) -> RMatrix:
    """Window of the multiplication operator (c(x), x): entry (i,j) = c_{i-j}."""
    return RMatrix(
        [[coeffs.coeff(i - j) if i >= j else 0 for j in range(cols)] for i in range(rows)]
    )


def _geometric_negative_power(m: int, order: int) -> Series:
    """(1-x)^(-m) truncated, m >= 0."""
    return Series([comb(m - 1 + j, j) for j in range(order + 1)])


def _maps_alpha(M: RMatrix, a: Series, b: Series, **case):
    """M maps alpha~_n of a to alpha~_n of b, n = M.rows."""
    from . import gep

    n = M.rows
    at, bt = (gep.GepContext(s, n).alpha.shift_down(1) for s in (a, b))
    _same(_apply(M, at), bt, n=n, **case)


def _lazy(suite: str, check: str):
    """The REGISTRY callable of function `check` of suites/<suite>.py.  It
    imports that module when called, so a run compiles only its suites."""

    def run(rng, max_n):
        getattr(importlib.import_module(f".suites.{suite}", __package__), check)(rng, max_n)

    run.__name__ = run.__qualname__ = check
    return run


REGISTRY = [
    (suite, label, _lazy(suite, check))
    for suite, label, check in (
        ("series", "ring axioms (assoc/dist/comm)", "check_ring_axioms"),
        ("series", "log and exp are mutually inverse", "check_log_exp_inverse"),
        ("series", "power is additive in the exponent", "check_pow_additivity"),
        ("series", "composition is associative", "check_compose_associative"),
        ("series", "compositional inverse round trips", "check_reversion_roundtrip"),
        ("riordan", "fundamental theorem on windows", "check_fundamental_theorem"),
        ("riordan", "pascal powers form a group", "check_pascal_group"),
        ("riordan", "(1,a-1)(1,1/(1+x)) = (1,a^-1)", "check_inverse_series_array"),
        ("riordan", "shift array is pascal transpose", "check_shift_is_pascal_transpose"),
        ("riordan", "row numerators are polynomial", "check_row_numerator"),
        ("stirling", "first/second kind orthogonality", "check_stirling_orthogonality"),
        ("stirling", "v rows are Bell sums", "check_v_is_bell"),
        ("stirling", "log coefficients from Bell sums", "check_log_coeff_identity"),
        ("stirling", "u rows from Bell sums of log", "check_u_bell_identity"),
        ("gep", "U u~ = alpha~ and V alpha~ = v~", "check_pipeline"),
        ("gep", "U U^-1 = I", "check_u_inverse"),
        ("gep", "sign conjugation reversal (thm 1)", "check_theorem1_suite"),
        ("gep", "alpha(1) = a_1^n (thm 2)", "check_theorem2_suite"),
        ("gep", "reciprocal-series reversal", "check_reversal_identity"),
        ("gep", "Eulerian specialization at e^x", "check_eulerian_specialization"),
        ("gep", "Stirling factorizations of VU/U^-1V^-1", "check_stirling_products_suite"),
        ("gep", "V acts as x -> x/(1+x)", "check_v_action"),
        ("w", "column sums are m^n (thm 5)", "check_w_column_sums"),
        ("w", "three constructions agree (thm 4)", "check_w_constructions"),
        ("w", "multiplicativity, reversal, eigenvector", "check_w_identities_suite"),
        ("w", "maps alpha~ of a to alpha~ of a^m", "check_w_gep_semantics"),
        ("abeta", "three constructions agree", "check_abeta_constructions"),
        ("abeta", "group law in beta", "check_abeta_group_law"),
        ("abeta", "column sums 1, inverse, restriction", "check_abeta_identities_suite"),
        ("abeta", "maps alpha~ of a to deformed alpha~", "check_abeta_gep_semantics"),
        ("abeta", "functional equations of the deformation", "check_functional_equations"),
        ("abeta", "deformed u polynomial identity", "check_deformed_u_identity"),
        ("abeta", "closed binomial form = last column", "check_gbs_closed_form"),
        ("abeta", "beta <-> 1-beta duality", "check_duality"),
        ("abeta", "diagonal tables match direct reading", "check_diagonal_tables"),
        ("dirichlet", "window identities of <a-1>", "check_dirichlet_window_identities"),
        ("dirichlet", "zeta u rows are rising factorials", "check_zeta_u_product"),
        ("dirichlet", "alpha v-route equals u-route", "check_dir_alpha_routes"),
        ("dirichlet", "Carlitz-Hoggatt values and palindromy", "check_carlitz_values"),
        ("cli", "expression parser round trip", "check_parser_roundtrip"),
        ("cli", "JSON documents round trip", "check_json_roundtrip"),
    )
]


def run_suites(which: str = "all", seed: int = 0, max_n: int | None = None) -> list:
    """The report rows of the selected suites, in REGISTRY order.  REGISTRY
    is read at call time: perfbench/tracer.py rebinds its checks in place."""
    return [
        _row(suite, name, partial(check, random.Random(f"{seed}:{suite}:{name}"), max_n))
        for suite, name, check in REGISTRY
        if which in ("all", suite)
    ]


def _row(suite: str, name: str, check) -> list:
    """The VerifyReport row [suite, name, "ok" | "FAIL", detail] of check().
    It is ok only when check() raised nothing and made a comparison; a check
    that raises fails with the exception as its detail."""
    made = _compared
    try:
        check()
    except Exception as exc:
        return [suite, name, "FAIL", f"{type(exc).__name__}: {exc}"]
    if _compared == made:
        return [suite, name, "FAIL", "made no comparison"]
    return [suite, name, "ok", ""]
