"""Seeded verification suites covering every module invariant.

Each check re-derives an identity with freshly generated random data (or
fixed golden data) and compares by exact equality.  The CLI `verify`
subcommand runs these and reports one line per check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import dirichlet as ds
from . import gep, lagrange, riordan, stirling, wmatrix
from .matrix import RMatrix
from .series import Poly, Series, binomial_poly, compose, exp, log, power, reciprocal, reversion


@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


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


# ---------------------------------------------------------------- series


def check_ring_axioms(rng, max_n):
    order = _cap(12, max_n + 4 if max_n else 12)
    for _ in range(6):
        a, b, c = (_series(rng, order) for _ in range(3))
        if (a * b) * c != a * (b * c):
            return False
        if a * (b + c) != a * b + a * c:
            return False
        if a * b != b * a:
            return False
    return True


def check_log_exp_inverse(rng, max_n):
    order = _cap(12, max_n + 4 if max_n else 12)
    for _ in range(6):
        a = _series(rng, order, a0=1)
        if exp(log(a)) != a:
            return False
        b = Series([0] + [_frac(rng) for _ in range(order)])
        if log(exp(b)) != b:
            return False
    return True


def check_pow_additivity(rng, max_n):
    order = _cap(10, max_n + 2 if max_n else 10)
    for _ in range(5):
        a = _series(rng, order, a0=1)
        p, q = _frac(rng, -3, 3, 3), _frac(rng, -3, 3, 3)
        if power(a, p + q) != power(a, p) * power(a, q):
            return False
    return True


def check_compose_associative(rng, max_n):
    order = _cap(10, max_n + 2 if max_n else 10)
    for _ in range(5):
        a = _series(rng, order)
        g = Series([0] + [_frac(rng) for _ in range(order)])
        h = Series([0] + [_frac(rng) for _ in range(order)])
        if compose(compose(a, g), h) != compose(a, compose(g, h)):
            return False
    return True


def check_reversion_roundtrip(rng, max_n):
    order = _cap(10, max_n + 2 if max_n else 10)
    ident = Series.x(order)
    for _ in range(5):
        g1 = Fraction(0)
        while g1 == 0:
            g1 = _frac(rng)
        g = Series([0, g1] + [_frac(rng) for _ in range(order - 1)])
        h = reversion(g)
        if compose(h, g) != ident or compose(g, h) != ident:
            return False
    return True


# --------------------------------------------------------------- riordan


def check_fundamental_theorem(rng, max_n):
    size = _cap(8, max_n)
    order = 2 * size + 2
    for _ in range(4):
        f = Series([1] + [_frac(rng) for _ in range(order)])
        g = Series([0, 1] + [_frac(rng) for _ in range(order - 1)])
        A = riordan.RiordanArray(riordan.RiordanKind.ORDINARY, f, g)
        b = _series(rng, order, a0=1)
        a = _series(rng, order, a0=1)
        B = riordan.RiordanArray(riordan.RiordanKind.SQUARE, b, a)
        lhs = riordan.window(riordan.riordan_mul(A, B), size, size)
        rhs = riordan.window(A, size, size) * riordan.window(B, size, size)
        if lhs != rhs:
            return False
        C = riordan.RiordanArray(riordan.RiordanKind.ORDINARY, b, g)
        lhs2 = riordan.window(riordan.riordan_mul(A, C), size, size)
        rhs2 = riordan.window(A, size, size) * riordan.window(C, size, size)
        if lhs2 != rhs2:
            return False
    return True


def check_pascal_group(rng, max_n):
    size = _cap(8, max_n)
    for _ in range(5):
        p, q = _frac(rng), _frac(rng)
        lhs = riordan.pascal_power(p, size) * riordan.pascal_power(q, size)
        if lhs != riordan.pascal_power(p + q, size):
            return False
    return True


def check_inverse_series_array(rng, max_n):
    size = _cap(8, max_n)
    order = 2 * size + 2
    for _ in range(4):
        a = _series_a1_nonzero(rng, order)
        lhs = riordan.riordan_mul(
            riordan.RiordanArray(riordan.RiordanKind.ORDINARY, Series.one(order), a - 1),
            riordan.RiordanArray(
                riordan.RiordanKind.SQUARE,
                Series.one(order),
                reciprocal(Series([1, 1], order=order)),
            ),
        )
        rhs = riordan.RiordanArray(riordan.RiordanKind.SQUARE, Series.one(order), reciprocal(a))
        if riordan.window(lhs, size, size) != riordan.window(rhs, size, size):
            return False
    return True


def check_shift_is_pascal_transpose(rng, max_n):
    size = _cap(8, max_n)
    order = size + 2
    shift = riordan.RiordanArray(
        riordan.RiordanKind.SQUARE, Series.one(order), Series([1, 1], order=order)
    )
    return riordan.window(shift, size, size) == riordan.pascal_power(1, size).transpose()


def check_row_numerator(rng, max_n):
    n = _cap(6, max_n)
    order = 2 * n + 2
    for _ in range(4):
        a = _series(rng, order, a0=1)
        A = riordan.RiordanArray(riordan.RiordanKind.SQUARE, Series.one(order), a)
        num = riordan.row_numerator(A, n)
        if num.degree() > n:
            return False
        if num != gep.GepContext(a, n).alpha:
            return False
    return True


# -------------------------------------------------------------- stirling


def check_stirling_orthogonality(rng, max_n):
    top = _cap(12, max_n + 4 if max_n else 12)
    for n in range(top + 1):
        for m in range(top + 1):
            s = sum(
                stirling.stirling1_signed(n, k) * stirling.stirling2(k, m)
                for k in range(m, n + 1)
            )
            if s != (1 if n == m else 0):
                return False
    return True


def check_v_is_bell(rng, max_n):
    n = _cap(8, max_n)
    order = 2 * n + 2
    for _ in range(4):
        a = _series(rng, order, a0=1)
        ctx = gep.GepContext(a, n)
        for m in range(1, n + 1):
            if ctx.v.coeff(m) != stirling.bell_partial(n, m, a.coeffs[1 : n + 1]):
                return False
    return True


def check_log_coeff_identity(rng, max_n):
    p_top = _cap(8, max_n)
    for _ in range(4):
        a = _series(rng, p_top + 1, a0=1)
        la = log(a)
        for p in range(1, p_top + 1):
            s = sum(
                Fraction((-1) ** (m + 1), m) * stirling.bell_partial(p, m, a.coeffs[1 : p + 1])
                for m in range(1, p + 1)
            )
            if s != la.coeff(p):
                return False
    return True


def check_u_bell_identity(rng, max_n):
    n = _cap(8, max_n)
    order = 2 * n + 2
    for _ in range(4):
        a = _series(rng, order, a0=1)
        ctx = gep.GepContext(a, n)
        b = log(a)
        expected = Poly(
            [Fraction(0)]
            + [
                Fraction(factorial(n), factorial(m)) * stirling.bell_partial(n, m, b.coeffs[1 : n + 1])
                for m in range(1, n + 1)
            ]
        )
        if ctx.u != expected:
            return False
    return True


# ------------------------------------------------------------------ gep


def check_pipeline(rng, max_n):
    top = _cap(8, max_n)
    for n in range(1, top + 1):
        for _ in range(3):
            a = _series(rng, 2 * n + 2, a0=1)
            ctx = gep.GepContext(a, n)
            ut = tuple(ctx.u.coeff(k) for k in range(1, n + 1))
            at = tuple(ctx.alpha.coeff(k) for k in range(1, n + 1))
            vt = tuple(ctx.v.coeff(k) for k in range(1, n + 1))
            if gep.matrix_u(n).apply(ut) != at:
                return False
            if gep.matrix_v(n).apply(at) != vt:
                return False
    return True


def check_u_inverse(rng, max_n):
    for n in range(1, _cap(16, max_n) + 1):
        if gep.matrix_u(n) * gep.matrix_u_inv(n) != RMatrix.identity(n):
            return False
    return True


def check_theorem1_suite(rng, max_n):
    return all(gep.check_theorem1(n) for n in range(1, _cap(16, max_n) + 1))


def check_theorem2_suite(rng, max_n):
    top = _cap(8, max_n)
    for _ in range(20):
        n = rng.randint(1, top)
        a = _series(rng, 2 * n + 2, a0=1)
        if not gep.check_theorem2(gep.GepContext(a, n)):
            return False
    return True


def check_reversal_identity(rng, max_n):
    top = _cap(8, max_n)
    for n in range(1, top + 1):
        a = _series(rng, 2 * n + 2, a0=1)
        alpha = gep.GepContext(a, n).alpha
        alpha_inv = gep.GepContext(reciprocal(a), n).alpha
        expected = (alpha.reversed_to(n) * ((-1) ** n)).shift_up(1)
        if alpha_inv != expected:
            return False
    return True


def check_eulerian_specialization(rng, max_n):
    # direct formula: [x^j] A_n = sum_i (-1)^i C(n+1, i) (j-i)^n
    for n in range(1, _cap(10, max_n) + 1):
        direct = Poly(
            [
                sum((-1) ** i * comb(n + 1, i) * (j - i) ** n for i in range(j + 1))
                for j in range(n + 1)
            ]
        )
        if gep.eulerian_poly(n) != direct:
            return False
    return True


def check_stirling_products_suite(rng, max_n):
    for n in range(1, _cap(12, max_n) + 1):
        vu, uv = gep.stirling_products(n)  # raises on internal disagreement
        if vu * uv != RMatrix.identity(n):
            return False
    return True


def check_v_action(rng, max_n):
    top = _cap(10, max_n)
    for n in range(1, top + 1):
        c = Poly([_frac(rng) for _ in range(n)])
        lhs = Poly(gep.matrix_v(n).apply(c.to_vector(n)))
        rhs = Poly()
        for j in range(n):
            rhs = rhs + (binomial_poly(n - 1 - j, 1) * c.coeff(j)).shift_up(j)
        if lhs != rhs:
            return False
    return True


# -------------------------------------------------------------------- w


def check_w_column_sums(rng, max_n):
    for n in range(1, _cap(10, max_n) + 1):
        for m in range(1, 6):
            sums = wmatrix.w_matrix(n, m).matrix.col_sums()
            if any(s != Fraction(m) ** n for s in sums):
                return False
    return True


def check_w_constructions(rng, max_n):
    for n in range(1, _cap(8, max_n) + 1):
        for m in range(1, 5):
            w = wmatrix.w_matrix(n, m).matrix  # decimation vs conjugation inside
            if wmatrix.w_alt_form(n, m) != w:
                return False
    return True


def check_w_identities_suite(rng, max_n):
    for n in range(1, _cap(8, max_n) + 1):
        for m, p in ((2, 2), (2, 3), (3, 4), (4, 2)):
            if not wmatrix.w_identities(n, m, p):
                return False
    return True


def check_w_gep_semantics(rng, max_n):
    top = _cap(6, max_n)
    for n in range(1, top + 1):
        for m in (2, 3):
            a = _series(rng, 2 * n + 2, a0=1)
            alpha_t = gep.GepContext(a, n).alpha.shift_down(1)
            moved = wmatrix.w_apply(wmatrix.w_matrix(n, m), alpha_t)
            direct = gep.GepContext(power(a, m), n).alpha.shift_down(1)
            if moved != direct:
                return False
    return True


# ---------------------------------------------------------------- abeta


_BETAS = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1, 3),
    Fraction(-1, 3),
)


def check_abeta_constructions(rng, max_n):
    for n in range(1, _cap(8, max_n) + 1):
        for beta in _BETAS:
            conj = lagrange.abeta_matrix(n, beta, "conj").matrix
            if lagrange.abeta_matrix(n, beta, "dtilde").matrix != conj:
                return False
            if lagrange.abeta_matrix(n, beta, "log").matrix != conj:
                return False
    return True


def check_abeta_group_law(rng, max_n):
    for n in range(1, _cap(8, max_n) + 1):
        for _ in range(3):
            b1, b2 = _frac(rng, -3, 3, 3), _frac(rng, -3, 3, 3)
            lhs = lagrange.abeta_matrix(n, b1).matrix * lagrange.abeta_matrix(n, b2).matrix
            if lhs != lagrange.abeta_matrix(n, b1 + b2).matrix:
                return False
    return True


def check_abeta_identities_suite(rng, max_n):
    for n in range(1, _cap(10, max_n) + 1):
        for beta in _BETAS:
            if not lagrange.abeta_identities(n, beta):
                return False
    return True


def check_abeta_gep_semantics(rng, max_n):
    top = _cap(6, max_n)
    for n in range(1, top + 1):
        for beta in (Fraction(1), Fraction(2), Fraction(1, 2)):
            a = _series(rng, 2 * n + 2, a0=1)
            alpha_t = gep.GepContext(a, n).alpha.shift_down(1)
            moved = lagrange.abeta_apply(lagrange.abeta_matrix(n, beta), alpha_t)
            deformed = lagrange.lagrange_series(a, beta, 2 * n + 2)
            direct = gep.GepContext(deformed, n).alpha.shift_down(1)
            if moved != direct:
                return False
    return True


def check_functional_equations(rng, max_n):
    order = _cap(12, max_n + 4 if max_n else 12)
    bases = [
        Series([1, 1], order=order),
        exp(Series.x(order)),
    ] + [_series(rng, order, a0=1) for _ in range(3)]
    for a in bases:
        for beta in (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)):
            fam = lagrange.LagrangeFamily(a, beta, order)
            if not lagrange.check_functional_eq(fam):
                return False
    return True


def check_deformed_u_identity(rng, max_n):
    top = _cap(6, max_n)
    for n in range(1, top + 1):
        for beta in (Fraction(1), Fraction(1, 2), Fraction(-2)):
            a = _series_a1_nonzero(rng, 2 * n + 2)
            u = gep.GepContext(a, n).u
            shifted = u.shifted(n * beta)
            # (x + n*beta) must divide u(x + n*beta)
            if shifted(-n * beta) != 0:
                return False
            quotient = _divide_linear(shifted, n * beta)
            deformed = lagrange.lagrange_series(a, beta, 2 * n + 2)
            if gep.GepContext(deformed, n).u != quotient.shift_up(1):
                return False
    return True


def _divide_linear(p: Poly, c: Fraction) -> Poly:
    """p(x) / (x + c) for a polynomial with p(-c) = 0 (synthetic division)."""
    d = p.degree()
    if d < 1:
        return Poly()
    q = [Fraction(0)] * d
    q[d - 1] = p.coeff(d)
    for k in range(d - 1, 0, -1):
        q[k - 1] = p.coeff(k) - c * q[k]
    return Poly(q)


def check_gbs_closed_form(rng, max_n):
    for n in range(1, _cap(10, max_n) + 1):
        for beta in _BETAS:
            closed = lagrange.gbs_alpha_closed_form(n, beta)
            last = Poly(lagrange.abeta_matrix(n, beta).matrix.column(n - 1))
            if closed != last.shift_up(1):
                return False
    return True


def check_duality(rng, max_n):
    for n in range(1, _cap(8, max_n) + 1):
        for beta in (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1)):
            if not lagrange.duality_check(n, beta):
                return False
    return True


def check_diagonal_tables(rng, max_n):
    cols = _cap(6, max_n)
    ks = range(-3, 4)
    bases = [Series([1, 1], order=cols + 2), _series(rng, cols + 2, a0=1)]
    for a in bases:
        for v in (1, 2, -1, -2):
            lhs = lagrange.diagonal_table(a, Fraction(1), v, ks, cols)
            rhs = lagrange.diagonal_table_direct(a, Fraction(1), v, ks, cols)
            if lhs != rhs:
                return False
    lhs = lagrange.diagonal_table(Series([1, 1], order=cols + 2), Fraction(2), 1, ks, cols)
    rhs = lagrange.diagonal_table_direct(Series([1, 1], order=cols + 2), Fraction(2), 1, ks, cols)
    return lhs == rhs


# ------------------------------------------------------------- dirichlet


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
            if up != plain[n - 1, k]:
                return False
            # [x^j](1+x)^-k = C(-k, j)
            down = sum(
                minus[n - 1, j] * lagrange.rational_binomial(-k, j) for j in range(omega + 1)
            )
            if down != inv[n - 1, k]:
                return False
    return True


def check_zeta_u_product(rng, max_n):
    rows = _cap(64, max_n * 8 if max_n else 64)
    z = ds.DirichletSeries.zeta(rows)
    for n in range(2, rows + 1):
        u = ds.dir_u_poly(z, n)
        expected = Poly([1])
        for _, mult in ds.factorize(n).items():
            expected = expected * ds.rising_factorial_poly(mult) * Fraction(1, factorial(mult))
        if u != expected * factorial(n):
            return False
    return True


def check_dir_alpha_routes(rng, max_n):
    rows = _cap(64, max_n * 8 if max_n else 64)
    z = ds.DirichletSeries.zeta(rows)
    a = ds.DirichletSeries([1] + [_frac(rng) for _ in range(rows - 1)])
    for base in (z, a):
        for n in range(2, rows + 1):
            if ds.dir_alpha_poly(base, n, "v") != ds.dir_alpha_poly(base, n, "u"):
                return False
    return True


def check_carlitz_values(rng, max_n):
    for p in range(1, 4):
        for r in range(1, 4):
            g = ds.carlitz_hoggatt(r, p)
            if g(1) != ds.carlitz_hoggatt_at_one(r, p):
                return False
            if not ds.dir_palindromy_check(r, p):
                return False
    return True


# ------------------------------------------------------------------ cli


def check_parser_roundtrip(rng, max_n):
    from .expr import parse_expr, unparse

    corpus = _expression_corpus()
    for text in corpus:
        ast = parse_expr(text)
        if parse_expr(unparse(ast)) != ast:
            return False
    return True


def check_json_roundtrip(rng, max_n):
    from .output import OutputDoc, matrix_doc, poly_doc, series_doc

    docs = [
        poly_doc(gep.eulerian_poly(4), n=4),
        series_doc(Series([1, 2, Fraction(1, 3)], order=4)),
        matrix_doc(gep.matrix_u(3), n=3),
        OutputDoc(kind="VerifyReport", entries=[["gep", "demo", "FAIL", "ValueError: a, \"b\""]]),
    ]
    return all(OutputDoc.from_json(d.to_json()) == d for d in docs)


def _expression_corpus():
    return [
        "(1+x)/(1-x)",
        "(x/2 + sqrt(1+x^2/4))^2",
        "1/(1-x-x^2)",
        "exp(x)",
        "log(1+x)",
        "inv(1-x)",
        "rev(x/(1-x))",
        "compose(1/(1-x), x^2)",
        "x",
        "3",
        "3/4",
        "-x",
        "-x^2",
        "-(x^2)",
        "x^-2",
        "(1+x)^(1/2)",
        "(1+x)^(-1/2)",
        "(1-4*x)^(1/2)",
        "1-2*x+x^2",
        "x*x*x",
        "x/2/3",
        "1-(x-1)",
        "2*-x",
        "sqrt(sqrt(1+x))",
        "exp(log(1+x))",
        "x^2/4",
        "1+x+x^2+x^3",
        "(1+x)*(1-x)",
        "inv(inv(1+x))",
        "rev(x+x^2)",
        "compose(exp(x)-1, x/(1-x))",
        "(2+3*x)/(5-x)",
        "1/2+x",
        "x^3-x",
        "-1",
        "10/4",
        "x*(1+x)^2",
        "(x)",
        "((x))",
        "exp(x)*exp(-x)",
        "log((1+x)/(1-x))",
        "sqrt(1+4*x)",
        "(1-(1-4*x)^(1/2))/(2*x)",
        "(1+(1+4*x)^(1/2))/2",
        "x/(1+x)",
        "1/(1+x+x^2)",
        "compose(x/(1-x), x/(1+x))",
        "5*x^4",
        "x^2*x^3",
        "1+1/2*x",
    ]


REGISTRY = [
    ("series", "ring axioms (assoc/dist/comm)", check_ring_axioms),
    ("series", "log and exp are mutually inverse", check_log_exp_inverse),
    ("series", "power is additive in the exponent", check_pow_additivity),
    ("series", "composition is associative", check_compose_associative),
    ("series", "compositional inverse round trips", check_reversion_roundtrip),
    ("riordan", "fundamental theorem on windows", check_fundamental_theorem),
    ("riordan", "pascal powers form a group", check_pascal_group),
    ("riordan", "(1,a-1)(1,1/(1+x)) = (1,a^-1)", check_inverse_series_array),
    ("riordan", "shift array is pascal transpose", check_shift_is_pascal_transpose),
    ("riordan", "row numerators are polynomial", check_row_numerator),
    ("stirling", "first/second kind orthogonality", check_stirling_orthogonality),
    ("stirling", "v rows are Bell sums", check_v_is_bell),
    ("stirling", "log coefficients from Bell sums", check_log_coeff_identity),
    ("stirling", "u rows from Bell sums of log", check_u_bell_identity),
    ("gep", "U u~ = alpha~ and V alpha~ = v~", check_pipeline),
    ("gep", "U U^-1 = I", check_u_inverse),
    ("gep", "sign conjugation reversal (thm 1)", check_theorem1_suite),
    ("gep", "alpha(1) = a_1^n (thm 2)", check_theorem2_suite),
    ("gep", "reciprocal-series reversal", check_reversal_identity),
    ("gep", "Eulerian specialization at e^x", check_eulerian_specialization),
    ("gep", "Stirling factorizations of VU/U^-1V^-1", check_stirling_products_suite),
    ("gep", "V acts as x -> x/(1+x)", check_v_action),
    ("w", "column sums are m^n (thm 5)", check_w_column_sums),
    ("w", "three constructions agree (thm 4)", check_w_constructions),
    ("w", "multiplicativity, reversal, eigenvector", check_w_identities_suite),
    ("w", "maps alpha~ of a to alpha~ of a^m", check_w_gep_semantics),
    ("abeta", "three constructions agree", check_abeta_constructions),
    ("abeta", "group law in beta", check_abeta_group_law),
    ("abeta", "column sums 1, inverse, restriction", check_abeta_identities_suite),
    ("abeta", "maps alpha~ of a to deformed alpha~", check_abeta_gep_semantics),
    ("abeta", "functional equations of the deformation", check_functional_equations),
    ("abeta", "deformed u polynomial identity", check_deformed_u_identity),
    ("abeta", "closed binomial form = last column", check_gbs_closed_form),
    ("abeta", "beta <-> 1-beta duality", check_duality),
    ("abeta", "diagonal tables match direct reading", check_diagonal_tables),
    ("dirichlet", "window identities of <a-1>", check_dirichlet_window_identities),
    ("dirichlet", "zeta u rows are rising factorials", check_zeta_u_product),
    ("dirichlet", "alpha v-route equals u-route", check_dir_alpha_routes),
    ("dirichlet", "Carlitz-Hoggatt values and palindromy", check_carlitz_values),
    ("cli", "expression parser round trip", check_parser_roundtrip),
    ("cli", "JSON documents round trip", check_json_roundtrip),
]

SUITE_NAMES = ("series", "riordan", "stirling", "gep", "w", "abeta", "dirichlet", "cli")


def run_suites(which: str = "all", seed: int = 0, max_n: int | None = None):
    """Run the selected suites; returns a list of CheckResult."""
    results = []
    for suite, name, fn in REGISTRY:
        if which != "all" and suite != which:
            continue
        rng = random.Random(f"{seed}:{suite}:{name}")
        try:
            ok = bool(fn(rng, max_n))
            detail = ""
        except Exception as exc:  # a check must never crash the runner
            ok = False
            detail = f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(suite, name, ok, detail))
    return results
