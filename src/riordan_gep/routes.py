"""The other routes to the runtime objects, which only verify runs.

Each runtime module builds its object one way.  The paper's other
constructions, and the references verify compares with, live here:
Pascal powers, Toeplitz windows and the row numerators of square arrays;
the additive partial Bell sums; the closed binomial form of alpha_n for
1+x, the v~ transform D T^t D^-1 and the diagonal tables of the Lagrange
deformation; the Dirichlet u rows from Bell sums of log a, which the
caller takes once per series; and the minimal-parenthesis printer of
expr ASTs.  u as row n of (1, log a) needs only riordan.row_of_pair, so
suites.gep.check_pipeline reads it there.  The verify suites decide which
route each check compares; only they and verify._restrict import this
module, so no other command compiles it, nor `verify series` or `w --check`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from . import dirichlet as ds
from . import lagrange, riordan, stirling
from .errors import KindMismatch, NotPolynomial, OutOfRange
from .matrix import RMatrix
from .series import Poly, Series, as_rational, binomial_poly, derivative, log, power


def rational_binomial(r, k: int) -> Fraction:
    """Generalized binomial C(r, k) = r(r-1)...(r-k+1)/k! for rational r."""
    r = as_rational(r)
    if k < 0:
        return Fraction(0)
    num = Fraction(1)
    for i in range(k):
        num *= r - i
    return num / factorial(k)


def pascal_power(phi, size: int) -> RMatrix:
    """Finite window of the phi-th Pascal power: entries C(n,k) * phi^(n-k)."""
    phi = as_rational(phi)
    return RMatrix(
        [
            [comb(n, k) * phi ** (n - k) if k <= n else 0 for k in range(size)]
            for n in range(size)
        ]
    )


def toeplitz_window(coeffs: Poly | Series, rows: int, cols: int) -> RMatrix:
    """Window of the multiplication operator (c(x), x): entry (i,j) = c_{i-j}."""
    return RMatrix(
        [[coeffs.coeff(i - j) if i >= j else 0 for j in range(cols)] for i in range(rows)]
    )


def geometric_negative_power(m: int, order: int) -> Series:
    """(1-x)^(-m) truncated, m >= 0."""
    return Series([comb(m - 1 + j, j) for j in range(order + 1)])


def row_numerator(A: riordan.RiordanArray, n: int) -> Poly:
    """Numerator polynomial of row n of a square array (b, a).

    Row n of (b, a) has generating function N(x)/(1-x)^(n+1) with
    deg N <= n.  Computed by multiplying the row by (1-x)^(n+1) out to
    2n+2 columns and checking that everything above degree n vanishes.
    """
    if A.kind is not riordan.RiordanKind.SQUARE:
        raise KindMismatch("row numerator is defined for square arrays")
    cols = 2 * n + 3
    prod = riordan.row_of_pair(A.f, A.g, n, cols) * binomial_poly(n + 1, -1)
    for k in range(n + 1, cols):
        if prod.coeff(k) != 0:
            raise NotPolynomial(
                f"row {n} numerator check failed at coefficient {k}; "
                "is a(0) = 1 and the truncation order large enough?"
            )
    return Poly([prod.coeff(k) for k in range(n + 1)])


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


def gbs_alpha_closed_form(n: int, beta) -> Poly:
    """alpha_n of the deformed series of 1+x, in closed binomial form.

    (1/n) sum_{m=1}^{n} C(n(1-beta), m-1) C(n beta, n-m) x^m.
    """
    beta = as_rational(beta)
    if n < 1:
        raise OutOfRange("n must be positive")
    out = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        out[m] = rational_binomial(n * (1 - beta), m - 1) * rational_binomial(n * beta, n - m) / n
    return Poly(out)


def vtilde_transform(n: int, beta, v_tilde: Poly) -> Poly:
    """v~ of the deformed series from v~ of a: D T^t D^-1 applied to the column."""
    beta = as_rational(beta)
    vec = [c / (i + 1) for i, c in enumerate(v_tilde.to_vector(n))]
    # T^t is Toeplitz: entry (i, j) is C(n beta, j - i)
    binoms = [rational_binomial(n * beta, k) for k in range(n)]
    return Poly([(i + 1) * sum(map(Fraction.__mul__, binoms, vec[i:])) for i in range(n)])


def diagonal_table(a: Series, beta, v: int, k_range, cols: int) -> RMatrix:
    """Diagonal rearrangements of the power table of a^beta.

    Row k of the v-th rearrangement is the series
        (1 + x v beta (log b)') b^(beta k),   b = lagrange_coeffs(a, v beta),
    which equals the direct reading [x^j] a^(beta (k + v j)).  v = 0 gives
    the plain power table a^(beta k).
    """
    beta = as_rational(beta)
    if a.coeff(0) != 1:
        raise OutOfRange("needs a(0) = 1")
    if a.order < cols:
        raise OutOfRange(f"need series order >= {cols}")
    if v == 0:
        return RMatrix([power(a.truncate(cols), beta * k).coeffs[:cols] for k in k_range])
    b = lagrange.lagrange_coeffs(a, v * beta, cols)
    weight = Series.one(cols) + Series.x(cols) * derivative(log(b)).truncate(cols - 1) * (v * beta)
    return RMatrix([(weight * power(b, beta * k)).coeffs[:cols] for k in k_range])


def diagonal_table_direct(a: Series, beta, v: int, k_range, cols: int) -> RMatrix:
    """Independent entry formula for the same table: entry (k, j) = [x^j] a^(beta(k+vj))."""
    beta = as_rational(beta)
    return RMatrix(
        [[power(a.truncate(j), beta * (k + v * j)).coeff(j) for j in range(cols)] for k in k_range]
    )


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


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "pow": 3, "neg": 4}


def unparse(node) -> str:
    """Minimal-parenthesis text form of an expr AST; reparsing yields an equal AST."""
    from .expr import Binary, Func, Lit, PowRational, Unary, Var

    def wrap(child, min_prec):
        text, prec = go(child)
        return f"({text})" if prec < min_prec else text

    def go(n):
        if isinstance(n, Lit):
            if n.value.denominator == 1:
                return str(n.value), 5
            return f"{n.value.numerator}/{n.value.denominator}", 2
        if isinstance(n, Var):
            return "x", 5
        if isinstance(n, Unary):
            return "-" + wrap(n.operand, _PREC["neg"]), _PREC["neg"]
        if isinstance(n, Binary):
            # walk the left spine of equal-precedence links in a loop, as
            # eval_expr does, so that long chains need no recursion
            p = _PREC[n.op]
            chain = []
            while isinstance(n, Binary) and _PREC[n.op] == p:
                chain.append(n)
                n = n.left
            text = wrap(n, p)
            for link in reversed(chain):
                text += link.op + wrap(link.right, p + 1)  # - and / are left associative
            return text, p
        if isinstance(n, PowRational):
            base = wrap(n.base, _PREC["neg"])  # bases tighter than ^ need no parens
            e = n.exponent
            if e.denominator == 1 and e >= 0:
                return f"{base}^{e}", _PREC["pow"]
            if e.denominator == 1:
                return f"{base}^({e})", _PREC["pow"]
            return f"{base}^({e.numerator}/{e.denominator})", _PREC["pow"]
        if isinstance(n, Func):
            inner = ",".join(go(a)[0] for a in n.args)
            return f"{n.name}({inner})", 5
        raise TypeError(f"not an expression node: {n!r}")

    return go(node)[0]
