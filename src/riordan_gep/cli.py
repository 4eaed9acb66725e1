"""Command line front end.

Exit codes: 0 success; 1 domain error (bad series for the requested
operation, order cap exceeded) or a check report with a FAIL row; 2 usage
error, also for a RIORDAN_GEP_MAX_ORDER (default 4096, the bound on every
requested order/size) that is not a nonnegative integer.  Output formats:
pretty (default), csv, json.
Output numbers have no digit cap: main lifts Python's int-to-str limit
while it renders, and only then.

Start-up pays only for what a command runs: this module imports argparse,
the errors, series/matrix and the renderers, and each _dispatch branch
imports the domain modules it uses (expr only where an expression is
parsed, verify only for `verify` and `w --check`).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .errors import EvalError, ParseError, RiordanGepError
from .output import OutputDoc, matrix_doc, poly_doc, series_doc
from .series import Series

DEFAULT_ORDER = 16
# verify.REGISTRY's suites in report order; verify loads only for the commands that check
SUITE_NAMES = ("series", "riordan", "stirling", "gep", "w", "abeta", "dirichlet", "cli")


class LimitExceeded(RiordanGepError):
    pass


def _max_order() -> int:
    raw = os.environ.get("RIORDAN_GEP_MAX_ORDER", "4096")
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:  # a usage error, reported as argparse reports one, in one line
        print(f"error: RIORDAN_GEP_MAX_ORDER must be a nonnegative integer, got {raw!r}", file=sys.stderr)
        raise SystemExit(2)
    return cap


def _check_limit(value: int, what: str) -> int:
    cap = _max_order()
    if value > cap:
        raise LimitExceeded(f"{what} {value} exceeds RIORDAN_GEP_MAX_ORDER={cap}")
    return value


def _fraction(text: str) -> Fraction:
    # Fraction() also reads exponent notation, and 1e999999999 is a billion-digit integer
    if "e" in text.lower():
        raise argparse.ArgumentTypeError(f"exponent notation is not accepted: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


_positive = _int_at_least(1)
_nonnegative = _int_at_least(0)


def _eval(expr_text: str, order: int) -> Series:
    from .expr import eval_expr, parse_expr

    return eval_expr(parse_expr(expr_text), order)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("pretty", "csv", "json"),
        default="pretty",
        help="output rendering (default pretty)",
    )
    top = argparse.ArgumentParser(
        prog="riordan-gep",
        description="Exact Riordan-array and generalized-Euler-polynomial calculator",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="evaluate a series expression")
    series_sub = p.add_subparsers(dest="series_command", required=True)
    ev = series_sub.add_parser("eval", parents=[common], help="expand an expression")
    ev.add_argument("expr")
    ev.add_argument("--order", type=_nonnegative, default=DEFAULT_ORDER)

    p = sub.add_parser("riordan", help="Riordan array windows")
    riordan_sub = p.add_subparsers(dest="riordan_command", required=True)
    tab = riordan_sub.add_parser("table", parents=[common], help="finite window of an array")
    tab.add_argument("--f", required=True, help="first component (b for square arrays)")
    tab.add_argument("--g", required=True, help="second component (a for square arrays)")
    tab.add_argument("--kind", choices=("ordinary", "square", "exp"), default="ordinary")
    tab.add_argument("--rows", type=_positive, default=8)
    tab.add_argument("--cols", type=_positive, default=8)

    p = sub.add_parser("gep", help="generalized Euler polynomials and transforms")
    gep_sub = p.add_subparsers(dest="gep_command", required=True)
    for which in ("alpha", "u", "v"):
        q = gep_sub.add_parser(which, parents=[common], help=f"the {which} polynomial")
        q.add_argument("--a", required=True, help="base series expression, a(0) = 1")
        q.add_argument("--n", type=_positive, required=True)
    q = gep_sub.add_parser("matrix", parents=[common], help="transform matrices")
    q.add_argument("which", choices=("U", "Uinv", "V", "Vinv", "VU", "UinvVinv"))
    q.add_argument("--n", type=_positive, required=True)

    p = sub.add_parser("euler", parents=[common], help="Eulerian numerator polynomial")
    p.add_argument("--n", type=_positive, required=True)

    p = sub.add_parser("w", parents=[common], help="multinomial transform matrix")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--m", type=_positive, required=True)
    p.add_argument("--check", action="store_true", help="report identity checks instead")

    p = sub.add_parser("abeta", parents=[common], help="shift-conjugation transform matrix")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--beta", type=_fraction, required=True)

    p = sub.add_parser("lagrange", parents=[common], help="generalized Lagrange series")
    p.add_argument("--a", required=True, help="base series expression, a(0) = 1")
    p.add_argument("--beta", type=_fraction, required=True)
    p.add_argument("--phi", type=_fraction, default=Fraction(1))
    p.add_argument("--order", type=_nonnegative, default=DEFAULT_ORDER)

    p = sub.add_parser("dirichlet", help="formal Dirichlet series tables")
    dir_sub = p.add_subparsers(dest="dirichlet_command", required=True)
    tab = dir_sub.add_parser("table", parents=[common], help="window of a power array")
    tab.add_argument("--preset", choices=("zeta", "zeta-inv", "zeta-log"), required=True)
    tab.add_argument("--rows", type=_positive, default=12)
    tab.add_argument("--cols", type=_positive, default=4)
    g = dir_sub.add_parser("g", parents=[common], help="Carlitz-Hoggatt polynomial")
    g.add_argument("--p", type=_positive, required=True)
    g.add_argument("--r", type=_positive, required=True)

    p = sub.add_parser("verify", parents=[common], help="run the invariant suites")
    p.add_argument("suite", choices=("all",) + SUITE_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=_positive, default=None, dest="max_n")
    return top


def _dispatch(args):
    """Compute what args ask for and return its OutputDoc.  Each branch
    imports the modules it runs."""
    if args.command == "series":
        order = _check_limit(args.order, "order")
        return series_doc(_eval(args.expr, order))

    if args.command == "riordan":
        from . import riordan

        rows = _check_limit(args.rows, "rows")
        cols = _check_limit(args.cols, "cols")
        kind = {
            "ordinary": riordan.RiordanKind.ORDINARY,
            "square": riordan.RiordanKind.SQUARE,
            "exp": riordan.RiordanKind.EXPONENTIAL,
        }[args.kind]
        # the window reads rows 0..rows-1; order rows >= 1 keeps g'(0) for the kind check
        arr = riordan.RiordanArray(kind, _eval(args.f, rows), _eval(args.g, rows))
        return matrix_doc(riordan.window(arr, rows, cols))

    if args.command == "gep":
        from . import gep

        n = _check_limit(args.n, "n")
        if args.gep_command == "matrix":
            table = {
                "U": gep.matrix_u,
                "Uinv": gep.matrix_u_inv,
                "V": gep.matrix_v,
                "Vinv": gep.matrix_v_inv,
                "VU": lambda k: gep.stirling_products(k)[0],
                "UinvVinv": lambda k: gep.stirling_products(k)[1],
            }
            return matrix_doc(table[args.which](n), n=n)
        ctx = gep.GepContext(_eval(args.a, n), n)
        return poly_doc(getattr(ctx, args.gep_command), n=n)  # alpha, u or v

    if args.command == "euler":
        from .gep import eulerian_poly

        n = _check_limit(args.n, "n")
        return poly_doc(eulerian_poly(n), n=n)

    if args.command == "w":
        from .wmatrix import w_matrix

        n = _check_limit(args.n, "n")
        # the largest series w_matrix expands: for W_(n,m), and W_(n,2m) under --check
        _check_limit((2 if args.check else 1) * args.m * n - 1, "series order")
        w = w_matrix(n, args.m)
        if args.check:
            from .suites.w import w_check_rows

            return OutputDoc("VerifyReport", w_check_rows(w, args.m))
        return matrix_doc(w, n=n)

    if args.command == "abeta":
        from .lagrange import abeta_matrix

        n = _check_limit(args.n, "n")
        return matrix_doc(abeta_matrix(n, args.beta), n=n)

    if args.command == "lagrange":
        from . import lagrange

        order = _check_limit(args.order, "order")
        a = _eval(args.a, order)
        return series_doc(lagrange.lagrange_coeffs(a, args.beta, order, args.phi))

    if args.command == "dirichlet":
        from . import dirichlet as ds

        if args.dirichlet_command == "g":
            # the bound keeps the verify cut 2(pr+1), so exit codes stay, until ROADMAP item 7's cost model
            _check_limit(2 * (args.p * args.r + 1), "series order")
            return poly_doc(ds.carlitz_hoggatt(args.r, args.p))
        rows = _check_limit(args.rows, "rows")
        cols = _check_limit(args.cols, "cols")
        z = ds.DirichletSeries.zeta(rows)
        if args.preset == "zeta":
            window = ds.array_window(z, "plain", rows, cols)
        elif args.preset == "zeta-inv":
            window = ds.array_window(ds.dirichlet_inv(z), "plain", rows, cols)
        else:
            window = ds.array_window(z, "log", rows, cols)
        return matrix_doc(window)

    if args.command == "verify":
        from .verify import run_suites

        return OutputDoc("VerifyReport", run_suites(args.suite, seed=args.seed, max_n=args.max_n))

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _max_order()  # a bad cap fails every command, also one that sets no limit
    try:
        doc = _dispatch(args)
    except (RiordanGepError, ParseError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # exact output has no size cap: lift Python's int-to-str digit limit
    # (0 = none, as before 3.10.7) while rendering only, then restore it
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = doc.render(args.format)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:  # a full device or a reader that has gone
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # what stays buffered goes to devnull, so interpreter shutdown prints nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if doc.kind == "VerifyReport" and any(row[2] != "ok" for row in doc.entries):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
