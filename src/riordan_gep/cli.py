"""Command line front end.

Exit codes: 0 success, 1 domain error (bad series for the requested
operation, pole, order cap exceeded), 2 usage error.  Output formats:
pretty (default), csv, json.  The environment variable
RIORDAN_GEP_MAX_ORDER (default 4096) bounds every requested order/size.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import dirichlet as ds
from . import gep, lagrange, riordan, wmatrix
from .errors import RiordanGepError
from .expr import EvalError, ParseError, eval_expr, parse_expr
from .output import OutputDoc, matrix_doc, poly_doc, series_doc, verify_doc
from .series import Series
from .verify import SUITE_NAMES, run_suites, w_identities, w_routes_agree

DEFAULT_ORDER = 16


class LimitExceeded(RiordanGepError):
    pass


def _max_order() -> int:
    raw = os.environ.get("RIORDAN_GEP_MAX_ORDER", "4096")
    try:
        return int(raw)
    except ValueError:
        return 4096


def _check_limit(value: int, what: str) -> int:
    cap = _max_order()
    if value > cap:
        raise LimitExceeded(f"{what} {value} exceeds RIORDAN_GEP_MAX_ORDER={cap}")
    return value


def _fraction(text: str) -> Fraction:
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
    ast = parse_expr(expr_text)
    return eval_expr(ast, order)


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
    p.add_argument("--construction", choices=("conj", "dtilde", "log"), default="conj")

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


def _dispatch(args) -> OutputDoc:
    if args.command == "series":
        order = _check_limit(args.order, "order")
        return series_doc(_eval(args.expr, order))

    if args.command == "riordan":
        rows = _check_limit(args.rows, "rows")
        cols = _check_limit(args.cols, "cols")
        order = max(rows, cols) + 2
        kind = {
            "ordinary": riordan.RiordanKind.ORDINARY,
            "square": riordan.RiordanKind.SQUARE,
            "exp": riordan.RiordanKind.EXPONENTIAL,
        }[args.kind]
        arr = riordan.RiordanArray(kind, _eval(args.f, order), _eval(args.g, order))
        return matrix_doc(riordan.window(arr, rows, cols))

    if args.command == "gep":
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
        ctx = gep.GepContext(_eval(args.a, 2 * n + 2), n)
        poly = {"alpha": ctx.alpha, "u": ctx.u, "v": ctx.v}[args.gep_command]
        return poly_doc(poly, n=n)

    if args.command == "euler":
        n = _check_limit(args.n, "n")
        return poly_doc(gep.eulerian_poly(n), n=n)

    if args.command == "w":
        n = _check_limit(args.n, "n")
        # the largest series w_matrix expands: for W_(n,m), and W_(n,2m) under --check
        _check_limit((2 if args.check else 1) * args.m * n - 1, "series order")
        w = wmatrix.w_matrix(n, args.m)
        if args.check:
            sums_ok = all(s == Fraction(args.m) ** n for s in w.matrix.col_sums())
            alt_ok = w_routes_agree(w)
            ident_ok = w_identities(n, args.m, 2)
            rows = [
                ["w", "column sums are m^n", "ok" if sums_ok else "FAIL", ""],
                ["w", "alternative construction agrees", "ok" if alt_ok else "FAIL", ""],
                ["w", "multiplicativity/reversal/eigenvector", "ok" if ident_ok else "FAIL", ""],
            ]
            return OutputDoc(kind="VerifyReport", entries=rows)
        return matrix_doc(w.matrix, n=n)

    if args.command == "abeta":
        n = _check_limit(args.n, "n")
        mat = lagrange.abeta_matrix(n, args.beta, args.construction)
        return matrix_doc(mat.matrix, n=n)

    if args.command == "lagrange":
        order = _check_limit(args.order, "order")
        a = _eval(args.a, order)
        fam = lagrange.LagrangeFamily(a, args.beta, order)
        return series_doc(lagrange.lagrange_coeffs(fam, args.phi))

    if args.command == "dirichlet":
        if args.dirichlet_command == "g":
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
        results = run_suites(args.suite, seed=args.seed, max_n=args.max_n)
        return verify_doc(results)

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = _dispatch(args)
    except (RiordanGepError, ParseError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(doc.render(args.format))
    if args.command == "verify" and any(row[2] != "ok" for row in doc.entries):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
