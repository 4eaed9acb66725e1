"""Suite `cli`: the expression parser and the JSON documents round trip."""

from __future__ import annotations

import json
from fractions import Fraction

from .. import gep
from ..expr import Binary, Func, Lit, PowRational, Unary, Var, parse_expr
from ..output import OutputDoc, matrix_doc, poly_doc, series_doc
from ..series import Series
from ..verify import _same


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "pow": 3, "neg": 4}


def unparse(node) -> str:
    """Minimal-parenthesis text form of an expr AST; reparsing yields an equal AST."""

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


def check_parser_roundtrip(rng, max_n):
    for text in _expression_corpus():
        ast = parse_expr(text)
        _same(parse_expr(unparse(ast)), ast, text=text)


def check_json_roundtrip(rng, max_n):
    docs = [
        poly_doc(gep.eulerian_poly(4), n=4),
        series_doc(Series([1, 2, Fraction(1, 3)], order=4)),
        matrix_doc(gep.matrix_u(3), n=3),
        OutputDoc(kind="VerifyReport", entries=[["gep", "demo", "FAIL", "ValueError: a, \"b\""]]),
    ]
    for d in docs:
        _same(_from_json(d.to_json()), d, kind=d.kind)


def _from_json(text: str) -> OutputDoc:
    """The document that OutputDoc.to_json wrote as text, its entries as strs."""
    data = json.loads(text)
    entries = [list(row) for row in data["entries"]]
    return OutputDoc(data["kind"], entries, data.get("n"), data.get("rows"), data.get("cols"))


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

