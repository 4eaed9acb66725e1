"""Suite `cli`: the expression parser and the JSON documents round trip."""

from __future__ import annotations

import json
from fractions import Fraction

from .. import gep, routes
from ..expr import parse_expr
from ..output import OutputDoc, matrix_doc, poly_doc, series_doc
from ..series import Series
from ..verify import _same


def check_parser_roundtrip(rng, max_n):
    for text in _expression_corpus():
        ast = parse_expr(text)
        _same(parse_expr(routes.unparse(ast)), ast, text=text)


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

