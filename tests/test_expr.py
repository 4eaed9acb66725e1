from fractions import Fraction as F

import pytest

from riordan_gep.expr import (
    MAX_NESTING,
    Binary,
    EvalError,
    Func,
    Lit,
    ParseError,
    PowRational,
    Unary,
    Var,
    eval_expr,
    parse_expr,
    unparse,
)
from riordan_gep.series import Series
from riordan_gep.verify import _expression_corpus


class TestParsing:
    def test_ratio(self):
        ast = parse_expr("(1+x)/(1-x)")
        assert ast == Binary("/", Binary("+", Lit(F(1)), Var()), Binary("-", Lit(F(1)), Var()))

    def test_hyperbolic_square(self):
        ast = parse_expr("(x/2 + sqrt(1+x^2/4))^2")
        assert isinstance(ast, PowRational) and ast.exponent == 2
        inner = ast.base
        assert isinstance(inner, Binary) and inner.op == "+"
        assert isinstance(inner.right, Func) and inner.right.name == "sqrt"

    def test_fibonacci_gf(self):
        ast = parse_expr("1/(1-x-x^2)")
        assert isinstance(ast, Binary) and ast.op == "/"
        denom = ast.right
        # left associative: (1-x) - x^2
        assert denom == Binary("-", Binary("-", Lit(F(1)), Var()), PowRational(Var(), F(2)))

    def test_negation_binds_tighter_than_power(self):
        assert parse_expr("-x^2") == PowRational(Unary("neg", Var()), F(2))
        assert parse_expr("-(x^2)") == Unary("neg", PowRational(Var(), F(2)))

    def test_power_slash_is_division(self):
        # x^2/4 must stay (x^2)/4
        ast = parse_expr("x^2/4")
        assert ast == Binary("/", PowRational(Var(), F(2)), Lit(F(4)))

    def test_fractional_exponent_needs_parens(self):
        assert parse_expr("(1+x)^(1/2)").exponent == F(1, 2)
        assert parse_expr("(1+x)^(-1/2)").exponent == F(-1, 2)
        assert parse_expr("x^-2").exponent == -2

    def test_compose(self):
        ast = parse_expr("compose(exp(x)-1, x/(1-x))")
        assert isinstance(ast, Func) and ast.name == "compose" and len(ast.args) == 2

    def test_parse_error_positions(self):
        with pytest.raises(ParseError) as info:
            parse_expr("1 + ")
        assert info.value.position == 4
        with pytest.raises(ParseError) as info:
            parse_expr("(1+x")
        assert "')'" in str(info.value)
        with pytest.raises(ParseError):
            parse_expr("foo(x)")
        with pytest.raises(ParseError):
            parse_expr("1 $ 2")

    def test_spans_cover_input(self):
        text = "(1+x)/(1-x)"
        ast = parse_expr(text)
        assert ast.span == (0, len(text))
        assert ast.left.span == (0, 5)
        assert ast.right.span == (6, 11)


class TestEval:
    def test_ratio(self):
        s = eval_expr(parse_expr("(1+x)/(1-x)"), 3)
        assert s == Series([1, 2, 2, 2])

    def test_hyperbolic_square(self):
        s = eval_expr(parse_expr("(x/2 + sqrt(1+x^2/4))^2"), 4)
        assert s == Series([1, 1, F(1, 2), F(1, 8), 0])

    def test_reversion(self):
        s = eval_expr(parse_expr("rev(x/(1-x))"), 4)
        assert s == Series([0, 1, -1, 1, -1])

    def test_negated_power(self):
        assert eval_expr(parse_expr("-x^2"), 3) == Series([0, 0, 1, 0])

    def test_constant_fraction(self):
        assert eval_expr(parse_expr("3/4"), 2) == Series([F(3, 4)], order=2)

    def test_domain_error_carries_span(self):
        text = "1/(x+x^2)"
        with pytest.raises(EvalError) as info:
            eval_expr(parse_expr(text), 5)
        lo, hi = info.value.span
        assert text[lo:hi] == "(x+x^2)"

    def test_log_domain_error(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expr("log(x)"), 4)
        with pytest.raises(EvalError):
            eval_expr(parse_expr("sqrt(2+x)"), 4)
        with pytest.raises(EvalError):
            eval_expr(parse_expr("rev(1+x)"), 4)


class TestNestingLimit:
    @pytest.mark.parametrize(
        "text",
        [
            "(" * 3000 + "x" + ")" * 3000,
            "-" * 3000 + "x",
            "exp(" * 3000 + "x" + ")" * 3000,
            "x^" + "-" * 3000 + "2",
            "x^" + "(" * 3000 + "1/2" + ")" * 3000,
        ],
    )
    def test_deep_input_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="levels of nesting"):
            parse_expr(text)

    def test_limit_itself_evaluates(self):
        # the outermost operand is the first level
        deepest = "inv(" * (MAX_NESTING - 2) + "(1+x)" + ")" * (MAX_NESTING - 2)
        assert eval_expr(parse_expr(deepest), 3) == Series([1, 1], order=3)
        assert eval_expr(parse_expr("-" * (MAX_NESTING - 1) + "x"), 1) == Series([0, -1])
        with pytest.raises(ParseError):
            parse_expr("inv(" + deepest + ")")

    def test_long_chains_evaluate(self):
        assert eval_expr(parse_expr("+".join(["x"] * 3000)), 2) == Series([0, 3000], order=2)
        assert eval_expr(parse_expr("1" + "-x" * 3000), 1) == Series([1, -3000], order=1)


class TestRoundTrip:
    def test_corpus(self):
        corpus = _expression_corpus()
        assert len(corpus) >= 50
        for text in corpus:
            ast = parse_expr(text)
            printed = unparse(ast)
            assert parse_expr(printed) == ast, (text, printed)

    @pytest.mark.parametrize("terms", [1500, 3000])
    def test_long_chains_print(self, terms):
        # compare text: AST equality recurses down the chain as well
        for text in ("+".join(["x"] * terms), "1" + "-x*2/3" * terms):
            assert unparse(parse_expr(text)) == text

    def test_equality_ignores_spans(self):
        assert parse_expr("1+x") == parse_expr(" 1 + x ")
