"""Recursive-descent parser and evaluator for series expressions.

Grammar (LL(1), precedence high to low: unary minus, ^, * /, + -):

    expr     := term (('+' | '-') term)*
    term     := power (('*' | '/') power)*
    power    := base ('^' exponent)?
    base     := '-' base | atom
    atom     := INT | 'x' | '(' expr ')'
              | ('exp'|'log'|'inv'|'rev'|'sqrt') '(' expr ')'
              | 'compose' '(' expr ',' expr ')'
    exponent := '-'? (INT | '(' rational ')')
    rational := '-'? (INT ('/' INT)? | '(' rational ')')

Parentheses, function calls, unary minus and exponent signs nest at most
MAX_NESTING levels deep; deeper input is a ParseError, not a RecursionError.

Unary minus binds tighter than '^', so -x^2 parses as (-x)^2.  Exponents
are rational scalars: x^2 and x^-2 are fine, fractional ones need parens
as in (1+x)^(1/2), and x^2/4 is (x^2)/4.  '/' elsewhere is series
division, which makes 3/4 evaluate to the constant 3/4.

This module only reads expressions.  The minimal-parenthesis printer is
suites.cli.unparse, for the verify row "expression parser round trip".
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import EvalError, ParseError, RiordanGepError
from .series import Series, compose, exp, log, power, reciprocal, reversion


class _Node:
    """An immutable AST node: the positional fields in `_fields`, then `span`.

    Equality compares the class and the fields, not the span.
    """

    __slots__ = ("span",)
    _fields = ()

    def __init__(self, *values, span=(0, 0)):
        if len(values) == len(self._fields) + 1:  # span given positionally
            *values, span = values
        elif len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {', '.join(self._fields + ('span',))}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "span", span)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        parts = [f"{name}={value!r}" for name, value in zip(self._fields, self._values())]
        return f"{type(self).__name__}({', '.join(parts + [f'span={self.span!r}'])})"


class Lit(_Node):
    __slots__ = _fields = ("value",)  # value: Fraction


class Var(_Node):
    __slots__ = _fields = ()


class Unary(_Node):
    __slots__ = _fields = ("op", "operand")  # op: 'neg'


class Binary(_Node):
    __slots__ = _fields = ("op", "left", "right")  # op: '+', '-', '*', '/'


class PowRational(_Node):
    __slots__ = _fields = ("base", "exponent")  # exponent: Fraction


class Func(_Node):
    __slots__ = _fields = ("name", "args")  # name: 'exp', 'log', 'inv', 'rev', 'sqrt', 'compose'; args: tuple


_FUNCS1 = ("exp", "log", "inv", "rev", "sqrt")

# A level costs the parser six stack frames and the evaluator at most three,
# so 100 levels stay well inside Python's default recursion limit of 1000.
MAX_NESTING = 100


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal():  # not isdigit: int() refuses superscripts such as "²"
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if c in "+-*/^(),":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(i, "a token", repr(c))
    tokens.append(("end", "", len(text)))
    return tokens


def _nesting_limited(step):
    """Count the active calls of a recursive parse step; refuse one too many."""

    def limited(self, *args):
        if self.depth == MAX_NESTING:
            tok = self.peek()
            raise ParseError(tok[2], f"at most {MAX_NESTING} levels of nesting", tok[1] or "end of input")
        self.depth += 1
        result = step(self, *args)
        self.depth -= 1
        return result

    return limited


def _int(tok) -> int:
    """The value of an int token; one past Python's int-to-str digit limit is a ParseError."""
    try:
        return int(tok[1])
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(tok[2], f"an integer of at most {limit} digits", f"{len(tok[1])} digits") from None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(tok[2], repr(kind), tok[1] or "end of input")
        return self.next()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(tok[2], "end of input", tok[1])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            node = Binary(op, node, rhs, (node.span[0], rhs.span[1]))
        return node

    def term(self):
        node = self.power()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.power()
            node = Binary(op, node, rhs, (node.span[0], rhs.span[1]))
        return node

    def power(self):
        node = self.base()
        if self.peek()[0] == "^":
            self.next()
            expo, end = self.exponent()
            node = PowRational(node, expo, (node.span[0], end))
        return node

    @_nesting_limited
    def base(self):
        tok = self.peek()
        if tok[0] == "-":
            start = self.next()[2]
            inner = self.base()
            return Unary("neg", inner, (start, inner.span[1]))
        return self.atom()

    @_nesting_limited
    def exponent(self, bare=True):
        """Signed rational scalar; returns (Fraction, end offset).

        A bare exponent is an optionally-signed integer; fractional
        exponents must be parenthesized so that x^2/4 stays (x^2)/4.
        Inside the parentheses (bare=False) INT/INT is read as one rational.
        """
        tok = self.peek()
        if tok[0] == "-":
            self.next()
            value, end = self.exponent(bare)
            return -value, end
        if tok[0] == "(":
            self.next()
            value, _ = self.exponent(False)
            closing = self.expect(")")
            return value, closing[2] + 1
        num = self.expect("int")
        value = Fraction(_int(num))
        end = num[2] + len(num[1])
        if not bare and self.peek()[0] == "/":
            self.next()
            den = self.expect("int")
            d = _int(den)
            if d == 0:
                raise ParseError(den[2], "a nonzero denominator", den[1])
            value /= d
            end = den[2] + len(den[1])
        return value, end

    def atom(self):
        tok = self.next()
        kind, text, start = tok
        if kind == "int":
            return Lit(Fraction(_int(tok)), (start, start + len(text)))
        if kind == "name":
            if text == "x":
                return Var((start, start + 1))
            if text in _FUNCS1:
                self.expect("(")
                arg = self.expr()
                closing = self.expect(")")
                return Func(text, (arg,), (start, closing[2] + 1))
            if text == "compose":
                self.expect("(")
                first = self.expr()
                self.expect(",")
                second = self.expr()
                closing = self.expect(")")
                return Func(text, (first, second), (start, closing[2] + 1))
            raise ParseError(start, "x or a function name", text)
        if kind == "(":
            node = self.expr()
            closing = self.expect(")")
            return _respan(node, (start, closing[2] + 1))
        raise ParseError(start, "a number, x, '(' or a function", text or "end of input")


def _respan(node, span):
    return type(node)(*node._values(), span=span)


def parse_expr(text: str):
    """Parse to an AST; spans are byte offsets into the input."""
    return _Parser(text).parse()


def eval_expr(node, order: int) -> Series:
    """Evaluate an AST to an exact series of the given order.

    Domain violations (log of a series with nonunit constant term, division
    by a series vanishing at 0, ...) surface as EvalError carrying the span
    of the offending subexpression.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if isinstance(node, Lit):
        return Series.constant(node.value, order)
    if isinstance(node, Var):
        return Series.x(order)
    if isinstance(node, Unary):
        return -eval_expr(node.operand, order)
    if isinstance(node, Binary):
        # a chain a+b+...+z is a left spine as deep as it is long; walk it
        # in a loop so that long sums and products need no recursion
        chain = []
        while isinstance(node, Binary):
            chain.append(node)
            node = node.left
        acc = eval_expr(node, order)
        for link in reversed(chain):
            acc = _binary(link, acc, eval_expr(link.right, order))
        return acc
    if isinstance(node, PowRational):
        base = eval_expr(node.base, order)
        try:
            return power(base, node.exponent)
        except RiordanGepError as exc:
            raise EvalError(node.span, str(exc)) from exc
    if isinstance(node, Func):
        args = [eval_expr(a, order) for a in node.args]
        table = {
            "exp": exp,
            "log": log,
            "inv": reciprocal,
            "rev": reversion,
            "sqrt": lambda s: power(s, Fraction(1, 2)),
        }
        try:
            if node.name == "compose":
                return compose(args[0], args[1])
            return table[node.name](args[0])
        except RiordanGepError as exc:
            raise EvalError(node.span, str(exc)) from exc
    raise TypeError(f"not an expression node: {node!r}")


def _binary(node: Binary, lhs: Series, rhs: Series) -> Series:
    if node.op == "+":
        return lhs + rhs
    if node.op == "-":
        return lhs - rhs
    if node.op == "*":
        return lhs * rhs
    try:
        return lhs * reciprocal(rhs)
    except RiordanGepError as exc:
        raise EvalError(node.right.span, str(exc)) from exc

