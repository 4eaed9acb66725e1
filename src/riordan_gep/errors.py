"""Exception types shared across the package.

Every domain-precondition violation raises a subclass of RiordanGepError,
so callers (and the CLI) can catch one base class.  The expression
parser's ParseError and EvalError live here too (expr re-exports them), so
the CLI can catch them without loading the parser.
"""


class RiordanGepError(ValueError):
    """Base class for all precondition and domain errors."""


class NonzeroConstantTerm(RiordanGepError):
    """An operation required a series with constant term 0."""


class ZeroConstantTerm(RiordanGepError):
    """An operation required a series with nonzero constant term."""


class ConstantTermNotOne(RiordanGepError):
    """An operation required a series with constant term 1."""


class NotInvertibleForComposition(RiordanGepError):
    """Compositional inverse needs g(0) = 0 and g'(0) != 0."""


class InsufficientOrder(RiordanGepError):
    """A coefficient beyond the stored truncation order was requested."""


class KindMismatch(RiordanGepError):
    """Riordan array kinds are incompatible for the requested operation."""


class OutOfRange(RiordanGepError):
    """An index argument lies outside its documented range."""


class DegreeTooHigh(RiordanGepError):
    """A polynomial argument exceeds the degree bound of a transform."""


class LeadingCoefficientNotOne(RiordanGepError):
    """A Dirichlet series operation required a_1 = 1."""


class ParseError(ValueError):
    """A series expression is not in the grammar (see expr.py)."""

    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position
        self.expected = expected
        self.found = found
        what = f", found {found}" if found else ""
        super().__init__(f"parse error at offset {position}: expected {expected}{what}")


class EvalError(ValueError):
    """A domain error inside an expression, with the offending subexpression's span."""

    def __init__(self, span, reason: str):
        self.span = span
        self.reason = reason
        super().__init__(f"error in expression at offsets {span[0]}..{span[1]}: {reason}")
