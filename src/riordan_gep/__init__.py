"""Exact rational calculus of Riordan arrays and generalized Euler polynomials.

Everything is computed over fractions.Fraction; all identities hold by
exact equality.  See the README for the notation and the CLI entry points.
"""

from .errors import (
    ConstantTermNotOne,
    DegreeTooHigh,
    InsufficientOrder,
    KindMismatch,
    LeadingCoefficientNotOne,
    NonzeroConstantTerm,
    NotInvertibleForComposition,
    OutOfRange,
    RiordanGepError,
    ZeroConstantTerm,
)
from .matrix import RMatrix
from .series import Poly, Series, compose, derivative, exp, log, power, reciprocal, reversion

__version__ = "0.1.0"

__all__ = [
    "Series",
    "Poly",
    "RMatrix",
    "compose",
    "derivative",
    "exp",
    "log",
    "power",
    "reciprocal",
    "reversion",
    "RiordanGepError",
    "NonzeroConstantTerm",
    "ZeroConstantTerm",
    "ConstantTermNotOne",
    "NotInvertibleForComposition",
    "InsufficientOrder",
    "KindMismatch",
    "OutOfRange",
    "DegreeTooHigh",
    "LeadingCoefficientNotOne",
    "__version__",
]
