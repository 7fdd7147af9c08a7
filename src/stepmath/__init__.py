"""Step-by-step arithmetic toolkit: exact evaluation, `=`-joined solution
traces, curriculum dataset generation, digit-level tokenization, sequence
packing, and prediction scoring."""

from .errors import (
    AnswerMismatch,
    Dec64RangeError,
    DepthExceeded,
    DivByZero,
    EquationParseError,
    ExprSyntaxError,
    MalformedInput,
    MathError,
    NonTerminating,
    RecordTooLong,
    RenderOverflow,
    StepmathError,
    UnknownId,
    UnknownSymbol,
    UnsupportedExponent,
)
from .expr import FRACTION, STANDARD, count_atomic_ops, parse, print_expr
from .numeric import Frac, Number, render, values_equal
from .steps import StepTrace, direct_eval, next_step, render_trace, trace

__all__ = [
    "AnswerMismatch",
    "Dec64RangeError",
    "DepthExceeded",
    "DivByZero",
    "EquationParseError",
    "ExprSyntaxError",
    "FRACTION",
    "Frac",
    "MalformedInput",
    "MathError",
    "NonTerminating",
    "Number",
    "RecordTooLong",
    "RenderOverflow",
    "STANDARD",
    "StepTrace",
    "StepmathError",
    "UnknownId",
    "UnknownSymbol",
    "UnsupportedExponent",
    "count_atomic_ops",
    "direct_eval",
    "next_step",
    "parse",
    "print_expr",
    "render",
    "render_trace",
    "trace",
    "values_equal",
]

__version__ = "0.1.0"
