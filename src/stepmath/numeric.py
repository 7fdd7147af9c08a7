"""Exact and binary64 arithmetic over the expression language's value domain.

Three value kinds live in one union:

* ``int``   -- arbitrary-precision integers (Python ints are already exact)
* ``Frac``  -- rational numbers that are NOT silently reduced; reduction is an
               explicit operation so the trace engine can show it as a step
* ``float`` -- IEEE-754 binary64; printed as the shortest decimal string that
               round-trips, expanded to plain positional notation

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Union

from .errors import Dec64RangeError, DivByZero, RenderOverflow, UnsupportedExponent

# Largest magnitude a binary64 value may have and still be printed without
# exponent notation.
RENDER_LIMIT = 1e21

# Most decimal digits an integer may have: Python's default limit on
# int-to-str conversion. The parser refuses longer literals, powers are refused
# before they are computed, and `render` refuses any other longer result.
DIGIT_LIMIT = 4300
_POWER_BOUND = 10 ** DIGIT_LIMIT
# Past this exponent every base of 2 or more gives too many digits; testing it
# first keeps an exponent too large for a float out of the digit estimate.
_MAX_EXPONENT = (DIGIT_LIMIT + 1) / math.log10(2)


@dataclass(frozen=True, init=False, slots=True)
class Frac:
    """An unreduced rational. Denominator is always positive; sign lives in num.
    Equality is structural: 1/2 != 2/4 here; use values_equal for value equality."""

    num: int
    den: int

    def __init__(self, num: int, den: int):
        if den == 0:
            raise DivByZero("fraction with zero denominator")
        if den < 0:
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __neg__(self):
        return Frac(-self.num, self.den)

    @property
    def is_canonical(self) -> bool:
        return math.gcd(abs(self.num), self.den) == 1


Number = Union[int, Frac, float]


def _as_frac(v: Number) -> Frac | None:
    if isinstance(v, Frac):
        return v
    if isinstance(v, int):
        return Frac(v, 1)
    return None


def _checked(x: float) -> float:
    if math.isinf(x) or math.isnan(x):
        raise Dec64RangeError(f"binary64 result out of range: {x!r}")
    return x


def decimal_value(text: str) -> float:
    """The binary64 value of decimal text, which has none past binary64's
    range, where `float` reads it as infinity."""
    x = float(text)
    if math.isinf(x):
        raise Dec64RangeError("decimal literal exceeds binary64 range")
    return x


def to_float(v: Number) -> float:
    if isinstance(v, Frac):
        try:
            return v.num / v.den
        except OverflowError:
            return math.inf if v.num > 0 else -math.inf
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


# The kind rule of every operation: a binary64 operand makes the result
# binary64, else a Frac operand makes it a Frac, else both are ints.


def add(a: Number, b: Number) -> Number:
    if isinstance(a, float) or isinstance(b, float):
        return _checked(to_float(a) + to_float(b))
    if isinstance(a, Frac) or isinstance(b, Frac):
        fa, fb = _as_frac(a), _as_frac(b)
        if fa.den == fb.den:  # common denominator: add numerators directly
            return Frac(fa.num + fb.num, fa.den)
        return Frac(fa.num * fb.den + fb.num * fa.den, fa.den * fb.den)
    return a + b


def sub(a: Number, b: Number) -> Number:
    if isinstance(a, float) or isinstance(b, float):
        return _checked(to_float(a) - to_float(b))
    if isinstance(a, Frac) or isinstance(b, Frac):
        fa, fb = _as_frac(a), _as_frac(b)
        if fa.den == fb.den:
            return Frac(fa.num - fb.num, fa.den)
        return Frac(fa.num * fb.den - fb.num * fa.den, fa.den * fb.den)
    return a - b


def mul(a: Number, b: Number) -> Number:
    if isinstance(a, float) or isinstance(b, float):
        return _checked(to_float(a) * to_float(b))
    if isinstance(a, Frac) or isinstance(b, Frac):
        fa, fb = _as_frac(a), _as_frac(b)
        return Frac(fa.num * fb.num, fa.den * fb.den)
    return a * b


def div(a: Number, b: Number) -> Number:
    if isinstance(a, float) or isinstance(b, float):
        if to_float(b) == 0.0:
            raise DivByZero()
        return _checked(to_float(a) / to_float(b))
    if isinstance(a, Frac) or isinstance(b, Frac):
        fa, fb = _as_frac(a), _as_frac(b)
        if fb.num == 0:
            raise DivByZero()
        return Frac(fa.num * fb.den, fa.den * fb.num)
    if b == 0:
        raise DivByZero()
    # Integer division stays exact when it divides evenly, otherwise binary64.
    if a % b == 0:
        return a // b
    try:
        return _checked(a / b)
    except OverflowError:
        raise Dec64RangeError("integer quotient exceeds binary64 range") from None


def pow_(base: Number, exponent: Number) -> int:
    if not isinstance(base, int) or not isinstance(exponent, int):
        raise UnsupportedExponent("exponentiation takes integer operands only")
    if exponent < 0:
        raise UnsupportedExponent(f"negative exponent {exponent}")
    # Estimate the digits first: `9^99999999` must fail, not run for hours.
    # The estimate is good to far better than one digit, so the exact test
    # below decides only results that are at most two digits too long.
    if abs(base) < 2 or (exponent <= _MAX_EXPONENT
                         and exponent * math.log10(abs(base)) <= DIGIT_LIMIT + 1):
        # 0**0 == 1, consistent with n**0 == 1 for every other base.
        result = base ** exponent
        if -_POWER_BOUND < result < _POWER_BOUND:
            return result
    shown = f"({base})" if base < 0 else base
    raise RenderOverflow(f"{shown}^{exponent} has more than {DIGIT_LIMIT} digits")


def apply(op: str, a: Number, b: Number) -> Number:
    """The value of ``a op b`` for any binary operator of the expression language."""
    if a.__class__ is int and b.__class__ is int:  # most operations: exact ints
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
    if op == "+":
        return add(a, b)
    if op == "-":
        return sub(a, b)
    if op == "*":
        return mul(a, b)
    if op == "/":
        return div(a, b)
    return pow_(a, b)


def reduce_fraction(f: Frac) -> Frac:
    g = math.gcd(abs(f.num), f.den)
    if g <= 1:
        return f
    return Frac(f.num // g, f.den // g)


def percent_value(payload: Number) -> Number:
    """Value of ``payload%``: ``payload / 100``."""
    return div(payload, 100)


def render_dec64(x: float) -> str:
    """Shortest round-trip decimal for a binary64, always positional notation."""
    if math.isnan(x) or math.isinf(x):
        raise Dec64RangeError(f"cannot render {x!r}")
    if abs(x) >= RENDER_LIMIT:
        raise RenderOverflow(f"|{x!r}| >= 1e21 cannot be rendered positionally")
    s = repr(x)
    return format(Decimal(s), "f") if "e" in s else s


def render(v: Number) -> str:
    try:
        if v.__class__ is int:  # most values: exact ints
            return str(v)
        if isinstance(v, Frac):
            return f"{v.num}/{v.den}"
        if not isinstance(v, float):
            return str(v)
    except ValueError:  # past the int-to-str limit
        raise RenderOverflow(f"a result of more than {DIGIT_LIMIT} digits cannot be printed") from None
    return render_dec64(v)


def values_equal(a: Number, b: Number) -> bool:
    """Exact value equality across kinds (bit-equality for two binary64 values)."""
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, float) and isinstance(b, float):
            return a == b and (a != 0.0 or math.copysign(1.0, a) == math.copysign(1.0, b))
        fa, fb = _as_frac(a), _as_frac(b)
        if fa is not None:  # rational vs float: compare exactly via float's rational form
            x = b if isinstance(b, float) else a
            r = fa
        else:
            x, r = a, fb
        num, den = x.as_integer_ratio()
        return num * r.den == r.num * den
    fa, fb = _as_frac(a), _as_frac(b)
    return fa.num * fb.den == fb.num * fa.den


def is_zero(v: Number) -> bool:
    if isinstance(v, Frac):
        return v.num == 0
    return v == 0


def two_decimal_cents(v: Number) -> int:
    """Round v to two decimal places, half away from zero, returned as integer cents.

    The binary64 case rounds the shortest decimal rendering, not the binary
    value, so 2.004999... style artifacts cannot flip a comparison.
    """
    if isinstance(v, int):
        return v * 100
    if isinstance(v, Frac):
        n = 100 * abs(v.num)
        q = (2 * n + v.den) // (2 * v.den)
        return -q if v.num < 0 else q
    # repr() is the shortest round-trip rendering; Decimal reads its exponent
    # form directly, so magnitudes past the positional-print limit still round.
    # scaleb and to_integral_value stay exact past the 28-digit context, where quantize raises.
    return int(Decimal(repr(v)).scaleb(2).to_integral_value(rounding=ROUND_HALF_UP))
