import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepmath import numeric
from stepmath.errors import (
    Dec64RangeError,
    DivByZero,
    RenderOverflow,
    UnsupportedExponent,
)
from stepmath.numeric import Frac

from conftest import schoolbook_add, schoolbook_mul, schoolbook_sub


class TestIntegerArithmetic:
    def test_matches_schoolbook_oracle(self):
        rng = random.Random(101)
        for _ in range(10_000):
            a = rng.randint(-(10**30), 10**30)
            b = rng.randint(-(10**30), 10**30)
            assert numeric.add(a, b) == schoolbook_add(a, b)
            assert numeric.sub(a, b) == schoolbook_sub(a, b)
            assert numeric.mul(a, b) == schoolbook_mul(a, b)

    def test_additive_identity(self):
        assert numeric.add(1, 0) == 1

    def test_division_exact_when_even(self):
        assert numeric.div(8, 1) == 8
        assert isinstance(numeric.div(8, 1), int)
        assert numeric.div(-24, 6) == -4

    def test_division_binary64_when_uneven(self):
        got = numeric.div(14031528, 7424)
        assert isinstance(got, float)
        assert numeric.render(got) == "1890.0226293103449"

    def test_div_then_mul_reconstruction(self):
        rng = random.Random(77)
        for _ in range(2_000):
            b = rng.randint(1, 10**9)
            q = rng.randint(-(10**9), 10**9)
            a = b * q
            assert numeric.mul(numeric.div(a, b), b) == a

    def test_division_by_zero(self):
        with pytest.raises(DivByZero):
            numeric.div(5, 0)
        with pytest.raises(DivByZero):
            numeric.div(5.0, 0.0)
        with pytest.raises(DivByZero):
            numeric.div(Frac(1, 2), Frac(0, 3))


# add/sub/mul as they were before they tested operand kinds first: each
# converted both operands with `_as_frac` up front; and div as it was before
# it tested for a binary64 operand ahead of a Frac. Kept as the reference the
# current functions must match result for result and error for error.


def _ref_add(a, b):
    fa, fb = numeric._as_frac(a), numeric._as_frac(b)
    if isinstance(a, Frac) or isinstance(b, Frac):
        if fa is None or fb is None:
            return numeric._checked(numeric.to_float(a) + numeric.to_float(b))
        if fa.den == fb.den:
            return Frac(fa.num + fb.num, fa.den)
        return Frac(fa.num * fb.den + fb.num * fa.den, fa.den * fb.den)
    if isinstance(a, float) or isinstance(b, float):
        return numeric._checked(numeric.to_float(a) + numeric.to_float(b))
    return a + b


def _ref_sub(a, b):
    fa, fb = numeric._as_frac(a), numeric._as_frac(b)
    if isinstance(a, Frac) or isinstance(b, Frac):
        if fa is None or fb is None:
            return numeric._checked(numeric.to_float(a) - numeric.to_float(b))
        if fa.den == fb.den:
            return Frac(fa.num - fb.num, fa.den)
        return Frac(fa.num * fb.den - fb.num * fa.den, fa.den * fb.den)
    if isinstance(a, float) or isinstance(b, float):
        return numeric._checked(numeric.to_float(a) - numeric.to_float(b))
    return a - b


def _ref_mul(a, b):
    fa, fb = numeric._as_frac(a), numeric._as_frac(b)
    if isinstance(a, Frac) or isinstance(b, Frac):
        if fa is None or fb is None:
            return numeric._checked(numeric.to_float(a) * numeric.to_float(b))
        return Frac(fa.num * fb.num, fa.den * fb.den)
    if isinstance(a, float) or isinstance(b, float):
        return numeric._checked(numeric.to_float(a) * numeric.to_float(b))
    return a * b


def _ref_div(a, b):
    if isinstance(a, Frac) or isinstance(b, Frac):
        fa, fb = numeric._as_frac(a), numeric._as_frac(b)
        if fa is None or fb is None:
            if numeric.to_float(b) == 0.0:
                raise DivByZero()
            return numeric._checked(numeric.to_float(a) / numeric.to_float(b))
        if fb.num == 0:
            raise DivByZero()
        return Frac(fa.num * fb.den, fa.den * fb.num)
    if isinstance(a, float) or isinstance(b, float):
        if numeric.to_float(b) == 0.0:
            raise DivByZero()
        return numeric._checked(numeric.to_float(a) / numeric.to_float(b))
    if b == 0:
        raise DivByZero()
    if a % b == 0:
        return a // b
    try:
        return numeric._checked(a / b)
    except OverflowError:
        raise Dec64RangeError("integer quotient exceeds binary64 range") from None


def _outcome(fn, a, b):
    """Kind and exact value of fn(a, b), or the error it raised."""
    try:
        v = fn(a, b)
    except Exception as err:
        return ("error", type(err).__name__, str(err))
    if isinstance(v, Frac):
        return ("frac", v.num, v.den)
    if isinstance(v, float):
        return ("float", v.hex())
    return (type(v).__name__, v)


_INTS = st.integers(-(10**400), 10**400) | st.integers(-1000, 1000)
_VALUES = st.one_of(
    _INTS,
    st.builds(Frac, st.integers(-(10**30), 10**30),
              st.integers(1, 10**30) | st.integers(-(10**30), -1)),
    st.floats(width=64),
)


@settings(max_examples=600, deadline=None)
@given(_VALUES, _VALUES)
def test_add_sub_mul_match_the_convert_first_reference(a, b):
    for fn, ref in ((numeric.add, _ref_add), (numeric.sub, _ref_sub),
                    (numeric.mul, _ref_mul), (numeric.div, _ref_div)):
        assert _outcome(fn, a, b) == _outcome(ref, a, b)


class TestPow:
    def test_published_values(self):
        assert numeric.pow_(3, 9) == 19683
        assert numeric.pow_(5170, 0) == 1
        assert numeric.pow_(93, 18) == 270827695297250208363869180422467849
        assert numeric.pow_(100, 13) == 10**26

    def test_zero_to_the_zero_is_one(self):
        assert numeric.pow_(0, 0) == 1

    def test_exponent_addition_law(self):
        rng = random.Random(5)
        for _ in range(500):
            a = rng.randint(0, 100)
            m = rng.randint(0, 20)
            n = rng.randint(0, 20)
            assert numeric.pow_(a, m + n) == numeric.mul(numeric.pow_(a, m), numeric.pow_(a, n))

    def test_results_past_the_print_limit_are_refused(self):
        assert len(str(numeric.pow_(10, 4299))) == 4300
        assert len(str(numeric.pow_(-(10**100 - 1), 43))) == 4301  # sign plus 4300 digits
        assert numeric.pow_(10000, 100) == 10**400  # the largest generated power
        assert numeric.pow_(-1, 10**12 + 1) == -1
        assert numeric.pow_(0, 10**12) == 0
        for base, exponent in [(10, 4300), (-10, 4301), (2, 14285), (10**100, 43),
                               (9999, 2000), (9, 99999999), (2, 10**400 - 1)]:
            with pytest.raises(RenderOverflow):
                numeric.pow_(base, exponent)

    def test_negative_exponent_rejected(self):
        with pytest.raises(UnsupportedExponent):
            numeric.pow_(2, -1)

    def test_non_integer_operands_rejected(self):
        with pytest.raises(UnsupportedExponent):
            numeric.pow_(2.0, 2)
        with pytest.raises(UnsupportedExponent):
            numeric.pow_(2, Frac(1, 2))


class TestFractions:
    def test_add_matches_cross_multiplication_oracle(self):
        rng = random.Random(31)
        for _ in range(3_000):
            f = Frac(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
            g = Frac(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
            got = numeric.add(f, g)
            want = Fraction(f.num, f.den) + Fraction(g.num, g.den)
            assert Fraction(got.num, got.den) == want
            got = numeric.mul(f, g)
            assert Fraction(got.num, got.den) == Fraction(f.num, f.den) * Fraction(g.num, g.den)

    def test_results_are_not_silently_reduced(self):
        got = numeric.mul(Frac(49, 24), Frac(8, 70))
        assert (got.num, got.den) == (392, 1680)

    def test_same_denominator_addition_keeps_denominator(self):
        got = numeric.add(Frac(9947, 9276), Frac(4411, 9276))
        assert (got.num, got.den) == (14358, 9276)

    def test_reduce_published_values(self):
        assert numeric.reduce_fraction(Frac(14358, 9276)) == Frac(2393, 1546)
        assert numeric.reduce_fraction(Frac(560, 1020)) == Frac(28, 51)
        assert numeric.reduce_fraction(Frac(392, 1680)) == Frac(7, 30)

    def test_reduce_canonical_is_identity(self):
        assert numeric.reduce_fraction(Frac(7, 30)) == Frac(7, 30)

    def test_reduce_preserves_value(self):
        rng = random.Random(13)
        for _ in range(3_000):
            f = Frac(rng.randint(-(10**9), 10**9), rng.randint(1, 10**9))
            r = numeric.reduce_fraction(f)
            assert f.num * r.den == r.num * f.den
            assert r.is_canonical

    def test_sign_lives_in_numerator(self):
        f = Frac(3, -4)
        assert (f.num, f.den) == (-3, 4)

    def test_equality_is_structural(self):
        # 1/2 and 2/4 differ as fractions; values_equal compares values
        assert Frac(1, 2) != Frac(2, 4)
        assert Frac(1, 2) == Frac(-1, -2)
        assert hash(Frac(1, 2)) == hash(Frac(-1, -2)) == hash((1, 2))
        assert Frac(1, 2) != 0.5 and not Frac(1, 2) == 0.5
        assert Frac(2, 1) != 2 and not Frac(2, 1) == 2

    def test_immutable(self):
        f = Frac(1, 2)
        with pytest.raises(AttributeError):
            f.num = 3
        assert f == Frac(1, 2)

    def test_repr_rebuilds_the_fraction(self):
        for f in (Frac(1, 2), Frac(3, -4), Frac(0, 7)):
            assert eval(repr(f), {"Frac": Frac}) == f

    def test_division_is_reciprocal_multiplication(self):
        got = numeric.div(Frac(7, 30), Frac(34, 80))
        assert (got.num, got.den) == (560, 1020)


class TestPercent:
    def test_published_value(self):
        assert numeric.render(numeric.percent_value(5483)) == "54.83"

    def test_exact_when_divisible(self):
        assert numeric.percent_value(100) == 1
        assert isinstance(numeric.percent_value(100), int)
        assert numeric.percent_value(300) == 3

    def test_against_exact_decimal_division_oracle(self):
        for payload in [3, 7, 12, 250, 5483, 99999, 41]:
            got = numeric.percent_value(payload)
            want = Decimal(payload) / Decimal(100)
            assert Decimal(numeric.render(got)) == want


class TestRendering:
    def test_published_renderings(self):
        assert numeric.render(4383 / 7377) == "0.5941439609597398"
        assert numeric.render(-58276183466) == "-58276183466"
        assert numeric.render(0.5) == "0.5"

    def test_fraction_rendering(self):
        assert numeric.render(Frac(2393, 1546)) == "2393/1546"
        assert numeric.render(Frac(-7, 30)) == "-7/30"

    def test_round_trip_binary64(self):
        rng = random.Random(4242)
        for _ in range(100_000):
            x = rng.uniform(-1e12, 1e12)
            assert float(numeric.render(x)) == x
        # repr writes these with an exponent: |x| < 1e-4 and 1e16 <= |x| < 1e21
        for lo, hi in ((-320, -5), (16, 20)):
            for _ in range(20_000):
                x = rng.choice((-1, 1)) * rng.uniform(1, 9.99) * 10.0 ** rng.randint(lo, hi)
                text = numeric.render(x)
                assert float(text) == x and "e" not in text, x

    def test_no_exponent_notation(self):
        assert numeric.render(1e16) == "10000000000000000"
        assert numeric.render(1.2384801801e20) == "123848018010000000000"
        assert numeric.render(8.3e-13) == "0.00000000000083"
        assert float(numeric.render(8.3e-13)) == 8.3e-13

    def test_overflow_limit(self):
        with pytest.raises(RenderOverflow):
            numeric.render(1e21)
        assert numeric.render(9.999999e20).startswith("9999999")

    def test_nan_and_infinity_are_errors(self):
        with pytest.raises(Dec64RangeError):
            numeric.render(float("inf"))
        with pytest.raises(Dec64RangeError):
            numeric.mul(1e308, 1e308)


class TestComparisons:
    def test_values_equal_across_kinds(self):
        assert numeric.values_equal(Frac(28, 51), Frac(56, 102))
        assert numeric.values_equal(8, Frac(8, 1))
        assert numeric.values_equal(0.5, Frac(1, 2))
        assert not numeric.values_equal(0.1, Frac(1, 10))  # binary64 0.1 is not 1/10
        assert numeric.values_equal(Frac(1, 2), 0.5)  # the rational on the left
        assert numeric.values_equal(3, 3.0)
        assert not numeric.values_equal(Frac(1, 10), 0.1)
        assert numeric.values_equal(83, 83)
        assert not numeric.values_equal(83, 84)

    def test_two_decimal_cents(self):
        assert numeric.two_decimal_cents(83) == 8300
        assert numeric.two_decimal_cents(2.004) == 200
        assert numeric.two_decimal_cents(2.0044) == 200
        assert numeric.two_decimal_cents(2.005) == 201  # half away from zero
        assert numeric.two_decimal_cents(-2.005) == -201
        assert numeric.two_decimal_cents(Frac(1, 3)) == 33
        assert numeric.two_decimal_cents(Frac(-1, 8)) == -13  # -0.125 -> -0.13

    def test_is_zero(self):
        assert numeric.is_zero(0)
        assert numeric.is_zero(0.0)
        assert numeric.is_zero(Frac(0, 9))
        assert not numeric.is_zero(Frac(1, 9))
