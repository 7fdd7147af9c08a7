import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepmath.errors import DepthExceeded, DivByZero, ExprSyntaxError, StepmathError
from stepmath.expr import (
    FRACTION,
    MAX_DEPTH,
    MAX_RUN,
    STANDARD,
    Chain,
    FractionLit,
    Group,
    Lit,
    Unary,
    count_atomic_ops,
    iter_nodes,
    parse,
    print_expr,
)
from stepmath.numeric import DIGIT_LIMIT, Frac

from conftest import GOLDEN_TRACES

ALL_GOLDEN_SOURCES = [(src, mode) for src, mode, _ in GOLDEN_TRACES]


_RUN = "1" * (DIGIT_LIMIT + 1)
_PARSE_ERRORS = [
    ("1+a", STANDARD, ExprSyntaxError, 2, "unexpected character 'a' (offset 2)"),
    ("2+" + _RUN, STANDARD, ExprSyntaxError, 2,
     f"number of more than {DIGIT_LIMIT} digits (offset 2)"),
    # a lexical error anywhere wins over an earlier syntax error
    (")1x", STANDARD, ExprSyntaxError, 2, "unexpected character 'x' (offset 2)"),
    ("12.", STANDARD, ExprSyntaxError, 3, "expected digits (offset 3)"),
    ("1.%", STANDARD, ExprSyntaxError, 2, "expected digits (offset 2)"),
    ("(1)23", STANDARD, ExprSyntaxError, 3, "trailing input '23' (offset 3)"),
    ("1+2)", STANDARD, ExprSyntaxError, 3, "trailing input ')' (offset 3)"),
    ("1=2", STANDARD, ExprSyntaxError, 1, "trailing input '=' (offset 1)"),
    ("1+", STANDARD, ExprSyntaxError, 2, "unexpected end of input (offset 2)"),
    ("", STANDARD, ExprSyntaxError, 0, "unexpected end of input (offset 0)"),
    ("1+*2", STANDARD, ExprSyntaxError, 2, "unexpected '*' (offset 2)"),
    ("(1+2", STANDARD, ExprSyntaxError, 0, "unbalanced '(' (offset 0)"),
    ("[1+2)", STANDARD, ExprSyntaxError, 0, "unbalanced '[' (offset 0)"),
    ("(1/2", FRACTION, ExprSyntaxError, 0, "unbalanced '(' (offset 0)"),
    ("(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1), STANDARD, DepthExceeded,
     MAX_DEPTH, f"bracket nesting deeper than {MAX_DEPTH} (offset {MAX_DEPTH})"),
    ("-" * (MAX_RUN + 1) + "1", STANDARD, DepthExceeded, MAX_RUN,
     f"sign and exponent nesting deeper than {MAX_RUN} (offset {MAX_RUN})"),
    ("(5/0)", FRACTION, DivByZero, None, "fraction with zero denominator"),
    # a text of at most DIGIT_LIMIT characters holds no digit run too long, so
    # the lexical check picks its search by length; the errors do not change
    ("1+" * (DIGIT_LIMIT // 2 - 1) + "1a", STANDARD, ExprSyntaxError, DIGIT_LIMIT - 1,
     f"unexpected character 'a' (offset {DIGIT_LIMIT - 1})"),
    (_RUN, STANDARD, ExprSyntaxError, 0, f"number of more than {DIGIT_LIMIT} digits (offset 0)"),
    ("3+x+" + _RUN, STANDARD, ExprSyntaxError, 2, "unexpected character 'x' (offset 2)"),
    ("2*" + _RUN + "+x", STANDARD, ExprSyntaxError, 2,
     f"number of more than {DIGIT_LIMIT} digits (offset 2)"),
]

# Edge cases of the same raise sites: brackets next to fraction literals,
# malformed numbers, a dangling sign or `^`.
_PARSE_EDGE_ERRORS = [
    ("2(3/4)", FRACTION, ExprSyntaxError, 1, "trailing input '(' (offset 1)"),
    ("(1/2)(3/4)", FRACTION, ExprSyntaxError, 5, "trailing input '(' (offset 5)"),
    ("(1/2)3", FRACTION, ExprSyntaxError, 5, "trailing input '3' (offset 5)"),
    ("((1/2)", FRACTION, ExprSyntaxError, 0, "unbalanced '(' (offset 0)"),
    ("(-1/0)", FRACTION, DivByZero, None, "fraction with zero denominator"),
    ("1+(2", STANDARD, ExprSyntaxError, 2, "unbalanced '(' (offset 2)"),
    ("1..2", STANDARD, ExprSyntaxError, 2, "expected digits (offset 2)"),
    ("5%%", STANDARD, ExprSyntaxError, 2, "trailing input '%' (offset 2)"),
    ("12.5.1", STANDARD, ExprSyntaxError, 4, "trailing input '.' (offset 4)"),
    ("1%.5", STANDARD, ExprSyntaxError, 2, "trailing input '.' (offset 2)"),
    ("2^", STANDARD, ExprSyntaxError, 2, "unexpected end of input (offset 2)"),
    ("-", STANDARD, ExprSyntaxError, 1, "unexpected end of input (offset 1)"),
    ("(12)3", STANDARD, ExprSyntaxError, 4, "trailing input '3' (offset 4)"),
]

# Shapes at the edges of the grammar: a fraction literal's brackets, signs
# folded into a literal, a signed exponent.
_PARSE_EDGE_TREES = [
    ("(1/-2)", FRACTION, Group("(", Chain("/", (Lit(1, "1"), Lit(-2, "-2"))))),
    ("[1/2]", FRACTION, Group("[", Chain("/", (Lit(1, "1"), Lit(2, "2"))))),
    ("(-1/2)^2", FRACTION, Chain("^", (FractionLit(Frac(-1, 2), "(-1/2)"), Lit(2, "2")))),
    ("+-5%", STANDARD, Lit(-5, "+-5%")),
    ("2^-3^2", STANDARD,
     Chain("^", (Lit(2, "2"), Unary("-", Chain("^", (Lit(3, "3"), Lit(2, "2"))))))),
]


class TestLexer:
    """The characters of the language, which `parse` checks before parsing."""

    @pytest.mark.parametrize("src,mode", ALL_GOLDEN_SOURCES)
    def test_lossless_on_golden_inputs(self, src, mode):
        assert print_expr(parse(src, mode)) == src

    def test_rejects_unknown_character(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("1+a")
        assert exc.value.offset == 2

    def test_rejects_non_ascii_digits(self):
        with pytest.raises(ExprSyntaxError):
            parse("١+1")  # Arabic-Indic digit: isdigit() but not part of the language

    def test_fuzz_accept_or_error_never_crash(self):
        # 10^5 random short strings: parse either returns a tree that prints
        # back to the input or raises a positioned syntax error, and never
        # anything else.
        rng = random.Random(2024)
        alphabet = "0123456789.+-*/^()[]=% ab\t"
        for _ in range(100_000):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            try:
                tree = parse(s)
            except ExprSyntaxError as err:
                assert 0 <= err.offset <= len(s)
            else:
                assert print_expr(tree) == s


class TestParser:
    def test_single_literal(self):
        tree = parse("7")
        assert isinstance(tree, Lit) and tree.value == 7

    def test_precedence_shape(self):
        # 1+2-3*4 is one +- chain whose last operand is a * chain
        tree = parse("1+2-3*4")
        assert isinstance(tree, Chain) and tree.ops == "+-"
        assert [x.value for x in tree.operands[:2]] == [1, 2]
        last = tree.operands[2]
        assert isinstance(last, Chain) and last.ops == "*"
        assert [x.value for x in last.operands] == [3, 4]
        # 1+8/1*10+2 is 1 + (8/1*10) + 2, the middle one */ chain
        tree = parse("1+8/1*10+2")
        assert isinstance(tree, Chain) and tree.ops == "++"
        assert [x.value for x in tree.operands[::2]] == [1, 2]
        inner = tree.operands[1]
        assert isinstance(inner, Chain) and inner.ops == "/*"
        assert [x.value for x in inner.operands] == [8, 1, 10]

    def test_fraction_mode_literals(self):
        tree = parse("((49/24)*-(8/70))/-(34/80)", "fraction")
        assert isinstance(tree, Chain) and tree.ops == "/"
        group, rhs = tree.operands
        assert isinstance(rhs, FractionLit)
        assert rhs.value.num == -34 and rhs.value.den == 80
        assert isinstance(group, Group)
        assert isinstance(group.inner, Chain) and group.inner.ops == "*"
        assert isinstance(group.inner.operands[0], FractionLit)

    def test_zero_denominator_fraction_literal_is_refused(self):
        # a literal holds its value, and (5/0) has none; a lazy check once let
        # (1/2)/(5/0) trace to 0/1 while direct evaluation raised
        with pytest.raises(DivByZero, match="fraction with zero denominator"):
            parse("(1/2)/(5/0)", "fraction")
        assert print_expr(parse("(1/2)/(5/0)", "standard")) == "(1/2)/(5/0)"

    def test_standard_mode_treats_slash_as_division(self):
        tree = parse("(49/24)", "standard")
        assert isinstance(tree, Group)
        assert isinstance(tree.inner, Chain) and tree.inner.ops == "/"

    def test_negative_literal_folding(self):
        tree = parse("-3338")
        assert isinstance(tree, Lit) and tree.value == -3338
        assert not tree.percent and tree.text == "-3338"

    def test_unary_binds_looser_than_power(self):
        # -2^2 is -(2^2), not (-2)^2
        tree = parse("-2^2")
        from stepmath.steps import direct_eval

        assert direct_eval(tree) == -4

    def test_signed_exponent_parses(self):
        tree = parse("2^-3")
        assert isinstance(tree, Chain) and tree.ops == "^"
        assert tree.operands[1].value == -3

    def test_double_minus_is_subtraction_of_negative(self):
        tree = parse("5--3")
        assert isinstance(tree, Chain) and tree.ops == "-"
        rhs = tree.operands[1]
        assert isinstance(rhs, Lit) and rhs.value == -3

    def test_percent_literal(self):
        tree = parse("5483%")
        assert tree.percent and tree.value == 5483 and tree.text == "5483%"

    def test_square_brackets(self):
        tree = parse("[(12+3)*5]")
        assert isinstance(tree, Group) and tree.kind == "["
        head = tree.inner.operands[0]
        assert isinstance(head, Group) and head.kind == "("

    # One row per place a parse error is raised: the error class, the offset
    # (None for an error without one) and the whole message.
    @pytest.mark.parametrize("src,mode,error,offset,message", _PARSE_ERRORS, ids=[f"{src if len(src) < 40 else src[:8] + '...'}-{offset}"
            for src, _, _, offset, _ in _PARSE_ERRORS])
    def test_syntax_errors_carry_offsets(self, src, mode, error, offset, message):
        with pytest.raises(StepmathError) as exc:
            parse(src, mode)
        assert type(exc.value) is error
        assert getattr(exc.value, "offset", None) == offset
        assert str(exc.value) == message

    def test_a_number_of_digit_limit_digits_parses(self):
        src = "1" * DIGIT_LIMIT
        assert parse(src) == Lit(int(src), src)

    @pytest.mark.parametrize("src,mode,error,offset,message", _PARSE_EDGE_ERRORS,
                             ids=[f"{mode}-{src}" for src, mode, *_ in _PARSE_EDGE_ERRORS])
    def test_edge_case_errors(self, src, mode, error, offset, message):
        with pytest.raises(StepmathError) as exc:
            parse(src, mode)
        assert type(exc.value) is error
        assert getattr(exc.value, "offset", None) == offset
        assert str(exc.value) == message

    @pytest.mark.parametrize("src,mode,tree", _PARSE_EDGE_TREES,
                             ids=[f"{mode}-{src}" for src, mode, _ in _PARSE_EDGE_TREES])
    def test_edge_case_trees(self, src, mode, tree):
        got = parse(src, mode)
        assert got == tree and repr(got) == repr(tree)
        assert print_expr(got) == src

    def test_depth_limit(self):
        ok = "(" * 16 + "1" + ")" * 16
        parse(ok)
        too_deep = "(" * 17 + "1" + ")" * 17
        with pytest.raises(DepthExceeded):
            parse(too_deep)

    def test_power_exponents_nest_right(self):
        tree = parse("2^3^2")
        assert tree.ops == "^" and tree.operands[0].value == 2
        exponent = tree.operands[1]
        assert isinstance(exponent, Chain) and exponent.ops == "^"

    # Runs of signs on a bracket and towers of powers each nest one level per
    # sign or `^`; the deepest accepted input sits inside MAX_DEPTH brackets.
    @pytest.mark.parametrize("run,past,value", [
        ("-" * MAX_RUN + "(1)", "-" * (MAX_RUN + 1) + "(1)", 1),
        ("1^" * MAX_RUN + "1", "1^" * (MAX_RUN + 1) + "1", 1),
        ("-" + "--1^" * (MAX_RUN // 3) + "1", "--" + "--1^" * (MAX_RUN // 3) + "1", -1),
    ], ids=["signs", "powers", "signed powers"])
    def test_sign_and_exponent_nesting_limit(self, run, past, value):
        from stepmath.steps import direct_eval, render_trace, trace

        groups = MAX_DEPTH - run.count("(")
        deepest = "[" * groups + run + "]" * groups
        tree = parse(deepest)
        assert print_expr(tree) == deepest
        t = trace(tree)
        assert t.final == direct_eval(tree) == value
        assert render_trace(t).startswith(deepest + "=")
        with pytest.raises(DepthExceeded) as exc:
            parse(past)
        assert f"sign and exponent nesting deeper than {MAX_RUN}" in str(exc.value)


class TestPrinter:
    @pytest.mark.parametrize("src,mode", ALL_GOLDEN_SOURCES)
    def test_print_inverts_parse_on_golden_inputs(self, src, mode):
        assert print_expr(parse(src, mode)) == src

    @pytest.mark.parametrize(
        "src",
        ["8371*(-1945+8878)", "0", "5--3", "-4457+(-7823/5483%)*-3338",
         "[(12+3)*5]", "73.0+0.50"],
    )
    def test_round_trip_misc(self, src):
        assert print_expr(parse(src)) == src

    @pytest.mark.parametrize("src,mode", ALL_GOLDEN_SOURCES)
    def test_parse_print_parse_is_parse(self, src, mode):
        first = parse(src, mode)
        assert parse(print_expr(first), mode) == first

    def test_round_trip_one_thousand_generated_expressions(self):
        from stepmath.datagen import GenSpec, sample_expression

        for seed, category in enumerate(
            ("int-mixed", "bracketed-int", "lengthy-mixed", "fraction", "exponentiation")
        ):
            steps = (1, 1) if category == "exponentiation" else (2, 8)
            spec = GenSpec(category, (1, 6), steps, seed=400 + seed)
            mode = spec.mode
            for i in range(200):
                e = sample_expression(spec, i)
                text = print_expr(e)
                again = parse(text, mode)
                assert print_expr(again) == text
                assert again == e


class TestNodeEquality:
    """Nodes compare by class and fields; a literal by its value and text."""

    def test_literals_are_equal_by_class_value_and_text(self):
        assert Lit(1, "1") == Lit(1, "1")
        assert Lit(1, "1") != Lit(1, "+1") and Lit(1, "1") != Lit(2, "1")
        assert Lit(5, "5%") != Lit(5, "5")
        half = Frac(1, 2)
        assert FractionLit(half) == FractionLit(half, "(1/2)")
        assert FractionLit(half) != FractionLit(half, parens=False)
        assert FractionLit(half) != FractionLit(Frac(2, 4))
        assert Lit(1, "1") != FractionLit(Frac(1, 1), "1")
        assert FractionLit(Frac(1, 1), "1") != Lit(1, "1")

    def test_the_reducible_flag_is_not_compared(self):
        assert FractionLit(Frac(2, 4), reducible=True) == FractionLit(Frac(2, 4))

    def test_bracket_kinds_differ(self):
        assert parse("[1]") != parse("(1)")

    @pytest.mark.parametrize("src,mode", [("-(2^3)*[4.5-6%]/+7", STANDARD),
                                          ("-((1/2)+(3/4))*[2^2-(5/6)]/-3", FRACTION)])
    def test_repr_rebuilds_the_tree(self, src, mode):
        tree = parse(src, mode)
        kinds = {Lit, Unary, Chain, Group} | ({FractionLit} if mode == FRACTION else set())
        assert {n.__class__ for n in iter_nodes(tree)} == kinds
        names = {cls.__name__: cls for cls in (Lit, FractionLit, Unary, Chain, Group, Frac)}
        assert eval(repr(tree), names) == tree
        reducible = FractionLit(Frac(2, 4), reducible=True)
        assert eval(repr(reducible), names).reducible


class TestCountAtomicOps:
    def test_published_counts(self):
        assert count_atomic_ops(parse("1+8/1*10+2")) == 4
        assert count_atomic_ops(parse("7")) == 0
        assert count_atomic_ops(parse("53-2+23+51*56")) == 4

    def test_fraction_literals_do_not_count(self):
        assert count_atomic_ops(parse("(9947/9276)+(4411/9276)", "fraction")) == 1

    def test_unary_signs_do_not_count(self):
        assert count_atomic_ops(parse("-5--3")) == 1


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789.+-*/^()[]=%", max_size=24),
       st.sampled_from((STANDARD, FRACTION)))
def test_parse_accepts_or_raises_syntax_error(src, mode):
    # fraction mode also refuses a fraction literal with a zero denominator
    try:
        tree = parse(src, mode)
    except ExprSyntaxError:
        return
    except DivByZero:
        assert mode == FRACTION
        return
    assert print_expr(tree) == src
