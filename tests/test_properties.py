"""Hypothesis property suites that go beyond the generator's own distribution:
arbitrary grammar-shaped trees, full-range binary64 values, and rounding
agreement with a pure string oracle."""

import io

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stepmath import numeric
from stepmath.errors import MathError, StepmathError
from stepmath.expr import Chain, FractionLit, Group, Lit, Node, Unary, parse, print_expr
from stepmath.steps import direct_eval, render_trace, trace

from conftest import step_trees, string_round_2dp


def _int_lit(n: int) -> Lit:
    return Lit(n, str(n))


def _dec_lit(whole: int, frac: int) -> Lit:
    text = f"{whole}.{frac}"
    return Lit(float(text), text)


@st.composite
def expressions(draw, depth=0) -> Node:
    """Grammar-shaped standard-mode trees, including corners the dataset
    generator never produces: zero operands, one-literal groups, powers inside
    larger expressions, deep nesting."""
    leaf = st.one_of(
        st.integers(min_value=-9999, max_value=9999).map(_int_lit),
        st.tuples(st.integers(0, 999), st.integers(0, 99)).map(lambda t: _dec_lit(*t)),
    )
    if depth >= 4:
        return draw(leaf)
    kind = draw(st.integers(0, 9))
    if kind <= 3:
        return draw(leaf)
    if kind == 4:
        inner = draw(expressions(depth=depth + 1))
        return Group(draw(st.sampled_from("([")), inner)
    if kind == 5:
        inner = draw(expressions(depth=depth + 1))
        # a sign directly on a literal would have been folded by the parser
        if isinstance(inner, Lit):
            inner = Group("(", inner)
        return Unary("-", inner)
    op = draw(st.sampled_from("+-*/^" if kind == 9 else "+-*/"))
    lhs = draw(expressions(depth=depth + 1))
    rhs = draw(expressions(depth=depth + 1))
    if op == "^":
        # keep powers grammar-shaped: base is a plain atom, exponent small
        lhs = lhs if isinstance(lhs, (Lit, Group)) else Group("(", lhs)
        if isinstance(lhs, Lit) and lhs.text.startswith("-"):
            lhs = _int_lit(abs(lhs.value) if isinstance(lhs.value, int) else 7)
        rhs = _int_lit(draw(st.integers(0, 12)))
    return Chain(op, (lhs, rhs))


@settings(max_examples=400, deadline=None)
@given(expressions())
def test_print_parse_round_trip_on_arbitrary_trees(tree):
    text = print_expr(tree)
    again = parse(text, "standard")
    assert print_expr(again) == text


@settings(max_examples=400, deadline=None)
@given(expressions())
# a power base written with a `-` after a `+` keeps its brackets
@example(parse("(+-5)^2"))
@example(parse("2*(+-5)^2"))
def test_trace_agrees_with_direct_eval_on_arbitrary_trees(tree):
    text = print_expr(tree)
    tree = parse(text, "standard")  # normalized the way real input arrives
    try:
        want = direct_eval(tree)
    except MathError:
        assume(False)  # division by zero, overflow: out of the value domain
    try:
        t = trace(tree)
    except MathError:
        assume(False)
    assert numeric.values_equal(t.final, want)
    if t.ambiguous:
        # binary64 >= 1e16 prints without a decimal point and re-reads as an
        # int; the dataset generator resamples these, so only generated data
        # carries the re-parse guarantee
        return
    # the rendered trace re-parses to the same chain of values
    for snapshot in render_trace(t).split("="):
        assert numeric.values_equal(direct_eval(parse(snapshot)), want)


def _trace_or_error(tree: Node, mode: str, text=None):
    try:
        return repr(trace(tree, mode, text))
    except StepmathError as err:
        return type(err), str(err)


@settings(max_examples=400, deadline=None)
@given(expressions(), st.sampled_from(("standard", "fraction")))
def test_a_trace_given_its_source_text_is_the_same_trace(tree, mode):
    # snapshots, rules, final value (its kind and sign too) and `ambiguous`
    text = print_expr(tree)
    try:
        tree = parse(text, mode)
    except StepmathError:
        assume(False)
    assert _trace_or_error(tree, mode, text) == _trace_or_error(tree, mode)


def _uncached_copy(node: Node) -> Node:
    """The same tree built from fresh nodes, none of which has printed yet."""
    if isinstance(node, Chain):
        return Chain(node.ops, tuple(_uncached_copy(x) for x in node.operands))
    if isinstance(node, Unary):
        return Unary(node.op, _uncached_copy(node.operand))
    if isinstance(node, Group):
        return Group(node.kind, _uncached_copy(node.inner))
    if isinstance(node, Lit):
        return Lit(node.value, node.text)
    return FractionLit(node.value, node.text, reducible=node.reducible)


@settings(max_examples=400, deadline=None)
@given(expressions())
# a sign inside a nested product pairs with one a group left outside it
@example(Chain("*", (Group("(", _int_lit(-1)),
                     Chain("*", (_int_lit(0), Unary("-", Group("(", _int_lit(0))))))))
# a literal a group left in a nested product pairs with a factor of the outer one
@example(Unary("-", Chain("*", (Chain("*", (_int_lit(-1), Unary("-", Group("(", _int_lit(-1))))),
                                Unary("-", Group("(", _int_lit(0)))))))
def test_snapshot_text_equals_a_fresh_print(tree):
    # the engine splices each snapshot's text out of the previous one's
    try:
        t = trace(tree)
    except MathError:
        assume(False)
    trees = step_trees(tree, "standard")[0]
    fresh = [print_expr(_uncached_copy(s)) for s in trees]
    assert [print_expr(s) for s in trees] == fresh
    assert render_trace(t) == "=".join(fresh)


@settings(max_examples=1000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_dec64_render_round_trips_across_full_range(x):
    try:
        s = numeric.render_dec64(x)
    except StepmathError:
        assume(False)  # |x| >= 1e21 is a documented render error
    assert float(s) == x
    assert "e" not in s and "E" not in s


@settings(max_examples=1000, deadline=None)
@given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
def test_two_decimal_rounding_matches_string_oracle(x):
    cents = numeric.two_decimal_cents(x)
    oracle = string_round_2dp(numeric.render_dec64(x))
    sign = "-" if cents < 0 else ""
    assert f"{sign}{abs(cents) // 100}.{abs(cents) % 100:02d}" == oracle


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**24, 10**24), st.integers(-10**24, 10**24))
def test_exact_int_arithmetic_matches_python(a, b):
    # Python ints are the implementation; this guards the dispatch layer
    assert numeric.add(a, b) == a + b
    assert numeric.sub(a, b) == a - b
    assert numeric.mul(a, b) == a * b


def test_generation_is_chunk_size_independent():
    from stepmath.datagen import default_curriculum, generate_dataset

    sched = default_curriculum(700, seed=64)
    blobs = []
    for chunk_size in (7, 100, 4096):
        buf = io.BytesIO()
        generate_dataset(sched, buf, chunk_size=chunk_size, workers=2)
        blobs.append(buf.getvalue())
    assert blobs[0] == blobs[1] == blobs[2]
