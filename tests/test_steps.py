import gc
import random
import sys
import tracemalloc
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepmath import cli, numeric, steps
from stepmath.datagen import CATEGORIES, GenSpec, build_record, sample_expression
from stepmath.errors import DivByZero, ExprSyntaxError, MathError, NonTerminating, StepmathError
from stepmath.expr import (Chain, FractionLit, Group, Lit, count_atomic_ops, iter_nodes, parse,
                           print_expr)
from stepmath.mwp import reconstruct, record_from_obj
from stepmath.numeric import Frac
from stepmath.steps import (
    R_BINOP,
    R_RECIPROCAL,
    R_SIGN,
    R_SIMPLIFY,
    R_UNGROUP,
    StepTrace,
    direct_eval,
    next_step,
    render_trace,
    trace,
)

from conftest import GOLDEN_TRACES, step_trees
from test_pinned_outputs import _corpus

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import chain_text  # noqa: E402  the benchmark's long chains


class TestGoldenTraces:
    @pytest.mark.parametrize("src,mode,expected", GOLDEN_TRACES,
                             ids=[g[0] for g in GOLDEN_TRACES])
    def test_byte_exact(self, src, mode, expected):
        assert render_trace(trace(parse(src, mode), mode)) == expected

    @pytest.mark.parametrize("src,mode,expected", GOLDEN_TRACES,
                             ids=[g[0] for g in GOLDEN_TRACES])
    def test_the_source_text_stands_for_a_print(self, src, mode, expected):
        # the text a tree was parsed from is its first snapshot, unprinted
        tree = parse(src, mode)
        t = trace(tree, mode, src)
        assert repr(t) == repr(trace(tree, mode)) and render_trace(t) == expected

    # A power result that lands directly under one or more signs folds them
    # in; the snapshot text must show the folded literal, never `--8`.
    @pytest.mark.parametrize("src,mode,expected", [
        ("-(-2)^3", "standard", "-(-2)^3=8"),
        ("3*-(-2)^3", "standard", "3*-(-2)^3=3*8=24"),
        ("--(-2)^3", "standard", "--(-2)^3=-8"),
        ("-(-3)^2-1", "standard", "-(-3)^2-1=-9-1=-10"),
        ("-[(1/2)*(1/3)]", "fraction", "-[(1/2)*(1/3)]=(-1/6)"),
    ])
    def test_sign_folds_into_rewritten_literal(self, src, mode, expected):
        assert render_trace(trace(parse(src, mode), mode)) == expected

    def test_error_table_first_rewrite_is_sign_cancellation(self):
        t = trace(parse("7499-5747.91007/-5438*-439"))
        assert t.snapshots[1] == "7499-5747.91007/5438*439"
        assert t.rules[0] == R_SIGN


class TestNextStep:
    def test_multiplication_before_leftmost_subtraction(self):
        nxt, rule = next_step(parse("53-2+23+51*56"), "standard")
        assert print_expr(nxt) == "53-2+23+2856"
        assert rule == R_BINOP

    def test_literal_is_terminal(self):
        assert next_step(parse("7"), "standard") is None

    def test_fraction_division_becomes_reciprocal_multiplication(self):
        nxt, rule = next_step(parse("(7/30)/(34/80)", "fraction"), "fraction")
        assert print_expr(nxt) == "(7/30)*(80/34)"
        assert rule == R_RECIPROCAL

    def test_computed_fraction_reduces_before_reciprocal(self):
        # (392/1680) must simplify before the division around it is rewritten
        t = trace(parse("((49/24)*(8/70))/(34/80)", "fraction"), "fraction")
        i = t.snapshots.index("(392/1680)/(34/80)")
        assert t.rules[i] == R_SIMPLIFY

    def test_source_fractions_are_never_reduced_in_place(self):
        # 34/80 is not in lowest terms yet passes through untouched
        t = trace(parse("(7/30)/(34/80)", "fraction"), "fraction")
        assert "(80/34)" in render_trace(t)
        assert "(17/40)" not in render_trace(t)

    def test_bracket_contents_before_enclosing_redex(self):
        nxt, _ = next_step(parse("2*(3+4)+5*6"), "standard")
        assert print_expr(nxt) == "2*7+5*6"

    def test_negative_bracket_result_keeps_brackets_one_step(self):
        e = parse("5+(2-9)*3")
        s1, r1 = next_step(e, "standard")
        assert print_expr(s1) == "5+(-7)*3"
        s2, r2 = next_step(s1, "standard")
        assert print_expr(s2) == "5+-7*3"
        assert r2 == R_UNGROUP

    def test_leading_negative_bracket_result_absorbs_immediately(self):
        s1, _ = next_step(parse("(2-9)*3"), "standard")
        assert print_expr(s1) == "-7*3"

    def test_division_by_zero_names_the_redex(self):
        with pytest.raises(DivByZero) as exc:
            trace(parse("1+3/(2-2)"))
        assert "3/0" in str(exc.value)
        with pytest.raises(DivByZero) as exc:
            trace(parse("(1/2)/((1/3)-(1/3))", "fraction"), "fraction")
        assert str(exc.value) == "division by zero in (1/2)/(0/1) (step 2)"

    @pytest.mark.parametrize("src", ["(1/2)/(0/3)", "(1/2)/-(0/3)", "(1/2)/(0/3)*2"])
    def test_division_by_a_zero_fraction_names_the_division(self, src):
        # no reciprocal of a zero fraction: the division is the fault
        tree = parse(src, "fraction")
        with pytest.raises(DivByZero) as want:
            direct_eval(tree)
        with pytest.raises(DivByZero) as got:
            trace(tree, "fraction")
        assert str(got.value) == f"{want.value} (step 0)"


class TestDirectEval:
    def test_published_values(self):
        assert direct_eval(parse("1912*6800*6022-7250-1624")) == 78295626326
        assert direct_eval(parse("0+0")) == 0
        got = direct_eval(parse("-4457+(-7823/5483%)*-3338"))
        assert numeric.render(got) == "471800.0490607332"

    def test_fraction_mode(self):
        got = direct_eval(parse("(9947/9276)+(4411/9276)", "fraction"))
        assert numeric.values_equal(got, Frac(2393, 1546))

    def test_percent(self):
        assert direct_eval(parse("100%")) == 1
        assert direct_eval(parse("5483%")) == 54.83

    def test_negative_exponent_rejected_at_evaluation(self):
        from stepmath.errors import UnsupportedExponent

        tree = parse("2^-3")  # parses fine; the value domain rejects it
        with pytest.raises(UnsupportedExponent):
            direct_eval(tree)
        with pytest.raises(UnsupportedExponent):
            trace(tree)


def _specs(seed):
    return [
        GenSpec("int-mixed", (1, 5), (2, 10), seed=seed),
        GenSpec("exponentiation", (1, 4), (1, 1), seed=seed + 1),
        GenSpec("bracketed-int", (1, 5), (2, 10), seed=seed + 2),
        GenSpec("lengthy-mixed", (1, 5), (2, 10), seed=seed + 3),
        GenSpec("fraction", (1, 5), (2, 10), seed=seed + 4),
    ]


class TestTraceProperties:
    def test_final_matches_direct_eval_across_categories(self):
        for spec in _specs(900):
            for i in range(400):
                e = sample_expression(spec, i)
                t = trace(e, spec.mode)
                assert numeric.values_equal(t.final, direct_eval(e, spec.mode)), print_expr(e)

    def test_step_bound_and_monotonic_progress(self):
        for spec in _specs(901):
            for i in range(150):
                e = sample_expression(spec, i)
                t = trace(e, spec.mode)
                n = count_atomic_ops(e)
                assert len(t.rules) <= 4 * n + 4
                trees, rules = step_trees(e, spec.mode)
                assert rules == t.rules
                ops_per_snapshot = [count_atomic_ops(s) for s in trees]
                for j, rule in enumerate(rules):
                    assert ops_per_snapshot[j + 1] <= ops_per_snapshot[j]
                    if rule == R_BINOP:
                        assert ops_per_snapshot[j + 1] == ops_per_snapshot[j] - 1

    def test_adjacent_snapshots_always_differ(self):
        # the published table duplicates one snapshot; the engine never does
        for spec in _specs(902):
            for i in range(150):
                t = trace(sample_expression(spec, i), spec.mode)
                assert all(a != b for a, b in zip(t.snapshots, t.snapshots[1:]))

    def test_single_redex_neighborhood(self):
        # adjacent trees differ in one localized neighborhood: a single
        # maximal subtree for every rule except sign cancellation, which
        # touches the two canceled factors. Chains are
        # compared operand by operand; a rewritten head pair (a binop merging
        # it into one literal, a reciprocal turning its `/` into `*`) is one
        # neighborhood, and every other operand must be identical.
        from stepmath.expr import Chain, Group, Unary

        def diff_subtrees(a, b, path=()):
            if a == b:
                return []
            pairs = None
            if type(a) is type(b):
                if isinstance(a, Chain):
                    if a.ops == b.ops:
                        pairs = list(enumerate(zip(a.operands, b.operands)))
                    elif a.ops[1:] == b.ops[1:] or a.ops[1:] == b.ops:
                        rest = len(b.operands) - len(a.operands) + 2
                        out = [path + ("head",)]
                        for i, (ca, cb) in enumerate(zip(a.operands[2:], b.operands[rest:])):
                            out.extend(diff_subtrees(ca, cb, path + (i + 2,)))
                        return out
                elif isinstance(a, Unary) and a.op == b.op:
                    pairs = (("operand", (a.operand, b.operand)),)
                elif isinstance(a, Group) and a.kind == b.kind:
                    pairs = (("inner", (a.inner, b.inner)),)
            if pairs is None:
                return [path]
            out = []
            for name, (ca, cb) in pairs:
                out.extend(diff_subtrees(ca, cb, path + (name,)))
            return out

        for spec in _specs(907):
            for i in range(120):
                trees, rules = step_trees(sample_expression(spec, i), spec.mode)
                for j, rule in enumerate(rules):
                    diffs = diff_subtrees(trees[j], trees[j + 1])
                    limit = 2 if rule == R_SIGN else 1
                    assert 1 <= len(diffs) <= limit, (rule, diffs)

    def test_each_snapshot_preserves_value(self):
        for spec in _specs(903):
            for i in range(150):
                e = sample_expression(spec, i)
                want = direct_eval(e, spec.mode)
                for s in step_trees(e, spec.mode)[0]:
                    assert numeric.values_equal(direct_eval(s, spec.mode), want)

    def test_fraction_terminals_are_canonical(self):
        spec = GenSpec("fraction", (1, 4), (2, 8), seed=904)
        for i in range(300):
            t = trace(sample_expression(spec, i), "fraction")
            if isinstance(t.final, Frac):
                assert t.final.is_canonical

    def test_determinism(self):
        spec = GenSpec("lengthy-mixed", (1, 5), (2, 10), seed=905)
        for i in range(50):
            e1 = sample_expression(spec, i)
            e2 = sample_expression(spec, i)
            assert render_trace(trace(e1, "standard")) == render_trace(trace(e2, "standard"))

    def test_trace_reparses_and_retraces_identically(self):
        # every snapshot of a standard-mode trace is itself valid input
        for spec in _specs(906):
            if spec.mode != "standard":
                continue
            for i in range(60):
                e = sample_expression(spec, i)
                line = render_trace(trace(e, "standard"))
                first = line.split("=", 1)[0] if "=" in line else line
                assert render_trace(trace(parse(first), "standard")) == line


class TestTraceShape:
    def test_zero_step_trace(self):
        t = trace(parse("5"))
        assert render_trace(t) == "5"
        assert t.rules == [] and t.final == 5

    def test_trace_dataclass_contents(self):
        t = trace(parse("3^9"))
        assert isinstance(t, StepTrace)
        assert len(t.snapshots) == len(t.rules) + 1
        assert numeric.render(t.final) == t.snapshots[-1]

    def test_made_float_printed_without_point_is_ambiguous(self):
        t = trace(parse("99999999.5*999999999"))
        assert t.snapshots[-1] == "99999999400000000" and t.ambiguous

    def test_exact_long_ints_are_not_ambiguous(self):
        # 20-digit ints print exactly; only the float 1.5 is made
        t = trace(parse("12345678901234567890*1-12345678901234567889+0.5"))
        assert t.final == 1.5 and not t.ambiguous

    def test_library_trace_retains_only_text(self):
        # 1000 snapshots of up to 2000 characters: about 1 MB of text
        tree = parse("1+" * 999 + "1")
        gc.collect()
        tracemalloc.start()
        try:
            t = trace(tree)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(t.snapshots) == 1000 and retained < 2_000_000

    def test_nonterminating_guard_exists(self):
        # the bound is generous; no valid expression should ever trip it
        t = trace(parse("1+2+3+4+5+6+7+8+9+10+11"))
        assert len(t.rules) == 10
        assert NonTerminating is not None


# Text near the flat shape: chains of literals, some negative, percent or
# bracketed, over every operator.
_near_flat = st.lists(
    st.tuples(st.sampled_from("+-*/^"),
              st.sampled_from(["7", "12", "0", "3.5", "-4", "50%", "(2)", "(1/3)",
                               "(3-50)", "[6*2-1]"])),
    min_size=1, max_size=12,
).map(lambda parts: "9" + "".join(op + x for op, x in parts))


@settings(max_examples=400, deadline=None)
@given(_near_flat, st.sampled_from(("standard", "fraction")))
def test_flat_shortcut_agrees_with_the_scan(text, mode):
    # in a tree `trace` folds, no rule but binop could fire, and the groups
    # the flat walk finds in standard mode are the scan's leaves, where it
    # steps first. In a group of flat content the binop taken without a scan
    # is the one the scan finds, and at each later step the search resumed
    # where the step before left it finds what a full search finds.
    try:
        tree = parse(text, mode)
    except ExprSyntaxError:
        return
    groups = []
    if steps._is_flat(tree, groups) is True and (mode == "standard" or not groups):
        chains, percent, leaves, whole = steps._scan(tree, mode == "fraction")
        assert all(len(chain) < 3 for chain in chains) and percent is None
        assert whole.recip is None and whole.frac is None
        brackets = [i for i, c in enumerate(text) if c in "(["]
        assert [(steps._path(r.link), r.start, r.depth) for r in leaves] == [
            (path, start, 0) for path, start in zip(groups, brackets)]
        assert len(groups) == len(brackets)
    if mode == "fraction":  # a fraction-mode group resumes no search
        return
    tree = parse(f"1+({text})")
    group = tree.operands[1]
    link = (None, tree, 1)
    found = steps._is_flat(group.inner) and steps._head_pair(group.inner, (link, group, 0), 3, 0, 3)
    while found:
        assert steps._is_flat(group.inner)
        candidate, resume = found
        chains, percent, (leaf,), _ = steps._scan(group, False, link, 2)
        assert all(len(chain) < 3 for chain in chains) and percent is None
        assert leaf.recip is None and leaf.frac is None
        assert leaf.binop[1:] == candidate[1:] and leaf.binop[0][1:] == candidate[0][1:]
        try:
            tree = steps._binop(print_expr(tree), candidate, group)[0]
        except MathError:
            return
        group = tree.operands[1]
        if group.__class__ is not Group or group.inner.__class__ is not Chain:
            return
        link = (None, tree, 1)
        found = steps._head_pair(group.inner, (link, group, 0), 3, *resume)
        assert found == steps._head_pair(group.inner, (link, group, 0), 3, 0, 3)


# Grammar-shaped text with the corners of the pinned corpus: nested `(`/`[`
# groups, negative power bases, signs on groups, percents and, in fraction
# mode, products of signed fractions across brackets. Runs put several groups
# side by side, so a focus moves from one leaf group to the next.
@st.composite
def _grammar_text(draw, mode, depth=0):
    def atom():
        kind = draw(st.integers(0, 9 if depth < 2 else 3))
        if kind <= 3:
            choices = ["7", "12", "0", "2", "3.5", "40%", "-4", "-15"]
            if mode == "fraction":
                choices += ["(1/2)", "(3/4)", "-(5/6)", "(2/4)"]
            return draw(st.sampled_from(choices))
        inner = draw(_grammar_text(mode, depth + 1))
        opener = draw(st.sampled_from("(["))
        group = opener + inner + {"(": ")", "[": "]"}[opener]
        if kind <= 5:
            return group
        if kind == 6:
            return draw(st.sampled_from(["(-2)", "(-3)", "[-1]", group])) + "^2"
        if kind == 7:
            return "-" + group
        if kind == 8:
            return "(" + group + ")"
        return draw(st.sampled_from(["2", "3", group])) + "^3"

    ops = "*/*-" if mode == "fraction" else "+-*/"
    n = draw(st.integers(1, 10 if depth == 0 else 4))
    text = atom()
    for _ in range(n - 1):
        text += draw(st.sampled_from(ops)) + draw(st.sampled_from(["", "", "-", "+", "+-"])) + atom()
    return text


def _step_or_error(tree, text, mode, focus):
    try:
        return steps._next_step(tree, text, mode, focus)
    except StepmathError as err:
        return type(err), str(err)


def _whole_tree_step(tree, text, mode):
    """The step a search of the whole tree takes, the step of `next_step`,
    with its text and snapshot: no flat walk stands in for the scan."""
    try:
        return steps._search(tree, text, mode == "fraction")
    except StepmathError as err:
        return type(err), str(err)


def _has_product_in_a_product(tree):
    return any(n.__class__ is Chain and n.ops[0] in "*/"
               and any(x.__class__ is Chain and x.ops[0] in "*/" for x in n.operands)
               for n in iter_nodes(tree))


def _assert_focused_steps_are_whole_tree_steps(tree, text, mode):
    # at every step of a trace up to a tree `trace` folds, the step the focus
    # leads to is the one a search of the whole tree takes; and no `*/` chain
    # is an operand of a `*/` chain, so a group's result is a factor of its
    # parent chain only
    focus = None
    for _ in range(4 * len(text) + 4):
        assert not _has_product_in_a_product(tree), text
        step = _step_or_error(tree, text, mode, focus)
        if step.__class__ is list:  # the fold, which `_traced == _stepwise` checks
            assert steps._is_flat(tree, []) is True, text
            return
        fresh = _whole_tree_step(tree, text, mode)
        if step is None or len(step) == 2:
            assert step == fresh
            return
        new, rule, text, snapshot, focus = step
        assert (print_expr(new), rule, text, snapshot) == (
            print_expr(fresh[0]), *fresh[1:4])
        assert print_expr(new) == text
        tree = new
    raise AssertionError("the trace did not end")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("standard", "fraction")).flatmap(
    lambda mode: st.tuples(_grammar_text(mode), st.just(mode))))
# a group that becomes a negative factor: with a sign folded in, and in
# fraction mode beside a sign inside a bracketed product
@example(("1+(2-3)*(4+5)-(6-1)*-2+[3*(1-4)]", "standard"))
@example(("2*+(3-5)*-1+(1+1)", "standard"))
@example(("(2-5)*[(1/2)*-(3/4)]", "fraction"))
# two negative group results in one product, one at the start, and a group
# beside a negative literal; a group of a literal or of a group is not flat
@example(("2*(3-50)*(1-9)+4", "standard"))
@example(("(1-9)*3+2", "standard"))
@example(("(2+3)*-4+1", "standard"))
@example(("(5)+1", "standard"))
@example(("[(1+2)*3]+4", "standard"))
# a sign folded into a new negative factor inside a group
@example(("1+(-3*+-2^2)", "standard"))
@example(("-(1/2)*[(1/3)*+-2^2]", "fraction"))
# a product of a `+-` literal, which no sign cancels, is a negative factor
@example(("7*+-4*-7", "standard"))
def test_focused_step_is_the_whole_tree_step(case):
    text, mode = case
    try:
        tree = parse(text, mode)
    except StepmathError:
        return
    _assert_focused_steps_are_whole_tree_steps(tree, text, mode)
    # and the trace is the whole-tree search's, snapshot by snapshot, also
    # where it folds a tree a step left flat: after a whole-tree step, after
    # a scan leaf's last group, and once the walk of its terms gives out
    assert _traced(tree, mode, text) == _stepwise(tree, mode)


def test_focused_steps_of_long_bracketed_chains_are_whole_tree_steps():
    # the benchmark's bracketed chains: flat groups in a `+ - *` chain
    rng = random.Random(21)
    for _ in range(40):
        text = chain_text(rng, rng.choice((25, 50, 100, 200, 300)), bracketed=True)
        tree = parse(text)
        _assert_focused_steps_are_whole_tree_steps(tree, text, "standard")
        assert _traced(tree, "standard", text) == _stepwise(tree, "standard")


def test_focused_steps_of_the_pinned_corpus_are_whole_tree_steps():
    for text, mode in _corpus():
        tree = parse(text, mode)
        _assert_focused_steps_are_whole_tree_steps(tree, text, mode)
        assert _traced(tree, mode, text) == _stepwise(tree, mode)


_REGION_FIELDS = attrgetter("start", "end", "recip", "binop", "frac", "node", "link")


def _assert_group_scans_are_the_whole_tree_leaves(tree, text, mode):
    # at every step of a trace, the scan of one leaf group, which
    # `_group_step` runs, finds what the whole-tree scan files under it
    fraction, focus = mode == "fraction", None
    while True:
        for region in steps._scan(tree, fraction)[2]:
            _, _, leaves, _ = steps._scan(region.node, fraction, region.link, region.start)
            assert [_REGION_FIELDS(r) for r in leaves] == [_REGION_FIELDS(region)], text
        step = _step_or_error(tree, text, mode, focus)
        if not isinstance(step, tuple) or len(step) == 2:  # the end, the fold or an error
            return
        tree, _, text, _, focus = step


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("standard", "fraction")).flatmap(
    lambda mode: st.tuples(_grammar_text(mode), st.just(mode))))
def test_a_group_scan_is_the_whole_tree_scan_of_its_leaf(case):
    text, mode = case
    try:
        tree = parse(text, mode)
    except StepmathError:
        return
    _assert_group_scans_are_the_whole_tree_leaves(tree, text, mode)


def test_group_scans_of_the_pinned_corpus_are_whole_tree_leaves():
    for text, mode in _corpus():
        _assert_group_scans_are_the_whole_tree_leaves(parse(text, mode), text, mode)


# Fraction-mode rows, with their traces: a reducible literal waits behind every
# binop anywhere; a sign step in a sum marks the product's head with `+`; a
# reciprocal anywhere comes before a binop to its left, and a product's pair
# before the sum's; a literal is negative by its value, so `(-2/8)` is and
# `-(0/1)` is not
_FRACTION_ROWS = [
    "(1/2)*(2/4)+(3/5)*(1/7)=(2/8)+(3/5)*(1/7)=(2/8)+(3/35)=(1/4)+(3/35)=47/140",
    "(1/2)+(1/3)-(1/4)*-(1/5)*-(1/6)=(1/2)+(1/3)-+(1/4)*(1/5)*(1/6)"
    "=(1/2)+(1/3)-(1/20)*(1/6)=(1/2)+(1/3)-(1/120)=(5/6)-(1/120)=594/720=33/40",
    "(1/2)*(1/3)+(1/4)/(1/5)=(1/2)*(1/3)+(1/4)*(5/1)=(1/6)+(1/4)*(5/1)=(1/6)+(5/4)=34/24=17/12",
    "(-1/2)*(-2/8)+(1/3)=(1/2)*(2/8)+(1/3)=(2/16)+(1/3)=(1/8)+(1/3)=11/24",
    "-(0/1)*-(0/2)*-(1/2)=(0/2)*-(1/2)=(0/1)*-(1/2)=(0/2)=0/1",
    "(1/2)/(1/3)*(1/4)/(1/5)=(1/2)*(3/1)*(1/4)/(1/5)=(3/2)*(1/4)/(1/5)=(3/8)/(1/5)"
    "=(3/8)*(5/1)=15/8",
    "(-2/8)*(1/3)*-(1/2)=(2/8)*(1/3)*(1/2)=(2/24)*(1/2)=(1/12)*(1/2)=1/24",
]


@pytest.mark.parametrize("row", _FRACTION_ROWS, ids=[r.split("=")[0] for r in _FRACTION_ROWS])
def test_fraction_steps_are_whole_tree_steps(row):
    text = row.split("=")[0]
    tree = parse(text, "fraction")
    assert render_trace(trace(tree, "fraction")) == row
    _assert_focused_steps_are_whole_tree_steps(tree, text, "fraction")


def test_fraction_steps_of_a_lone_literal_and_of_records_are_whole_tree_steps():
    lone = FractionLit(Frac(2, 8), reducible=True)
    for mode in ("fraction", "standard"):
        _assert_focused_steps_are_whole_tree_steps(lone, "(2/8)", mode)
    for digits in ((1, 5), (5, 12)):
        spec = GenSpec("fraction", digits, seed=24)
        for i in range(400):
            tree = sample_expression(spec, i)
            _assert_focused_steps_are_whole_tree_steps(tree, print_expr(tree), "fraction")


# Standard-mode trees built by hand with fraction literals, which the parser
# makes in fraction mode alone, with their traces: the walk of their terms or
# the scan steps them, not the fold of plain literals, so a
# reciprocal and a simplify step are not skipped, and a fraction's bracket is
# not taken for a group's
_HAND_BUILT = [
    (Chain("*/", (FractionLit(Frac(1, 2)), Lit(3, "3"), FractionLit(Frac(2, 4)))),
     "(1/2)*3/(2/4)=(3/2)/(2/4)=(3/2)*(4/2)=(12/4)=3/1"),
    (Chain("+", (FractionLit(Frac(2, 4)), Group("(", Chain("+", (Lit(1, "1"), Lit(2, "2")))))),
     "(2/4)+(1+2)=(2/4)+3=14/4=7/2"),
    (Chain("-", (Lit(5, "5"), Chain("*", (FractionLit(Frac(1, 3)), Lit(6, "6"))))),
     "5-(1/3)*6=5-(6/3)=5-(2/1)=3/1"),
    (Chain("*", (Group("[", Chain("-", (Lit(1, "1"), Lit(4, "4")))), FractionLit(Frac(-1, 2)))),
     "[1-4]*(-1/2)=-3*(-1/2)=3*(1/2)=3/2"),
]


@pytest.mark.parametrize("tree,row", _HAND_BUILT, ids=[r.split("=")[0] for _, r in _HAND_BUILT])
def test_hand_built_fraction_trees_take_the_whole_tree_steps(tree, row):
    assert render_trace(trace(tree, "standard")) == row
    _assert_focused_steps_are_whole_tree_steps(tree, print_expr(tree), "standard")


@pytest.mark.parametrize("ops", ["+-", "*/"])
def test_a_fraction_chain_takes_no_whole_tree_scan(monkeypatch, ops):
    # a 200-term sum or product of fraction literals, a fifth of them
    # negative: each step takes its rule from a walk of the terms
    scans = []
    scan = steps._scan

    def counting_scan(tree, fraction, link=None, offset=0):
        scans.append(link)
        return scan(tree, fraction, link, offset)

    monkeypatch.setattr(steps, "_scan", counting_scan)
    rng = random.Random(200)
    terms = [f"({'-' if rng.random() < 0.2 else ''}{rng.randint(1, 9)}/{rng.randint(1, 9)})"
             for _ in range(200)]
    text = terms[0] + "".join(rng.choice(ops) + x for x in terms[1:])
    tree = parse(text, "fraction")
    t = trace(tree, "fraction", text)
    assert numeric.values_equal(t.final, direct_eval(tree, "fraction"))
    assert scans == [] and len(t.rules) >= 199


def _bracketed(rng, terms):
    """About one in eight terms wrapped in groups of 2-5, none nested."""
    i = rng.randint(0, 3)
    while i < len(terms) - 2:
        j = min(i + rng.randint(2, 5) - 1, len(terms) - 1)
        terms[i] = "(" + terms[i]
        terms[j] += ")"
        i = j + rng.randint(3, 12)
    return terms


@pytest.mark.parametrize("n,ops,bracketed,scans,flat_walks", [
    (1000, "+-*", False, 0, 1),
    (300, "+*", True, 0, 1),
    (300, "+-*", True, None, 1),  # None: no more than its ungroup steps
])
def test_a_trace_walks_the_whole_tree_about_once(monkeypatch, n, ops, bracketed,
                                                 scans, flat_walks):
    # whole-tree scans and flat walks of the whole tree: a return to one of
    # either per step would make a trace cost O(n^2)
    counts = {"scan": 0, "flat": 0}
    scan, is_flat, next_step = steps._scan, steps._is_flat, steps._next_step
    root = [None]

    def counting_scan(tree, fraction, link=None, offset=0):
        counts["scan"] += link is None
        return scan(tree, fraction, link, offset)

    def counting_is_flat(tree, groups=None):
        counts["flat"] += tree is root[0]
        return is_flat(tree, groups)

    def rooted_next_step(tree, text, mode, focus):
        root[0] = tree
        return next_step(tree, text, mode, focus)

    monkeypatch.setattr(steps, "_scan", counting_scan)
    monkeypatch.setattr(steps, "_is_flat", counting_is_flat)
    monkeypatch.setattr(steps, "_next_step", rooted_next_step)
    rng = random.Random(n)
    terms = [str(rng.randint(1, 99)) for _ in range(n)]
    if bracketed:
        terms = _bracketed(rng, terms)
    text = terms[0] + "".join(rng.choice(ops) + x for x in terms[1:])
    tree = parse(text)
    t = trace(tree)
    assert t.final == direct_eval(tree) and len(t.rules) >= n - 1
    if scans is None:
        scans = t.rules.count(R_UNGROUP)
    assert counts["scan"] <= scans and counts["flat"] <= flat_walks


def test_the_curriculum_takes_no_more_walks(monkeypatch):
    # scans, of the whole tree or of a group, and flat walks of the whole
    # tree (with the sign-pair check of a product that is the whole tree)
    # while 400 records per category are built at both digit ranges: a step
    # the focus handed to a whole-tree search instead shows here as more
    counts = {"scan": 0, "flat": 0}
    scan, is_flat, next_step = steps._scan, steps._is_flat, steps._next_step
    root = [None]

    def counting_scan(tree, fraction, link=None, offset=0):
        counts["scan"] += 1
        return scan(tree, fraction, link, offset)

    def counting_is_flat(tree, groups=None):
        counts["flat"] += tree is root[0]
        return is_flat(tree, groups)

    def rooted_next_step(tree, text, mode, focus):
        root[0] = tree
        return next_step(tree, text, mode, focus)

    monkeypatch.setattr(steps, "_scan", counting_scan)
    monkeypatch.setattr(steps, "_is_flat", counting_is_flat)
    monkeypatch.setattr(steps, "_next_step", rooted_next_step)
    for digits in ((1, 5), (5, 12)):
        for category in CATEGORIES:
            spec = GenSpec(category, digits, seed=9)
            for i in range(400):
                build_record(spec, i)
    assert counts["scan"] <= 3_010 and counts["flat"] <= 5_585


def test_a_caller_holding_the_text_prints_no_tree(monkeypatch, capsys):
    # `trace` and `reconstruct` pass the text they parsed, so a trace starts
    # without a print of its tree
    calls = []
    print_expr = steps.print_expr

    def counting_print_expr(e):
        calls.append(e)
        return print_expr(e)

    monkeypatch.setattr(steps, "print_expr", counting_print_expr)
    assert cli.main(["trace", "12*(3-45)+6%"]) == 0
    assert capsys.readouterr().out == (
        "12*(3-45)+6%=12*(3-45)+0.06=12*(-42)+0.06=12*-42+0.06=-504+0.06=-503.94\n")
    record = record_from_obj({"id": "k", "original_text": "题目",
                              "equation": "x=20-5*(3-1)", "ans": "10"})
    assert reconstruct(record).solution_trace == "20-5*(3-1)=20-5*2=20-10=10"
    assert calls == []


@pytest.mark.parametrize("ops", ["+*", "+-*"])
def test_a_flat_group_is_stepped_without_a_group_scan(monkeypatch, ops):
    # a group of plain literals, at most one signed per product, takes its
    # binop from the flat search, and no step scans the group, not even the
    # ungroup step of a negative literal a `-` makes, kept one step
    counts = {"group scan": 0}
    scan = steps._scan

    def counting_scan(tree, fraction, link=None, offset=0):
        counts["group scan"] += link is not None
        return scan(tree, fraction, link, offset)

    monkeypatch.setattr(steps, "_scan", counting_scan)
    rng = random.Random(300)
    terms = _bracketed(rng, [str(rng.randint(1, 99)) for _ in range(300)])
    text = terms[0] + "".join(rng.choice(ops) + x for x in terms[1:])
    tree = parse(text)
    t = trace(tree)
    assert t.final == direct_eval(tree)
    assert counts["group scan"] == 0
    assert t.rules.count(R_UNGROUP) == (0 if ops == "+*" else 8)


def _stepwise(tree, mode):
    """What `trace` gives, from the step `next_step` takes alone (the steps
    of `step_trees`), with its snapshot: (snapshots, rules, final, ambiguous),
    or the error's type and message."""
    steps._ambiguous = False
    texts, rules = [print_expr(tree)], []
    try:
        while (step := steps._search(tree, print_expr(tree), mode == "fraction")) is not None:
            tree, rule, _, snapshot, _ = step
            texts.append(snapshot)
            rules.append(rule)
    except DivByZero as err:
        return DivByZero, f"{err} (step {len(rules)})"
    except StepmathError as err:
        return type(err), str(err)
    return texts, rules, repr(tree.value), steps._ambiguous


def _traced(tree, mode, text):
    try:
        t = trace(tree, mode, text)
    except StepmathError as err:
        return type(err), str(err)
    return t.snapshots, t.rules, repr(t.final), t.ambiguous


# Flat `+-*/` chains: zero, literals written `-`, `+` and `+-`, decimals, ints
# and binary64 results of 1e16 or more (ambiguous) and of 1e21 or more (too
# long to render), and a division by zero at any step; and the same literals
# in chains with bracket groups of 2-5 operands side by side, none nested, a
# group flat when at most one literal of each of its products is signed.
_FLAT_LITERALS = ["7", "12", "0", "0.0", "-4", "+5", "+-3", "3.5", "-0.25",
                  "12345678901234567", "10000000000000000.0", "99999999999999999999.5"]
_flat_chain = st.lists(
    st.tuples(st.sampled_from("+-*/"), st.sampled_from(_FLAT_LITERALS)),
    min_size=1, max_size=14,
).map(lambda parts: "9" + "".join(op + x for op, x in parts))


@st.composite
def _grouped_chain(draw):
    texts = draw(st.lists(st.sampled_from(["9", *_FLAT_LITERALS]), min_size=2, max_size=14))
    ops = draw(st.lists(st.sampled_from("+-*/"), min_size=len(texts) - 1,
                        max_size=len(texts) - 1))
    i = draw(st.integers(0, 2))
    while i < len(texts) - 1:
        j = min(i + draw(st.integers(1, 4)), len(texts) - 1)
        opener = draw(st.sampled_from("(["))
        texts[i] = opener + texts[i]
        texts[j] += ")" if opener == "(" else "]"
        i = j + draw(st.integers(1, 4))
    return texts[0] + "".join(op + x for op, x in zip(ops, texts[1:]))


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_flat_chain, _grouped_chain()), st.sampled_from(("standard", "fraction")))
@example("3*0/0+1", "standard")
@example("99999999.5*999999999+1", "standard")
@example("99999999999999999999.5*100-1", "fraction")
# two negative group results in one product: the sign pair leaves the lists
@example("2*(3-50)*(1-9)+4", "standard")
# a negative result at the start drops its brackets; elsewhere it keeps them
# one step, then takes an ungroup step
@example("(1-9)*3+2", "standard")
@example("1+(3-10)*2", "standard")
@example("1+(3/0)", "standard")
@example("1+(2*3/0)", "standard")
@example("(99999999.5*999999999)+1", "standard")
# a fraction-mode sign step marks the head `+` in its snapshot, not its text,
# from which the fold starts
@example("9*-4*-4", "fraction")
def test_a_flat_trace_is_the_stepwise_trace(text, mode):
    # the steps a flat tree takes on its operands, from the first tree of its
    # trace that the flat walk accepts, are the ones `next_step` takes on its
    # trees, errors included
    try:
        tree = parse(text, mode)
    except StepmathError:
        return
    assert _traced(tree, mode, text) == _stepwise(tree, mode)


def test_flat_traces_of_long_chains_are_stepwise_traces():
    rng = random.Random(28)
    for i in range(12):
        text = chain_text(rng, (25, 50, 100, 300)[i % 4], bracketed=i % 3 == 0)
        tree = parse(text)
        assert _traced(tree, "standard", text) == _stepwise(tree, "standard")


def test_a_flat_trace_rebuilds_no_tree(monkeypatch):
    # a flat chain's trace builds no tree, nor does one with flat groups, not
    # even for its first step: rebuilding a tree per step calls `_binop` and
    # `_replace` 999 and 300 times for the flat chain here, and 268 times
    # each for the group steps of the bracketed one
    calls = {"_binop": 0, "_replace": 0}
    for name in calls:
        def counting(*args, _f=getattr(steps, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(steps, name, counting)
    rng = random.Random(1000)
    for bracketed in (False, True):
        terms = [str(rng.randint(1, 99)) for _ in range(1000)]
        if bracketed:
            terms = _bracketed(rng, terms)
        ops = "+*" if bracketed else "+-*"
        text = terms[0] + "".join(rng.choice(ops) + x for x in terms[1:])
        tree = parse(text)
        calls.update(dict.fromkeys(calls, 0))
        t = trace(tree, "standard", text)
        assert t.final == direct_eval(tree) and len(t.rules) == 999
        assert calls == {"_binop": 0, "_replace": 0}, bracketed
