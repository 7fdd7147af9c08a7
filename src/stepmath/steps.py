"""Single-step rewrite engine producing `=`-joined solution traces.

Exactly one rule fires per step, chosen deterministically:

* sign       -- cancel a pair of negative signs in a multiplication/division chain
* percent    -- rewrite the leftmost percent literal as its decimal value
* reciprocal -- turn division by a fraction literal into multiplication by its
                reciprocal
* binop      -- evaluate the leftmost, highest-precedence binary operation whose
                operands are both literals
* simplify   -- reduce a computed fraction to lowest terms as its own step
* ungroup    -- drop brackets that now enclose a single literal

Contents of the deepest bracket group are fully reduced before anything
outside it fires. Within the active region the rules are tried in the order
reciprocal, binop, simplify, ungroup.

A run of same-tier operators is one `Chain` node, the left fold of its
operands, so only its head pair can be a binop: `1+2+3` steps to `3+3` by
splicing the pair into one literal. A step costs about what it changes. One
walk, the scan, records only what a rule can fire on (ready head pairs,
fraction divisions and reducible fractions, each filed under its innermost
bracket group, the leftmost percent, the negative factors of each mul/div
chain). `next_step` is that search of the whole tree; `trace` takes the same
steps for less. A flat chain of plain literals needs no scan, and in standard
mode nor does one with bracket groups of flat content among its literals: a
cheaper flat walk finds those groups, the scan's leaves in print order. From
the first tree of a trace that the flat walk accepts, the rest of the trace
builds no tree: each group in turn, then each product, then the sum, folds
into one literal on its operands, each step spliced into the last text; a
group's brackets go with its last pair, or around a negative literal past the
text's start in an ungroup step of their own, and only a sign pair that a
group's result makes is left to the whole tree. A chain with fraction
literals and without groups, which only a tree built by hand holds in
standard mode, needs no scan: a walk of its terms finds what the scan would,
and each step leaves such a chain. Any other step hands the next a focus, so
that a trace walks the tree about once: a step in the first leaf group of a
scan leads the next to that group, whose head-pair search resumes where it
stopped once a step finds it flat, or to the scan's next leaf once a group
outside any other is gone, unless the flat walk finds the product it joined
not flat. Where the focus cannot vouch for a step, the whole tree is scanned,
or walked for the fold. The rewrite rebuilds the changed nodes'
ancestors bottom-up along parent links, in one routine for every rule, sharing
every subtree a step did not touch. Each snapshot's text is the previous one
with the changed span spliced, and a trace keeps only that text: it holds one
tree at a time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from . import numeric
from .errors import DivByZero, NonTerminating
from .expr import (
    FRACTION,
    TIER,
    Chain,
    FractionLit,
    Group,
    Lit,
    Node,
    Unary,
    chain,
    print_expr,
    signed,
)
from .numeric import Frac, Number

R_SIGN = "sign"
R_PERCENT = "percent"
R_BINOP = "binop"
R_RECIPROCAL = "reciprocal"
R_SIMPLIFY = "simplify"
R_UNGROUP = "ungroup"

@dataclass
class StepTrace:
    """The texts of a trace's snapshots, the rule of each step and the final
    value. `ambiguous` is set when a step made a binary64 of 1e16 or more,
    which prints without a `.` and so re-reads as an int."""

    snapshots: list[str]
    rules: list[str]
    final: Number
    ambiguous: bool


# set by _lit_from_value, reset by trace
_ambiguous = False


# ---------------------------------------------------------------------------
# tree plumbing
#
# A position in a tree is a parent link: None for the root, otherwise the
# tuple (parent_link, parent, index); index is the node's place among the
# operands of a parent chain, and 0 under a group or a sign.


def _replace(link: Optional[tuple], new: Node) -> tuple:
    """Put `new` where the node at `link` is and rebuild its ancestors in one
    walk up the parent links. A sign the rewrite leaves directly on a literal
    folds into it. Returns (root, top, folded): `top` is `new` or the literal
    it folded into, whose text starts `folded` characters left of the old
    node's."""
    top = new
    folded = 0
    while link is not None:
        link, parent, i = link
        cls = parent.__class__
        if cls is Chain:
            operands = parent.operands
            new = Chain(parent.ops, operands[:i] + (new,) + operands[i + 1:])
        elif cls is Group:
            new = Group(parent.kind, new)
        elif not (new.__class__ is Lit or new.__class__ is FractionLit):
            new = Unary(parent.op, new)
        else:
            new = top = signed(parent.op, new)
            folded += 1
    return new, top, folded


def _edit(text: str, link: Optional[tuple], new: Node, start: int, end: int,
          piece: Optional[str] = None) -> tuple[Node, str]:
    """The tree of `text` with `new` in place of the node at `link`, which
    printed as the span [start, end) of `text`: (new tree, its text). The new
    text is `text` with the span swapped for `piece`, by default the text of
    `new`, a literal. A chain whose head pair is rewritten passes the pair's
    span and new text."""
    root, top, folded = (new, new, 0) if link is None else _replace(link, new)
    if piece is None:
        piece = top.text
        if root is top:
            return root, piece
    return root, text[:start - folded] + piece + text[end:]


def _lit_from_value(v: Number) -> Lit:
    global _ambiguous
    text = numeric.render(v)
    if v.__class__ is float and "." not in text:
        _ambiguous = True
    return Lit(v, text)


def _is_operand(node: Node) -> bool:
    """A literal a binop may consume: not a percent, not awaiting reduction."""
    cls = node.__class__
    if cls is Lit:
        return not node.percent
    return cls is FractionLit and not node.reducible


def _is_negative_literal(node: Node) -> bool:
    cls = node.__class__
    if cls is Lit:
        return node.text[0] == "-"
    return cls is FractionLit and node.value.num < 0


# ---------------------------------------------------------------------------
# one walk records what the rules can fire on


@dataclass(slots=True)
class _Region:
    """The whole tree (node None) or one bracket group, with the first
    candidate of each region rule inside it."""

    node: Optional[Group]
    link: Optional[tuple]
    start: int
    depth: int
    end: int = 0
    # recip and binop are chain head pairs spanning [start, end)
    recip: Optional[tuple] = None  # (link, node, start, end): leftmost fraction/fraction
    binop: Optional[tuple] = None  # (link, node, start, end, tier, base): leftmost of the top tier
    frac: Optional[tuple] = None  # (link, node, start, end): leftmost reducible fraction


_DEPTH = attrgetter("depth")


def _scan(tree: Node, fraction: bool, link: Optional[tuple] = None, offset: int = 0) -> tuple:
    """One walk in print order of the whole tree, or of the group at `link`
    at `offset`. Returns (chains, percent, leaves, whole): per mul/div chain,
    (node, start) of the chain and then its negative factors, each (link,
    node, start, end); the leftmost percent literal, as (link, node, start,
    end); the regions of the groups that hold no group; and the region of
    the walk. A mul/div chain takes in the factors of a `*/` chain among
    them and, in fraction mode, of a bracketed one, so a sign inside a
    bracketed product cancels one outside."""
    chains = []
    leaves = []
    whole = _Region(None, None, 0, -1)
    percent = None

    def note(group, kind, found):
        # the leftmost candidate in the group and in the walk, of the top tier for a binop
        for region in (whole,) if group is None else (group, whole):
            first = getattr(region, kind)
            if first is None or kind == "binop" and found[4] > first[4]:
                setattr(region, kind, found)

    def rec(node, link, offset, group, chain):
        # returns the offset just past the node's printed text; `chain` is
        # the mul/div chain the node is a factor of, if any
        nonlocal percent
        cls = node.__class__
        if cls is Chain:
            op = node.ops[0]
            sub = None
            if op == "*" or op == "/":
                sub = chain
                if sub is None:
                    sub = [(node, offset)]
                    chains.append(sub)
            operands = node.operands
            end = offset - 1
            i = 0
            for x in operands:
                end = rec(x, (link, node, i), end + 1, group, sub)
                if i == 1:
                    # The head pair is the only pair that can be ready. A
                    # power reads its base through a bracket around a literal.
                    base = operands[0]
                    if op == "^" and base.__class__ is Group and _is_operand(base.inner):
                        base = base.inner
                    if _is_operand(base) and _is_operand(x):
                        if op == "/" and base.__class__ is FractionLit and x.__class__ is FractionLit:
                            note(group, "recip", (link, node, offset, end))
                        else:
                            note(group, "binop", (link, node, offset, end, TIER[op], base))
                i += 1
            return end
        if cls is Group:
            inner = node.inner
            g = _Region(node, link, offset, 0 if group is None else group.depth + 1)
            sub = None
            if fraction and inner.__class__ is Chain and inner.ops[0] in "*/":
                sub = chain
            n = len(leaves)  # a group is a leaf when its content adds none
            end = g.end = rec(inner, (link, node, 0), offset + 1, g, sub) + 1
            if len(leaves) == n:
                leaves.append(g)
            return end
        if cls is Unary:
            end = rec(node.operand, (link, node, 0), offset + 1, group, None)
            if chain is not None and node.op == "-":
                chain.append((link, node, offset, end))
            return end
        end = offset + len(node.text)
        if cls is Lit:
            if node.percent and percent is None:
                percent = (link, node, offset, end)
        elif node.reducible:
            note(group, "frac", (link, node, offset, end))
        if chain is not None and _is_negative_literal(node):
            chain.append((link, node, offset, end))
        return end

    rec(tree, link, offset, None, None)
    return chains, percent, leaves, whole


def _pinned_by_power_base(link: Optional[tuple], content: Node) -> bool:
    """Brackets around a literal written with a `-` (`-1`, `+-5`) must stay
    when the bracket is the base of a power: printing `(-1)^0` without them
    re-reads as `-(1^0)`."""
    if link is None or "-" not in content.text:
        return False
    _, parent, i = link
    return parent.__class__ is Chain and parent.ops[0] == "^" and i == 0


# ---------------------------------------------------------------------------
# sign cancellation


def _strip_sign(node: Node) -> Node:
    """A negative factor without its sign: the operand of a `-`, or the
    literal negated. A literal written with a leading `-` loses just that."""
    if node.__class__ is Unary:
        return node.operand
    text = node.text
    return signed("-", node, text[1:] if text[0] == "-" else None)


def _cancel_signs(text: str, chain: list, fraction: bool) -> tuple[Node, str, str]:
    """Strip the first two negative factors of `chain` in the tree of `text`.
    Returns the new tree, its text and the snapshot's text, which in fraction
    mode marks the chain head with a `+` unless the head is the first negative
    factor."""
    (node, start), first, second = chain[:3]
    pieces = []
    pos = 0
    for factor_link, factor, factor_start, factor_end in (first, second):
        stripped = _strip_sign(factor)
        if pos:  # the second edit is on the first's tree, where a strip moved no path
            factor_link = _resolve(unmarked, _path(factor_link))[1]
        unmarked = _replace(factor_link, stripped)[0]
        # a factor's parent is a mul/div chain, so nothing folds
        pieces.append(text[pos:factor_start])
        pieces.append(text[factor_start + 1:factor_end] if factor.__class__ is Unary
                      else stripped.text)
        pos = factor_end
    pieces.append(text[pos:])
    text = "".join(pieces)
    if not fraction:
        return unmarked, text, text
    # the head factor: the first operand, through nested mul/div chains and
    # the brackets the scan sees through
    while node.__class__ is Chain and node.ops[0] in "*/":
        node = node.operands[0]
        if node.__class__ is Group and node.inner.__class__ is Chain and node.inner.ops[0] in "*/":
            node, start = node.inner, start + 1
    if first[2] == start:  # the head is the first negative factor
        return unmarked, text, text
    return unmarked, text, text[:start] + "+" + text[start:]


# ---------------------------------------------------------------------------
# region rules


def _apply(op: str, a: Number, b: Number, chain: Chain, n: int) -> Number:
    """`a op b`, the fold of the first `n` operands of `chain`, which a
    division by zero names."""
    try:
        return numeric.apply(op, a, b)
    except DivByZero:
        prefix = Chain(chain.ops[:n - 1], chain.operands[:n])
        raise DivByZero(f"division by zero in {print_expr(prefix)}") from None


def _fraction_result(op: str, value: Frac, at_root: bool) -> FractionLit:
    flag = not value.is_canonical
    if op in "+-":
        parens = not at_root
    else:
        parens = flag if at_root else True
    return FractionLit(value, parens=parens, reducible=flag)


def next_step(e: Node, mode: str) -> Optional[tuple[Node, str]]:
    """Apply the single highest-priority rewrite, found by a search of the
    whole tree: (the tree to rewrite next, rule), or None when e is a
    literal. A trace takes the same steps."""
    step = _search(e, print_expr(e), mode == FRACTION)
    return step and step[:2]


# A focus is a plain tuple: () for a tree `_flat_walk` steps; or after a step
# in a leaf group of a scan (regions, k, start, length, resume): the (index
# path, start) of each group to step in, in the order of the whole-tree
# search; the one stepped in at `k`, now at `start`; the text's `length` when
# the list was made; and the group's own resume, None until a step in it
# finds it flat.


def _next_step(tree: Node, text: str, mode: str, focus: Optional[tuple]) -> Optional[tuple | list]:
    """For `tree`, printed as `text`: the step `_search` takes, the same for
    the focus the step before gave as for None; or for a tree `_is_flat`
    accepts, the (index path, bracket offset) of each of its groups, a list,
    for `_flat_trace` to fold the rest of the trace on its operands. None at
    a literal, on which no flat walk runs."""
    if tree.__class__ is not Chain and _is_operand(tree):
        return None
    fraction = mode == FRACTION
    if focus:
        step = _group_step(tree, text, fraction, focus)
        if step is not None:
            return step
    # (): the walk's tree, which its step left flat, though maybe with no fraction
    elif focus is not None and (walk := _flat_walk(tree)) is not None:
        return _search(tree, text, fraction, walk)
    groups = []
    flat = _is_flat(tree, groups)
    if flat is _WITH_FRACTIONS:  # a group beside a fraction literal is left to the scan
        return _search(tree, text, fraction, not groups and _flat_walk(tree))
    if flat and not (fraction and groups):  # a fraction-mode group is left to the scan
        return [*zip(groups, map(re.Match.start, re.finditer(r"[(\[]", text)))]
    return _search(tree, text, fraction)


def _search(tree: Node, text: str, fraction: bool, walk: Optional[tuple] = None) -> Optional[tuple]:
    """The step a search of the whole tree takes from `tree`, printed as
    `text`, or None at a literal: (the tree to rewrite next, rule, its text,
    snapshot text, focus). The snapshot differs from the text only by the
    `+` head marker of a fraction-mode sign step. `walk`, what `_flat_walk`
    found, stands for the scan, and its step's focus is ()."""
    if tree.__class__ is not Chain and _is_operand(tree):
        return None
    chains, percent, leaves, whole = walk or _scan(tree, fraction)
    focus = () if walk else None

    for chain in chains:
        if len(chain) > 2:
            new, text, snapshot = _cancel_signs(text, chain, fraction)
            return new, R_SIGN, text, snapshot, focus

    if percent is not None:
        link, node, start, end = percent
        value = numeric.percent_value(node.value)
        new, text = _edit(text, link, _lit_from_value(value), start, end)
        return new, R_PERCENT, text, text, None

    # Work inside the deepest bracket group without inner groups first,
    # leftmost breaking ties (the leaves are in print order and the sort is
    # stable). A region can only fail to make progress when its
    # brackets are pinned as a power base, in which case the search cascades
    # outward to the whole tree and the power rule consumes the bracketed
    # literal directly.
    regions = sorted(leaves, key=_DEPTH, reverse=True) + [whole] if leaves else (whole,)
    for region in regions:
        step = _region_step(text, region)
        if step is not None:
            new, new_text, rule = step
            if leaves and region is regions[0]:
                order = leaves if region.depth == 0 else (region,)  # then all are at depth 0
                focus = ([(_path(r.link), r.start) for r in order], 0,
                         region.start, len(text), None)
            return new, rule, new_text, new_text, focus

    raise NonTerminating(f"no rule applies to {text!r}")


# What `_is_flat` answers, truthy, for a flat tree with a fraction literal.
_WITH_FRACTIONS = "with fraction literals"


def _is_flat(tree: Node, groups: Optional[list] = None) -> bool | str:
    """Whether `tree` is a `*/` chain of plain literals at most one of them
    signed (`+-4` too, which no sign cancels but makes a product negative), or
    a `+-` chain of plain literals and such chains: no rule but binop can fire
    in it, and its binop is the head pair of its first `*/` chain, else its
    own head pair. Given a list `groups`, a bracket group of flat content may
    stand for a literal, and their index paths go into it in print order: they
    are the scan's leaves, where the whole-tree search steps first, and the
    text's brackets are theirs; and a fraction literal, which fraction mode
    alone makes, may stand for one, of any sign or alone, and then the answer
    is _WITH_FRACTIONS: `_flat_walk` finds the rule, or with a group the
    scan. The walk goes right to left, so that it meets first what steps,
    going left to right, have not made flat yet."""
    if tree.__class__ is not Chain or tree.ops == "^":
        return groups is not None and tree.__class__ is FractionLit and _WITH_FRACTIONS
    sums = tree.ops[0] in "+-"
    operands = tree.operands if sums else (tree,)
    flat = True
    i = len(operands)
    for x in reversed(operands):
        i -= 1
        if x.__class__ is Lit and not x.percent:  # inline: most operands
            continue
        product = x.__class__ is Chain and x.ops[0] in "*/"
        factors = x.operands if product else (x,)
        signs, j = 0, len(factors)
        for y in reversed(factors):
            j -= 1
            if y.__class__ is Lit and not y.percent:
                signs += y.text[0] in "+-"
            elif groups is not None and y.__class__ is Group and _is_flat(y.inner):
                groups.append(([i] if sums else []) + ([j] if product else []))
            elif groups is None or y.__class__ is not FractionLit:
                return False
            else:
                flat = _WITH_FRACTIONS
        if signs > 1:
            return False
    if groups:
        groups.reverse()
    return flat


def _flat_walk(tree: Node) -> Optional[tuple]:
    """What `_scan` returns for a tree `_is_flat` calls flat given a list, with
    no group, in one walk of its terms, listing only a product with a sign pair,
    the first. None for a tree without a fraction literal: `trace` folds it."""
    recip = binop = frac = None
    fractions = False
    sums = tree.__class__ is Chain and tree.ops[0] in "+-"
    i, end = 0, -1
    for x in tree.operands if sums else (tree,):
        start = end + 1
        if x.__class__ is Chain:  # a product
            link = (None, tree, i) if sums else None
            signs = None  # the product, then its negative factors, as the scan lists them
            j, end = 0, start - 1
            for y in x.operands:
                s = end + 1
                end = s + len(y.text)
                if y.__class__ is FractionLit:
                    fractions = True
                    if y.reducible and frac is None:
                        frac = ((link, x, j), y, s, end)
                    negative = y.value.num < 0
                else:
                    negative = y.text[0] == "-"
                if negative:
                    if signs:
                        return [signs + [((link, x, j), y, s, end)]], None, [], None
                    signs = [(x, start), ((link, x, j), y, s, end)]
                j += 1
            a, b = x.operands[0], x.operands[1]
            if _is_operand(a) and _is_operand(b):
                pair = (link, x, start, start + len(a.text) + 1 + len(b.text))
                if x.ops[0] == "/" and a.__class__ is FractionLit and b.__class__ is FractionLit:
                    recip = recip or pair
                elif binop is None or binop[4] == 1:
                    binop = (*pair, 2, a)
        else:  # a literal term
            end = start + len(x.text)
            if x.__class__ is FractionLit:
                fractions = True
                if x.reducible and frac is None:
                    frac = ((None, tree, i) if sums else None, x, start, end)
            if i == 1 and _is_operand(x) and _is_operand(a := tree.operands[0]):
                binop = (None, tree, 0, end, 1, a)  # no product yet, so no other
        i += 1
    return ([], None, [], _Region(None, None, 0, -1, 0, recip, binop, frac)) if fractions else None


def _head_pair(tree: Chain, link: Optional[tuple], start: int, i: int, offset: int) -> tuple:
    """The binop candidate of the flat `tree`, a group's content, at `link`,
    whose text starts at `start`, searched from its operand `i` at text
    offset `offset`, and where the search resumes after it, since a binop
    leaves a flat tree flat: (candidate, (operand index, text offset))."""
    sums = tree.ops[0] in "+-"
    operands = tree.operands if sums else (tree,)
    for i in range(i, len(operands)):
        x = operands[i]
        if x.__class__ is Chain:
            a, b = x.operands[:2]
            return (((link, tree, i) if sums else link, x, offset,
                     offset + len(a.text) + 1 + len(b.text), 2, a), (i, offset))
        offset += len(x.text) + 1
    # every operand is a literal, and stays one: none is left to walk
    a, b = tree.operands[:2]
    return (link, tree, start, start + len(a.text) + 1 + len(b.text), 1, a), (len(operands) - 1, 0)


def _path(link: Optional[tuple]) -> list:
    """The operand indices that lead from the root to the node at `link`."""
    return [] if link is None else _path(link[0]) + [link[2]]


def _resolve(tree: Node, path: list) -> tuple[Node, Optional[tuple]]:
    """The node at `path` in `tree` and its link. A literal on the way, a
    sign folded into what replaced its group, stands for the rest."""
    node, link = tree, None
    for i in path:
        cls = node.__class__
        if cls is Lit or cls is FractionLit:
            break
        link = (link, node, i)
        node = node.operands[i] if cls is Chain else node.inner if cls is Group else node.operand
    return node, link


def _new_sign_pair(top: Node, link: tuple, fraction: bool) -> bool:
    """Whether the literal `top`, at `link` where a group outside any other
    stood, may cancel signs with another factor: any in fraction mode, and
    in standard mode unless the flat walk finds its product flat still. The
    parser puts no `*/` chain directly in a `*/` chain, and no step does, so
    the product is the chain `top` is a factor of; a tree built otherwise
    may nest one in another, which the scan counts as one product, and such
    a tree is left to the whole-tree search."""
    up, parent, _ = link
    if not _is_negative_literal(top) or parent.__class__ is not Chain or parent.ops[0] not in "*/":
        return False
    return (fraction or not _is_flat(parent, [])
            or up is not None and up[1].__class__ is Chain and up[1].ops[0] in "*/")


def _group_step(tree: Node, text: str, fraction: bool, focus: tuple) -> Optional[tuple]:
    """The step `_next_step` takes in the group of a group `focus`, or in
    the next group once that one is a literal; None when only a whole-tree
    search can tell. Only the groups changed since the walk that made the
    focus, which found no sign pair or percent. No step makes a percent,
    but one can make a negative factor the walk did not count (`-3*+-2^2`
    gives `-3*-4`), so a sign pair in the group, or in fraction mode any
    negative factor, which may pair with one outside, leaves it to the
    whole tree. A flat group takes its binop from its own flat search,
    resumed where the step before left it; any other group is scanned."""
    regions, k, start, length, resume = focus
    node, link = _resolve(tree, regions[k][0])
    if node.__class__ is not Group:
        # The group became `node`. A group outside any other leaves the rest
        # as they were, to its right, as far from the text's end as before.
        k += 1  # a group at the root was the only one
        if k == len(regions) or _new_sign_pair(node, link, fraction):
            return None
        node, link = _resolve(tree, regions[k][0])
        start = regions[k][1] + len(text) - length
        resume = None
    inner = node.inner
    if inner.__class__ is Chain and (resume is not None or not fraction and _is_flat(inner)):
        found, resume = _head_pair(inner, (link, node, 0), start + 1, *(resume or (0, start + 1)))
        new, text = _binop(text, found, node)
        rule = R_BINOP
    else:
        chains, _, (region,), _ = _scan(node, fraction, link, start)
        step = (not any(len(c) > (1 if fraction else 2) for c in chains)
                and _region_step(text, region))
        if not step:
            return None
        new, text, rule = step
    return new, rule, text, text, (regions, k, start, length, resume)


def _region_step(text: str, region: _Region) -> Optional[tuple[Node, str, str]]:
    """The region rules inside one innermost group, or anywhere in the whole
    tree of `text`: (new tree, its text, rule)."""
    group = region.node

    # reciprocal: division by a fraction literal, both sides already in lowest
    # terms (a computed fraction gets its simplify step first)
    if region.recip is not None:
        link, node, start, end = region.recip
        lhs, rhs = node.operands[:2]
        if rhs.value.num == 0:  # no reciprocal: the division names the fault
            _apply("/", lhs.value, rhs.value, node, 2)
        recip = FractionLit(Frac(rhs.value.den, rhs.value.num))
        new = Chain("*" + node.ops[1:], (lhs, recip) + node.operands[2:])
        piece = lhs.text + "*" + recip.text
        return *_edit(text, link, new, start, end, piece), R_RECIPROCAL

    # binop: leftmost head pair of the highest precedence tier with two
    # literal operands
    if region.binop is not None:
        return *_binop(text, region.binop, group), R_BINOP

    # simplify: leftmost computed fraction not in lowest terms
    if region.frac is not None:
        link, node, start, end = region.frac
        reduced = numeric.reduce_fraction(node.value)
        new = FractionLit(reduced, parens=link is not None and node.text[-1] == ")")
        return *_edit(text, link, new, start, end), R_SIMPLIFY

    if group is not None and _is_operand(group.inner) \
            and not _pinned_by_power_base(region.link, group.inner):
        return *_edit(text, region.link, group.inner, region.start, region.end), R_UNGROUP

    return None


def _binop(text: str, found: tuple, group: Optional[Group]) -> tuple[Node, str]:
    """The tree of `text` with the head pair `found` evaluated, and its text:
    the pair becomes one literal, or replaces its two-operand chain. `group`
    is the bracket group the pair is in, if any."""
    link, node, start, end, _, base = found
    op = node.ops[0]
    operands = node.operands
    rhs = operands[1]
    value = _apply(op, base.value, rhs.value, node, 2)
    result = (_lit_from_value(value) if value.__class__ is not Frac
              else _fraction_result(op, value, link is None and len(operands) == 2))
    if len(operands) > 2:
        new = Chain(node.ops[1:], (result,) + operands[2:])
        return _edit(text, link, new, start, end, result.text)
    # A bracket whose content just became a single literal is absorbed in the
    # same step, unless the literal is negative and the bracket either is not
    # at the very start of the expression or is pinned as a power base; those
    # keep their brackets.
    if group is not None and node is group.inner:  # the group spans one more each side
        group_link = link[0]
        if isinstance(result, FractionLit):
            result = FractionLit(result.value, reducible=result.reducible)
        elif _is_negative_literal(result) and (
            start != 1 or _pinned_by_power_base(group_link, result)
        ):
            return _edit(text, link, result, start, end)
        return _edit(text, group_link, result, start - 1, end + 1)
    return _edit(text, link, result, start, end)


def direct_eval(e: Node, mode: str = "standard") -> Number:
    """Plain recursive evaluation; the oracle every trace must agree with."""
    cls = e.__class__
    if cls is Chain:
        v = direct_eval(e.operands[0], mode)
        for i, op in enumerate(e.ops, 1):
            v = _apply(op, v, direct_eval(e.operands[i], mode), e, i + 1)
        return v
    if cls is Lit:
        return numeric.percent_value(e.value) if e.percent else e.value
    if cls is FractionLit:
        return e.value
    if cls is Unary:
        v = direct_eval(e.operand, mode)
        return v if e.op == "+" else -v
    if cls is Group:
        return direct_eval(e.inner, mode)
    raise TypeError(f"cannot evaluate {e!r}")


def trace(e: Node, mode: str = "standard", text: Optional[str] = None) -> StepTrace:
    """Iterate `_next_step` to a literal, and from the first tree it finds
    flat, with or without groups, fold the rest in `_flat_trace`. `text`, if
    given, must be the text `e` was parsed from, which the printer gives back
    exactly: it is the first snapshot, without a print of `e`. Every rule
    consumes a node or an operator, each of which prints as at least one
    character, so four steps per character bound any trace; past that,
    NonTerminating."""
    global _ambiguous
    _ambiguous = False
    if text is None:
        text = print_expr(e)
    snapshots = [text]
    bound = 4 * len(text) + 4
    rules = []
    tree, focus = e, None
    while True:
        try:
            step = _next_step(tree, text, mode, focus)
            if step.__class__ is list:  # the groups of a flat tree
                tree, text = _flat_trace(tree, text, step, snapshots, rules)
                focus = None
                continue
        except DivByZero as err:
            raise DivByZero(f"{err.detail} (step {len(rules)})") from None
        if step is None:
            return StepTrace(snapshots, rules, tree.value, _ambiguous)
        if len(rules) >= bound:
            raise NonTerminating(f"trace of {snapshots[0]!r} exceeded {bound} steps")
        tree, rule, text, snapshot, focus = step
        snapshots.append(snapshot)
        rules.append(rule)


def _flat_trace(tree: Chain, text: str, groups: list, snapshots: list,
                rules: list) -> tuple[Node, str]:
    """The rest of a trace from the flat `tree`, printed as `text`, given the
    (index path, bracket offset) of each of its groups: the steps the
    whole-tree search takes, with no tree built, to the literal they end in,
    and its text. Each group, left to right, folds into one literal at its
    text offset; the last pair drops the brackets, unless its literal is
    negative and does not start the text, which keeps them for an ungroup
    step of its own. Then the tree folds as `_fold_flat` folds it. A group's
    negative result in a product with another signed literal is a sign pair
    for the whole-tree search: the tree of the lists is returned there. Every
    step consumes an operator or a group, so none meets the step bound."""
    if groups:
        sums = tree.ops[0] in "+-"
        ops, terms = (tree.ops, list(tree.operands)) if sums else ("", [tree])
        length = len(text)
        for path, start in groups:
            start += len(text) - length  # what folded to its left is shorter now
            i, *j = path if sums else (0, *path)
            x = terms[i]
            lit, text = _fold_flat((x.operands[j[0]] if j else x).inner, start + 1,
                                   text, snapshots, rules)
            text = text[:start] + lit.text + text[start + len(lit.text) + 2:]
            if lit.text[0] != "-" or not start:  # the brackets go with the last pair
                snapshots[-1] = text
            else:
                snapshots.append(text)
                rules.append(R_UNGROUP)
            if j:
                terms[i] = Chain(x.ops, x.operands[:j[0]] + (lit,) + x.operands[j[0] + 1:])
                if lit.text[0] == "-" and not _is_flat(terms[i], []):
                    return chain(ops, terms), text
            else:
                terms[i] = lit
        tree = chain(ops, terms)
    return _fold_flat(tree, 0, text, snapshots, rules)


def _fold_flat(tree: Chain, offset: int, text: str, snapshots: list,
               rules: list) -> tuple[Lit, str]:
    """Fold the flat `tree` of plain literals, whose text starts at `offset`
    in `text`, into one literal: the steps the whole-tree search takes, and
    (the literal, the last text). A binop leaves a flat tree flat, so each
    product in turn folds, left to right, and then the sum does."""
    if tree.ops[0] in "*/":
        return _fold(tree.ops, tree.operands, offset, text, snapshots, rules)
    terms = list(tree.operands)
    at = offset
    for k, x in enumerate(terms):
        if x.__class__ is Chain:  # a product, whose head pair is at `at`
            x, text = _fold(x.ops, x.operands, at, text, snapshots, rules)
            terms[k] = x
        at += len(x.text) + 1
    return _fold(tree.ops, terms, offset, text, snapshots, rules)


def _fold(ops: str, operands, offset: int, text: str, snapshots: list,
          rules: list) -> tuple[Lit, str]:
    """Step the head pair of the chain `ops`, `operands` of plain literals,
    whose text starts at `offset` in `text`, until it is one literal: (the
    literal, the last text)."""
    a = operands[0]
    for op, b in zip(ops, operands[1:]):
        end = offset + len(a.text) + 1 + len(b.text)
        try:
            value = numeric.apply(op, a.value, b.value)
        except DivByZero:
            raise DivByZero(f"division by zero in {a.text}{op}{b.text}") from None
        a = _lit_from_value(value)
        text = text[:offset] + a.text + text[end:]
        snapshots.append(text)
        rules.append(R_BINOP)
    return a, text


def render_trace(t: StepTrace) -> str:
    return "=".join(t.snapshots)
