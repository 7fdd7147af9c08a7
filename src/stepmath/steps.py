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

A step costs about what it changes. One walk records only what a rule can
fire on: the binops whose operands are both plain literals, the fraction
divisions and the reducible fractions, each filed under its innermost bracket
group, plus the leftmost percent and the negative factors of each mul/div
chain. The rewrite then rebuilds the ancestors of the changed nodes bottom-up
along parent links, in one routine for every rule. Trees are immutable and
share every subtree a step did not touch. Each new snapshot's text is the
previous one with the changed span spliced, so interior nodes print only on
demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from . import numeric
from .errors import DivByZero, NonTerminating
from .expr import (
    Binary,
    FRACTION,
    FractionLit,
    Group,
    Lit,
    Node,
    Unary,
    count_atomic_ops,
    fold_signed_literal,
    literal_value,
    print_expr,
)
from .numeric import Frac, Number

R_SIGN = "sign"
R_PERCENT = "percent"
R_BINOP = "binop"
R_RECIPROCAL = "reciprocal"
R_SIMPLIFY = "simplify"
R_UNGROUP = "ungroup"

_TIER = {"^": 3, "*": 2, "/": 2, "+": 1, "-": 1}


@dataclass
class StepTrace:
    original: Node
    snapshots: list[Node]
    rules: list[str]
    final: Number
    mode: str


# ---------------------------------------------------------------------------
# tree plumbing
#
# A position in a tree is a parent link: None for the root, otherwise the
# tuple (parent_link, parent, attr) naming the field of `parent` that holds it.


def _replace(link: Optional[tuple], new: Node, done: Optional[dict] = None) -> tuple:
    """Put `new` where the node at `link` is and rebuild its ancestors in one
    walk up the parent links. A sign the rewrite leaves directly on a literal
    folds into it. Returns (root, top, folded): `top` is `new` or the literal
    it folded into, whose text starts `folded` characters left of the old
    node's.

    Edits to one tree share `done`, which maps each rebuilt binop (by id) to
    its latest version, so that each edit builds on the ones before it."""
    top = new
    folded = 0
    while link is not None:
        link, parent, attr = link
        cls = parent.__class__
        if cls is Binary:
            if done is None:
                lhs, rhs = parent.lhs, parent.rhs
            else:
                key = id(parent)
                latest = done.get(key, parent)
                lhs, rhs = latest.lhs, latest.rhs
            if attr == "lhs":
                new = Binary(parent.op, new, rhs)
            else:
                new = Binary(parent.op, lhs, new)
            if done is not None:
                done[key] = new
        elif cls is Group:
            new = Group(parent.kind, new)
        elif parent.transient or not (new.__class__ is Lit or new.__class__ is FractionLit):
            new = Unary(parent.op, new, transient=parent.transient)
        else:
            new = top = fold_signed_literal(Unary(parent.op, new))
            folded += 1
    return new, top, folded


def _edit(tree: Node, link: Optional[tuple], new: Node, start: int, end: int) -> Node:
    """`tree` with `new` in place of the node at `link`, which printed as the
    span [start, end) of the tree's text. The new root's text is that text with
    the span swapped; the rebuilt nodes between stay unprinted."""
    root, top, folded = _replace(link, new)
    text = top.text if top.__class__ is Lit else print_expr(top)
    if root is not top:
        old = _text_of(tree)
        text = old[:start - folded] + text + old[end:]
    root._text = text
    return root


def _text_of(tree: Node) -> str:
    # Every snapshot root this engine builds carries its text, so only the
    # first tree of a trace is printed here, and only if a step needs it.
    return tree._text or print_expr(tree)


def _strip_transient(node: Node) -> Node:
    if isinstance(node, Binary):
        lhs, rhs = _strip_transient(node.lhs), _strip_transient(node.rhs)
        if lhs is node.lhs and rhs is node.rhs:
            return node
        return Binary(node.op, lhs, rhs)
    if isinstance(node, Group):
        inner = _strip_transient(node.inner)
        return node if inner is node.inner else Group(node.kind, inner)
    if isinstance(node, Unary):
        operand = _strip_transient(node.operand)
        if node.transient:
            return operand
        return node if operand is node.operand else Unary(node.op, operand)
    return node


def _lit_from_value(v: Number) -> Lit:
    text = numeric.render(v)
    if text.startswith("-"):
        origin = "negative"
    elif "." in text:
        origin = "decimal"
    else:
        origin = "integer"
    return Lit(v, text, origin)


def _is_operand(node: Node) -> bool:
    """A literal a binop may consume: not a percent, not awaiting reduction."""
    cls = node.__class__
    if cls is Lit:
        return node.origin != "percent"
    return cls is FractionLit and not node.reducible


def _is_negative_literal(node: Node) -> bool:
    if isinstance(node, Lit):
        return node.text.startswith("-")
    if isinstance(node, FractionLit):
        return node.num < 0
    return False


# ---------------------------------------------------------------------------
# one walk records what the rules can fire on


class _Region:
    """The whole tree (node None) or one bracket group, with the first
    candidate of each region rule inside it."""

    __slots__ = ("node", "link", "start", "end", "depth", "has_inner",
                 "recip", "binop", "frac")

    def __init__(self, node: Optional[Group], link: Optional[tuple], start: int, depth: int):
        self.node = node
        self.link = link
        self.start = start
        self.end = 0
        self.depth = depth
        self.has_inner = False
        self.recip = None  # (link, node, start, end): leftmost fraction/fraction
        self.binop = None  # (link, node, start, end, tier, base): leftmost of the top tier
        self.frac = None  # (link, node, start, end): leftmost reducible fraction


class _Scan:
    __slots__ = ("chains", "percent", "leaves", "whole")

    def __init__(self):
        # per mul/div chain: its head factor, then its negative factors in
        # print order (the head twice when it is negative); each factor is
        # (link, node, start, end)
        self.chains: list[list[tuple]] = []
        self.percent: Optional[tuple] = None  # (link, node, start, end), leftmost
        self.leaves: list[_Region] = []  # groups that hold no group, in print order
        self.whole = _Region(None, None, 0, -1)


_DEPTH = attrgetter("depth")


def _add_factor(chain: list, factor: tuple, negative: bool) -> None:
    if not chain:
        chain.append(factor)
    if negative:
        chain.append(factor)


def _scan(tree: Node, fraction: bool) -> _Scan:
    """One walk in print order.

    Mul/div chains are flattened to their factors. In fraction mode a chain
    sees through brackets whose content is itself a mul/div chain, so a sign
    inside a bracketed product cancels one outside.
    """
    sc = _Scan()
    chains, leaves, whole = sc.chains, sc.leaves, sc.whole

    def rec(node, link, offset, group, chain):
        # returns the offset just past the node's printed text; `chain` is
        # the mul/div chain the node is a factor of, if any
        cls = node.__class__
        if cls is Binary:
            op = node.op
            sub = None
            if op == "*" or op == "/":
                sub = chain
                if sub is None:
                    sub = []
                    chains.append(sub)
            # literal operands inline: they are half the nodes of a chain
            lhs = node.lhs
            if lhs.__class__ is Lit:
                mid = offset + len(lhs.text)
                if lhs.origin == "percent" and sc.percent is None:
                    sc.percent = ((link, node, "lhs"), lhs, offset, mid)
                if sub is not None and (not sub or lhs.text[0] == "-"):
                    _add_factor(sub, ((link, node, "lhs"), lhs, offset, mid), lhs.text[0] == "-")
            else:
                mid = rec(lhs, (link, node, "lhs"), offset, group, sub)
            rhs = node.rhs
            if rhs.__class__ is Lit:
                end = mid + 1 + len(rhs.text)
                if rhs.origin == "percent" and sc.percent is None:
                    sc.percent = ((link, node, "rhs"), rhs, mid + 1, end)
                if sub is not None and (not sub or rhs.text[0] == "-"):
                    _add_factor(sub, ((link, node, "rhs"), rhs, mid + 1, end), rhs.text[0] == "-")
            else:
                end = rec(rhs, (link, node, "rhs"), mid + 1, group, sub)
            if sub is None and chain is not None and not chain:
                chain.append((link, node, offset, end))

            # a power reads its base through a bracket around a literal
            base = lhs
            if op == "^" and lhs.__class__ is Group and _is_operand(lhs.inner):
                base = lhs.inner
            # both operands `_is_operand`, tested inline: this runs on every binop
            bcls, rcls = base.__class__, rhs.__class__
            if not (bcls is Lit and base.origin != "percent"
                    or bcls is FractionLit and not base.reducible):
                return end
            if not (rcls is Lit and rhs.origin != "percent"
                    or rcls is FractionLit and not rhs.reducible):
                return end
            if op == "/" and bcls is FractionLit and rcls is FractionLit:
                found = (link, node, offset, end)
                if group is not None and group.recip is None:
                    group.recip = found
                if whole.recip is None:
                    whole.recip = found
                return end
            tier = _TIER[op]
            found = (link, node, offset, end, tier, base)
            if group is not None and (group.binop is None or tier > group.binop[4]):
                group.binop = found
            if whole.binop is None or tier > whole.binop[4]:
                whole.binop = found
            return end
        if cls is Group:
            inner = node.inner
            g = _Region(node, link, offset, 0 if group is None else group.depth + 1)
            if group is not None:
                group.has_inner = True
            sub = None
            if fraction and inner.__class__ is Binary and inner.op in "*/":
                sub = chain
            end = g.end = rec(inner, (link, node, "inner"), offset + 1, g, sub) + 1
            if not g.has_inner:
                leaves.append(g)
            if sub is None and chain is not None and not chain:
                chain.append((link, node, offset, end))
            return end
        if cls is Unary:
            end = rec(node.operand, (link, node, "operand"), offset + 1, group, None)
            if chain is not None:
                negative = node.op == "-" and not node.transient
                if negative or not chain:
                    _add_factor(chain, (link, node, offset, end), negative)
            return end
        if cls is Lit:  # never a factor: those are read inline above
            end = offset + len(node.text)
            if node.origin == "percent" and sc.percent is None:
                sc.percent = (link, node, offset, end)
            return end
        end = offset + len(print_expr(node))
        if node.reducible:
            found = (link, node, offset, end)
            if group is not None and group.frac is None:
                group.frac = found
            if whole.frac is None:
                whole.frac = found
        if chain is not None and (node.num < 0 or not chain):
            _add_factor(chain, (link, node, offset, end), node.num < 0)
        return end

    rec(tree, None, 0, None, None)
    return sc


def _pinned_by_power_base(link: Optional[tuple], content: Node) -> bool:
    """Brackets around a negative literal must stay when the bracket is the
    base of a power: printing `(-1)^0` without them re-reads as `-(1^0)`."""
    if link is None or not _is_negative_literal(content):
        return False
    _, parent, attr = link
    return isinstance(parent, Binary) and parent.op == "^" and attr == "lhs"


# ---------------------------------------------------------------------------
# sign cancellation


def _strip_sign(node: Node) -> Node:
    if isinstance(node, Unary):
        return node.operand
    if isinstance(node, Lit):
        text = node.text[1:] if node.text.startswith("-") else numeric.render(-node.value)
        origin = node.origin
        if origin != "percent":
            origin = "decimal" if "." in text else "integer"
        return Lit(-node.value, text, origin)
    if isinstance(node, FractionLit):
        text = node.text[1:] if node.text and node.text.startswith("-") else None
        return FractionLit(-node.num, node.den, text=text, parens=node.parens,
                           reducible=node.reducible)
    raise TypeError(f"cannot strip sign from {node!r}")


def _cancel_signs(tree: Node, chain: list, fraction: bool) -> tuple[Node, Node]:
    """Strip the first two negative factors of `chain` in `tree`. Returns the
    snapshot and the tree to rewrite next, which differ when fraction mode
    marks the chain head with a transient `+`."""
    head, first, second = chain[:3]
    text = _text_of(tree)
    done: dict = {}
    pieces = []
    pos = 0
    for link, node, start, end in (first, second):
        stripped = _strip_sign(node)
        unmarked = _replace(link, stripped, done)[0]
        # a factor's parent is a mul/div binop, so nothing folds
        pieces.append(text[pos:start])
        pieces.append(text[start + 1:end] if node.__class__ is Unary else print_expr(stripped))
        pos = end
    pieces.append(text[pos:])
    unmarked._text = text = "".join(pieces)
    if not fraction or first is head:
        return unmarked, unmarked
    link, node, start, _ = head
    snapshot = _replace(link, Unary("+", node, transient=True), done)[0]
    snapshot._text = text[:start] + "+" + text[start:]
    return snapshot, unmarked


# ---------------------------------------------------------------------------
# region rules


def _apply(node: Binary, a: Number, b: Number) -> Number:
    try:
        return numeric.apply(node.op, a, b)
    except DivByZero:
        raise DivByZero(f"division by zero in {print_expr(node)}") from None


def _binop_result_node(op: str, value: Number, at_root: bool) -> Node:
    if not isinstance(value, Frac):
        return _lit_from_value(value)
    flag = not value.is_canonical
    if op in "+-":
        parens = not at_root
    else:
        parens = flag if at_root else True
    return FractionLit(value.num, value.den, parens=parens, reducible=flag)


def next_step(e: Node, mode: str) -> Optional[tuple[Node, str]]:
    """Apply the single highest-priority rewrite, or None when e is a literal."""
    step = _next_step(_strip_transient(e), mode)
    return step and step[:2]


def _next_step(tree: Node, mode: str) -> Optional[tuple[Node, str, Node]]:
    """(snapshot, rule, tree to rewrite next); the last is the snapshot less
    any transient head marker."""
    if isinstance(tree, Lit) and tree.origin != "percent":
        return None
    if isinstance(tree, FractionLit) and not tree.reducible:
        return None

    fraction = mode == FRACTION
    sc = _scan(tree, fraction)

    for chain in sc.chains:
        if len(chain) > 2:
            snapshot, unmarked = _cancel_signs(tree, chain, fraction)
            return snapshot, R_SIGN, unmarked

    if sc.percent is not None:
        link, node, start, end = sc.percent
        value = numeric.percent_value(node.value)
        new = _edit(tree, link, _lit_from_value(value), start, end)
        return new, R_PERCENT, new

    # Work inside the deepest bracket group without inner groups first,
    # leftmost breaking ties (the leaves are in print order and the sort is
    # stable). A region can only fail to make progress when its
    # brackets are pinned as a power base, in which case the search cascades
    # outward to the whole tree and the power rule consumes the bracketed
    # literal directly.
    for region in sorted(sc.leaves, key=_DEPTH, reverse=True) + [sc.whole]:
        step = _region_step(tree, region)
        if step is not None:
            return (*step, step[0])

    raise NonTerminating(f"no rule applies to {_text_of(tree)!r}")


def _region_step(tree: Node, region: _Region) -> Optional[tuple[Node, str]]:
    """The region rules inside one innermost group, or anywhere in the whole tree."""
    group = region.node

    # reciprocal: division by a fraction literal, both sides already in lowest
    # terms (a computed fraction gets its simplify step first)
    if region.recip is not None:
        link, node, start, end = region.recip
        rhs = node.rhs
        recip = FractionLit(rhs.den if rhs.num > 0 else -rhs.den, abs(rhs.num), parens=True)
        return _edit(tree, link, Binary("*", node.lhs, recip), start, end), R_RECIPROCAL

    # binop: leftmost of the highest precedence tier with two literal operands
    if region.binop is not None:
        link, node, start, end, _, base = region.binop
        value = _apply(node, literal_value(base), literal_value(node.rhs))
        result = _binop_result_node(node.op, value, at_root=link is None)
        # A bracket whose content just became a single literal is absorbed in
        # the same step, unless the literal is negative and the bracket either
        # is not at the very start of the expression or is pinned as a power
        # base; those keep their brackets.
        if group is not None and node is group.inner:
            if isinstance(result, FractionLit):
                result = FractionLit(result.num, result.den, parens=True,
                                     reducible=result.reducible)
            elif _is_negative_literal(result) and (
                region.start != 0 or _pinned_by_power_base(region.link, result)
            ):
                return _edit(tree, link, result, start, end), R_BINOP
            return _edit(tree, region.link, result, region.start, region.end), R_BINOP
        return _edit(tree, link, result, start, end), R_BINOP

    # simplify: leftmost computed fraction not in lowest terms
    if region.frac is not None:
        link, node, start, end = region.frac
        reduced = numeric.reduce_fraction(Frac(node.num, node.den))
        parens = False if link is None else node.parens
        new = FractionLit(reduced.num, reduced.den, parens=parens)
        return _edit(tree, link, new, start, end), R_SIMPLIFY

    if group is not None and _is_operand(group.inner) \
            and not _pinned_by_power_base(region.link, group.inner):
        return _edit(tree, region.link, group.inner, region.start, region.end), R_UNGROUP

    return None


def direct_eval(e: Node, mode: str = "standard") -> Number:
    """Plain recursive evaluation; the oracle every trace must agree with."""
    if isinstance(e, Lit):
        if e.origin == "percent":
            return numeric.percent_value(e.value)
        return e.value
    if isinstance(e, FractionLit):
        return Frac(e.num, e.den)
    if isinstance(e, Unary):
        v = direct_eval(e.operand, mode)
        if e.op == "+":
            return v
        if isinstance(v, Frac):
            return Frac(-v.num, v.den)
        return -v
    if isinstance(e, Group):
        return direct_eval(e.inner, mode)
    if isinstance(e, Binary):
        return _apply(e, direct_eval(e.lhs, mode), direct_eval(e.rhs, mode))
    raise TypeError(f"cannot evaluate {e!r}")


def trace(e: Node, mode: str = "standard") -> StepTrace:
    """Iterate next_step to a literal; raises NonTerminating past the step bound."""
    bound = 4 * count_atomic_ops(e) + 4
    snapshots = [e]
    rules: list[str] = []
    cur = _strip_transient(e)
    while True:
        try:
            step = _next_step(cur, mode)
        except DivByZero as err:
            raise DivByZero(f"{err.detail} (step {len(rules)})") from None
        if step is None:
            break
        if len(rules) >= bound:
            raise NonTerminating(f"trace of {print_expr(e)!r} exceeded {bound} steps")
        nxt, rule, cur = step
        snapshots.append(nxt)
        rules.append(rule)
    final = literal_value(cur)
    return StepTrace(original=e, snapshots=snapshots, rules=rules, final=final, mode=mode)


def render_trace(t: StepTrace) -> str:
    return "=".join(print_expr(s) for s in t.snapshots)
