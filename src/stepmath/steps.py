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
reciprocal, binop, simplify, ungroup. All trees are immutable; each step
rebuilds only the spine above the rewritten nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _replace(tree: Node, link: Optional[tuple], new: Node) -> Node:
    """Rebuild the spine above `link` with `new` in its place, folding any sign
    that the rewrite leaves sitting directly on a literal."""
    path = []
    while link is not None:
        link, _, attr = link
        path.append(attr)
    return _descend(tree, path, new)


def _descend(node: Node, path: list, new: Node) -> Node:
    if not path:
        return new
    attr = path.pop()
    child = _descend(getattr(node, attr), path, new)
    if node.__class__ is Binary:
        if attr == "lhs":
            return Binary(node.op, child, node.rhs)
        return Binary(node.op, node.lhs, child)
    if node.__class__ is Group:
        return Group(node.kind, child)
    u = Unary(node.op, child, transient=node.transient)
    if not u.transient and isinstance(child, (Lit, FractionLit)):
        return fold_signed_literal(u)
    return u


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


def _is_plain_literal(node: Node) -> bool:
    if isinstance(node, Lit):
        return node.origin != "percent"
    return isinstance(node, FractionLit)


def _is_negative_literal(node: Node) -> bool:
    if isinstance(node, Lit):
        return node.text.startswith("-")
    if isinstance(node, FractionLit):
        return node.num < 0
    return False


# ---------------------------------------------------------------------------
# one walk collects everything the rules need


class _Group:
    """A bracket group: its position, nesting depth, and whether it holds
    another group."""

    __slots__ = ("node", "link", "offset", "depth", "has_inner")

    def __init__(self, node: Group, link: Optional[tuple], offset: int, depth: int):
        self.node = node
        self.link = link
        self.offset = offset
        self.depth = depth
        self.has_inner = False


class _Scan:
    __slots__ = ("chains", "percent", "groups", "binops", "red_fracs")

    def __init__(self):
        self.chains: list[list[tuple]] = []  # per mul/div chain: (link, factor), left to right
        self.percent: Optional[tuple] = None  # (link, node), leftmost
        self.groups: list[_Group] = []
        self.binops: list[tuple] = []  # (link, node, op_offset, innermost _Group or None)
        self.red_fracs: list[tuple] = []  # (link, node, innermost _Group or None), print order


def _scan(tree: Node, fraction: bool) -> _Scan:
    """One walk in print order.

    Mul/div chains are flattened to their factors. In fraction mode a chain
    sees through brackets whose content is itself a mul/div chain, so a sign
    inside a bracketed product cancels one outside.
    """
    sc = _Scan()

    def rec(node, link, offset, group, chain):
        # returns the offset just past the node's printed text
        cls = node.__class__
        if cls is Binary:
            if node.op in "*/":
                if chain is None:
                    chain = []
                    sc.chains.append(chain)
            elif chain is not None:
                chain.append((link, node))
                chain = None
            end = rec(node.lhs, (link, node, "lhs"), offset, group, chain)
            sc.binops.append((link, node, end, group))
            return rec(node.rhs, (link, node, "rhs"), end + 1, group, chain)
        if cls is Group:
            inner = node.inner
            if chain is not None and not (
                fraction and inner.__class__ is Binary and inner.op in "*/"
            ):
                chain.append((link, node))
                chain = None
            g = _Group(node, link, offset, 0 if group is None else group.depth + 1)
            if group is not None:
                group.has_inner = True
            sc.groups.append(g)
            return rec(inner, (link, node, "inner"), offset + 1, g, chain) + 1
        if chain is not None:
            chain.append((link, node))
        if cls is Unary:
            return rec(node.operand, (link, node, "operand"), offset + 1, group, None)
        if cls is Lit:
            if node.origin == "percent" and sc.percent is None:
                sc.percent = (link, node)
            return offset + len(node.text)
        if node.reducible:
            sc.red_fracs.append((link, node, group))
        return offset + len(print_expr(node))

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


def _is_marked(node: Node) -> bool:
    if isinstance(node, Unary):
        return node.op == "-" and not node.transient
    return _is_negative_literal(node)


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


def _cancel_signs(tree: Node, chains: list, fraction: bool) -> Optional[tuple[Node, Node]]:
    """Strip the first two negative factors of the leftmost mul/div chain that
    carries at least two. Returns the snapshot and the tree to rewrite next,
    which differ when fraction mode marks the chain head with a transient `+`."""
    for factors in chains:
        marked = [i for i, (_, f) in enumerate(factors) if _is_marked(f)]
        if len(marked) < 2:
            continue
        # factors are disjoint, so one edit leaves the others' positions intact
        for i in marked[:2]:
            link, factor = factors[i]
            tree = _replace(tree, link, _strip_sign(factor))
        if fraction and marked[0] != 0:
            link, head = factors[0]
            return _replace(tree, link, Unary("+", head, transient=True)), tree
        return tree, tree
    return None


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

    cancelled = _cancel_signs(tree, sc.chains, fraction)
    if cancelled is not None:
        snapshot, unmarked = cancelled
        return snapshot, R_SIGN, unmarked

    if sc.percent is not None:
        link, node = sc.percent
        value = numeric.percent_value(node.value)
        new = _replace(tree, link, _lit_from_value(value))
        return new, R_PERCENT, new

    # Work inside the deepest bracket group without inner groups first,
    # leftmost breaking ties. A region can only fail to make progress when its
    # brackets are pinned as a power base, in which case the search cascades
    # outward to the whole tree and the power rule consumes the bracketed
    # literal directly.
    regions = sorted((g for g in sc.groups if not g.has_inner),
                     key=lambda g: (-g.depth, g.offset))
    for group in regions + [None]:
        step = _region_step(tree, sc, group)
        if step is not None:
            return (*step, step[0])

    raise NonTerminating(f"no rule applies to {print_expr(tree)!r}")


def _power_base_literal(node: Node) -> Optional[Node]:
    """The literal a power may read through its base bracket, if any."""
    if isinstance(node, Group) and _is_plain_literal(node.inner):
        inner = node.inner
        if not (isinstance(inner, FractionLit) and inner.reducible):
            return inner
    return None


def _region_step(tree: Node, sc: _Scan, group: Optional[_Group]) -> Optional[tuple[Node, str]]:
    """The region rules inside one innermost group, or anywhere when group is None."""
    binops = [b for b in sc.binops if group is None or b[3] is group]

    # reciprocal: division by a fraction literal, both sides already in lowest
    # terms (a computed fraction gets its simplify step first)
    best = None
    for link, node, op_off, _ in binops:
        if node.op != "/":
            continue
        lhs, rhs = node.lhs, node.rhs
        if not (isinstance(lhs, FractionLit) and isinstance(rhs, FractionLit)):
            continue
        if lhs.reducible or rhs.reducible:
            continue
        if best is None or op_off < best[0]:
            best = (op_off, link, node)
    if best is not None:
        _, link, node = best
        rhs = node.rhs
        recip = FractionLit(rhs.den if rhs.num > 0 else -rhs.den, abs(rhs.num), parens=True)
        return _replace(tree, link, Binary("*", node.lhs, recip)), R_RECIPROCAL

    # binop: leftmost of the highest precedence tier with two literal operands
    best = None
    for link, node, op_off, _ in binops:
        lhs, rhs = node.lhs, node.rhs
        if node.op == "^" and _power_base_literal(lhs) is not None:
            lhs = _power_base_literal(lhs)
        if not (_is_plain_literal(lhs) and _is_plain_literal(rhs)):
            continue
        lhs_frac = isinstance(lhs, FractionLit)
        rhs_frac = isinstance(rhs, FractionLit)
        if (lhs_frac and lhs.reducible) or (rhs_frac and rhs.reducible):
            continue
        if node.op == "/" and lhs_frac and rhs_frac:
            continue  # fraction division goes through the reciprocal rule
        key = (-_TIER[node.op], op_off)
        if best is None or key < best[0]:
            best = (key, link, node, lhs)
    if best is not None:
        _, link, node, lhs = best
        value = _apply(node, literal_value(lhs), literal_value(node.rhs))
        result = _binop_result_node(node.op, value, at_root=link is None)
        # A bracket whose content just became a single literal is absorbed in
        # the same step, unless the literal is negative and the bracket either
        # is not at the very start of the expression or is pinned as a power
        # base; those keep their brackets.
        if group is not None and node is group.node.inner:
            if isinstance(result, FractionLit):
                result = FractionLit(result.num, result.den, parens=True,
                                     reducible=result.reducible)
                return _replace(tree, group.link, result), R_BINOP
            if _is_negative_literal(result) and (
                group.offset != 0 or _pinned_by_power_base(group.link, result)
            ):
                return _replace(tree, link, result), R_BINOP
            return _replace(tree, group.link, result), R_BINOP
        return _replace(tree, link, result), R_BINOP

    # simplify: leftmost computed fraction not in lowest terms
    for link, node, frac_group in sc.red_fracs:
        if group is not None and frac_group is not group:
            continue
        reduced = numeric.reduce_fraction(Frac(node.num, node.den))
        parens = False if link is None else node.parens
        return (
            _replace(tree, link, FractionLit(reduced.num, reduced.den, parens=parens)),
            R_SIMPLIFY,
        )

    if group is not None and _is_plain_literal(group.node.inner) \
            and not _pinned_by_power_base(group.link, group.node.inner):
        return _replace(tree, group.link, group.node.inner), R_UNGROUP

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
