"""Tree, parser and printer for the arithmetic surface language.

Every literal holds its value and its text: a parsed one its source text, a
computed one the rendering of its value. The printer is lossless, so
``print_expr(parse(s, mode)) == s`` exactly. Two parse modes exist:

* ``standard`` -- ``/`` is division everywhere
* ``fraction`` -- ``(a/b)`` with integer parts is a rational literal; one
  with a zero denominator raises `DivByZero` as it is parsed

Grammar (precedence low to high): ``+ -`` < ``* /`` < unary sign < ``^``,
with ``^`` binding tighter than a unary sign on its left and taking a signed
exponent on its right. Equal precedence associates left: a run of ``+ -``
or of ``* /`` parses to one `Chain`, the left fold of its operands. Square
brackets are interchangeable with parentheses; the kind is preserved for
printing only.

`TIERS` is the operator table: the binary operators of each precedence tier,
lowest first. `TIER` maps an operator to its tier (1, 2 or 3).
"""

from __future__ import annotations

import re
from typing import Iterator, Optional, Union

from .errors import DepthExceeded, ExprSyntaxError
from .numeric import DIGIT_LIMIT, Frac, render

MAX_DEPTH = 16
# Signs and `^` exponents nested in one another, counted across brackets: with
# MAX_DEPTH groups around them, every walk of a tree fits the recursion limit.
MAX_RUN = 100

STANDARD = "standard"
FRACTION = "fraction"

TIERS = ("+-", "*/", "^")
TIER = {op: tier for tier, ops in enumerate(TIERS, 1) for op in ops}

# The first character outside the language, or the first digit run too long
# to convert: a lexical error anywhere wins over any syntax error.
_LEXICAL_ERROR = re.compile(rf"[^0-9+\-*/^()\[\]=.%]|(?<![0-9])[0-9]{{{DIGIT_LIMIT + 1}}}")
_NUMBER = re.compile(r"([0-9]+(\.[0-9]*)?)%?")
_FRACTION_LITERAL = re.compile(r"\((-?[0-9]+)/([0-9]+)\)")
_DIGITS = re.compile(r"[0-9]*")


class Node:
    """Base of the immutable tree nodes."""

    __slots__ = ()


class Lit(Node):
    """A number literal: its value and its text. A percent literal's value is
    the number before the ``%`` (5483 for ``5483%``); ``percent`` is read off
    the text once, here, since a binop tests it on every operand."""

    __slots__ = ("value", "text", "percent")

    def __init__(self, value: Union[int, float], text: str):
        self.value = value
        self.text = text
        self.percent = text[-1] == "%"

    def __eq__(self, other):
        return isinstance(other, Lit) and self.value == other.value and self.text == other.text

    def __repr__(self):
        return f"Lit({self.text!r})"


class FractionLit(Node):
    """A rational literal: its value, a `Frac`, and its text. Built without a
    text, it prints as ``num/den``, in brackets if ``parens``. ``reducible``
    marks computed fractions awaiting an explicit reduction step; source
    literals are never flagged."""

    __slots__ = ("value", "text", "reducible")

    def __init__(self, value: Frac, text: Optional[str] = None,
                 parens: bool = True, reducible: bool = False):
        self.value = value
        if text is None:
            text = render(value)
            if parens:
                text = f"({text})"
        self.text = text
        self.reducible = reducible

    def __eq__(self, other):
        return (
            isinstance(other, FractionLit)
            and self.value == other.value
            and self.text == other.text
        )

    def __repr__(self):
        return f"FractionLit({self.text!r})"


class Unary(Node):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Node):
        self.op = op
        self.operand = operand

    def __eq__(self, other):
        return isinstance(other, Unary) and self.op == other.op and self.operand == other.operand

    def __repr__(self):
        return f"Unary({self.op!r}, {self.operand!r})"


class Chain(Node):
    """A run of same-tier binary operators, ``operands[0] ops[0] operands[1]
    ...``, the left fold of its operands. ``ops`` is a string with one
    character per operator. A ``+ -`` or ``* /`` chain holds any number of
    operands (at least two); a ``^`` chain holds exactly two, since ``^``
    associates right and ``2^3^2`` is a power whose exponent is one."""

    __slots__ = ("ops", "operands")

    def __init__(self, ops: str, operands: tuple):
        self.ops = ops
        self.operands = operands

    def __eq__(self, other):
        return (
            isinstance(other, Chain)
            and self.ops == other.ops
            and self.operands == other.operands
        )

    def __repr__(self):
        return f"Chain({self.ops!r}, {self.operands!r})"


class Group(Node):
    __slots__ = ("kind", "inner")

    def __init__(self, kind: str, inner: Node):
        self.kind = kind  # '(' or '['
        self.inner = inner

    def __eq__(self, other):
        return isinstance(other, Group) and self.kind == other.kind and self.inner == other.inner

    def __repr__(self):
        return f"Group({self.kind!r}, {self.inner!r})"


_CLOSERS = {"(": ")", "[": "]"}


def print_expr(e: Node) -> str:
    """Render a tree back to text. Structure is preserved, nothing is re-parenthesized."""
    cls = e.__class__
    if cls is Lit or cls is FractionLit:
        return e.text
    if cls is Chain:
        parts = [print_expr(e.operands[0])]
        for op, x in zip(e.ops, e.operands[1:]):
            parts.append(op)
            parts.append(x.text if x.__class__ is Lit else print_expr(x))
        return "".join(parts)
    if cls is Unary:
        return e.op + print_expr(e.operand)
    if cls is Group:
        return e.kind + print_expr(e.inner) + _CLOSERS[e.kind]
    raise TypeError(f"unknown node {e!r}")  # pragma: no cover


def chain(ops: str, operands) -> Node:
    """`operands` joined by `ops` as one chain; a lone operand is itself."""
    return Chain(ops, tuple(operands)) if ops else operands[0]


def count_atomic_ops(e: Node) -> int:
    """Number of binary operations; unary signs and literals do not count."""
    return sum(len(n.ops) for n in iter_nodes(e) if isinstance(n, Chain))


def signed(op: str, lit: Node, text: Optional[str] = None) -> Node:
    """The literal ``op lit``, for the sign `op` and a `Lit` or `FractionLit`.
    `text` is its written form; by default it is the rendering of its value,
    with the ``%`` or the brackets of `lit`."""
    value = lit.value if op == "+" else -lit.value
    if lit.__class__ is Lit:
        if text is None:
            text = render(value) + "%" if lit.percent else render(value)
        return Lit(value, text)
    return FractionLit(value, text, lit.text[-1] == ")", lit.reducible)


class _Parser:
    """Recursive descent over the characters of `src`, from index `i`."""

    def __init__(self, src: str, mode: str):
        self.src = src
        self.mode = mode
        self.i = 0
        self.depth = 0
        self.run = 0

    def peek(self) -> str:
        """The next character, or "" at the end."""
        return self.src[self.i:self.i + 1]

    def parse(self) -> Node:
        e = self.parse_chain(1)
        i = self.i
        if i < len(self.src):
            lexeme = _DIGITS.match(self.src, i)[0] or self.src[i]
            raise ExprSyntaxError(f"trailing input {lexeme!r}", i)
        return e

    def parse_chain(self, tier: int) -> Node:
        """Operands joined by the operators of tier 1 (``+ -``) or 2 (``* /``):
        one chain, or the lone operand when no such operator follows it."""
        ops = ""
        operands = [self.parse_chain(2) if tier == 1 else self.parse_unary()]
        op = self.peek()
        while TIER.get(op) == tier:
            self.i += 1
            ops += op
            operands.append(self.parse_chain(2) if tier == 1 else self.parse_unary())
            op = self.peek()
        return chain(ops, operands)

    def parse_unary(self) -> Node:
        op = self.peek()
        if TIER.get(op) == 1:
            start = self.i
            self.i += 1
            operand = self.parse_nested(start)
            if isinstance(operand, (Lit, FractionLit)):  # folds into the literal
                return signed(op, operand, self.src[start:start + 1 + len(operand.text)])
            return Unary(op, operand)
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        if self.peek() == "^":
            self.i += 1
            # signed exponents parse; evaluation rejects them
            return chain("^", (base, self.parse_nested(self.i - 1)))
        return base

    def parse_nested(self, offset: int) -> Node:
        """The operand of the sign or `^` at `offset`, one level deeper."""
        self.run += 1
        if self.run > MAX_RUN:
            raise DepthExceeded(offset, MAX_RUN, "sign and exponent nesting")
        operand = self.parse_unary()
        self.run -= 1
        return operand

    def parse_atom(self) -> Node:
        c = self.peek()
        if not c:
            raise ExprSyntaxError("unexpected end of input", self.i)
        if "0" <= c <= "9":
            return self.parse_number()
        if c in _CLOSERS:
            if self.mode == FRACTION and c == "(":
                m = _FRACTION_LITERAL.match(self.src, self.i)
                if m is not None:
                    self.i = m.end()
                    return FractionLit(Frac(int(m[1]), int(m[2])), m[0])
            return self.parse_group()
        raise ExprSyntaxError(f"unexpected {c!r}", self.i)

    def parse_number(self) -> Lit:
        m = _NUMBER.match(self.src, self.i)
        number, decimals = m.groups()
        if decimals == ".":
            raise ExprSyntaxError("expected digits", m.start(2) + 1)
        self.i = m.end()
        return Lit(float(number) if decimals else int(number), m[0])

    def parse_group(self) -> Group:
        start = self.i
        opener = self.src[start]
        self.i += 1
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise DepthExceeded(start, MAX_DEPTH)
        inner = self.parse_chain(1)
        if self.peek() != _CLOSERS[opener]:
            raise ExprSyntaxError(f"unbalanced {opener!r}", start)
        self.i += 1
        self.depth -= 1
        return Group(opener, inner)


def parse(src: str, mode: str = STANDARD) -> Node:
    if mode not in (STANDARD, FRACTION):
        raise ValueError(f"unknown parse mode {mode!r}")
    bad = _LEXICAL_ERROR.search(src)
    if bad is not None:
        if len(bad[0]) == 1:
            raise ExprSyntaxError(f"unexpected character {bad[0]!r}", bad.start())
        raise ExprSyntaxError(f"number of more than {DIGIT_LIMIT} digits", bad.start())
    return _Parser(src, mode).parse()


def iter_nodes(e: Node) -> Iterator[Node]:
    """Pre-order traversal in print order."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Chain):
            stack.extend(reversed(node.operands))
        elif isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, Group):
            stack.append(node.inner)
