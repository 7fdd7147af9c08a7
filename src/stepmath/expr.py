"""Tree, parser and printer for the arithmetic surface language.

Every literal holds its value and its text: a parsed one its source text, a
computed one the rendering of its value. The printer is lossless, so
``print_expr(parse(s, mode)) == s`` exactly. Two parse modes exist:

* ``standard`` -- ``/`` is division everywhere
* ``fraction`` -- ``(a/b)`` with integer parts is a rational literal; one
  with a zero denominator raises `DivByZero` as it is parsed

In both, a decimal literal past binary64's range raises `Dec64RangeError` as
it is parsed.

Grammar (precedence low to high): ``+ -`` < ``* /`` < unary sign < ``^``,
with ``^`` binding tighter than a unary sign on its left and taking a signed
exponent on its right. Equal precedence associates left: a run of ``+ -``
or of ``* /`` parses to one `Chain`, the left fold of its operands. Square
brackets are interchangeable with parentheses; the kind is preserved for
printing only. The parser walks one token list, numbers, fraction literals
and single characters: both chain tiers in one loop, an operand (signs, atom,
exponent) in one frame, a plain integer inline; only an error works out its
text offset.

`TIERS` is the operator table: the binary operators of each precedence tier,
lowest first. `TIER` maps an operator to its tier (1, 2 or 3).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .errors import DepthExceeded, ExprSyntaxError
from .numeric import DIGIT_LIMIT, Frac, decimal_value, render

MAX_DEPTH = 16
# Signs and `^` exponents nested in one another, counted across brackets: with
# MAX_DEPTH groups around them, every walk of a tree fits the recursion limit.
MAX_RUN = 100

STANDARD = "standard"
FRACTION = "fraction"

TIERS = ("+-", "*/", "^")
TIER = {op: tier for tier, ops in enumerate(TIERS, 1) for op in ops}

# The first character outside the language, or the first digit run too long
# to convert: a lexical error anywhere wins over any syntax error. No such run
# fits in a text of at most DIGIT_LIMIT characters, so those search for the
# character alone.
_BAD_CHARACTER = r"[^0-9+\-*/^()\[\]=.%]"
_LEXICAL_ERROR = re.compile(rf"{_BAD_CHARACTER}|(?<![0-9])[0-9]{{{DIGIT_LIMIT + 1}}}")
_SHORT_LEXICAL_ERROR = re.compile(_BAD_CHARACTER)
# A number (a `.` without digits after it is an error), in fraction mode a
# fraction literal, or any other character.
_NUMBER = r"[0-9]+(?:\.[0-9]*)?%?|."
_TOKENS = {STANDARD: re.compile(_NUMBER),
           FRACTION: re.compile(r"\(-?[0-9]+/[0-9]+\)|" + _NUMBER)}
_DIGITS = re.compile(r"[0-9]*")


class Node:
    """Base of the immutable tree nodes."""

    __slots__ = ()


@dataclass(init=False, slots=True)
class Lit(Node):
    """A number literal: its value and its text. A percent literal's value is
    the number before the ``%`` (5483 for ``5483%``); ``percent`` is read off
    the text once, here, since a binop tests it on every operand."""

    value: Union[int, float]
    text: str
    percent: bool = field(init=False, compare=False, repr=False)

    def __init__(self, value: Union[int, float], text: str):
        self.value = value
        self.text = text
        self.percent = text[-1] == "%"


@dataclass(init=False, slots=True)
class FractionLit(Node):
    """A rational literal: its value, a `Frac`, and its text. Built without a
    text, it prints as ``num/den``, in brackets if ``parens``. ``reducible``
    marks computed fractions awaiting an explicit reduction step; source
    literals are never flagged."""

    value: Frac
    text: str
    reducible: bool = field(compare=False)

    def __init__(self, value: Frac, text: Optional[str] = None,
                 parens: bool = True, reducible: bool = False):
        self.value = value
        if text is None:
            text = render(value)
            if parens:
                text = f"({text})"
        self.text = text
        self.reducible = reducible


@dataclass(slots=True)
class Unary(Node):
    op: str
    operand: Node


@dataclass(slots=True)
class Chain(Node):
    """A run of same-tier binary operators, ``operands[0] ops[0] operands[1]
    ...``, the left fold of its operands. ``ops`` is a string with one
    character per operator. A ``+ -`` or ``* /`` chain holds any number of
    operands (at least two); a ``^`` chain holds exactly two, since ``^``
    associates right and ``2^3^2`` is a power whose exponent is one."""

    ops: str
    operands: tuple


@dataclass(slots=True)
class Group(Node):
    kind: str  # '(' or '['
    inner: Node


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
    """Recursive descent over the tokens of `src`, from token `k`."""

    def __init__(self, src: str, mode: str):
        self.src = src
        self.tokens = _TOKENS[mode].findall(src) + [""]  # "" marks the end
        self.k = 0
        self.depth = 0
        self.run = 0

    def offset(self, k: int) -> int:
        """The text offset of token `k`."""
        return len("".join(self.tokens[:k]))

    def nest(self, k: int) -> None:
        """The sign or `^` at token `k` nests what follows one level deeper."""
        self.run += 1
        if self.run > MAX_RUN:
            raise DepthExceeded(self.offset(k), MAX_RUN, "sign and exponent nesting")

    def parse(self) -> Node:
        e = self.parse_chain()
        if self.tokens[self.k]:
            i = self.offset(self.k)
            lexeme = _DIGITS.match(self.src, i)[0] or self.src[i]
            raise ExprSyntaxError(f"trailing input {lexeme!r}", i)
        return e

    def parse_chain(self) -> Node:
        """Operands joined by ``+ -`` and ``* /``: a ``+ -`` chain of ``* /``
        chains, each the lone operand where no such operator follows it."""
        tokens = self.tokens
        k = self.k
        terms, term_ops = [], ""
        factors, ops = [], ""
        while True:
            token = tokens[k]
            if token.isdigit() and tokens[k + 1] != "^":  # a plain integer
                factors.append(Lit(int(token), token))
                k += 1
            else:
                self.k = k
                factors.append(self.parse_operand())
                k = self.k
            op = tokens[k]
            tier = TIER.get(op)
            if tier == 2:
                ops += op
            elif tier == 1:
                terms.append(Chain(ops, tuple(factors)) if ops else factors[0])
                term_ops += op
                factors, ops = [], ""
            else:
                break
            k += 1
        self.k = k
        terms.append(Chain(ops, tuple(factors)) if ops else factors[0])
        return chain(term_ops, terms)

    def parse_operand(self) -> Node:
        """Signs, an atom and the ``^`` exponent after it, itself an operand:
        ``^`` binds tighter than the signs, which fold into a literal."""
        tokens = self.tokens
        k = first = self.k
        token = tokens[k]
        while TIER.get(token) == 1:
            self.nest(k)
            k += 1
            token = tokens[k]
        signs = k - first
        if "0" <= token[:1] <= "9":
            number = token[:-1] if token[-1] == "%" else token
            if number[-1] == ".":
                raise ExprSyntaxError("expected digits", self.offset(k) + len(number))
            atom = Lit(decimal_value(number) if "." in number else int(number), token)
        elif len(token) > 1:  # a fraction literal
            num, den = token[1:-1].split("/")
            atom = FractionLit(Frac(int(num), int(den)), token)
        elif token in _CLOSERS:
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise DepthExceeded(self.offset(k), MAX_DEPTH)
            self.k = k + 1
            atom = Group(token, self.parse_chain())
            if tokens[self.k] != _CLOSERS[token]:
                raise ExprSyntaxError(f"unbalanced {token!r}", self.offset(k))
            self.depth -= 1
            k = self.k
        elif token:
            raise ExprSyntaxError(f"unexpected {token!r}", self.offset(k))
        else:
            raise ExprSyntaxError("unexpected end of input", self.offset(k))
        k += 1
        if tokens[k] == "^":
            # signed exponents parse; evaluation rejects them
            self.nest(k)
            self.k = k + 1
            atom = Chain("^", (atom, self.parse_operand()))
            self.run -= 1
            k = self.k
        self.k = k
        self.run -= signs
        for sign in reversed(tokens[first:first + signs]):
            if atom.__class__ is Lit or atom.__class__ is FractionLit:  # folds into the literal
                atom = signed(sign, atom, sign + atom.text)
            else:
                atom = Unary(sign, atom)
        return atom


def parse(src: str, mode: str = STANDARD) -> Node:
    if mode not in (STANDARD, FRACTION):
        raise ValueError(f"unknown parse mode {mode!r}")
    bad = (_SHORT_LEXICAL_ERROR if len(src) <= DIGIT_LIMIT else _LEXICAL_ERROR).search(src)
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
