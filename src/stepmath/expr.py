"""Lexer, parser, and printer for the arithmetic surface language.

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
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from .errors import DepthExceeded, ExprSyntaxError
from .numeric import DIGIT_LIMIT, Frac, render

MAX_DEPTH = 16
# Signs and `^` exponents nested in one another, counted across brackets: with
# MAX_DEPTH groups around them, every walk of a tree fits the recursion limit.
MAX_RUN = 100

STANDARD = "standard"
FRACTION = "fraction"

_OPERATOR_KINDS = {
    "+": "plus",
    "-": "minus",
    "*": "star",
    "/": "slash",
    "^": "caret",
    "(": "lparen",
    ")": "rparen",
    "[": "lbracket",
    "]": "rbracket",
    "=": "equals",
    ".": "dot",
    "%": "percent",
}


class Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        self.kind = kind
        self.text = text
        self.offset = offset

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.offset})"


def lex(src: str) -> list[Token]:
    """Tokenize; concatenating token texts reproduces the input exactly."""
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if "0" <= c <= "9":  # ASCII digits only; the language has no others
            j = i + 1
            while j < n and "0" <= src[j] <= "9":
                j += 1
            if j - i > DIGIT_LIMIT:
                raise ExprSyntaxError(f"number of more than {DIGIT_LIMIT} digits", i)
            tokens.append(Token("digits", src[i:j], i))
            i = j
            continue
        kind = _OPERATOR_KINDS.get(c)
        if kind is None:
            raise ExprSyntaxError(f"unexpected character {c!r}", i)
        tokens.append(Token(kind, c, i))
        i += 1
    return tokens


class Node:
    """Base of the immutable tree nodes. ``_text`` caches the printed text:
    `print_expr` fills it, and the rewrite engine sets it on each snapshot
    root it builds, splicing it from the previous root's text. Each subclass
    clears it in its own constructor, without a base-class call, because every
    rewrite step builds a spine of new nodes."""

    __slots__ = ("_text",)


class Lit(Node):
    """A number literal: its value and its text. A percent literal's value is
    the number before the ``%`` (5483 for ``5483%``); ``percent`` is read off
    the text once, here, since a binop tests it on every operand."""

    __slots__ = ("value", "text", "percent")

    def __init__(self, value: Union[int, float], text: str):
        self._text = None
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
        self._text = None
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
        self._text = None
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
        self._text = None
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
        self._text = None
        self.kind = kind  # '(' or '['
        self.inner = inner

    def __eq__(self, other):
        return isinstance(other, Group) and self.kind == other.kind and self.inner == other.inner

    def __repr__(self):
        return f"Group({self.kind!r}, {self.inner!r})"


_CLOSERS = {"(": ")", "[": "]"}


def print_expr(e: Node) -> str:
    """Render a tree back to text. Structure is preserved, nothing is re-parenthesized."""
    cached = e._text
    if cached is not None:
        return cached
    if isinstance(e, (Lit, FractionLit)):
        s = e.text
    elif isinstance(e, Unary):
        s = e.op + print_expr(e.operand)
    elif isinstance(e, Chain):
        parts = [print_expr(e.operands[0])]
        for op, x in zip(e.ops, e.operands[1:]):
            parts.append(op)
            parts.append(x.text if x.__class__ is Lit else print_expr(x))
        s = "".join(parts)
    elif isinstance(e, Group):
        s = e.kind + print_expr(e.inner) + _CLOSERS[e.kind]
    else:  # pragma: no cover
        raise TypeError(f"unknown node {e!r}")
    e._text = s
    return s


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
    def __init__(self, src: str, tokens: list[Token], mode: str):
        self.src = src
        self.tokens = tokens
        self.mode = mode
        self.pos = 0
        self.depth = 0
        self.run = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.src))
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            offset = tok.offset if tok else len(self.src)
            raise ExprSyntaxError(f"expected {kind}", offset)
        return self.take()

    def parse(self) -> Node:
        e = self.parse_sum()
        tok = self.peek()
        if tok is not None:
            raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.offset)
        return e

    def parse_sum(self) -> Node:
        return self.parse_chain(("plus", "minus"), self.parse_term)

    def parse_term(self) -> Node:
        return self.parse_chain(("star", "slash"), self.parse_unary)

    def parse_chain(self, kinds: tuple, parse_operand) -> Node:
        """Operands joined by operators of `kinds`: one chain, or the lone
        operand when no such operator follows it."""
        ops = ""
        operands = [parse_operand()]
        tok = self.peek()
        while tok is not None and tok.kind in kinds:
            self.pos += 1
            ops += tok.text
            operands.append(parse_operand())
            tok = self.peek()
        return chain(ops, operands)

    def parse_unary(self) -> Node:
        tok = self.peek()
        if tok is not None and tok.kind in ("plus", "minus"):
            start = tok.offset
            self.take()
            operand = self.parse_nested(tok)
            if isinstance(operand, (Lit, FractionLit)):  # folds into the literal
                return signed(tok.text, operand, self.src[start:start + 1 + len(operand.text)])
            return Unary(tok.text, operand)
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        tok = self.peek()
        if tok is not None and tok.kind == "caret":
            self.take()
            # signed exponents parse; evaluation rejects them
            return chain("^", (base, self.parse_nested(tok)))
        return base

    def parse_nested(self, tok: Token) -> Node:
        """The operand of the sign or `^` token `tok`, one level deeper."""
        self.run += 1
        if self.run > MAX_RUN:
            raise DepthExceeded(tok.offset, MAX_RUN, "sign and exponent nesting")
        operand = self.parse_unary()
        self.run -= 1
        return operand

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.src))
        if tok.kind == "digits":
            return self.parse_number()
        if tok.kind in ("lparen", "lbracket"):
            if self.mode == FRACTION and tok.kind == "lparen":
                frac = self.try_fraction_literal()
                if frac is not None:
                    return frac
            return self.parse_group()
        raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.offset)

    def parse_number(self) -> Lit:
        first = self.expect("digits")
        text = first.text
        value: Union[int, float]
        if self.peek() is not None and self.peek().kind == "dot":
            dot = self.take()
            frac = self.expect("digits")
            text = first.text + dot.text + frac.text
            value = float(text)
        else:
            value = int(text)
        if self.peek() is not None and self.peek().kind == "percent":
            text += self.take().text
        return Lit(value, text)

    def try_fraction_literal(self) -> Optional[FractionLit]:
        # Matches '(' ['-'] digits '/' digits ')' without consuming on failure.
        toks = self.tokens
        i = self.pos
        j = i + 1
        sign = 1
        if j < len(toks) and toks[j].kind == "minus":
            sign = -1
            j += 1
        if not (j + 3 < len(toks)
                and toks[j].kind == "digits"
                and toks[j + 1].kind == "slash"
                and toks[j + 2].kind == "digits"
                and toks[j + 3].kind == "rparen"):
            return None
        value = Frac(sign * int(toks[j].text), int(toks[j + 2].text))
        start = toks[i].offset
        end = toks[j + 3].offset + 1
        self.pos = j + 4
        return FractionLit(value, self.src[start:end])

    def parse_group(self) -> Group:
        opener = self.take()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise DepthExceeded(opener.offset, MAX_DEPTH)
        inner = self.parse_sum()
        closer = "rparen" if opener.kind == "lparen" else "rbracket"
        tok = self.peek()
        if tok is None or tok.kind != closer:
            raise ExprSyntaxError(f"unbalanced {opener.text!r}", opener.offset)
        self.take()
        self.depth -= 1
        return Group(opener.text, inner)


def parse(src: str, mode: str = STANDARD) -> Node:
    if mode not in (STANDARD, FRACTION):
        raise ValueError(f"unknown parse mode {mode!r}")
    return _Parser(src, lex(src), mode).parse()


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
