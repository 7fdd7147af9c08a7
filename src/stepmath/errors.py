"""Exception types shared across the package."""


class StepmathError(Exception):
    """Base class for all package errors."""


class MathError(StepmathError):
    """Arithmetic failure while evaluating an expression."""


class DivByZero(MathError):
    def __init__(self, detail: str = "division by zero"):
        super().__init__(detail)
        self.detail = detail


class UnsupportedExponent(MathError):
    """Exponentiation outside the supported domain (non-negative integer powers)."""


class Dec64RangeError(MathError):
    """A binary64 operation produced NaN or infinity."""


class RenderOverflow(MathError):
    """A value too large to print: a binary64 with no plain positional form
    (|x| >= 1e21), or an integer of more than 4300 digits."""


class ExprSyntaxError(StepmathError):
    """Malformed expression text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DepthExceeded(ExprSyntaxError):
    def __init__(self, offset: int, limit: int, what: str = "bracket nesting"):
        super().__init__(f"{what} deeper than {limit}", offset)
        self.limit = limit


class NonTerminating(StepmathError):
    """The rewrite engine exceeded its step bound; indicates a rule bug."""


class UnknownSymbol(StepmathError):
    def __init__(self, symbol: str, offset: int):
        super().__init__(f"symbol {symbol!r} at offset {offset} is not in the vocabulary")
        self.symbol = symbol
        self.offset = offset


class UnknownId(StepmathError):
    def __init__(self, token_id: int):
        super().__init__(f"token id {token_id} is not in the vocabulary")
        self.token_id = token_id


class RecordTooLong(StepmathError):
    """A record of more ids than a block holds; the message starts with where."""

    def __init__(self, line_no: int, length: int, block_length: int, path: str = ""):
        where = f"{path}:{line_no}" if path else f"line {line_no}"
        super().__init__(f"{where}: record tokenizes to {length} ids, "
                         f"longer than block length {block_length}")
        self.line_no = line_no
        self.length = length
        self.block_length = block_length


class MalformedInput(StepmathError):
    """An input file that breaks its documented format. The message starts with
    where: `path:line` for a text file, the byte offset for a pack file."""


class EquationParseError(StepmathError):
    """A word-problem equation did not parse."""


class AnswerMismatch(StepmathError):
    """A word-problem equation does not evaluate to its stored answer."""
