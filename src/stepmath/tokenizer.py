"""Digit-level tokenizer with a fixed published vocabulary.

Every character is one token; a record is prefixed with the leading marker
``_``. Twenty of the ids below are pinned by published examples and must never
change; the remaining few never appear in those examples and are assigned
free ids nearby, flagged ``inferred`` (or ``artifact`` for the pad token) so
they are not mistaken for published ground truth. Every table of the
vocabulary is built here, and ``low_bytes`` is the one check of record text.
"""

from __future__ import annotations

from typing import Iterable

from .errors import UnknownId, UnknownSymbol

MARKER = "_"
PAD = "<pad>"

# (symbol, id, provenance)
_ENTRIES = [
    (PAD, 20000, "artifact"),
    (MARKER, 20005, "verified"),
    ("0", 20006, "inferred"),
    (".", 20007, "verified"),
    ("1", 20009, "verified"),
    ("2", 20010, "verified"),
    ("-", 20011, "verified"),
    ("9", 20012, "inferred"),
    ("3", 20013, "verified"),
    (")", 20014, "verified"),
    ("5", 20015, "verified"),
    ("4", 20016, "verified"),
    ("^", 20017, "inferred"),
    ("(", 20020, "verified"),
    ("6", 20021, "verified"),
    ("8", 20023, "verified"),
    ("7", 20025, "verified"),
    ("/", 20026, "verified"),
    ("*", 20032, "verified"),
    ("%", 20040, "verified"),
    ("]", 20042, "verified"),
    ("[", 20052, "verified"),
    ("=", 20054, "verified"),
    ("+", 20065, "verified"),
]


# Every id is 0x4E00 plus a distinct low byte (so it prints as five digits),
# and every symbol but the pad is one ASCII character, so text goes to ids and
# back through byte translate tables. Checked at import: a vocabulary edit
# that breaks this fails here rather than writing wrong bytes.
HIGH = 0x4E
_LOW = {sym: tid & 0xFF for sym, tid, _ in _ENTRIES}
if len(set(_LOW.values())) != len(_LOW) or any(tid >> 8 != HIGH for _, tid, _ in _ENTRIES) \
        or not all(len(sym) == 1 and sym.isascii() for sym in _LOW if sym != PAD):
    raise AssertionError("every token id must be 0x4E00 plus a distinct low byte, "
                         "and every symbol but the pad a single ASCII character")
PAD_LOW, MARKER_LOW = bytes([_LOW[PAD]]), bytes([_LOW[MARKER]])
# a record symbol's byte to its low byte, any other byte to the pad's; and a
# low byte to its record symbol's byte, the marker's to "\n", any other to 0xFF
_SYMBOL_TO_LOW, LOW_TO_SYMBOL = bytearray(PAD_LOW * 256), bytearray(b"\xff" * 256)
for _sym in _LOW.keys() - {MARKER, PAD}:
    _SYMBOL_TO_LOW[ord(_sym)], LOW_TO_SYMBOL[_LOW[_sym]] = _LOW[_sym], ord(_sym)
LOW_TO_SYMBOL[_LOW[MARKER]] = ord("\n")
_ID_OF_LOW = [(HIGH << 8) + low for low in range(256)]
# per decimal digit place, a low byte to that digit of its id
_DIGITS = [bytes(ord(str(tid)[place]) for tid in _ID_OF_LOW) for place in range(5)]


def low_bytes(text: str) -> bytes:
    """The low byte of each symbol of record text, or UnknownSymbol for the
    first symbol outside the vocabulary: all characters before the first pad
    byte are one-byte record symbols, so its offset counts characters."""
    low = text.encode(errors="surrogatepass").translate(_SYMBOL_TO_LOW)
    offset = low.find(PAD_LOW)
    if offset >= 0:
        raise UnknownSymbol(text[offset], offset)
    return low


def id_text(low: bytes) -> str:
    """The ids of the record of low bytes `low`, the marker's first, as
    tokenize prints them: five digits and a space each, the last space a line
    end. Each digit place is one strided write, as packing fills a block."""
    low = MARKER_LOW + low
    text = bytearray(b" ") * (6 * len(low))
    for place, digits in enumerate(_DIGITS):
        text[place::6] = low.translate(digits)
    text[-1] = ord("\n")
    return text.decode("ascii")


class Vocab:
    """The symbol/id map of _ENTRIES, both ways."""

    def __init__(self):
        self.provenance = {sym: prov for sym, _, prov in _ENTRIES}
        self.marker_id, self.pad_id = self.id_of(MARKER), self.id_of(PAD)
        # the marker and pad are never record text, so decode drops them
        self._decode_sym = {tid: "" if sym in (MARKER, PAD) else sym for sym, tid, _ in _ENTRIES}

    def id_of(self, symbol: str) -> int:
        return (HIGH << 8) + _LOW[symbol]

    def encode(self, text: str) -> list[int]:
        """One id per character, preceded by the record marker."""
        return [self.marker_id, *map(_ID_OF_LOW.__getitem__, low_bytes(text))]

    def decode(self, ids: Iterable[int]) -> str:
        """Inverse of encode; marker and pad ids contribute nothing."""
        try:
            return "".join(map(self._decode_sym.__getitem__, ids))
        except KeyError as err:
            raise UnknownId(err.args[0]) from None


DEFAULT_VOCAB = Vocab()


def encode(text: str) -> list[int]:
    return DEFAULT_VOCAB.encode(text)
