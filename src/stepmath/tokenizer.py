"""Digit-level tokenizer with a fixed published vocabulary.

Every character is one token; a record is prefixed with the leading marker
``_``. Twenty of the ids below are pinned by published examples and must never
change; the remaining few never appear in those examples and are assigned
free ids nearby, flagged ``inferred`` (or ``artifact`` for the pad token) so
they are not mistaken for published ground truth.
"""

from __future__ import annotations

import re
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


class Vocab:
    """The symbol/id map of _ENTRIES, both ways."""

    def __init__(self):
        self._id_of = {sym: tid for sym, tid, _ in _ENTRIES}
        self.provenance = {sym: prov for sym, _, prov in _ENTRIES}
        self.marker_id = self._id_of[MARKER]
        self.pad_id = self._id_of[PAD]
        # Lookup tables for encode and decode: the marker and pad are never
        # record text, so encode cannot find them and decode drops them.
        self._encode_id = {s: t for s, t in self._id_of.items() if s not in (MARKER, PAD)}
        self._decode_sym = {tid: sym for sym, tid in self._id_of.items()}
        self._decode_sym.update({self.marker_id: "", self.pad_id: ""})
        # finds the first character of a text that encode cannot encode
        self.unknown_symbol = re.compile("[^" + re.escape("".join(self._encode_id)) + "]")

    def id_of(self, symbol: str) -> int:
        return self._id_of[symbol]

    def encode(self, text: str) -> list[int]:
        """One id per character, preceded by the record marker."""
        try:
            return [self.marker_id, *map(self._encode_id.__getitem__, text)]
        except KeyError as err:
            # map stops at the first unknown symbol, so this is its first offset
            symbol = err.args[0]
            raise UnknownSymbol(symbol, text.index(symbol)) from None

    def decode(self, ids: Iterable[int]) -> str:
        """Inverse of encode; marker and pad ids contribute nothing."""
        try:
            return "".join(map(self._decode_sym.__getitem__, ids))
        except KeyError as err:
            raise UnknownId(err.args[0]) from None


DEFAULT_VOCAB = Vocab()


def encode(text: str) -> list[int]:
    return DEFAULT_VOCAB.encode(text)
