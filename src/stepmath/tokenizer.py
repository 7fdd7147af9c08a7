"""Digit-level tokenizer with a fixed published vocabulary.

Every character is one token; a record is prefixed with the leading marker
``_``. Twenty of the ids below are pinned by published examples and must never
change; the remaining few never appear in those examples and are assigned
free ids nearby, flagged ``inferred`` (or ``artifact`` for the pad token) so
they are not mistaken for published ground truth.
"""

from __future__ import annotations

import json
import re
from typing import Iterable

from .errors import UnknownId, UnknownSymbol

MARKER = "_"
PAD = "<pad>"

VOCAB_FORMAT_VERSION = 1

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
    """Immutable bidirectional symbol/id map."""

    def __init__(self, entries=None):
        entries = list(_ENTRIES if entries is None else entries)
        self._id_of = {}
        self._sym_of = {}
        self.provenance = {}
        for sym, tid, prov in entries:
            if sym in self._id_of or tid in self._sym_of:
                raise ValueError(f"duplicate vocabulary entry: {sym!r}/{tid}")
            self._id_of[sym] = tid
            self._sym_of[tid] = sym
            self.provenance[sym] = prov
        self.marker_id = self._id_of[MARKER]
        self.pad_id = self._id_of[PAD]
        # Lookup tables for encode and decode: the marker and pad are never
        # record text, so encode cannot find them and decode drops them.
        self._encode_id = {s: t for s, t in self._id_of.items() if s not in (MARKER, PAD)}
        self._decode_sym = {**self._sym_of, self.marker_id: "", self.pad_id: ""}
        # finds the first character of a text that encode cannot encode
        self.unknown_symbol = re.compile("[^" + re.escape("".join(self._encode_id)) + "]")

    def id_of(self, symbol: str) -> int:
        return self._id_of[symbol]

    def __len__(self):
        return len(self._id_of)

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

    def to_json(self) -> str:
        return json.dumps(
            {
                "format_version": VOCAB_FORMAT_VERSION,
                "entries": [
                    {"symbol": sym, "id": tid, "provenance": self.provenance[sym]}
                    for sym, tid in sorted(self._id_of.items(), key=lambda kv: kv[1])
                ],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "Vocab":
        data = json.loads(text)
        if data.get("format_version") != VOCAB_FORMAT_VERSION:
            raise ValueError(f"unsupported vocab format: {data.get('format_version')}")
        return cls([(e["symbol"], e["id"], e["provenance"]) for e in data["entries"]])


DEFAULT_VOCAB = Vocab()


def encode(text: str) -> list[int]:
    return DEFAULT_VOCAB.encode(text)


def decode(ids: Iterable[int]) -> str:
    return DEFAULT_VOCAB.decode(ids)
