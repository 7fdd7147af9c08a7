"""Fixed-length sequence packing for tokenized records.

Whole tokenized records are appended greedily to a block until the next one
would overflow; the remainder is padded. Records are never split, and every
record starts with the tokenizer's marker id, which is what makes unpacking
unambiguous.

Block file layout: 16-byte header (magic, version, block length, block count,
all little-endian u32 apart from the 4-byte magic) followed by the blocks as
little-endian u32 ids.
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO, Iterable, Iterator

from .errors import MalformedInput, RecordTooLong
from .tokenizer import DEFAULT_VOCAB

MAGIC = b"SMPK"
PACK_VERSION = 1
_HEADER = struct.Struct("<4sIII")
# Most ids in one block (4 MiB in the file): a block is read and written
# whole, so this bounds the memory one block takes.
MAX_BLOCK_LENGTH = 1 << 20


def pack_sequences(lines: Iterable[str], block_length: int, out: BinaryIO) -> int:
    """Pack records into fixed blocks; returns the number of blocks written.
    Each line is encoded and checked before the next is pulled, so a caller
    streaming `lines` knows which one a RecordTooLong is about. `out` must be
    seekable, since the block count is written last; an unseekable `out` is
    refused before anything is written to it."""
    if not 2 <= block_length <= MAX_BLOCK_LENGTH:
        raise ValueError(f"block length must be from 2 to {MAX_BLOCK_LENGTH}")
    if not out.seekable():
        name = getattr(out, "name", "pack output")
        raise io.UnsupportedOperation(f"{name}: a pack file needs a seekable output, "
                                      "since its block count is written last")
    out.write(_HEADER.pack(MAGIC, PACK_VERSION, block_length, 0))

    pad = DEFAULT_VOCAB.pad_id
    block: list[int] = []
    count = 0

    def flush():
        nonlocal block, count
        if not block:
            return
        block.extend([pad] * (block_length - len(block)))
        out.write(struct.pack(f"<{block_length}I", *block))
        block = []
        count += 1

    for line_no, line in enumerate(lines, start=1):
        ids = DEFAULT_VOCAB.encode(line)
        if len(ids) > block_length:
            raise RecordTooLong(line_no, len(ids), block_length)
        if len(block) + len(ids) > block_length:
            flush()
        block.extend(ids)
    flush()

    out.seek(0)
    out.write(_HEADER.pack(MAGIC, PACK_VERSION, block_length, count))
    out.seek(0, 2)
    return count


def iter_blocks(f: BinaryIO) -> Iterator[list[int]]:
    """The blocks of a pack file as id lists; raises MalformedInput, naming
    the byte offset, on a short header, a bad magic, version or block length
    (below 2 or above MAX_BLOCK_LENGTH), a cut-off block, or bytes past the
    last block."""
    name = getattr(f, "name", "pack file")
    header = f.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise MalformedInput(f"{name}: header ends at byte offset {len(header)} "
                             f"of {_HEADER.size}")
    magic, version, block_length, count = _HEADER.unpack(header)
    if magic != MAGIC:
        raise MalformedInput(f"{name}: bad magic {magic!r} at byte offset 0")
    if version != PACK_VERSION:
        raise MalformedInput(f"{name}: unsupported pack version {version} at byte offset 4")
    if not 2 <= block_length <= MAX_BLOCK_LENGTH:
        raise MalformedInput(f"{name}: block length {block_length} at byte offset 8 "
                             f"is not from 2 to {MAX_BLOCK_LENGTH}")
    block = struct.Struct(f"<{block_length}I")
    for k in range(count):
        raw = f.read(block.size)
        if len(raw) < block.size:
            offset = _HEADER.size + k * block.size + len(raw)
            raise MalformedInput(f"{name}: block {k} of {count} ends at byte offset "
                                 f"{offset}, {block.size - len(raw)} bytes short")
        yield list(block.unpack(raw))
    if f.read(1):
        raise MalformedInput(f"{name}: bytes past the last of {count} blocks at byte offset "
                             f"{_HEADER.size + count * block.size}")


def _index(block: list[int], tid: int, start: int, end: int) -> int:
    """Position of the first tid in block[start:end], or end."""
    try:
        return block.index(tid, start, end)
    except ValueError:
        return end


def unpack_sequences(f: BinaryIO) -> Iterator[str]:
    """Recover the original record stream from a packed block file."""
    marker, pad = DEFAULT_VOCAB.marker_id, DEFAULT_VOCAB.pad_id
    for block in iter_blocks(f):
        # records, each led by the marker, then padding; ids before the first
        # marker belong to no record
        end = _index(block, pad, 0, len(block))
        start = _index(block, marker, 0, end)
        while start < end:
            nxt = _index(block, marker, start + 1, end)
            yield DEFAULT_VOCAB.decode(block[start + 1:nxt])
            start = nxt
