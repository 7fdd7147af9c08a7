"""Fixed-length sequence packing for tokenized records.

Whole tokenized records are appended greedily to a block until the next one
would overflow; the remainder is padded. Records are never split, and every
record starts with the tokenizer's marker id, which is what makes unpacking
unambiguous.

Block file layout: 16-byte header (magic, version, block length, block count,
all little-endian u32 apart from the 4-byte magic) followed by the blocks as
little-endian u32 ids. Blocks are written and read whole, as bytes: every
id is 0x4E00 plus a distinct low byte, so a block is its low bytes at every
fourth byte from 0, with 0x4E after each and zeros between. The tables of
those low bytes, and the check of record text, are the tokenizer's.
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO, Iterable, Iterator, Optional

from .errors import MalformedInput, RecordTooLong
from .tokenizer import DEFAULT_VOCAB, HIGH, LOW_TO_SYMBOL, MARKER_LOW, PAD_LOW, low_bytes

MAGIC = b"SMPK"
PACK_VERSION = 1
_HEADER = struct.Struct("<4sIII")
# Most ids in one block (4 MiB in the file): a block is read and written
# whole, so this bounds the memory one block takes.
MAX_BLOCK_LENGTH = 1 << 20


def _block(block_length: int) -> bytearray:
    """The bytes of one block with each id's upper three bytes written: a
    block of vocabulary ids once its low bytes go to [0::4]."""
    block = bytearray(4 * block_length)
    block[1::4] = bytes([HIGH]) * block_length
    return block


def pack_sequences(lines: Iterable[str], block_length: int, out: BinaryIO) -> int:
    """Pack records into fixed blocks; returns the number of blocks written.
    Each line is checked against the vocabulary (UnknownSymbol) and the block
    length (RecordTooLong) before the next is pulled, so a caller streaming
    `lines` knows which one an error is about. `out` must be seekable, since
    the block count is written last; an unseekable `out` is refused before
    anything is written to it."""
    if not 2 <= block_length <= MAX_BLOCK_LENGTH:
        raise ValueError(f"block length must be from 2 to {MAX_BLOCK_LENGTH}")
    if not out.seekable():
        name = getattr(out, "name", "pack output")
        raise io.UnsupportedOperation(f"{name}: a pack file needs a seekable output, "
                                      "since its block count is written last")
    out.write(_HEADER.pack(MAGIC, PACK_VERSION, block_length, 0))

    block = _block(block_length)
    records: list[bytes] = []  # low bytes of the records of the block being filled
    used = count = 0  # ids in those records

    def flush():
        nonlocal records, used, count
        if not records:
            return
        block[0::4] = (MARKER_LOW + MARKER_LOW.join(records)).ljust(block_length, PAD_LOW)
        out.write(block)
        records, used = [], 0
        count += 1

    for line_no, line in enumerate(lines, start=1):
        low = low_bytes(line)
        ids = len(low) + 1  # the marker, then one id per character
        if ids > block_length:
            raise RecordTooLong(line_no, ids, block_length)
        if used + ids > block_length:
            flush()
        records.append(low)
        used += ids
    flush()

    out.seek(0)
    out.write(_HEADER.pack(MAGIC, PACK_VERSION, block_length, count))
    out.seek(0, 2)
    return count


def iter_blocks(f: BinaryIO) -> Iterator[bytes]:
    """The blocks of a pack file, each as its bytes; raises MalformedInput,
    naming the byte offset, on a short header, a bad magic, version or block
    length (below 2 or above MAX_BLOCK_LENGTH), a cut-off block, or bytes past
    the last block."""
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
    size = 4 * block_length
    for k in range(count):
        data = f.read(size)
        if len(data) < size:
            offset = _HEADER.size + k * size + len(data)
            raise MalformedInput(f"{name}: block {k} of {count} ends at byte offset "
                                 f"{offset}, {size - len(data)} bytes short")
        yield data
    if f.read(1):
        raise MalformedInput(f"{name}: bytes past the last of {count} blocks at byte offset "
                             f"{_HEADER.size + count * size}")


def _walk(ids: tuple[int, ...]) -> Iterator[str]:
    """The records of a block decoded id by id, each led by the marker, up to
    the first pad (ids before the first marker belong to no record): those
    before an id outside the vocabulary, then its UnknownId."""
    marker, pad = DEFAULT_VOCAB.marker_id, DEFAULT_VOCAB.pad_id
    ids = ids[:ids.index(pad)] if pad in ids else ids
    starts = [k for k, tid in enumerate(ids) if tid == marker]
    for start, end in zip(starts, starts[1:] + [len(ids)]):
        yield DEFAULT_VOCAB.decode(ids[start + 1:end])


def _records(raw: bytes) -> Optional[list[str]]:
    """The records of a block read whole as bytes, or None when it holds an id
    that is not 0x4E00 plus a byte, or an id outside the vocabulary between its
    first marker and its first pad."""
    low = raw[0::4]
    block = _block(len(low))
    block[0::4] = low
    if block != raw:
        return None
    _, marker, region = low.partition(PAD_LOW)[0].partition(MARKER_LOW)
    try:
        return region.translate(LOW_TO_SYMBOL).decode("ascii").split("\n") if marker else []
    except UnicodeDecodeError:
        return None


def unpack_sequences(f: BinaryIO) -> Iterator[str]:
    """Recover the original record stream from a packed block file. A block
    is checked and decoded whole, as bytes; one that fails the check (only a
    hand-made or corrupt file has one) is walked id by id to name its error."""
    for raw in iter_blocks(f):
        records = _records(raw)
        yield from _walk(struct.unpack(f"<{len(raw) // 4}I", raw)) if records is None else records
