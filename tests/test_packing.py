import io
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepmath.datagen import GenSpec, build_record
from stepmath.errors import MalformedInput, RecordTooLong, UnknownId, UnknownSymbol
from stepmath.packing import (MAGIC, MAX_BLOCK_LENGTH, PACK_VERSION, iter_blocks, pack_sequences,
                              unpack_sequences)
from stepmath.tokenizer import DEFAULT_VOCAB, MARKER, PAD

from conftest import BAD_SYMBOLS, reference_decode, reference_encode

MARKER_ID, PAD_ID = DEFAULT_VOCAB.marker_id, DEFAULT_VOCAB.pad_id


def _ids(block):
    return list(struct.unpack(f"<{len(block) // 4}I", block))


def _pack(lines, block_length):
    buf = io.BytesIO()
    blocks = pack_sequences(lines, block_length, buf)
    buf.seek(0)
    return buf, blocks


class TestPackingArithmetic:
    def test_two_records_one_block_with_padding(self):
        # token counts 11 and 12 fit one 32-slot block, leaving 9 pad slots
        a, b = "12345+345=", "1234-45678="
        assert len(DEFAULT_VOCAB.encode(a)) == 11
        assert len(DEFAULT_VOCAB.encode(b)) == 12
        buf, blocks = _pack([a, b], 32)
        assert blocks == 1
        block = _ids(next(iter_blocks(buf)))
        assert block.count(DEFAULT_VOCAB.pad_id) == 9
        assert block[-9:] == [DEFAULT_VOCAB.pad_id] * 9

    def test_record_never_splits_across_blocks(self):
        lines = ["1+2=3", "11+22=33", "111+222=333"]
        buf, blocks = _pack(lines, 12)
        marker = DEFAULT_VOCAB.marker_id
        for block in map(_ids, iter_blocks(buf)):
            # each block starts with a record marker, never a continuation
            assert block[0] == marker
        buf.seek(0)
        assert list(unpack_sequences(buf)) == lines

    def test_too_long_record_reports_line_number(self):
        with pytest.raises(RecordTooLong) as exc:
            _pack(["1+2=3", "123456789+1=123456790"], 10)
        assert exc.value.line_no == 2
        assert exc.value.block_length == 10

    def test_header_layout(self):
        buf, blocks = _pack(["1+2=3"], 16)
        raw = buf.getvalue()
        magic, version, block_len, count = struct.unpack("<4sIII", raw[:16])
        assert magic == MAGIC and version == PACK_VERSION
        assert block_len == 16 and count == blocks == 1
        assert len(raw) == 16 + 4 * 16 * blocks

    @pytest.mark.parametrize("block_length", [MAX_BLOCK_LENGTH + 1, 2 ** 32])
    def test_block_length_past_the_bound(self, block_length):
        with pytest.raises(ValueError, match=f"from 2 to {MAX_BLOCK_LENGTH}"):
            pack_sequences(["1+2=3"], block_length, io.BytesIO())

    def test_empty_stream(self):
        buf, blocks = _pack([], 16)
        assert blocks == 0
        buf.seek(0)
        assert list(unpack_sequences(buf)) == []


POWERS = [line for k, (b, e) in enumerate([(9999, 260), (2, 3500), (4321, 290), (7, 1300)])
          for line in [f"{b}^{e}={b ** e}"] + [
              build_record(GenSpec("exponentiation", (1, 4), seed=74), 5 * k + i)[0]
              for i in range(5)]]


class TestRoundTrip:
    def test_generated_records_round_trip(self):
        # single-digit two-op records stay under 64 tokens even when both
        # operations are divisions with full-length binary64 quotients
        spec = GenSpec("int-mixed", (1, 1), (2, 2), seed=71)
        lines = [build_record(spec, i)[0] for i in range(2_000)]
        assert max(len(DEFAULT_VOCAB.encode(l)) for l in lines) <= 64
        for block_length in (64, 256, 1024):
            buf, _ = _pack(lines, block_length)
            assert list(unpack_sequences(buf)) == lines

    def test_longer_records_round_trip(self):
        spec = GenSpec("lengthy-mixed", (1, 4), (2, 6), seed=72)
        lengthy = [build_record(spec, i)[0] for i in range(500)]
        # exponentiation records of over 1,000 characters among short ones, in
        # blocks one and two ids longer than the longest, as the benchmark packs
        longest = max(map(len, POWERS))
        for lines, block_length in [(lengthy, 1024), (POWERS, longest + 1),
                                    (POWERS, longest + 2)]:
            buf, _ = _pack(lines, block_length)
            assert buf.getvalue() == reference_pack(lines, block_length)[0]
            assert list(unpack_sequences(buf)) == lines

    def test_exact_fill_no_padding(self):
        line = "1+2=3"  # 6 ids with marker
        buf, blocks = _pack([line, line], 12)
        assert blocks == 1
        block = _ids(next(iter_blocks(buf)))
        assert DEFAULT_VOCAB.pad_id not in block


# ---------------------------------------------------------------------------
# References: greedy packing and the per-id unpack loop, written out plainly.


def reference_pack(lines, block_length):
    """The bytes pack writes, and the UnknownSymbol or RecordTooLong that
    stops it (None when nothing does): then the blocks written so far follow
    the header, whose count is still 0."""
    blocks, block, error = [], [], None
    try:
        for line_no, line in enumerate(lines, start=1):
            ids = reference_encode(DEFAULT_VOCAB, line)
            if len(ids) > block_length:
                raise RecordTooLong(line_no, len(ids), block_length)
            if len(block) + len(ids) > block_length:
                blocks.append(block)
                block = []
            block.extend(ids)
    except (UnknownSymbol, RecordTooLong) as err:
        error = err
    else:
        if block:
            blocks.append(block)
    count = 0 if error else len(blocks)
    out = struct.pack("<4sIII", MAGIC, PACK_VERSION, block_length, count)
    for b in blocks:
        out += struct.pack(f"<{block_length}I", *b, *[PAD_ID] * (block_length - len(b)))
    return out, error


def reference_unpack(blocks):
    for block in blocks:
        record, started = [], False
        for tid in block:
            if tid == PAD_ID:
                break
            if tid == MARKER_ID:
                if started:
                    yield reference_decode(DEFAULT_VOCAB, record)
                record, started = [], True
                continue
            record.append(tid)
        if started:
            yield reference_decode(DEFAULT_VOCAB, record)


def pack_file(blocks, block_length):
    """A pack file holding the given blocks verbatim."""
    raw = struct.pack("<4sIII", MAGIC, PACK_VERSION, block_length, len(blocks))
    for b in blocks:
        raw += struct.pack(f"<{block_length}I", *b)
    return io.BytesIO(raw)


def drain(records):
    """The records an iterator yields, and the id of the UnknownId that ended it."""
    out = []
    try:
        for r in records:
            out.append(r)
    except UnknownId as err:
        return out, err.token_id
    return out, None


RECORD_SYMBOLS = sorted(s for s in DEFAULT_VOCAB.provenance if s not in (MARKER, PAD))
ALL_IDS = sorted(DEFAULT_VOCAB.id_of(s) for s in DEFAULT_VOCAB.provenance)
# ids outside the vocabulary that share a vocabulary id's low byte
NEAR_IDS = st.one_of(st.sampled_from(ALL_IDS).flatmap(lambda tid: st.sampled_from(
    [tid - 256, tid + 256, tid + 2 ** 16, tid + 2 ** 24])), st.just(2 ** 32 - 1))


class TestFastPathsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(st.sampled_from(RECORD_SYMBOLS * 4 + BAD_SYMBOLS), max_size=12),
                    max_size=20),
           st.integers(2, 24))
    @example(["1+2=3", "4\u4e31"], 24)
    @example(["1+2=3", "11+22=33", "1" + chr(0x131)], 8)
    @example(["12", "3\ud800"], 4)
    def test_pack_bytes(self, lines, block_length):
        expected, error = reference_pack(lines, block_length)
        buf = io.BytesIO()
        if error is None:
            pack_sequences(lines, block_length, buf)
        else:
            with pytest.raises(type(error)) as exc:
                pack_sequences(lines, block_length, buf)
            assert (str(exc.value), vars(exc.value)) == (str(error), vars(error))
        assert buf.getvalue() == expected

    @settings(max_examples=500, deadline=None)
    @given(st.integers(2, 10).flatmap(lambda n: st.lists(
        st.lists(st.one_of(st.sampled_from(ALL_IDS), st.just(MARKER_ID), st.just(PAD_ID),
                           st.integers(19998, 20002), NEAR_IDS), min_size=n, max_size=n),
        max_size=5).map(lambda blocks, n=n: (n, blocks))))
    def test_unpack_hand_built_blocks(self, case):
        block_length, blocks = case
        got = drain(unpack_sequences(pack_file(blocks, block_length)))
        assert got == drain(reference_unpack(blocks))

    @pytest.mark.parametrize("block,records", [
        ([20009, 20010, MARKER_ID, 20013, PAD_ID, PAD_ID], ["3"]),  # ids before the first marker
        ([MARKER_ID, 20009, PAD_ID, MARKER_ID, 20010, PAD_ID], ["1"]),  # ids after a pad
        ([MARKER_ID, MARKER_ID, 20009, MARKER_ID], ["", "1", ""]),  # adjacent markers
        ([20009, 20010, 20013, 20015], []),  # no marker at all
        ([PAD_ID, MARKER_ID, 20009, 20010], []),  # pad first
    ])
    def test_unpack_edge_blocks(self, block, records):
        assert list(unpack_sequences(pack_file([block], len(block)))) == records
        assert list(reference_unpack([block])) == records

    @pytest.mark.parametrize("block,records,bad_id", [
        # before the first marker and after the first pad they are ignored
        ([MARKER_ID + 2 ** 16, 20009, MARKER_ID, 20013], ["3"], None),
        ([MARKER_ID, 20009, PAD_ID, 20010 + 2 ** 24, 2 ** 32 - 1], ["1"], None),
        # inside a record they are unknown, though their low byte is a pad's,
        # a marker's or a symbol's
        ([MARKER_ID, 20009, MARKER_ID, 20010, PAD_ID + 256, PAD_ID], ["1"], PAD_ID + 256),
        ([MARKER_ID, 20009, MARKER_ID - 256, 20010], [], MARKER_ID - 256),
        ([MARKER_ID, 20013, MARKER_ID, 20009 + 2 ** 24], ["3"], 20009 + 2 ** 24),
    ])
    def test_unpack_ids_that_share_a_low_byte(self, block, records, bad_id):
        assert drain(unpack_sequences(pack_file([block], len(block)))) == (records, bad_id)
        assert drain(reference_unpack([block])) == (records, bad_id)


class TestMalformedPackFiles:
    def _valid(self):
        buf, blocks = _pack(["1+2=3", "11+22=33", "111+222=333"], 12)
        assert blocks == 3
        return buf.getvalue()

    def test_every_cut_raises_malformed_input(self):
        raw = self._valid()
        for cut in range(len(raw)):
            with pytest.raises(MalformedInput, match="byte offset"):
                list(unpack_sequences(io.BytesIO(raw[:cut])))

    def test_cut_names_the_offset_where_data_ends(self):
        raw = self._valid()
        with pytest.raises(MalformedInput, match=r"block 1 of 3 ends at byte offset 70\b"):
            list(unpack_sequences(io.BytesIO(raw[:70])))
        with pytest.raises(MalformedInput, match=r"header ends at byte offset 5 of 16"):
            list(unpack_sequences(io.BytesIO(raw[:5])))

    def test_block_length_past_the_bound_reads_no_block(self, tmp_path):
        # 56 bytes whose header asks for blocks of 2^32 - 1 ids (~16 GiB each)
        path = tmp_path / "forged.pack"
        path.write_bytes(struct.pack("<4sIII", MAGIC, PACK_VERSION, 0xFFFFFFFF, 1) + bytes(40))
        with open(path, "rb") as f, pytest.raises(
                MalformedInput, match="block length 4294967295 at byte offset 8"):
            list(unpack_sequences(f))

    @pytest.mark.parametrize("offset,field,match", [
        (0, b"XXXX", "bad magic"),
        (4, struct.pack("<I", PACK_VERSION + 1), "unsupported pack version"),
        (8, struct.pack("<I", 1), "block length 1"),
        (8, struct.pack("<I", 0), "block length 0"),
        # bytes past the last block: appended, and a count of 0 before a block
        (160, bytes(24), "bytes past the last of 3 blocks at byte offset 160"),
        (12, struct.pack("<I", 0), "bytes past the last of 0 blocks at byte offset 16"),
    ])
    def test_bad_header_fields(self, offset, field, match):
        raw = bytearray(self._valid())
        raw[offset:offset + len(field)] = field
        with pytest.raises(MalformedInput, match=match):
            list(unpack_sequences(io.BytesIO(bytes(raw))))
