import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepmath.datagen import GenSpec, build_record
from stepmath.errors import UnknownId, UnknownSymbol
from stepmath.tokenizer import _ENTRIES, DEFAULT_VOCAB, MARKER, PAD, encode, id_text, low_bytes

from conftest import BAD_SYMBOLS, GOLDEN_TOKENIZATION, reference_decode, reference_encode

# The twenty symbol/id pairs pinned by published examples.
VERIFIED_IDS = {
    "_": 20005, ".": 20007, "1": 20009, "2": 20010, "-": 20011, "3": 20013,
    ")": 20014, "5": 20015, "4": 20016, "(": 20020, "6": 20021, "8": 20023,
    "7": 20025, "/": 20026, "*": 20032, "%": 20040, "]": 20042, "[": 20052,
    "=": 20054, "+": 20065,
}


class TestGoldenRows:
    @pytest.mark.parametrize("text,ids", GOLDEN_TOKENIZATION, ids=[g[0] for g in GOLDEN_TOKENIZATION])
    def test_encode_matches_published_sequence(self, text, ids):
        assert encode(text) == ids

    @pytest.mark.parametrize("text,ids", GOLDEN_TOKENIZATION, ids=[g[0] for g in GOLDEN_TOKENIZATION])
    def test_decode_inverts(self, text, ids):
        assert DEFAULT_VOCAB.decode(ids) == text


class TestVocabulary:
    def test_verified_ids_are_pinned(self):
        for sym, tid in VERIFIED_IDS.items():
            assert DEFAULT_VOCAB.id_of(sym) == tid
            assert DEFAULT_VOCAB.provenance[sym] == "verified"

    def test_unpublished_symbols_are_flagged(self):
        assert DEFAULT_VOCAB.provenance["0"] == "inferred"
        assert DEFAULT_VOCAB.provenance["9"] == "inferred"
        assert DEFAULT_VOCAB.provenance["^"] == "inferred"
        assert DEFAULT_VOCAB.provenance["<pad>"] == "artifact"

    def test_bijection(self):
        ids = [DEFAULT_VOCAB.id_of(s) for s in DEFAULT_VOCAB.provenance]
        assert len(set(ids)) == len(ids)

    def test_rejects_duplicate_entries(self):
        symbols = [sym for sym, _, _ in _ENTRIES]
        ids = [tid for _, tid, _ in _ENTRIES]
        assert len(set(symbols)) == len(symbols)
        assert len(set(ids)) == len(ids)


class TestEncodeDecode:
    def test_empty_record_is_marker_only(self):
        assert encode("") == [20005]
        assert DEFAULT_VOCAB.decode([20005]) == ""

    def test_token_count_is_length_plus_marker(self):
        for text in ("3^9=19683", "12345+345=", "0.5"):
            assert len(encode(text)) == len(text) + 1

    def test_unknown_symbol_offset(self):
        with pytest.raises(UnknownSymbol) as exc:
            encode("12a4")
        assert exc.value.offset == 2

    def test_unknown_id(self):
        with pytest.raises(UnknownId):
            DEFAULT_VOCAB.decode([20005, 31337])

    def test_pad_decodes_to_nothing(self):
        assert DEFAULT_VOCAB.decode([20005, 20009, 20000, 20000]) == "1"

    def test_round_trip_generated_traces(self):
        spec = GenSpec("lengthy-mixed", (1, 4), (2, 8), seed=61)
        for i in range(500):
            line = build_record(spec, i)[0]
            assert DEFAULT_VOCAB.decode(encode(line)) == line
        spec = GenSpec("exponentiation", (1, 4), (1, 1), seed=62)
        for i in range(200):
            line = build_record(spec, i)[0]
            assert DEFAULT_VOCAB.decode(encode(line)) == line


def outcome(fn, *args):
    """The result of fn, or the type and location of the error it raised."""
    try:
        return fn(*args)
    except UnknownSymbol as err:
        return ("UnknownSymbol", err.symbol, err.offset)
    except UnknownId as err:
        return ("UnknownId", err.token_id)


RECORD_SYMBOLS = sorted(s for s in DEFAULT_VOCAB.provenance if s not in (MARKER, PAD))
ALL_IDS = sorted(DEFAULT_VOCAB.id_of(s) for s in DEFAULT_VOCAB.provenance)


class TestFastPathsMatchReference:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(RECORD_SYMBOLS + [MARKER]),
                              st.sampled_from(RECORD_SYMBOLS),
                              st.characters()), max_size=40).map("".join))
    def test_encode(self, text):
        assert outcome(DEFAULT_VOCAB.encode, text) == outcome(reference_encode, DEFAULT_VOCAB, text)

    @settings(max_examples=500, deadline=None)
    @given(st.text(st.sampled_from(RECORD_SYMBOLS * 4 + BAD_SYMBOLS), max_size=40))
    @example("12\u4e31")
    @example("1\ud800")
    def test_id_text(self, text):
        def reference(text):
            return " ".join(map(str, reference_encode(DEFAULT_VOCAB, text))) + "\n"
        assert outcome(lambda t: id_text(low_bytes(t)), text) == outcome(reference, text)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(ALL_IDS), st.sampled_from(ALL_IDS),
                              st.integers(19990, 20080)), max_size=40))
    def test_decode(self, ids):
        assert outcome(DEFAULT_VOCAB.decode, ids) == outcome(reference_decode, DEFAULT_VOCAB, ids)

    def test_unknown_symbol_after_repeats_reports_first_offset(self):
        with pytest.raises(UnknownSymbol) as exc:
            encode("1+1=2_x_")
        assert (exc.value.symbol, exc.value.offset) == ("_", 5)

    def test_decode_consumes_a_generator(self):
        assert DEFAULT_VOCAB.decode(iter(encode("12+3=15"))) == "12+3=15"
