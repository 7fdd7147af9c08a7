import contextlib
import io
import json
import os
import stat
import struct
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stepmath
from stepmath import cli, datagen
from stepmath.cli import main
from stepmath.datagen import CATEGORIES, GenSpec
from stepmath.errors import (
    DivByZero,
    ExprSyntaxError,
    MalformedInput,
    NonTerminating,
    StepmathError,
    UnknownId,
)
from stepmath.packing import MAGIC, PACK_VERSION, unpack_sequences
from stepmath.tokenizer import DEFAULT_VOCAB

from conftest import GOLDEN_TRACES, reference_encode


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestTrace:
    @pytest.mark.parametrize("src,mode,expected", GOLDEN_TRACES,
                             ids=[g[0] for g in GOLDEN_TRACES])
    def test_golden_stdout(self, capsys, src, mode, expected):
        rc, out, _ = run(capsys, "trace", src, "--mode", mode)
        assert rc == 0
        assert out == expected + "\n"

    def test_trivial(self, capsys):
        rc, out, _ = run(capsys, "trace", "7")
        assert rc == 0 and out == "7\n"

    def test_json_payload(self, capsys):
        rc, out, _ = run(capsys, "trace", "3^9", "--json")
        payload = json.loads(out)
        assert payload["trace"] == "3^9=19683"
        assert payload["final"] == "19683"
        assert payload["rules"] == ["binop"]

    def test_parse_error_exit_2(self, capsys):
        rc, _, err = run(capsys, "trace", "1+(")
        assert rc == 2 and "parse error" in err

    def test_math_error_exit_3_names_redex(self, capsys):
        rc, _, err = run(capsys, "trace", "1/0")
        assert rc == 3 and "1/0" in err

    @pytest.mark.parametrize("src", ["9999^2000", "9^99999999",
                                     pytest.param("2^" + "9" * 400, id="2^400 nines")])
    def test_oversized_power_exit_3_before_computing(self, capsys, src):
        # 8,000, 95 million and about 10^399 digits: past the 4300-digit print
        # limit, so the power is refused up front instead of raising or never
        # ending; an exponent past a float's range is refused all the same
        rc, out, err = run(capsys, "trace", src)
        assert rc == 3 and out == ""
        assert f"{src} has more than 4300 digits" in err

    @pytest.mark.parametrize("src,mode,code,message", [
        ("7" * 5000, "standard", 2, "parse error: number of more than 4300 digits (offset 0)"),
        ("9999^400*9999^400*9999^400", "standard", 3,
         "math error: a result of more than 4300 digits cannot be printed"),
        (f"({'9' * 4000}/7)*({'9' * 4000}/7)", "fraction", 3,
         "math error: a result of more than 4300 digits cannot be printed"),
        ("1" * 400 + "%", "standard", 3, "math error: integer quotient exceeds binary64 range"),
        ("1" * 400 + "%", "fraction", 3, "math error: integer quotient exceeds binary64 range"),
        ("1" * 400 + ".5", "standard", 3, "math error: decimal literal exceeds binary64 range"),
        ("(" + "1" * 400 + ".5)", "standard", 3,
         "math error: decimal literal exceeds binary64 range"),
        ("2*" + "1" * 400 + ".5", "fraction", 3,
         "math error: decimal literal exceeds binary64 range"),
    ], ids=["5000-digit literal", "4800-digit product", "8000-digit fraction",
            "percent past binary64", "percent past binary64 in fraction mode",
            "decimal past binary64", "bracketed decimal past binary64",
            "decimal past binary64 in fraction mode"])
    def test_oversized_integer_is_a_typed_error(self, capsys, src, mode, code, message):
        # past Python's 4300-digit int/str limit, which would raise ValueError
        rc, out, err = run(capsys, "trace", src, "--mode", mode)
        assert rc == code and out == ""
        assert err.splitlines()[1] == "stepmath: " + message

    # Each bracket, percent and sign pair takes a step of its own; a step
    # bound that counted binary operators only refused these.
    @pytest.mark.parametrize("expected", [
        "(((((1)))))=((((1))))=(((1)))=((1))=(1)=1",
        "((((5%))))=((((0.05))))=(((0.05)))=((0.05))=(0.05)=0.05",
        "-(-(-(-(-(-1)))))=-(-(-(-(1))))=-(-(-(-1)))=-(-(1))=-(-1)=1",
        "[(((1)))]+[(((2)))]=[((1))]+[(((2)))]=[((1))]+[((2))]=[(1)]+[((2))]"
        "=[(1)]+[(2)]=[1]+[(2)]=[1]+[2]=1+[2]=1+2=3",
    ], ids=lambda t: t.split("=", 1)[0])
    def test_steps_past_the_operator_count(self, capsys, expected):
        rc, out, _ = run(capsys, "trace", expected.split("=", 1)[0])
        assert rc == 0 and out == expected + "\n"

    def test_one_thousand_term_sum(self, capsys):
        rc, out, _ = run(capsys, "trace", "+".join(["1"] * 1000))
        snapshots = out.rstrip("\n").split("=")
        assert rc == 0 and len(snapshots) == 1000
        assert snapshots[1] == "2" + "+1" * 998 and snapshots[-1] == "1000"

    def test_one_thousand_term_mixed_chain(self, capsys):
        operands = [str(i % 9 + 1) for i in range(1000)]
        ops = ["+-*"[i % 3] for i in range(999)]
        text = operands[0] + "".join(op + x for op, x in zip(ops, operands[1:]))
        # the value, products first
        terms, signs = [int(operands[0])], [1]
        for op, x in zip(ops, operands[1:]):
            if op == "*":
                terms[-1] *= int(x)
            else:
                terms.append(int(x))
                signs.append(1 if op == "+" else -1)
        rc, out, _ = run(capsys, "trace", text)
        assert rc == 0
        snapshots = out.rstrip("\n").split("=")
        assert snapshots[0] == text and len(snapshots) == 1000
        assert snapshots[-1] == str(sum(s * t for s, t in zip(signs, terms)))

    @pytest.mark.parametrize("src", ["1*" + "-" * 1000 + "1", "^".join(["1"] * 600)],
                             ids=["1000 signs", "600-term power tower"])
    def test_sign_and_exponent_nesting_limit_exit_2(self, capsys, src):
        rc, out, err = run(capsys, "trace", src)
        assert rc == 2 and out == ""
        assert "stepmath: parse error: sign and exponent nesting deeper than 100" in err

    def test_calls_trace_and_render_trace_once(self, capsys, monkeypatch):
        # the names the command looks up are the ones a caller can wrap
        calls = []
        for name in ("trace", "render_trace"):
            def counted(*args, _name=name, _fn=getattr(cli, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(cli, name, counted)
        rc, out, _ = run(capsys, "trace", "1+2*3")
        assert (rc, out) == (0, "1+2*3=1+6=7\n")
        assert calls == ["trace", "render_trace"]

    def test_effective_config_line_on_stderr(self, capsys):
        _, _, err = run(capsys, "trace", "7")
        cfg = json.loads(err.splitlines()[0])
        assert cfg["command"] == "trace"
        assert cfg["config"]["expr"] == "7"


@st.composite
def _operand_text(draw, depth):
    kind = draw(st.integers(0, 9 if depth < 3 else 6))
    if kind <= 2:
        return draw(st.sampled_from(("", "-"))) + str(draw(st.integers(0, 9999)))
    if kind == 3:
        return f"{draw(st.integers(0, 999))}.{draw(st.integers(0, 99))}"
    if kind == 4:
        return f"{draw(st.integers(0, 999))}%"
    if kind <= 6:
        sign = draw(st.sampled_from(("", "-")))
        return f"({sign}{draw(st.integers(0, 99))}/{draw(st.integers(0, 99))})"
    if kind == 7:
        base = draw(st.integers(0, 30))
        return f"{base}^{draw(st.integers(0, 9))}"
    opener = draw(st.sampled_from(("(", "[", "-(", "-[")))
    closer = ")" if opener[-1] == "(" else "]"
    return opener + draw(_chain_text(depth + 1)) + closer


@st.composite
def _chain_text(draw, depth=0):
    """Grammar-shaped text: chains over + - * / of literals, fractions,
    powers and bracketed chains, a few hundred operands long at the top."""
    n = draw(st.integers(1, 300 if depth == 0 else 5))
    text = draw(_operand_text(depth))
    for _ in range(n - 1):
        text += draw(st.sampled_from("+-*/")) + draw(_operand_text(depth))
    return text


@settings(max_examples=40, deadline=None)
@given(_chain_text(), st.sampled_from(("standard", "fraction")))
def test_grammar_shaped_text_through_main(text, mode):
    # every input ends in a trace or a typed error, never an exception
    rc, out, err = _main("trace", text, "--mode", mode)
    assert rc in (0, 2, 3), err
    if rc == 0:
        assert out.startswith(text)
    else:
        assert out == "" and err.splitlines()[1].startswith("stepmath: ")


_RANGE = st.lists(st.integers(-1, 13), max_size=3)
_SPEC = st.fixed_dictionaries(
    {"category": st.sampled_from(CATEGORIES + ("nope",))},
    optional={"digits": _RANGE, "steps": _RANGE, "seed": st.integers(-2 ** 70, 2 ** 70)})
# schedules of a few records each, so that every run is short
_SCHEDULE = st.fixed_dictionaries({
    "seed": st.integers(-2 ** 70, 2 ** 70),
    "phases": st.lists(st.fixed_dictionaries({"count": st.integers(-1, 6),
                                              "specs": st.lists(_SPEC, max_size=3)}),
                       max_size=3),
})


@st.composite
def _schedule_bytes(draw):
    """Bytes for a schedule file: arbitrary ones, or a JSON schedule that may
    be cut short."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    raw = json.dumps(draw(_SCHEDULE)).encode()
    return raw[:draw(st.integers(0, len(raw)))] if draw(st.booleans()) else raw


@settings(max_examples=60, deadline=None)
@given(_schedule_bytes())
@example(b'{"seed": 1, "phases": [{"count": -1, "specs": [{"category": "int-mixed"}]}]}')
@example(b'{"seed": 1, "phases": [{"count": 1, "specs": [3]}]}')
@example(b'{"seed": 1, "phases": [{"count": 1, "specs": [{"category": "int-mixed", "seed": 1.5}]}]}')
def test_arbitrary_schedule_file_through_main(raw):
    with tempfile.TemporaryDirectory() as d:
        schedule = os.path.join(d, "schedule.json")
        with open(schedule, "wb") as f:
            f.write(raw)
        start = time.perf_counter()
        rc, out, err = _main("generate", "--schedule", schedule, "--seed", "1",
                             "--out", os.path.join(d, "out.txt"))
        assert time.perf_counter() - start < 10
    assert rc in (0, 64), err
    if rc == 64:
        assert out == "" and err.splitlines()[1].startswith(f"stepmath: malformed input: {schedule}")


# a pack header then anything: block lengths and counts of every size
_PACK_HEADED = st.builds(
    lambda length, count, body: struct.pack("<4sIII", MAGIC, PACK_VERSION, length, count) + body,
    st.one_of(st.integers(0, 40), st.integers(0, 2 ** 32 - 1)),
    st.one_of(st.integers(0, 4), st.integers(0, 2 ** 32 - 1)),
    st.binary(max_size=400))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=100), _PACK_HEADED))
def test_arbitrary_pack_file_unpacks_or_raises_typed(raw):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "x.pack")
        with open(path, "wb") as f:
            f.write(raw)
        start = time.perf_counter()
        with open(path, "rb") as f:
            try:
                list(unpack_sequences(f))
            except StepmathError:
                pass
        assert time.perf_counter() - start < 10


class TestRealProcess:
    def test_trace_through_interpreter(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stepmath.cli", "trace", "8371*(-1945+8878)"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(stepmath.__file__).parents[1])},
        )
        assert proc.returncode == 0
        assert proc.stdout == "8371*(-1945+8878)=8371*6933=58036143\n"

    def test_math_error_exit_code_through_interpreter(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stepmath.cli", "trace", "2^-3"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(stepmath.__file__).parents[1])},
        )
        assert proc.returncode == 3


class TestUsageErrors:
    def test_unknown_flag_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "7", "--bogus"])
        assert exc.value.code == 64

    def test_unknown_command_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    @pytest.mark.parametrize("argv", [
        ["pack", "--in", "x.txt", "--out", "x.pack", "--block-length", "0"],
        ["pack", "--in", "x.txt", "--out", "x.pack", "--block-length", "1"],
        ["pack", "--in", "x.txt", "--out", "x.pack", "--block-length", "1048577"],
        ["pack", "--in", "x.txt", "--out", "x.pack", "--block-length", "4294967296"],
        ["bigbench", "--op", "MUL", "--n", "3", "--seed", "1", "--digits", "9"],
        ["bigbench", "--op", "MUL", "--digits", "2", "--seed", "1", "--n", "-3"],
        ["generate", "--out", "x.txt", "--seed", "1", "--total", "-5"],
        ["generate", "--out", "x.txt", "--seed", "1", "--total", "5", "--workers", "0"],
        ["generate", "--out", "x.txt", "--seed", "1", "--total", "5", "--workers", "-1"],
    ], ids=["block-length 0", "block-length 1", "block-length 2^20+1", "block-length 2^32",
            "digits 9", "n -3", "total -5", "workers 0", "workers -1"])
    def test_out_of_range_number_exits_64(self, capsys, monkeypatch, tmp_path, argv):
        # the last argument is refused while the arguments are read
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and f"{argv[-2]}: {argv[-1]} is not an integer" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "-1"])
    def test_threshold_outside_the_finite_nonnegatives_exits_64(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--in", "r.jsonl", f"--threshold={value}"])
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"--threshold: {value} is not a finite number of at least 0" in err

    def test_threshold_zero_and_a_non_number(self, capsys, tmp_path):
        records = tmp_path / "r.jsonl"
        records.write_text(json.dumps({"problem": "1+1", "ground_truth": "2",
                                       "prediction": "1+1=2"}) + "\n")
        rc, out, _ = run(capsys, "eval", "--in", str(records), "--threshold", "0", "--json")
        assert rc == 0 and json.loads(out)["threshold"] == 0.0
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--in", str(records), "--threshold", "abc"])
        assert exc.value.code == 64
        assert "--threshold: invalid float value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["trace"], ["trace", "1+2", "extra"], ["trace", "1+2", "--bogus"],
        ["--bogus", "trace", "1"], ["trace", "--mode", "bad", "1"],
    ], ids=["no argument", "unknown command", "no expression", "extra argument",
            "unknown flag", "flag before the command", "bad choice"])
    def test_usage_error_is_the_full_parsers(self, capsys, argv):
        # main parses a subcommand's arguments with its own parser, and fails
        # with the bytes and exit code of the full parser
        with pytest.raises(SystemExit) as full:
            cli._parser().parse_args(argv)
        want = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert (got.value.code, capsys.readouterr()) == (full.value.code, want)
        assert got.value.code == 64 and want.out == "" and want.err.startswith("usage: ")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in ("trace", "generate", "tokenize", "pack", "eval",
                    "bigbench", "reconstruct", "score-mwp"):
            assert sub in out


class TestRepeatedCalls:
    def test_each_call_prints_what_a_first_call_prints(self, capsys, monkeypatch):
        # the parser is built once per process; a fresh interpreter shows
        # what a first call prints
        monkeypatch.setenv("COLUMNS", "80")
        env = {**os.environ, "COLUMNS": "80",
               "PYTHONPATH": str(Path(stepmath.__file__).parents[1])}
        for argv in (["trace", "7", "--bogus"], ["--help"], ["trace", "1+2*3"]):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            got = capsys.readouterr()
            first = subprocess.run([sys.executable, "-m", "stepmath.cli", *argv],
                                   capture_output=True, text=True, env=env)
            assert (rc, got.out, got.err) == (first.returncode, first.stdout, first.stderr)


class TestGenerate:
    def test_deterministic_digest_across_workers(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        rc1, o1, _ = run(capsys, "generate", "--out", str(out1), "--seed", "5",
                         "--total", "400", "--json")
        rc2, o2, _ = run(capsys, "generate", "--out", str(out2), "--seed", "5",
                         "--total", "400", "--workers", "4", "--json")
        assert rc1 == rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        m1, m2 = json.loads(o1), json.loads(o2)
        assert m1["content_digest"] == m2["content_digest"]
        assert m1["record_count"] == 400
        assert (tmp_path / "a.txt.manifest.json").exists()

    def test_zero_records(self, capsys, tmp_path):
        out = tmp_path / "empty.txt"
        rc, _, _ = run(capsys, "generate", "--out", str(out), "--seed", "1", "--total", "0")
        assert rc == 0 and out.read_bytes() == b""

    def test_failed_run_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        build = datagen.build_record

        def failing(spec, index):
            if index == 1100:  # after the first 1024-record chunk is written
                raise DivByZero("planted")
            return build(spec, index)
        monkeypatch.setattr(datagen, "build_record", failing)
        rc, out, _ = run(capsys, "generate", "--out", str(tmp_path / "x.txt"), "--seed", "1",
                         "--total", "1200", "--workers", "1")
        assert (rc, out) == (3, "")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_path_exit_4(self, capsys, tmp_path):
        rc, _, err = run(capsys, "generate", "--out", str(tmp_path / "nodir" / "x.txt"),
                         "--seed", "1", "--total", "10")
        assert rc == 4 and "io error" in err

    def test_missing_total_and_schedule_is_a_usage_error(self, capsys, tmp_path):
        out = tmp_path / "x.txt"
        rc, _, err = run(capsys, "generate", "--out", str(out), "--seed", "1")
        assert rc == 64
        assert "stepmath: " in err and "--total" in err and "--schedule" in err
        assert not out.exists()

    def test_manifest_naming_the_out_file_is_a_usage_error(self, capsys, tmp_path):
        # renamed last, the manifest would take the place of the traces
        out = tmp_path / "a.txt"
        for manifest in (str(out), f"{tmp_path}/./a.txt"):
            rc, o, err = run(capsys, "generate", "--total", "3", "--seed", "1",
                             "--out", str(out), "--manifest", manifest)
            assert (rc, o) == (64, "") and "--manifest" in err
            assert list(tmp_path.iterdir()) == []

    def test_schedule_file(self, capsys, tmp_path):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({
            "seed": 3,
            "phases": [{"count": 20, "specs": [
                {"category": "int-mixed", "digits": [1, 3], "steps": [2, 3]}]}],
        }))
        out = tmp_path / "d.txt"
        rc, o, _ = run(capsys, "generate", "--out", str(out), "--seed", "3",
                       "--schedule", str(sched), "--json")
        assert rc == 0
        assert json.loads(o)["category_histogram"] == {"int-mixed": 20}


    @pytest.mark.parametrize("text,where", [
        ("{", "not JSON"),
        ('{"seed": 1}', "phases: missing"),
        ("[1,2]", "top level: expected a JSON object"),
        ('{"seed": 1, "phases": [{"count": "x", "specs": [{"category": "int-mixed"}]}]}',
         "phases[0].count: expected an integer, got 'x'"),
        ('{"seed": 1, "phases": [{"count": 5, "specs": [{"category": "addition"}]}]}',
         "phases[0].specs[0]: unknown category 'addition'"),
        ('{"seed": 1, "phases": [{"count": 5, "specs": '
         '[{"category": "int-mixed", "digits": [0, 99]}]}]}',
         "phases[0].specs[0]: digit range (0, 99) is not lo <= hi in [1, 12]"),
        ('{"seed": 1, "phases": [{"count": 5, "specs": []}]}',
         "phases[0].specs: expected at least one spec"),
    ], ids=["cut", "no phases", "array", "count text", "category", "digits", "no specs"])
    def test_malformed_schedule_exit_64(self, capsys, tmp_path, text, where):
        sched = tmp_path / "sched.json"
        sched.write_text(text)
        out = tmp_path / "d.txt"
        rc, o, err = run(capsys, "generate", "--out", str(out), "--seed", "1",
                         "--schedule", str(sched))
        assert rc == 64 and o == ""
        assert err.splitlines()[1].startswith(f"stepmath: malformed input: {sched}: {where}")
        assert not out.exists()


class TestTokenizePack:
    def test_tokenize_text(self, capsys):
        rc, out, _ = run(capsys, "tokenize", "--text", "34*678=")
        assert rc == 0
        assert out.strip() == "20005 20013 20016 20032 20021 20025 20023 20054"

    def test_pack_round_numbers(self, capsys, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("1+2=3\n4*5=20\n")
        packed = tmp_path / "d.pack"
        rc, out, _ = run(capsys, "pack", "--in", str(data), "--out", str(packed),
                         "--block-length", "32", "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload == {"records": 2, "blocks": 1, "block_length": 32}

    def test_pack_too_long_exit_3(self, capsys, tmp_path):
        data = tmp_path / "d.txt"
        for text, line_no in (("123456789+1=123456790\n", 1),
                              ("1+2=3\n\n123456789+1=123456790\n", 3)):
            data.write_text(text)
            rc, _, err = run(capsys, "pack", "--in", str(data), "--out",
                             str(tmp_path / "d.pack"), "--block-length", "8")
            assert rc == 3
            assert err.splitlines()[1] == (f"stepmath: {data}:{line_no}: record tokenizes to "
                                           "22 ids, longer than block length 8")
            assert list(tmp_path.iterdir()) == [data]

    def test_symbol_outside_the_vocabulary_names_its_line(self, capsys, tmp_path):
        data = tmp_path / "d.txt"
        # an offset counts characters, not UTF-8 bytes: "×" is two bytes
        for text, line_no, symbol, offset in (("1+2=3\n\nab+1=2\n", 3, "a", 0),
                                              ("1+2=3\n12×3\n", 2, "×", 2)):
            data.write_text(text, encoding="utf-8")
            message = (f"stepmath: malformed input: {data}:{line_no}: "
                       f"symbol {symbol!r} at offset {offset} is not in the vocabulary")
            for argv in (["tokenize", "--in", str(data)],
                         ["pack", "--in", str(data), "--out", str(tmp_path / "d.pack"),
                          "--block-length", "32"]):
                rc, out, err = run(capsys, *argv)
                assert (rc, out) == (64, ""), argv
                assert err.splitlines()[1] == message, argv
                assert list(tmp_path.iterdir()) == [data]
        for text, symbol, offset in (("ab+1=2", "a", 0), ("12×3+4", "×", 2)):
            rc, out, err = run(capsys, "tokenize", "--text", text)
            assert (rc, out) == (3, "")
            assert err.splitlines()[1] == (f"stepmath: symbol {symbol!r} at offset {offset} "
                                           "is not in the vocabulary")
        # a lone surrogate, as a process reads an argument byte that is not UTF-8
        env = {**os.environ, "PYTHONPATH": str(Path(stepmath.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "stepmath.cli", "tokenize", "--text",
                               os.fsdecode(b"12\xff+4")], env=env, capture_output=True,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.splitlines()[1] == ("stepmath: symbol '\\udcff' at offset 2 "
                                               "is not in the vocabulary")

    def test_tokenize_output_matches_the_reference(self, capsys, tmp_path):
        lines = [datagen.build_record(GenSpec(category, (1, 4), (2, 6), seed=91), i)[0]
                 for category in CATEGORIES for i in range(200)]
        data = tmp_path / "d.txt"
        data.write_text("".join(line + "\n" for line in lines))
        ids = [reference_encode(DEFAULT_VOCAB, line) for line in lines]
        rc, out, _ = run(capsys, "tokenize", "--in", str(data))
        assert rc == 0
        assert out == "".join(" ".join(map(str, row)) + "\n" for row in ids)
        rc, out, _ = run(capsys, "tokenize", "--in", str(data), "--json")
        assert rc == 0
        assert out == json.dumps([{"text": line, "ids": row}
                                  for line, row in zip(lines, ids)]) + "\n"

    def test_missing_input_is_named_before_the_output(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        rc, _, err = run(capsys, "pack", "--in", str(missing), "--out",
                         str(tmp_path / "nodir" / "d.pack"), "--block-length", "32")
        assert rc == 4
        assert err.splitlines()[1] == ("stepmath: io error: [Errno 2] No such file or "
                                       f"directory: '{missing}'")

    def test_symlink_hard_link_and_fifo_outs_stay_what_they_are(self, capsys, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("1+2=3\n4*5=20\n")
        pack = ["pack", "--in", str(data), "--block-length", "32", "--out"]
        run(capsys, *pack, str(tmp_path / "want.pack"))
        want = (tmp_path / "want.pack").read_bytes()

        target, link = tmp_path / "target.pack", tmp_path / "link.pack"
        link.symlink_to(target)
        (tmp_path / "target.pack.tmp").write_text("mine")
        assert run(capsys, *pack, str(link))[0] == 0
        assert link.is_symlink() and target.read_bytes() == want
        assert (tmp_path / "target.pack.tmp").read_text() == "mine"
        (tmp_path / "d.txt").write_text("1+2=3\nab\n")
        assert run(capsys, *pack, str(link))[0] == 64  # a failure leaves the target
        assert link.is_symlink() and target.read_bytes() == want
        (tmp_path / "d.txt").write_text("1+2=3\n4*5=20\n")

        os.link(target, tmp_path / "hard.pack")
        target.write_bytes(b"")
        assert run(capsys, *pack, str(target))[0] == 0
        assert (tmp_path / "hard.pack").read_bytes() == want

        # pack seeks back to write its block count, so a FIFO takes generate
        fifo, got = tmp_path / "fifo.txt", []
        os.mkfifo(fifo)
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        generate = ["generate", "--seed", "1", "--total", "20", "--out"]
        assert run(capsys, *generate, str(fifo))[0] == 0
        reader.join(timeout=30)
        run(capsys, *generate, str(tmp_path / "want.txt"))
        assert got == [(tmp_path / "want.txt").read_bytes()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    def test_pack_to_an_unseekable_out_writes_nothing(self, capsys, tmp_path):
        # the block count goes into the header last, which takes a seek
        data, fifo, got = tmp_path / "d.txt", tmp_path / "d.pack", []
        data.write_text("1+2=3\n4*5=20\n")
        os.mkfifo(fifo)
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        rc, out, err = run(capsys, "pack", "--in", str(data), "--out", str(fifo),
                           "--block-length", "32")
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert (rc, out, got) == (4, "", [b""])
        assert err.splitlines()[1] == (f"stepmath: io error: {fifo}: a pack file needs a "
                                       "seekable output, since its block count is written last")

    def test_replaced_out_keeps_its_mode(self, capsys, tmp_path):
        data, out = tmp_path / "d.txt", tmp_path / "d.pack"
        data.write_text("1+2=3\n")
        out.write_bytes(b"old")
        out.chmod(0o640)
        assert run(capsys, "pack", "--in", str(data), "--out", str(out),
                   "--block-length", "32")[0] == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640 and out.read_bytes() != b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.pack", "d.txt"]

    def test_tokenize_reads_a_fifo_once(self, tmp_path):
        data, fifo = tmp_path / "d.txt", tmp_path / "d.fifo"
        data.write_text("1+2=3\n\n4*5=20\n")
        os.mkfifo(fifo)
        env = {**os.environ, "PYTHONPATH": str(Path(stepmath.__file__).parents[1])}
        for flags in ([], ["--json"]):
            outputs = []
            for path in (data, fifo):
                writer = threading.Thread(target=lambda: fifo.write_bytes(data.read_bytes()),
                                          daemon=True)
                if path == fifo:
                    writer.start()
                proc = subprocess.run([sys.executable, "-m", "stepmath.cli", "tokenize",
                                       "--in", str(path), *flags], env=env,
                                      capture_output=True, text=True, timeout=60)
                outputs.append((proc.returncode, proc.stdout))
            assert outputs[0] == outputs[1] and outputs[0][1].count("20054") == 2, flags


# Runs one subcommand with its output discarded and prints its exit code and
# its peak RSS in KiB. The peak is VmHWM, the high-water mark of the memory
# the process has since exec: ru_maxrss also holds that of the process that
# started it, here the test run.
_PEAK_RSS = """
import os, sys
from stepmath.cli import main
real, sys.stdout = sys.stdout, open(os.devnull, "w")
rc = main(sys.argv[1:])
with open("/proc/self/status") as f:
    real.write(f"{rc} {next(line.split()[1] for line in f if line.startswith('VmHWM:'))}")
"""


class TestBoundedMemory:
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_tokenize_and_pack_peak_does_not_grow_with_the_file(self, tmp_path):
        spec = GenSpec("int-mixed", (1, 3), (2, 2), seed=17)
        sample = "".join(datagen.build_record(spec, i)[0] + "\n" for i in range(1000))
        env = {**os.environ, "PYTHONPATH": str(Path(stepmath.__file__).parents[1])}
        peaks = {}
        for lines in (20_000, 200_000):
            data = tmp_path / f"{lines}.txt"
            data.write_text(sample * (lines // 1000))
            for argv in (["tokenize", "--in", str(data)],
                         ["pack", "--in", str(data), "--out", str(tmp_path / "d.pack"),
                          "--block-length", "64"]):
                proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], env=env,
                                      capture_output=True, text=True, timeout=120)
                rc, kib = map(int, proc.stdout.split())
                assert rc == 0, proc.stderr
                peaks[argv[0], lines] = kib
        for command in ("tokenize", "pack"):
            grown = peaks[command, 200_000] - peaks[command, 20_000]
            assert grown < 10 * 1024, (command, peaks)


class TestEvalCli:
    def test_combined_file(self, capsys, tmp_path):
        records = tmp_path / "r.jsonl"
        rows = [
            {"problem": "1+1", "ground_truth": "2", "prediction": "1+1=2"},
            {"problem": "2+2", "ground_truth": "4", "prediction": "2+2=5"},
        ]
        records.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        rc, out, _ = run(capsys, "eval", "--in", str(records), "--threshold", "0.01", "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["total"] == 2 and payload["accuracy"] == 0.5

    def test_exact_prediction_of_1e26_or_more_is_correct(self, capsys, tmp_path):
        records = tmp_path / "r.jsonl"
        records.write_text("".join(
            json.dumps({"problem": "1+1", "ground_truth": value,
                        "prediction": "1+1=" + value}) + "\n"
            for value in ("123456789012345678901234567.5", "3.0")))
        rc, out, _ = run(capsys, "eval", "--in", str(records), "--json")
        payload = json.loads(out)
        assert rc == 0 and payload["accuracy"] == payload["re_accuracy"] == 1.0

    def test_gold_plus_pred_files_and_csv(self, capsys, tmp_path):
        gold = tmp_path / "g.jsonl"
        pred = tmp_path / "p.jsonl"
        gold.write_text(json.dumps({"problem": "3*3", "ground_truth": 9}) + "\n")
        pred.write_text("3*3=9\n")
        grid = tmp_path / "grid.csv"
        rc, out, _ = run(capsys, "eval", "--gold", str(gold), "--pred", str(pred),
                         "--csv", str(grid))
        assert rc == 0 and "ACC 1.0000" in out
        assert grid.read_text().startswith("task,Int,Dec,Frac,Perc,Neg")

    def test_non_string_prediction_is_raw_text(self, capsys, tmp_path):
        gold = tmp_path / "g.jsonl"
        pred = tmp_path / "p.jsonl"
        gold.write_text(json.dumps({"problem": "3*3", "ground_truth": 9}) + "\n")
        pred.write_text(json.dumps({"prediction": 9}) + "\n")
        rc, out, _ = run(capsys, "eval", "--gold", str(gold), "--pred", str(pred))
        assert rc == 0 and "ACC 0.0000" in out

    def test_misaligned_gold_and_pred_exit_64(self, capsys, tmp_path):
        gold = tmp_path / "g.jsonl"
        pred = tmp_path / "p.txt"
        gold.write_text('{"problem": "1+1", "ground_truth": "2"}\n\n'
                        '{"problem": "2+2", "ground_truth": "4"}\n')
        pred.write_text("1+1=2\n")
        rc, out, err = run(capsys, "eval", "--gold", str(gold), "--pred", str(pred))
        assert rc == 64 and out == ""
        assert f"{gold}:3: no partner line" in err

    def test_oversized_prediction_tail_is_an_extraction_failure(self, capsys, tmp_path):
        # 5000 digits, a percent and a decimal percent past binary64, and a
        # decimal past binary64, which as a ground truth has no value either
        tails = ["2" * 5000, "1" * 400 + "%", "1" * 400 + ".5%", "1" * 400 + ".5"]
        records = tmp_path / "r.jsonl"
        records.write_text("".join(json.dumps({"problem": "1+1", "ground_truth": "2",
                                               "prediction": "1+1=" + tail}) + "\n"
                                   for tail in tails)
                           + json.dumps({"problem": "1+1", "ground_truth": tails[-1],
                                         "prediction": "1+1=2"}) + "\n")
        rc, out, _ = run(capsys, "eval", "--in", str(records), "--json")
        payload = json.loads(out)
        assert rc == 0 and payload["total"] == 5 and payload["correct"] == 0
        assert payload["errors"] == 1 and payload["re_defined"] == 4

    def test_no_inputs_exit_64(self, capsys, tmp_path):
        rc, _, err = run(capsys, "eval")
        assert rc == 64 and "--gold" in err and "--pred" in err
        rc, _, _ = run(capsys, "eval", "--gold", str(tmp_path / "g.jsonl"))
        assert rc == 64

    def test_in_with_gold_or_pred_exit_64(self, capsys, tmp_path):
        # --in would be scored alone, and a gold and pred pair that does not
        # line up would go unreported
        records = tmp_path / "r.jsonl"
        records.write_text(json.dumps({"problem": "1+1", "ground_truth": "2",
                                       "prediction": "1+1=2"}) + "\n")
        gold = tmp_path / "g.jsonl"
        gold.write_text('{"problem": "1+1", "ground_truth": "2"}\n' * 2)
        pred = tmp_path / "p.txt"
        pred.write_text("1+1=2\n")
        for extra in (["--gold", str(gold)], ["--pred", str(pred)],
                      ["--gold", str(gold), "--pred", str(pred)]):
            rc, out, err = run(capsys, "eval", "--in", str(records), *extra)
            assert (rc, out) == (64, "") and "--in" in err and "--gold" in err


class TestBigbenchCli:
    def test_count_and_file_output(self, capsys, tmp_path):
        out_path = tmp_path / "suite.jsonl"
        rc, _, _ = run(capsys, "bigbench", "--op", "MUL", "--digits", "5",
                       "--n", "50", "--seed", "9", "--out", str(out_path))
        assert rc == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 50
        first = json.loads(lines[0])
        a, b = first["problem"].split("*")
        assert len(a) == 5 and len(b) == 5


@pytest.mark.parametrize("command", ["eval", "bigbench"])
def test_written_file_is_replaced_keeping_its_mode_and_link(capsys, tmp_path, command):
    # `eval --csv` and `bigbench --out` replace their file, as every output
    # does: a symlink stays one, the file keeps its mode, and no temporary
    # file is left
    gold, pred = tmp_path / "g.jsonl", tmp_path / "p.txt"
    gold.write_text(json.dumps({"problem": "3*3", "ground_truth": 9}) + "\n")
    pred.write_text("3*3=9\n")
    argv = {"eval": ["eval", "--gold", str(gold), "--pred", str(pred), "--csv"],
            "bigbench": ["bigbench", "--op", "MUL", "--digits", "2", "--n", "3",
                         "--seed", "1", "--out"]}[command]
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_text("old")
    target.chmod(0o640)
    old = target.stat().st_ino
    link.symlink_to(target)
    assert run(capsys, *argv, str(link))[0] == 0
    want = tmp_path / "want"
    assert run(capsys, *argv, str(want))[0] == 0
    assert link.is_symlink() and target.read_bytes() == want.read_bytes()
    assert stat.S_IMODE(target.stat().st_mode) == 0o640 and target.stat().st_ino != old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.jsonl", "link", "p.txt",
                                                          "target", "want"]


class TestReconstructCli:
    def test_rejects_file_created_even_when_empty(self, capsys, tmp_path):
        src = tmp_path / "ape.jsonl"
        src.write_text(json.dumps(
            {"id": "1", "original_text": "q", "equation": "x=4*7", "ans": "28"}) + "\n")
        out = tmp_path / "ape_steps.jsonl"
        rc, o, _ = run(capsys, "reconstruct", "--in", str(src), "--out", str(out), "--json")
        assert rc == 0
        payload = json.loads(o)
        assert payload["reconstructed"] == 1 and payload["rejected"] == 0
        rejects = tmp_path / "ape_steps.jsonl.rejects.jsonl"
        assert rejects.exists() and rejects.read_text() == ""
        assert json.loads(out.read_text())["solution_trace"] == "4*7=28"

    @pytest.mark.parametrize("bad,reason", [
        ('{"id": "2", "original_text": "q", "equation": "2+2"}', "'ans'"),
        ('{"id": "2", "original_text": "q", "ans": "4"}', "'equation'"),
        ("not json", "not a JSON object"),
        ('["2+2", "4"]', "not a JSON object"),
    ])
    def test_bad_line_is_a_reject_row(self, capsys, tmp_path, bad, reason):
        src = tmp_path / "ape.jsonl"
        src.write_text(bad + "\n" + json.dumps(
            {"id": "1", "original_text": "q", "equation": "1+2", "ans": "3"}) + "\n")
        out = tmp_path / "out.jsonl"
        rc, o, _ = run(capsys, "reconstruct", "--in", str(src), "--out", str(out), "--json")
        assert rc == 0
        payload = json.loads(o)
        assert (payload["reconstructed"], payload["rejected"]) == (1, 1)
        [row] = [json.loads(line) for line in
                 Path(payload["rejects_file"]).read_text().splitlines()]
        assert reason in row["reason"]
        assert row["line"] == 1
        assert json.loads(out.read_text())["id"] == "1"

    @pytest.mark.parametrize("ans", ['"' + "9" * 5000 + '"', "9" * 5000, '"' + "1" * 400 + '%"',
                                     '"' + "1" * 400 + '.5"'],
                             ids=["text", "JSON number", "percent past binary64",
                                  "decimal past binary64"])
    def test_oversized_answer_is_a_reject_row(self, capsys, tmp_path, ans):
        src = tmp_path / "ape.jsonl"
        src.write_text('\n{"id": "2", "equation": "1+2", "ans": ' + ans + "}\n")
        out = tmp_path / "out.jsonl"
        rc, o, _ = run(capsys, "reconstruct", "--in", str(src), "--out", str(out), "--json")
        assert rc == 0
        payload = json.loads(o)
        assert (payload["reconstructed"], payload["rejected"]) == (0, 1)
        [row] = [json.loads(line) for line in
                 Path(payload["rejects_file"]).read_text().splitlines()]
        assert row["line"] == 2

    @pytest.mark.parametrize("equation,reason", [
        ("2^" + "9" * 400, "2^" + "9" * 400 + " has more than 4300 digits"),
        ("1" * 400 + "%", "integer quotient exceeds binary64 range"),
    ], ids=["power", "percent"])
    def test_value_past_a_float_is_a_reject_row(self, capsys, tmp_path, equation, reason):
        src = tmp_path / "ape.jsonl"
        src.write_text(json.dumps({"id": "2", "equation": equation, "ans": "1"}) + "\n")
        out = tmp_path / "out.jsonl"
        rc, o, _ = run(capsys, "reconstruct", "--in", str(src), "--out", str(out), "--json")
        assert rc == 0
        payload = json.loads(o)
        assert (payload["reconstructed"], payload["rejected"]) == (0, 1)
        [row] = [json.loads(line) for line in
                 Path(payload["rejects_file"]).read_text().splitlines()]
        assert row["reason"].endswith(reason)

    def test_rejects_naming_the_out_file_is_a_usage_error(self, capsys, tmp_path):
        # written to one file, the rejects would take the records' place
        src = tmp_path / "ape.jsonl"
        src.write_text("not json\n" + json.dumps(
            {"id": "1", "original_text": "q", "equation": "1+2", "ans": "3"}) + "\n")
        out = tmp_path / "out.jsonl"
        (tmp_path / "link").symlink_to("out.jsonl")
        for rejects in (str(out), f"{tmp_path}/./out.jsonl", str(tmp_path / "link")):
            rc, o, err = run(capsys, "reconstruct", "--in", str(src), "--out", str(out),
                             "--rejects", rejects)
            assert (rc, o) == (64, "") and "--rejects" in err and "--out" in err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["ape.jsonl", "link"]


class TestScoreMwpCli:
    def test_end_to_end(self, capsys, tmp_path):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps({
            "id": "1", "original_text": "q", "equation": "20-5-8", "ans": "7",
            "solution_trace": "20-5-8=15-8=7",
        }, ensure_ascii=False) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"id": "1", "prediction": "20-5-8=15-8=6"}) + "\n")
        rc, out, _ = run(capsys, "score-mwp", "--gold", str(gold), "--pred", str(pred),
                         "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["arithmetic_accuracy"] == 1.0
        assert payload["answer_accuracy"] == 0.0

    # a power past binary64 in the expression part, a percent or a decimal
    # past it as the answer
    @pytest.mark.parametrize("prediction,accuracies", [
        ("2^" + "9" * 400 + "=8", (0.0, 1.0)),
        ("2^3=" + "1" * 400 + "%", (1.0, 0.0)),
        ("2^3=" + "1" * 400 + ".5", (1.0, 0.0)),
    ], ids=["power", "percent", "decimal"])
    def test_value_past_a_float_scores_incorrect(self, capsys, tmp_path, prediction, accuracies):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps({"id": "1", "original_text": "q", "equation": "2^3",
                                    "ans": "8", "solution_trace": "2^3=8"}) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"id": "1", "prediction": prediction}) + "\n")
        rc, out, _ = run(capsys, "score-mwp", "--gold", str(gold), "--pred", str(pred),
                         "--json")
        assert rc == 0
        payload = json.loads(out)
        assert (payload["arithmetic_accuracy"], payload["answer_accuracy"]) == accuracies

    @pytest.mark.parametrize("bad", [
        "not json", '["1", "20-5-8=7"]', '{"prediction": "20-5-8=7"}', '{"id": "1"}',
        '{"id": "1", "prediction": 7}',
    ])
    def test_malformed_prediction_line_exit_64(self, capsys, tmp_path, bad):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps({"id": "1", "original_text": "q", "equation": "20-5-8",
                                    "ans": "7", "solution_trace": "20-5-8=15-8=7"}) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"id": "1", "prediction": "7"}) + "\n\n" + bad + "\n")
        rc, out, err = run(capsys, "score-mwp", "--gold", str(gold), "--pred", str(pred))
        assert rc == 64 and out == ""
        assert f"{pred}:3: " in err

    @pytest.mark.parametrize("record,reason", [
        ({"id": "1", "equation": "1+1", "ans": "2"}, "record lacks 'solution_trace'"),
        ({"id": "1", "equation": "1+1", "ans": "two", "solution_trace": "1+1=2"},
         "unparseable answer 'two'"),
    ])
    def test_malformed_gold_line_exit_64(self, capsys, tmp_path, record, reason):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps(record) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"id": "1", "prediction": "1+1=2"}) + "\n")
        rc, _, err = run(capsys, "score-mwp", "--gold", str(gold), "--pred", str(pred))
        assert rc == 64 and f"{gold}:1: {reason}" in err


def test_non_utf8_input_files_exit_64(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\n")
    out = str(tmp_path / "out")
    for argv in (["tokenize", "--in", bad],
                 ["pack", "--in", bad, "--out", out, "--block-length", "8"],
                 ["eval", "--in", bad],
                 ["reconstruct", "--in", bad, "--out", out],
                 ["score-mwp", "--gold", bad, "--pred", bad],
                 ["generate", "--schedule", bad, "--out", out, "--seed", "1"]):
        rc, stdout, err = run(capsys, *map(str, argv))
        assert (rc, stdout) == (64, ""), argv
        assert err.splitlines()[1] == (f"stepmath: malformed input: {bad}: "
                                       "not UTF-8: byte 0xff, invalid start byte"), argv


def test_reconstruct_stopped_by_a_bad_byte_leaves_no_file(capsys, tmp_path):
    # hundreds of records, a reject, then a byte that is not UTF-8: the run
    # has written to both files when it stops
    good = json.dumps({"id": "a", "equation": "1+2*3", "ans": "7"})
    bad = json.dumps({"id": "b", "equation": "1+1", "ans": "3"})
    src = tmp_path / "in.jsonl"
    src.write_bytes(((good + "\n") * 400 + bad + "\n").encode() + b"\xff\n")
    out = tmp_path / "out.jsonl"
    rc, stdout, err = run(capsys, "reconstruct", "--in", str(src), "--out", str(out))
    assert (rc, stdout) == (64, "")
    assert "not UTF-8: byte 0xff" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


class TestExitTable:
    ROWS = [
        (ExprSyntaxError("unexpected '+'", 3), 2, "stepmath: parse error: "),
        (DivByZero(), 3, "stepmath: math error: "),
        (NonTerminating("no rule applies"), 3, "stepmath: math error: "),
        (OSError("disk full"), 4, "stepmath: io error: "),
        (MalformedInput("x.jsonl:3: bad line"), 64, "stepmath: malformed input: "),
        (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), 64,
         "stepmath: malformed input: "),
        (UnknownId(99), 3, "stepmath: "),
    ]

    def test_every_row_through_main(self, capsys, monkeypatch):
        for error, code, prefix in self.ROWS:
            def fail(*_, error=error):
                raise error
            monkeypatch.setattr(cli, "trace", fail)
            rc, out, err = run(capsys, "trace", "7")
            assert (rc, out) == (code, "")
            assert err.splitlines()[1:] == [prefix + str(error)]
        # every row of the table, the fallback included, was reached above
        driven = {type(error) for error, _, _ in self.ROWS}
        assert all(any(issubclass(t, cls) for t in driven) for cls, _, _ in cli._EXITS)
        assert cli._EXITS[-1][0] is StepmathError


# ---------------------------------------------------------------------------
# every JSONL input through the one reader: arbitrary lines end in exit 0, or
# in 64 naming the first bad line by its number, blank lines counted

_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                max_size=12)
_JSON_JUNK = st.sampled_from(["0", "-1.5", "null", "true", '"x"', "[]", '["1", "2"]', "{}",
                              "[{}]", '{"id": {}}', "1" * 5000])


def _lines(good: dict, breaks: list):
    """Tagged lines: blank, a good record, a record with one field broken
    (deleted, or set to a value of the wrong kind), or junk text and JSON."""
    def broken(edit):
        key, value = edit
        obj = {k: v for k, v in good.items() if k != key}
        if value is not None:
            obj[key] = value[0]
        return json.dumps(obj)

    line = st.one_of(
        st.sampled_from(["", " ", "\t  "]),
        _TEXT,
        _JSON_JUNK,
        st.just(json.dumps(good)),
        st.sampled_from(breaks).map(broken),
    )
    return st.lists(line.map(lambda t: (t, json.dumps(good) == t)), max_size=8)


def _write(path: Path, lines) -> list[int]:
    """Writes the lines; returns the line numbers of the non-blank ones."""
    path.write_text("".join(t + "\n" for t, _ in lines), encoding="utf-8")
    return [n for n, (t, _) in enumerate(lines, start=1) if t.strip()]


def _main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _first_bad(lines) -> int:
    return next((n for n, (t, good) in enumerate(lines, start=1) if t.strip() and not good), 0)


_EVAL = {"problem": "1+1", "ground_truth": "2", "prediction": "1+1=2"}
_EVAL_BREAKS = [("problem", None), ("problem", (5,)), ("ground_truth", None),
                ("prediction", (2,))]
_GOLD = {"problem": "3*3", "ground_truth": 9}
_APE = {"id": "1", "equation": "1+2", "ans": "3"}
_APE_BREAKS = [("id", None), ("equation", None), ("ans", None), ("ans", (None,)),
               ("ans", ({},)), ("ans", ("x",)), ("equation", ("1+",))]
_MWP = {"id": "1", "equation": "1+2", "ans": "3", "solution_trace": "1+2=3"}
_MWP_BREAKS = [("id", None), ("equation", None), ("ans", None), ("solution_trace", None),
               ("ans", (None,)), ("ans", ("x",))]
_PRED = {"id": "1", "prediction": "1+2=3"}
_PRED_BREAKS = [("id", None), ("prediction", None), ("prediction", (7,)),
                ("prediction", (["x"],))]


class TestArbitraryJsonlLines:
    @settings(max_examples=80, deadline=None)
    @given(_lines(_EVAL, _EVAL_BREAKS))
    def test_eval_combined(self, lines):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "in.jsonl"
            numbers = _write(path, lines)
            rc, out, _ = _main("eval", "--in", str(path), "--json")
        assert rc == 0 and json.loads(out)["total"] == len(numbers)

    @settings(max_examples=80, deadline=None)
    @given(_lines(_GOLD, [("problem", None), ("ground_truth", None)]),
           st.lists(_TEXT.map(lambda t: (t, False)), max_size=8))
    def test_eval_gold_and_pred(self, gold_lines, pred_lines):
        with tempfile.TemporaryDirectory() as d:
            gold, pred = Path(d) / "g.jsonl", Path(d) / "p.txt"
            golds, preds = _write(gold, gold_lines), _write(pred, pred_lines)
            rc, _, err = _main("eval", "--gold", str(gold), "--pred", str(pred))
        if len(golds) == len(preds):
            assert rc == 0
        else:
            n = min(len(golds), len(preds))
            path, numbers = (gold, golds) if len(golds) > n else (pred, preds)
            assert rc == 64 and f"malformed input: {path}:{numbers[n]}: no partner" in err

    @settings(max_examples=80, deadline=None)
    @given(_lines(_APE, _APE_BREAKS))
    def test_reconstruct(self, lines):
        with tempfile.TemporaryDirectory() as d:
            path, out = Path(d) / "in.jsonl", Path(d) / "out.jsonl"
            numbers = _write(path, lines)
            rc, o, _ = _main("reconstruct", "--in", str(path), "--out", str(out), "--json")
            rows = [json.loads(r) for r in Path(d, "out.jsonl.rejects.jsonl").read_text().splitlines()]
        bad = [n for n in numbers if not lines[n - 1][1]]
        assert rc == 0 and [row["line"] for row in rows] == bad
        assert json.loads(o)["reconstructed"] == len(numbers) - len(bad)

    @pytest.mark.parametrize("arbitrary", ["gold", "pred"])
    def test_score_mwp(self, arbitrary):
        # arbitrary lines in one file, one good record in the other
        good = {"gold": _MWP, "pred": _PRED}
        breaks = {"gold": _MWP_BREAKS, "pred": _PRED_BREAKS}[arbitrary]

        @settings(max_examples=80, deadline=None)
        @given(_lines(good[arbitrary], breaks))
        def check(lines):
            with tempfile.TemporaryDirectory() as d:
                files = {name: Path(d) / f"{name}.jsonl" for name in good}
                for name, path in files.items():
                    _write(path, lines if name == arbitrary else [(json.dumps(good[name]), True)])
                rc, _, err = _main("score-mwp", "--gold", str(files["gold"]),
                                   "--pred", str(files["pred"]))
            bad = _first_bad(lines)
            if bad:
                assert rc == 64 and f"malformed input: {files[arbitrary]}:{bad}: " in err
            else:
                assert rc == 0

        check()
