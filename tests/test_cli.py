import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stepmath.cli import main

from conftest import GOLDEN_TRACES


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

    @pytest.mark.parametrize("src", ["9999^2000", "9^99999999"])
    def test_oversized_power_exit_3_before_computing(self, capsys, src):
        # 8,000 and 95 million digits: past the 4300-digit print limit, so
        # the power is refused up front instead of raising or never ending
        rc, out, err = run(capsys, "trace", src)
        assert rc == 3 and out == ""
        assert f"{src} has more than 4300 digits" in err

    def test_effective_config_line_on_stderr(self, capsys):
        _, _, err = run(capsys, "trace", "7")
        cfg = json.loads(err.splitlines()[0])
        assert cfg["command"] == "trace"
        assert cfg["config"]["expr"] == "7"


class TestRealProcess:
    def test_trace_through_interpreter(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stepmath.cli", "trace", "8371*(-1945+8878)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "8371*(-1945+8878)=8371*6933=58036143\n"

    def test_math_error_exit_code_through_interpreter(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stepmath.cli", "trace", "2^-3"],
            capture_output=True, text=True,
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
        env = {**os.environ, "COLUMNS": "80"}
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
        data.write_text("123456789+1=123456790\n")
        rc, _, err = run(capsys, "pack", "--in", str(data), "--out",
                         str(tmp_path / "d.pack"), "--block-length", "8")
        assert rc == 3 and "line 1" in err


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

    def test_no_inputs_exit_64(self, capsys, tmp_path):
        rc, _, err = run(capsys, "eval")
        assert rc == 64 and "--gold" in err and "--pred" in err
        rc, _, _ = run(capsys, "eval", "--gold", str(tmp_path / "g.jsonl"))
        assert rc == 64


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
        assert json.loads(out.read_text())["id"] == "1"


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
