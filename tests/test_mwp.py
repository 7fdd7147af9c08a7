import json

import pytest

from stepmath.errors import AnswerMismatch, EquationParseError
from stepmath.mwp import (
    ReconstructedRecord,
    normalize_answer,
    normalize_equation,
    reconstruct,
    reconstruct_file,
    record_from_obj,
    score_mwp,
)


def _rec(id_, equation, answer, question="题目"):
    return record_from_obj(
        {"id": id_, "original_text": question, "equation": equation, "ans": answer}
    )


class TestNormalization:
    def test_strip_x_prefix(self):
        assert normalize_equation("x=20-5-8") == "20-5-8"

    def test_strip_whitespace(self):
        assert normalize_equation("20 - 5 - 8") == "20-5-8"

    def test_answer_unit_suffix(self):
        value, text = normalize_answer("7颗")
        assert value == 7 and text == "7"

    def test_answer_percent_and_fraction(self):
        assert normalize_answer("75%")[0] == 0.75
        v = normalize_answer("7/10")[0]
        assert v.num == 7 and v.den == 10


class TestReconstruct:
    def test_candy_style_record(self):
        rec = _rec("k1", "20-5-8", "7")
        out = reconstruct(rec)
        assert out.solution_trace == "20-5-8=15-8=7"

    def test_single_step(self):
        assert reconstruct(_rec("k2", "4*7", "28")).solution_trace == "4*7=28"

    def test_zero_step(self):
        assert reconstruct(_rec("k3", "5", "5")).solution_trace == "5"

    def test_x_prefix_equation(self):
        assert reconstruct(_rec("k4", "x=20-5-8", "7")).solution_trace == "20-5-8=15-8=7"

    def test_answer_mismatch_rejected(self):
        with pytest.raises(AnswerMismatch):
            reconstruct(_rec("bad", "20-5-8", "8"))

    def test_parse_failure_rejected(self):
        with pytest.raises(EquationParseError):
            reconstruct(_rec("bad", "20-5-", "7"))

    def test_two_decimal_tolerance_on_answers(self):
        # stored answers are often rounded to two places
        rec = _rec("r", "10/3", "3.33")
        assert reconstruct(rec).solution_trace == "10/3=3.3333333333333335"

    def test_idempotent(self):
        rec = _rec("k1", "20-5-8", "7")
        first = reconstruct(rec)
        again = reconstruct(first.record)
        assert again.solution_trace == first.solution_trace
        assert again.record == first.record

    def test_pass_through_fields_untouched(self):
        rec = _rec("k9", "4*7", "28", question="一个乘数是4,另一个乘数是7,积是多少?")
        out = reconstruct(rec)
        assert out.record.question == "一个乘数是4,另一个乘数是7,积是多少?"
        assert out.record.equation == "4*7"
        assert out.record.answer_text == "28"


class TestRejectsStream:
    def test_failures_go_to_rejects_with_reasons(self, tmp_path):
        objs = [
            {"id": "a", "original_text": "q", "equation": "1+1", "ans": "2"},
            {"id": "b", "original_text": "q", "equation": "1+", "ans": "2"},
            {"id": "c", "original_text": "q", "equation": "1+1", "ans": "3"},
        ]
        src, out, rej = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "rej.jsonl"
        src.write_text("\n".join(json.dumps(o) for o in objs) + "\n")
        assert reconstruct_file(str(src), str(out), str(rej)) == (1, 2)
        assert [json.loads(l)["id"] for l in out.read_text().splitlines()] == ["a"]
        lines = [json.loads(l) for l in rej.read_text().splitlines()]
        assert [(l["id"], l["line"]) for l in lines] == [("b", 2), ("c", 3)]
        assert all(l["reason"] for l in lines)

    def test_reconstruct_file_creates_empty_rejects(self, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text(
            json.dumps({"id": "a", "original_text": "q", "equation": "2*3", "ans": "6"})
            + "\n"
        )
        out = tmp_path / "out.jsonl"
        rej = tmp_path / "rej.jsonl"
        written, rejected = reconstruct_file(str(src), str(out), str(rej))
        assert (written, rejected) == (1, 0)
        assert rej.exists() and rej.read_text() == ""
        obj = json.loads(out.read_text())
        assert obj["solution_trace"] == "2*3=6"


class TestScoring:
    def _gold(self):
        return [
            ReconstructedRecord(_rec("1", "20-5-8", "7"), "20-5-8=15-8=7"),
            ReconstructedRecord(_rec("2", "4*7", "28"), "4*7=28"),
        ]

    def test_perfect_predictions(self):
        preds = {"1": "20-5-8=15-8=7", "2": "4*7=28"}
        report = score_mwp(self._gold(), preds)
        assert report.arithmetic_accuracy == 1.0
        assert report.answer_accuracy == 1.0

    def test_right_equation_wrong_arithmetic(self):
        # the asymmetry the metrics must be able to represent
        preds = {"1": "20-5-8=15-8=6", "2": "4*7=28"}
        report = score_mwp(self._gold(), preds)
        assert report.arithmetic_correct == 2
        assert report.answer_correct == 1
        assert report.arithmetic_accuracy > report.answer_accuracy

    def test_commutative_reordering_still_arithmetic_correct(self):
        preds = {"1": "20-5-8=15-8=7", "2": "7*4=28"}
        report = score_mwp(self._gold(), preds)
        assert report.arithmetic_correct == 2

    def test_wrong_equation_right_answer(self):
        preds = {"1": "20-13=7", "2": "4*7=28"}
        report = score_mwp(self._gold(), preds)
        # 20-13 evaluates to 7 == direct value of 20-5-8: value-equivalence holds
        assert report.arithmetic_correct == 2
        preds = {"1": "20-5=7", "2": "4*7=28"}
        report = score_mwp(self._gold(), preds)
        assert report.arithmetic_correct == 1

    def test_empty_prediction_counts_incorrect(self):
        preds = {"1": "", "2": "4*7=28"}
        report = score_mwp(self._gold(), preds)
        assert report.arithmetic_correct == 1
        assert report.answer_correct == 1

    def test_missing_id_counts_incorrect(self):
        report = score_mwp(self._gold(), {"2": "4*7=28"}, keep_verdicts=True)
        assert report.total == 2
        assert report.answer_correct == 1
        missing = [v for v in report.verdicts if v["status"] == "missing"]
        assert len(missing) == 1 and missing[0]["id"] == "1"
