import json
import random
from fractions import Fraction

import pytest

from stepmath.metrics import (
    PredictionRecord,
    bigbench_suite,
    classify_problem,
    evaluate,
    extract_answer,
    grouped_csv,
    is_correct,
    parse_number_text,
    relative_error,
)
from stepmath.numeric import Frac

from conftest import ERROR_TABLE_ROWS, schoolbook_mul, string_round_2dp


class TestExtraction:
    def test_takes_segment_after_last_equals(self):
        got = extract_answer("3468*4046/7424=14031528/7424=1889.901400862069")
        assert got == 1889.901400862069

    def test_whole_string_when_no_equals(self):
        assert extract_answer("83") == 83

    def test_unparseable_tail_is_failure_not_exception(self):
        assert extract_answer("abc=xy") is None
        assert extract_answer("") is None

    def test_fraction_and_percent_tails(self):
        assert extract_answer("...=28/51") == Frac(28, 51)
        assert extract_answer("x=75%") == 0.75

    def test_parse_number_text(self):
        assert parse_number_text("-58276183466") == -58276183466
        assert parse_number_text("0.5") == 0.5
        assert parse_number_text("7/30") == Frac(7, 30)
        assert parse_number_text("1/0") is None
        assert parse_number_text("1.2.3") is None
        assert parse_number_text("1" * 400 + "%") is None  # past binary64
        assert parse_number_text("1" * 400 + ".5%") is None
        assert parse_number_text("1" * 400 + ".5") is None


class TestIsCorrect:
    def test_published_failure_row(self):
        assert not is_correct(1889.901400862069, 1890.0226293103449)

    def test_exact_match(self):
        assert is_correct(83, 83)

    def test_two_decimal_agreement(self):
        # derived from the decimal-string rounding oracle
        assert string_round_2dp("2.004") == string_round_2dp("2.0044") == "2.00"
        assert is_correct(2.004, 2.0044)
        assert string_round_2dp("2.005") == "2.01" != string_round_2dp("2.0044")
        assert not is_correct(2.005, 2.0044)

    def test_matches_string_rounding_oracle_on_random_decimals(self):
        rng = random.Random(19)
        for _ in range(2_000):
            a = round(rng.uniform(-1000, 1000), rng.randint(0, 6))
            b = round(rng.uniform(-1000, 1000), rng.randint(0, 6))
            want = string_round_2dp(repr(a)) == string_round_2dp(repr(b))
            assert is_correct(a, b) == want, (a, b)

    def test_fractions_compare_exactly(self):
        assert is_correct(Frac(28, 51), Frac(56, 102))
        # 1/300 and 1/301 both round to 0.00 but are distinct rationals
        assert not is_correct(Frac(1, 300), Frac(1, 301))
        # mixed kinds fall back to two-decimal rounding
        assert is_correct(Frac(1, 2), 0.5)

    def test_binary64_past_the_decimal_context_rounds(self):
        # 1e26 and up have more than 28 digits in cents
        big = 123456789012345678901234567.5
        assert is_correct(big, big)
        assert is_correct(1.7976931348623157e308, 1.7976931348623157e308)
        assert is_correct(1e30, 10**30)
        assert not is_correct(1e26, 2e26)
        assert not is_correct(-big, big)

    def test_symmetry(self):
        pairs = [(2.004, 2.0044), (1889.901400862069, 1890.0226293103449),
                 (Frac(1, 3), 0.33), (83, 84)]
        for a, b in pairs:
            assert is_correct(a, b) == is_correct(b, a)


class TestRelativeError:
    def test_published_row_value(self):
        got = relative_error(1889.901400862069, 1890.0226293103449)
        # exact rational reference computed from the two decimal strings
        want = abs(
            (Fraction("1889.901400862069") - Fraction("1890.0226293103449"))
            / Fraction("1890.0226293103449")
        )
        assert abs(got - float(want)) < 1e-9
        assert f"{got:.2e}" == "6.41e-05"
        assert got <= 0.01  # counts as RE-correct despite being wrong at 2dp

    def test_zero_when_equal(self):
        assert relative_error(83, 83) == 0.0
        assert relative_error(0, 0) == 0.0

    def test_threshold_boundary_inclusive(self):
        assert relative_error(101, 100) == 0.01

    def test_undefined_at_zero_truth(self):
        assert relative_error(5, 0) is None
        assert relative_error(0.0, 0) == 0.0

    def test_not_symmetric(self):
        a, b = 101.0, 100.0
        assert relative_error(a, b) != relative_error(b, a)

    def test_exact_path_handles_huge_integers(self):
        big = 10**400
        assert relative_error(big, big) == 0.0
        assert relative_error(big + 10**396, big) == pytest.approx(1e-4)
        assert relative_error(big, 3) == float("inf")  # past binary64
        assert relative_error(Frac(10**400, 3), Frac(1, 3)) == float("inf")  # a Frac too


class TestEvaluate:
    def test_all_correct(self):
        records = [
            PredictionRecord.from_raw(f"{i}+1", i + 1, f"{i}+1={i + 1}")
            for i in range(100)
        ]
        report = evaluate(records)
        assert report.total == 100
        assert report.accuracy == 1.0
        assert report.re_accuracy == 1.0

    def test_published_error_rows_all_score_incorrect(self):
        records = []
        for problem, output, truth in ERROR_TABLE_ROWS:
            gt = truth.rsplit("=", 1)[-1]
            records.append(PredictionRecord.from_raw(problem.rstrip("="), gt, output))
        report = evaluate(records)
        assert report.total == 6
        assert report.correct == 0

    def test_extraction_failure_counts_incorrect_on_both_metrics(self):
        rec = PredictionRecord.from_raw("1+1", 2, "no answer here")
        report = evaluate([rec])
        assert report.accuracy == 0.0
        assert report.re_accuracy == 0.0
        assert report.re_defined == 1

    def test_zero_truth_excluded_from_re_denominator(self):
        recs = [
            PredictionRecord.from_raw("3-3", 0, "3-3=5"),   # RE undefined
            PredictionRecord.from_raw("3-3", 0, "3-3=0"),   # RE defined, 0
            PredictionRecord.from_raw("1+1", 2, "1+1=2"),
        ]
        report = evaluate(recs)
        assert report.re_defined == 2
        assert report.re_accuracy == 1.0
        assert report.accuracy == pytest.approx(2 / 3)

    def test_order_independence(self):
        rng = random.Random(3)
        records = [
            PredictionRecord.from_raw(f"{i}+2", i + 2, f"{i}+2={i + 2 + (i % 3)}")
            for i in range(60)
        ]
        before = evaluate(records).to_dict()
        rng.shuffle(records)
        assert evaluate(records).to_dict() == before

    def test_grouped_grid(self):
        records = [
            PredictionRecord.from_raw("12+34", 46, "12+34=46"),
            PredictionRecord.from_raw("1.5*2.5", 3.75, "1.5*2.5=3.8"),
            PredictionRecord.from_raw("(1/2)+(1/3)", "5/6", "(1/2)+(1/3)=5/6"),
            PredictionRecord.from_raw("50%*10%", 0.05, "=0.05"),
            PredictionRecord.from_raw("-5*-4", 20, "20"),
            PredictionRecord.from_raw("2^10", 1024, "1024"),
            PredictionRecord.from_raw("1+2*3", 7, "1+2*3=1+6=7"),
        ]
        report = evaluate(records)
        assert report.grouped[("ADD", "Int")] == {"n": 1, "correct": 1, "accuracy": 1.0}
        assert report.grouped[("MUL", "Dec")]["correct"] == 0
        assert ("ADD", "Frac") in report.grouped
        assert ("MUL", "Perc") in report.grouped
        assert ("MUL", "Neg") in report.grouped
        assert ("POW", "Int") in report.grouped
        assert ("MIX", "Int") in report.grouped
        csv = grouped_csv(report)
        assert csv.splitlines()[0] == "task,Int,Dec,Frac,Perc,Neg"

    def test_malformed_records_become_error_verdicts_not_exceptions(self, tmp_path):
        from stepmath.metrics import load_prediction_records

        path = tmp_path / "records.jsonl"
        path.write_text(
            "\n".join(
                [
                    json.dumps({"problem": "1+1", "ground_truth": "2", "prediction": "1+1=2"}),
                    "{this is not json",
                    json.dumps({"problem": "2+2"}),  # missing fields
                    json.dumps({"problem": "3+3", "ground_truth": "six", "prediction": "6"}),
                    json.dumps({"problem": "4+4", "ground_truth": "8", "prediction": 8}),
                ]
            )
            + "\n"
        )
        records = load_prediction_records(combined_path=str(path))
        report = evaluate(records, keep_verdicts=True)
        assert report.total == 5
        assert report.correct == 1
        assert report.errors == 4
        assert sum(v["error"] for v in report.verdicts) == 4

    def test_self_consistency_on_held_out_generated_set(self):
        # score the generator's own traces as predictions: a perfect model
        from stepmath.datagen import default_curriculum, evaluation_schedule, iter_records

        held = evaluation_schedule(default_curriculum(100_000, seed=606), count=9_592)
        records = []
        for line, category, _, _ in iter_records(held):
            problem, _, _ = line.partition("=")
            truth = line.rsplit("=", 1)[-1]
            records.append(PredictionRecord.from_raw(problem, truth, line))
        assert len(records) == 9_592
        report = evaluate(records)
        assert report.accuracy == 1.0
        assert report.re_accuracy == 1.0
        # accuracy <= re_accuracy holds on this dataset as required
        assert report.accuracy <= report.re_accuracy

    def test_two_decimal_agreement_bounds_re_when_truth_at_least_one(self):
        rng = random.Random(8)
        for _ in range(500):
            y = rng.uniform(1, 10_000) * rng.choice((1, -1))
            y_hat = y + rng.uniform(-0.004, 0.004)
            if is_correct(y_hat, y):
                assert relative_error(y_hat, y) <= 0.01


class TestClassify:
    def test_single_op_labels(self):
        assert classify_problem("12+34") == ("ADD", "Int")
        assert classify_problem("1.5/2.5") == ("DIV", "Dec")
        assert classify_problem("(1/2)-(1/3)") == ("SUB", "Frac")
        assert classify_problem("5%*3%") == ("MUL", "Perc")
        assert classify_problem("-5--4") == ("SUB", "Neg")
        assert classify_problem("3*+-5") == classify_problem("3*-5") == ("MUL", "Neg")
        assert classify_problem("2^10") == ("POW", "Int")

    def test_multi_op_is_mix(self):
        assert classify_problem("1+2*3") == ("MIX", "Int")
        assert classify_problem("1+8/1*10+2") == ("MIX", "Int")

    def test_unclassifiable(self):
        assert classify_problem("hello") is None
        assert classify_problem("7") is None


class TestBigbench:
    def test_operand_ranges(self):
        for digits, lo, hi in ((1, 1, 9), (3, 100, 999), (5, 10000, 99999)):
            suite = bigbench_suite("MUL", digits, 50, seed=9)
            for item in suite:
                a, b = item["problem"].split("*")
                assert lo <= int(a) <= hi and lo <= int(b) <= hi

    def test_ground_truth_matches_schoolbook_oracle(self):
        suite = bigbench_suite("MUL", 4, 200, seed=5)
        for item in suite:
            a, b = map(int, item["problem"].split("*"))
            assert int(item["ground_truth"]) == schoolbook_mul(a, b)

    def test_deterministic(self):
        assert bigbench_suite("ADD", 2, 20, seed=1) == bigbench_suite("ADD", 2, 20, seed=1)
        assert bigbench_suite("ADD", 2, 20, seed=1) != bigbench_suite("ADD", 2, 20, seed=2)

    def test_grid_covers_all_ops_and_digit_counts(self):
        seen = {(op, d) for op in ("ADD", "SUB", "MUL", "DIV") for d in range(1, 6)
                if bigbench_suite(op, d, 2, seed=3)}
        assert len(seen) == 20

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            bigbench_suite("MOD", 2, 5, seed=1)
        with pytest.raises(ValueError):
            bigbench_suite("ADD", 6, 5, seed=1)

    def test_division_ground_truths_follow_value_domain(self):
        suite = bigbench_suite("DIV", 2, 300, seed=11)
        exact = sum(1 for item in suite if "." not in item["ground_truth"])
        inexact = sum(1 for item in suite if "." in item["ground_truth"])
        assert exact > 0 and inexact > 0  # both integer and binary64 quotients occur
