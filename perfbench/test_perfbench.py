"""Tests of the benchmark's own arithmetic: span self time, the percentile
rule, and the counts the planted plans promise.

    python3 -m pytest -q perfbench
"""

import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import spans  # noqa: E402
from spans import Tracer, highest_percentile, nearest_rank  # noqa: E402


def test_self_time_is_span_minus_children(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    monkeypatch.setattr(spans, "perf_counter", lambda: next(clock))

    class Owner:
        @staticmethod
        def inner():
            return None

        @staticmethod
        def outer():
            Owner.inner()
            Owner.inner()

    tr = Tracer()
    tr.wrap(Owner, "inner", "inner")
    tr.wrap(Owner, "outer", "outer")
    tr.enabled = True
    Owner.outer()
    tr.unwrap_all()

    assert tr.total("outer") == 10.0
    assert tr.self_time("outer") == 10.0 - (2.0 + 1.0)
    assert tr.calls("inner", parent="outer") == 2
    assert tr.total("inner") == tr.self_time("inner") == 3.0
    assert Owner.outer.__name__ == "outer" and not hasattr(Owner.outer, "__wrapped__")


def test_disabled_tracer_records_nothing():
    class Owner:
        @staticmethod
        def f(x):
            return x + 1

    tr = Tracer()
    tr.wrap(Owner, "f", "f")
    assert Owner.f(1) == 2
    assert tr.calls("f") == 0


def test_percentile_is_highest_with_ten_beyond():
    assert highest_percentile(200) == 95.0
    assert highest_percentile(199) == 90.0
    assert highest_percentile(1000) == 99.0
    assert highest_percentile(10_000) == 99.9
    assert highest_percentile(20) == 50.0
    assert highest_percentile(19) is None
    values = list(range(1, 201))
    p95 = nearest_rank(values, 95)
    assert sum(v > p95 for v in values) == 10
    assert nearest_rank(values, 50) == 100


def test_clock_scale_follows_reference_speed():
    import clock
    c = clock.Clock()
    c._recent.extend([clock.NOMINAL * 2] * 4 + [clock.NOMINAL * 100])
    assert c.scale() == 0.5 ** clock.EXPONENT  # median of the window, not the outlier


def test_exact_eval():
    assert inputs.exact_eval("2*(3+4)-5/2") == Fraction(23, 2)
    assert inputs.exact_eval("[1.5+2]*48/6") == 28
    assert inputs.exact_eval("10-2-3") == 5


def _trace_lines(n):
    from stepmath import datagen
    buf = io.BytesIO()
    datagen.generate_dataset(datagen.schedule_from_json(inputs.schedule_json(5)), buf)
    return buf.getvalue().decode().splitlines()[:n]


def test_eval_plan_counts_match_scoring(tmp_path):
    from stepmath import metrics
    lines = _trace_lines(100)
    gold, preds, expected = inputs.eval_plan(random.Random(3), lines)
    assert expected["correct"] < expected["re_correct"] < expected["total"] == 100
    for g, p in zip(gold, preds):
        y = inputs.number_value(g["ground_truth"])
        tail = inputs.number_value(p.rsplit("=", 1)[1])
        if tail is not None and tail != y:  # a planted near miss
            assert abs(tail - y) / abs(y) <= Fraction(1, 100)
            assert round(tail, 2) != round(y, 2)
    (tmp_path / "gold.jsonl").write_text("".join(json.dumps(g) + "\n" for g in gold))
    (tmp_path / "pred.txt").write_text("".join(p + "\n" for p in preds))
    records = metrics.load_prediction_records(gold_path=str(tmp_path / "gold.jsonl"),
                                              pred_path=str(tmp_path / "pred.txt"))
    report = metrics.evaluate(records)
    got = {k: getattr(report, k) for k in expected}
    assert got == expected


def test_mwp_plan_counts_match_reconstruct_and_score(tmp_path):
    from stepmath import mwp
    records, preds, expected = inputs.mwp_plan(random.Random(4), 0, 300)
    assert 0 < expected["rejected"] < 60
    assert expected["reconstructed"] + expected["rejected"] == 300
    for r in records:
        if r["ans"] != "abc" and "+*" not in r["equation"] and "-*" not in r["equation"] \
                and "**" not in r["equation"]:
            value = inputs.exact_eval(r["equation"].removeprefix("x="))
            assert value.denominator in (1, 2, 5, 10)
    src = tmp_path / "ape.jsonl"
    src.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                   encoding="utf-8")
    written, rejected = mwp.reconstruct_file(str(src), str(tmp_path / "out.jsonl"),
                                             str(tmp_path / "rej.jsonl"))
    assert (written, rejected) == (expected["reconstructed"], expected["rejected"])
    gold = mwp.load_reconstructed(str(tmp_path / "out.jsonl"))
    report = mwp.score_mwp(gold, {p["id"]: p["prediction"] for p in preds})
    assert report.total == expected["total"]
    assert report.arithmetic_correct == expected["arithmetic_correct"]
    assert report.answer_correct == expected["answer_correct"]


def test_long_chain_sizes_and_values():
    chains = inputs.long_chains(random.Random(6))
    assert [n for _, n, _ in chains] == list(inputs.CHAIN_SIZES)
    assert highest_percentile(len(chains)) == 95.0
    text, n, value = chains[1]
    assert text.count("(") + text.count("[") > 0
    assert value == inputs.exact_eval(text)


def test_deal_by_length_balances_batches():
    items = ["x" * k for k in range(1, 101)]
    batches = inputs.deal_by_length(items, len, 10)
    sizes = [sum(map(len, b)) for b in batches]
    assert sorted(sum(batches, [])) == sorted(items)
    assert max(sizes) - min(sizes) <= 10 * 9
