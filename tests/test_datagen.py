import io
import json
import random
import time
import tracemalloc
from types import SimpleNamespace

import pytest

from stepmath import datagen, numeric
from stepmath.datagen import (
    CATEGORIES,
    CurriculumSchedule,
    GenSpec,
    Phase,
    build_record,
    default_curriculum,
    evaluation_schedule,
    generate_dataset,
    iter_records,
    sample_expression,
    schedule_from_json,
    spec_for_index,
)
from stepmath.errors import DivByZero
from stepmath.expr import Chain, FractionLit, Lit, count_atomic_ops, iter_nodes, parse, print_expr
from stepmath.steps import direct_eval, render_trace, trace


def max_operand_digits(e) -> int:
    """The largest operand digit count, by a walk of the tree: the digits of
    a literal's whole part, the larger part of a fraction. An exponent is an
    operand too."""
    sizes = [0]
    for n in iter_nodes(e):
        if isinstance(n, Lit):
            whole = str(abs(n.value)) if n.percent else n.text.lstrip("-").split(".", 1)[0]
            sizes.append(len(whole))
        elif isinstance(n, FractionLit):
            sizes.append(max(len(str(abs(n.value.num))), len(str(n.value.den))))
    return max(sizes)


class TestGenSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenSpec("nope")
        with pytest.raises(ValueError):
            GenSpec("int-mixed", digit_range=(0, 5))
        with pytest.raises(ValueError):
            GenSpec("int-mixed", digit_range=(1, 13))
        with pytest.raises(ValueError):
            GenSpec("int-mixed", step_range=(1, 10))
        with pytest.raises(ValueError):
            GenSpec("int-mixed", step_range=(2, 11))

    def test_exponentiation_step_range_is_pinned(self):
        assert GenSpec("exponentiation", step_range=(2, 10)).step_range == (1, 1)


class TestSampling:
    def test_deterministic_per_seed_and_index(self):
        spec = GenSpec("int-mixed", (1, 4), (2, 10), seed=1)
        a = print_expr(sample_expression(spec, 0))
        b = print_expr(sample_expression(spec, 0))
        assert a == b
        assert a != print_expr(sample_expression(spec, 1))

    def test_exponentiation_caps(self):
        spec = GenSpec("exponentiation", (1, 12), (1, 1), seed=7)
        for i in range(300):
            e = sample_expression(spec, i)
            assert e.ops == "^"
            base, exponent = e.operands
            assert 1 <= base.value <= 10000
            assert 0 <= exponent.value <= 100

    def test_exact_step_constraint(self):
        spec = GenSpec("int-mixed", (1, 3), (2, 2), seed=11)
        for i in range(200):
            assert count_atomic_ops(sample_expression(spec, i)) == 2

    @pytest.mark.parametrize("category", CATEGORIES)
    def test_category_shape_and_constraints(self, category):
        steps = (1, 1) if category == "exponentiation" else (3, 7)
        spec = GenSpec(category, (2, 5), steps, seed=23)
        for i in range(150):
            e = sample_expression(spec, i)
            n = count_atomic_ops(e)
            assert steps[0] <= n <= steps[1]
            assert max_operand_digits(e) <= 5
            # re-parse in the category's own mode: category fidelity
            assert parse(print_expr(e), spec.mode) == e

    def test_twelve_digit_operands(self):
        spec = GenSpec("int-mixed", (12, 12), (2, 4), seed=40)
        seen = max(max_operand_digits(sample_expression(spec, i)) for i in range(50))
        assert seen == 12

    @pytest.mark.parametrize("category", CATEGORIES)
    def test_carried_counts_match_a_tree_walk(self, category):
        # the samplers count operators and operand digits as they draw
        for digits in ((1, 5), (5, 12)):
            steps = (1, 1) if category == "exponentiation" else (2, 10)
            spec = GenSpec(category, digits, steps, seed=61)
            for i in range(500):
                expr, t, ops, width = datagen._build(spec, i)
                assert (ops, width) == (count_atomic_ops(expr), max_operand_digits(expr))
                assert build_record(spec, i) == (render_trace(t), ops, width)
                rng = datagen._record_rng(spec, i)
                expr, ops, width = datagen._SAMPLERS[category](rng, spec, pool="+-")
                assert (ops, width) == (count_atomic_ops(expr), max_operand_digits(expr))

    @pytest.mark.parametrize("category", CATEGORIES)
    def test_fallback_after_too_many_rejects(self, monkeypatch, category):
        # every draw rejected: the record is the add/subtract-only draw that
        # follows them in the record's stream
        calls = []

        def rejecting_trace(expr, mode):
            calls.append(expr)
            if len(calls) <= datagen._MAX_ATTEMPTS:
                raise DivByZero("rejected")
            return trace(expr, mode)

        monkeypatch.setattr(datagen, "trace", rejecting_trace)
        steps = (1, 1) if category == "exponentiation" else (2, 10)
        spec = GenSpec(category, (1, 5), steps, seed=5)
        expr, t, ops, width = datagen._build(spec, 0)
        assert len(calls) == datagen._MAX_ATTEMPTS + 1
        assert numeric.values_equal(t.final, direct_eval(expr, spec.mode))
        rng = datagen._record_rng(spec, 0)
        sampler = datagen._SAMPLERS[category]
        for _ in range(datagen._MAX_ATTEMPTS):
            sampler(rng, spec)
        assert (expr, ops, width) == sampler(rng, spec, pool="+-")
        operators = {op for n in iter_nodes(expr) if isinstance(n, Chain) for op in n.ops}
        assert operators <= ({"^"} if category == "exponentiation" else {"+", "-"})

    def test_draws_match_random(self):
        # the draw helpers skip the argument checks of randint and choice, not
        # their bits: the same seed gives the same values and the same state
        ours, theirs = random.Random(5), random.Random(5)
        widths = [1, 2, 3] + [9 * 10 ** k for k in range(12)]
        sequences = ["+", "+-", (1, 1, 2), "+-*/"]
        for k in range(10_000):
            width, lo = widths[k % len(widths)], k - 5_000
            assert datagen._randint(ours, lo, lo + width - 1) == \
                theirs.randint(lo, lo + width - 1)
            seq = sequences[k % len(sequences)]
            assert datagen._choice(ours, seq) == theirs.choice(seq)
            d = k % 12 + 1
            assert datagen._int_of_digits(ours, d) == theirs.randint(10 ** (d - 1), 10 ** d - 1)
        assert ours.getstate() == theirs.getstate()

    def test_records_are_sound_and_parseable(self):
        for category in CATEGORIES:
            steps = (1, 1) if category == "exponentiation" else (2, 10)
            spec = GenSpec(category, (1, 6), steps, seed=77)
            for i in range(100):
                line, ops, digits = build_record(spec, i)
                first, _, rest = line.partition("=")
                tree = parse(first, spec.mode)
                t = trace(tree, spec.mode)
                assert render_trace(t) == line
                assert numeric.values_equal(t.final, direct_eval(tree, spec.mode))

    def test_twelve_digit_lines_reparse_and_retrace_identically(self):
        # binary64 intermediates >= 1e16 would print without a decimal point
        # and re-read as exact integers; the generator resamples those away
        for category in ("lengthy-mixed", "int-mixed", "bracketed-int"):
            spec = GenSpec(category, (5, 12), (2, 10), seed=333)
            for i in range(120):
                line = build_record(spec, i)[0]
                tree = parse(line.split("=", 1)[0], spec.mode)
                assert render_trace(trace(tree, spec.mode)) == line

    def test_throughput_floor(self):
        # engineering target is 10k records/s/worker; assert a conservative floor
        spec = GenSpec("int-mixed", (1, 5), (2, 10), seed=9)
        n = 4_000
        t0 = time.perf_counter()
        for i in range(n):
            build_record(spec, i)
        rate = n / (time.perf_counter() - t0)
        assert rate > 5_000, f"int-mixed generation too slow: {rate:.0f}/s"


class TestSchedule:
    def test_default_curriculum_shape(self):
        sched = default_curriculum(1_000_000, seed=1)
        assert sched.total == 1_000_000
        assert sched.phases[0].count == 950_000
        assert sched.phases[1].count == 50_000
        assert all(s.digit_range == (1, 5) for s in sched.phases[0].specs)
        assert all(s.digit_range == (5, 12) for s in sched.phases[1].specs)
        assert {s.category for s in sched.phases[0].specs} == set(CATEGORIES)

    def test_small_totals_shrink_the_tail(self):
        sched = default_curriculum(1_000, seed=1)
        assert sched.total == 1_000

    def test_spec_for_index_round_robin(self):
        sched = default_curriculum(60_000, seed=5)
        cats = [spec_for_index(sched, i).category for i in range(5)]
        assert cats == list(CATEGORIES)
        assert spec_for_index(sched, 9_999).digit_range == (1, 5)
        assert spec_for_index(sched, 10_000).digit_range == (5, 12)
        with pytest.raises(IndexError):
            spec_for_index(sched, 60_000)

    def test_evaluation_schedule_is_disjoint_and_mirrors_mixture(self):
        train = default_curriculum(100_000, seed=9)
        held = evaluation_schedule(train, count=9_592)
        assert held.total == 9_592
        assert held.seed != train.seed
        train_seeds = {s.seed for p in train.phases for s in p.specs}
        held_seeds = {s.seed for p in held.phases for s in p.specs}
        assert not (train_seeds & held_seeds)

    def test_schedule_json_round_trip(self):
        text = json.dumps(
            {
                "seed": 4,
                "phases": [
                    {"count": 10, "specs": [
                        {"category": "int-mixed", "digits": [1, 3], "steps": [2, 4]},
                        {"category": "exponentiation", "digits": [1, 3]},
                    ]}
                ],
            }
        )
        sched = schedule_from_json(text)
        assert sched.total == 10
        assert sched.phases[0].specs[0].step_range == (2, 4)
        assert sched.phases[0].specs[1].step_range == (1, 1)


class TestGenerateDataset:
    def test_empty_schedule(self):
        sched = CurriculumSchedule(phases=(), seed=3)
        buf = io.BytesIO()
        manifest = generate_dataset(sched, buf)
        assert buf.getvalue() == b""
        assert manifest.record_count == 0
        assert manifest.category_histogram == {}

    def test_deterministic_across_runs_and_workers(self):
        sched = default_curriculum(1_200, seed=42)
        outs = []
        for workers in (1, 1, 4):
            buf = io.BytesIO()
            m = generate_dataset(sched, buf, workers=workers)
            outs.append((buf.getvalue(), m.content_digest))
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("workers,cpus,processes", [
        (1000, 8, 4), (1000, 3, 3), (2, 8, 2), (1000, None, 1), (1, 8, 1),
    ])
    def test_pool_is_capped_by_chunks_and_cpus(self, monkeypatch, workers, cpus, processes):
        # a pool that runs its chunks in this process: no process starts
        sizes = []

        class Pool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, chunks):
                return map(fn, chunks)

        monkeypatch.setattr(datagen.multiprocessing, "get_context",
                            lambda method: SimpleNamespace(Pool=Pool))
        monkeypatch.setattr(datagen.os, "cpu_count", lambda: cpus)
        sched = default_curriculum(35, seed=3)
        serial = io.BytesIO()
        generate_dataset(sched, serial, chunk_size=10)
        buf = io.BytesIO()
        generate_dataset(sched, buf, workers=workers, chunk_size=10)  # 4 chunks
        assert sizes == ([processes] if processes > 1 else [])
        assert buf.getvalue() == serial.getvalue()

    def test_the_first_chunk_is_written_before_the_rest_are_listed(self):
        # a million one-record chunks: the first write comes before any list
        # of all of them is built
        class Refused(Exception):
            pass

        class Unwritable:
            def write(self, blob):
                raise Refused

        tracemalloc.start()
        try:
            with pytest.raises(Refused):
                generate_dataset(default_curriculum(10**6, seed=1), Unwritable(), chunk_size=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        # more chunks than a C integer counts: the first is written all the same
        with pytest.raises(Refused):
            generate_dataset(default_curriculum(10**22, seed=1), Unwritable())

    def test_manifest_histograms_match_file(self):
        sched = default_curriculum(400, seed=17)
        buf = io.BytesIO()
        manifest = generate_dataset(sched, buf)
        lines = buf.getvalue().decode().splitlines()
        assert len(lines) == 400 == manifest.record_count
        assert sum(manifest.category_histogram.values()) == 400
        assert sum(manifest.step_histogram.values()) == 400
        assert sum(manifest.digit_histogram.values()) == 400

        # recount by re-parsing an audit sample of the emitted file
        for i in range(0, 400, 97):
            spec = spec_for_index(sched, i)
            first = lines[i].split("=", 1)[0]
            tree = parse(first, spec.mode)
            t = trace(tree, spec.mode)
            assert render_trace(t) == lines[i]

    def test_every_line_is_label_correct(self):
        from stepmath.metrics import parse_number_text

        sched = default_curriculum(300, seed=91)
        buf = io.BytesIO()
        generate_dataset(sched, buf)
        lines = buf.getvalue().decode().splitlines()
        for i, line in enumerate(lines):
            spec = spec_for_index(sched, i)
            tree = parse(line.split("=", 1)[0], spec.mode)
            want = direct_eval(tree, spec.mode)
            got = parse_number_text(line.rsplit("=", 1)[-1])
            # fraction finals are printed in lowest terms: compare by value
            assert got is not None and numeric.values_equal(got, want)

    def test_iter_records_matches_generate(self):
        sched = default_curriculum(60, seed=8)
        buf = io.BytesIO()
        generate_dataset(sched, buf)
        lines = [r[0] for r in iter_records(sched)]
        assert buf.getvalue().decode().splitlines() == lines

    def test_custom_phase_counts_sum(self):
        phase = Phase((GenSpec("int-mixed", (1, 3), (2, 3), seed=5),), 25)
        sched = CurriculumSchedule((phase, phase), seed=5)
        assert sched.total == 50
