"""The three workloads: set-up, one measured pass, output checks, and the
per-layer metrics their traced passes yield.

Load is one closed loop: a single caller runs `stepmath.cli.main(argv)` in
process and waits for it before issuing the next command. A pass is a fixed
list of operations (200 commands or command cycles; 400 for curriculum), so
each pass gives a 50th and a 95th percentile with at least ten samples beyond
the latter.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import median

import inputs
from clock import Clock
from spans import Tracer, nearest_rank, ratio

HERE = Path(__file__).resolve().parent

# ROADMAP item 1 baseline, microseconds per record (average steps).
ROADMAP_BASELINE = {
    "int-mixed": {"trace": 180, "steps": 6.0, "build_record": 62, "encode": 44},
    "exponentiation": {"trace": 25, "steps": 1.0},
    "bracketed-int": {"trace": 233, "steps": 6.2},
    "lengthy-mixed": {"trace": 296, "steps": 7.5},
    "fraction": {"trace": 481, "steps": 12.1, "build_record": 559, "encode": 260},
}

NUMERIC_FUNCS = ("add", "sub", "mul", "div", "pow_", "render", "reduce_fraction")
RULES = ("sign", "percent", "reciprocal", "binop", "simplify", "ungroup")
STEP_CLASSES = (25, 100, 300)


@dataclass
class Pass:
    """What one pass did. `ops` is the workload's unit of work (records, or
    rewrite steps for long-chains); `latencies` has one entry per operation,
    and `stages` one list of the same length per stage of a command cycle."""
    ops: int = 0
    records: int = 0
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    stages: dict = field(default_factory=dict)  # stage -> seconds per operation
    units: dict = field(default_factory=dict)  # stage -> work units in the pass

    @property
    def seconds(self) -> float:
        return sum(self.latencies)

    def stage(self, name: str, seconds: float, units: float) -> None:
        self.stages.setdefault(name, []).append(seconds)
        self.units[name] = self.units.get(name, 0) + units


def per_op_median(lists: list) -> list:
    """Per operation, the median of its repeats: every pass runs the same
    inputs in the same order."""
    return [median(col) for col in zip(*lists)]


class Cli:
    """Runs stepmath.cli.main in process with stdout and stderr captured, and
    times calls in nominal seconds (see clock.py)."""

    def __init__(self, tracer: Tracer, clock: Clock):
        from stepmath import cli
        self._main = cli.main
        self.tracer = tracer
        self.clock = clock
        self.measured = 0.0  # wall seconds of every timed call

    def time(self, fn, *args):
        """(result, nominal seconds) of fn(*args)."""
        result, nominal, measured = self.clock.measure(fn, *args)
        self.measured += measured
        return result, nominal

    def _call(self, argv, tag, out, err):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return self.tracer.call("cli.main", self._main, argv, tag=tag)

    def run(self, argv: list, tag=None) -> tuple:
        """(exit code or None if it raised, stdout text, nominal seconds)."""
        out, err = io.StringIO(), io.StringIO()
        try:
            rc, seconds = self.time(self._call, argv, tag, out, err)
        except Exception:  # counted as a failed operation by the caller
            rc, seconds = None, 0.0
        return rc, out.getvalue(), seconds


def _quiet_main(argv: list):
    """Exit code of one command, or the exception it raised."""
    from stepmath import cli
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv), out.getvalue()
        except SystemExit as exc:
            return exc.code, out.getvalue()
        except Exception as exc:  # a probe reports what escaped
            return exc, out.getvalue()


# ---------------------------------------------------------------------------
# instrumentation: wrap the attribute each caller looks up


def instrument(tracer: Tracer) -> None:
    from stepmath import cli, datagen, metrics, mwp, numeric, packing, steps, tokenizer

    def trace_done(tr, frame, result, args):
        n = len(result.rules)
        tr.counts["steps"] += n
        tr.counts["trace_ok"] += 1
        tr.counts[("steps", frame.tag)] += n
        tr.counts[("trace_ok", frame.tag)] += 1
        for rule in result.rules:
            tr.counts[("rule", rule)] += 1

    for owner in (cli, datagen, mwp):
        tracer.wrap(owner, "trace", "steps.trace", on_result=trace_done)
        tracer.wrap(owner, "render_trace", "steps.render_trace")
    for owner in (datagen, mwp, metrics):
        tracer.wrap(owner, "direct_eval", "steps.direct_eval")
    for owner in (cli, mwp, metrics):
        tracer.wrap(owner, "parse", "expr.parse")
    tracer.wrap(steps, "print_expr", "expr.print_expr")

    def record_tag(spec, index):
        return spec.category, ("p1" if spec.digit_range[1] <= 5 else "p2")

    def record_done(tr, frame, result, args):
        if not any(k.startswith("steps.") for k in frame.kids):
            tr.counts[("fast_path", frame.tag[0])] += 1

    tracer.wrap(datagen, "build_record", "datagen.build_record",
                tag_of=record_tag, on_result=record_done)
    tracer.wrap(datagen, "_chunk_worker", "datagen.chunk")
    tracer.wrap(datagen, "generate_dataset", "datagen.generate_dataset")

    def encode_done(tr, frame, result, args):
        tr.counts["encode_bytes"] += len(args[1].encode())
        tr.counts["encode_ids"] += len(result)

    def decode_done(tr, frame, result, args):
        tr.counts["decode_bytes"] += len(result.encode())

    tracer.wrap(tokenizer.Vocab, "encode", "tokenizer.encode", on_result=encode_done)
    tracer.wrap(tokenizer.Vocab, "decode", "tokenizer.decode", on_result=decode_done)

    def pack_done(tr, frame, result, args):
        tr.counts["blocks"] += result
        tr.counts["pack_slots"] += result * args[1]

    tracer.wrap(packing, "pack_sequences", "packing.pack_sequences", on_result=pack_done)

    def counter(key, of=len):
        def done(tr, frame, result, args):
            tr.counts[key] += of(result)
        return done

    def extract_done(tr, frame, result, args):
        tr.counts["extract_fail"] += result is None

    tracer.wrap(metrics, "load_prediction_records", "metrics.load_prediction_records",
                on_result=counter("load_records"))
    tracer.wrap(metrics, "evaluate", "metrics.evaluate",
                on_result=counter("eval_records", lambda r: r.total))
    tracer.wrap(metrics, "classify_problem", "metrics.classify_problem")
    tracer.wrap(metrics, "extract_answer", "metrics.extract_answer", on_result=extract_done)

    def reconstruct_done(tr, frame, result, args):
        written, rejected = result
        tr.counts["mwp_records"] += written + rejected
        tr.counts["mwp_rejected"] += rejected

    tracer.wrap(mwp, "reconstruct_file", "mwp.reconstruct_file", on_result=reconstruct_done)
    tracer.wrap(mwp, "load_reconstructed", "mwp.load_reconstructed")
    tracer.wrap(mwp, "score_mwp", "mwp.score_mwp",
                on_result=counter("score_records", lambda r: r.total))
    tracer.wrap(mwp, "_equation_value", "mwp.equation_value")

    for fn in NUMERIC_FUNCS:
        tracer.wrap(numeric, fn, "numeric." + fn)


def common_layer_metrics(tr: Tracer, passes: int, records: int, probe_failures: int) -> dict:
    """Every per-layer metric. A layer the workload does not reach reads 0."""
    m = {}
    steps_total = tr.counts["steps"]
    trace_ok = tr.counts["trace_ok"]
    for cat in inputs.CATEGORIES:
        in_cat = lambda t, c=cat: isinstance(t, tuple) and t[0] == c  # noqa: E731
        m[f"steps.trace_us.{cat}"] = 1e6 * ratio(tr.total("steps.trace", tag=in_cat),
                                                 tr.calls("steps.trace", tag=in_cat))
    m["steps.trace_us_per_step"] = 1e6 * ratio(tr.total("steps.trace"), steps_total)
    for n in STEP_CLASSES:
        tag = f"n{n}"
        m[f"steps.step_us.n{n}"] = 1e6 * ratio(tr.total("steps.trace", tag=tag),
                                               tr.counts[("steps", tag)])
    m["steps.steps_per_record"] = ratio(steps_total, trace_ok)
    for rule in RULES:
        m[f"steps.rule.{rule}"] = ratio(tr.counts[("rule", rule)], passes)
    m["steps.direct_eval_us"] = 1e6 * ratio(tr.total("steps.direct_eval"),
                                            tr.calls("steps.direct_eval"))
    m["steps.render_trace_us"] = 1e6 * ratio(tr.total("steps.render_trace"),
                                             tr.calls("steps.render_trace"))
    m["steps.print_calls_per_step"] = ratio(
        tr.calls("expr.print_expr", parent="steps.trace"), steps_total)

    m["expr.parse_us"] = 1e6 * ratio(tr.total("expr.parse"), tr.calls("expr.parse"))
    m["expr.print_us_per_snapshot"] = 1e6 * ratio(
        tr.total("expr.print_expr", parent="steps.render_trace"),
        tr.calls("expr.print_expr", parent="steps.render_trace"))

    records_made = tr.calls("datagen.build_record")
    for cat in inputs.CATEGORIES:
        for phase in ("p1", "p2"):
            tag = (cat, phase)
            m[f"datagen.build_record_us.{cat}.{phase}"] = 1e6 * ratio(
                tr.total("datagen.build_record", tag=tag),
                tr.calls("datagen.build_record", tag=tag))
    for cat in inputs.CATEGORIES:
        in_cat = lambda t, c=cat: isinstance(t, tuple) and t[0] == c  # noqa: E731
        made = tr.calls("datagen.build_record", tag=in_cat)
        m[f"datagen.self_us.{cat}"] = 1e6 * ratio(
            tr.self_time("datagen.build_record", tag=in_cat), made)
        m[f"datagen.trace_calls_per_record.{cat}"] = ratio(
            tr.calls("steps.trace", parent="datagen.build_record", tag=in_cat), made)
    fast = sum(v for k, v in tr.counts.items() if isinstance(k, tuple) and k[0] == "fast_path")
    m["datagen.fast_path_share"] = ratio(fast, records_made)
    chunks = sorted(tr.samples.get("datagen.chunk", []))
    m["datagen.chunk_ms_p50"] = 1e3 * nearest_rank(chunks, 50) if chunks else 0.0
    m["datagen.chunk_ms_p95"] = 1e3 * nearest_rank(chunks, 95) if chunks else 0.0
    m["datagen.w2_speedup"] = 0.0  # set by the curriculum checks

    m["tokenizer.encode_MB_per_s"] = 1e-6 * ratio(tr.counts["encode_bytes"],
                                                  tr.total("tokenizer.encode"))
    m["tokenizer.decode_MB_per_s"] = 1e-6 * ratio(tr.counts["decode_bytes"],
                                                  tr.total("tokenizer.decode"))
    m["tokenizer.ids_per_record"] = ratio(tr.counts["encode_ids"], tr.calls("tokenizer.encode"))

    m["packing.pack_self_s"] = ratio(tr.self_time("packing.pack_sequences"), passes)
    m["packing.unpack_self_s"] = ratio(tr.self_time("packing.unpack_sequences"), passes)
    m["packing.blocks"] = ratio(tr.counts["blocks"], passes)
    m["packing.fill_ratio"] = ratio(tr.counts["encode_ids"], tr.counts["pack_slots"])

    m["metrics.load_us_per_record"] = 1e6 * ratio(
        tr.total("metrics.load_prediction_records"), tr.counts["load_records"])
    m["metrics.evaluate_us_per_record"] = 1e6 * ratio(
        tr.total("metrics.evaluate"), tr.counts["eval_records"])
    m["metrics.classify_us_per_record"] = 1e6 * ratio(
        tr.total("metrics.classify_problem"), tr.calls("metrics.classify_problem"))
    m["metrics.extract_fail_share"] = ratio(tr.counts["extract_fail"],
                                            tr.calls("metrics.extract_answer"))

    mwp_records = tr.counts["mwp_records"]
    m["mwp.reconstruct_us_per_record"] = 1e6 * ratio(tr.total("mwp.reconstruct_file"),
                                                     mwp_records)
    m["mwp.trace_us_per_record"] = 1e6 * ratio(
        tr.total("steps.trace", parent="mwp.reconstruct_file"), mwp_records)
    m["mwp.reject_share"] = ratio(tr.counts["mwp_rejected"], mwp_records)
    m["mwp.score_us_per_record"] = 1e6 * ratio(tr.total("mwp.score_mwp"),
                                               tr.counts["score_records"])
    m["mwp.equation_eval_calls_per_record"] = ratio(tr.calls("mwp.equation_value"),
                                                    tr.counts["score_records"])

    m["numeric.calls_per_record"] = ratio(
        sum(tr.calls("numeric." + f) for f in NUMERIC_FUNCS), records)
    m["numeric.self_us_per_record"] = 1e6 * ratio(
        sum(tr.self_time("numeric." + f) for f in NUMERIC_FUNCS), records)

    m["cli.overhead_share"] = ratio(tr.self_time("cli.main"), tr.total("cli.main"))
    m["cli.probe_failures"] = float(probe_failures)
    return m


LAYER_UNITS = {
    "steps.trace_us.": "us", "steps.trace_us_per_step": "us", "steps.step_us.": "us",
    "steps.steps_per_record": "count", "steps.rule.": "count",
    "steps.direct_eval_us": "us", "steps.render_trace_us": "us",
    "steps.print_calls_per_step": "count",
    "expr.parse_us": "us", "expr.print_us_per_snapshot": "us",
    "datagen.build_record_us.": "us", "datagen.self_us.": "us",
    "datagen.trace_calls_per_record.": "count", "datagen.fast_path_share": "ratio",
    "datagen.chunk_ms_": "ms", "datagen.w2_speedup": "x",
    "tokenizer.encode_MB_per_s": "MB/s", "tokenizer.decode_MB_per_s": "MB/s",
    "tokenizer.ids_per_record": "count",
    "packing.pack_self_s": "s", "packing.unpack_self_s": "s",
    "packing.blocks": "count", "packing.fill_ratio": "ratio",
    "metrics.load_us_per_record": "us", "metrics.evaluate_us_per_record": "us",
    "metrics.classify_us_per_record": "us", "metrics.extract_fail_share": "ratio",
    "mwp.reconstruct_us_per_record": "us", "mwp.trace_us_per_record": "us",
    "mwp.reject_share": "ratio", "mwp.score_us_per_record": "us",
    "mwp.equation_eval_calls_per_record": "count",
    "numeric.calls_per_record": "count", "numeric.self_us_per_record": "us",
    "cli.overhead_share": "ratio", "cli.probe_failures": "count",
    "tracing.overhead_share": "ratio",
}


def layer_unit(name: str) -> str:
    for prefix, unit in LAYER_UNITS.items():
        if name == prefix or (prefix.endswith((".", "_")) and name.startswith(prefix)):
            return unit
    raise KeyError(name)


# ---------------------------------------------------------------------------
# curriculum


class Curriculum:
    """`generate --workers 1` on 400 two-phase schedule files of 100 records.
    Building the training set is the paper's main job; steps.trace does most of
    the work in four of the five categories, and int-mixed takes the string
    fast path in datagen. Each command is one operation."""
    name = "curriculum"
    batches = 400  # twice the others: the tail of batch costs varies with the seed

    def setup(self, seed: int, work: Path) -> dict:
        """Schedules are validated with the program's loader here and written
        to disk by the first pass, so set-up time is not file-system noise."""
        from stepmath import datagen
        rng = random.Random(seed)
        work.mkdir(parents=True)
        batches = []
        for k in range(self.batches):
            bseed = rng.getrandbits(48)
            text = inputs.schedule_json(bseed)
            datagen.schedule_from_json(text)
            batches.append((bseed, str(work / f"batch{k}.json"), text))
        return {"work": work, "batches": batches, "digests": {}, "samples": [],
                "kept": [], "problems": []}

    def run_pass(self, st: dict, cli: Cli) -> Pass:
        p = Pass()
        out = str(st["work"] / "out.txt")
        per_batch = sum(inputs.BATCH_PHASE_COUNTS)
        first = not st["digests"]
        for k, (bseed, path, text) in enumerate(st["batches"]):
            if first:
                Path(path).write_text(text)
            rc, _, dt = cli.run(["generate", "--out", out, "--seed", str(bseed),
                                 "--schedule", path, "--workers", "1"])
            p.latencies.append(dt)
            p.attempted += 1
            if rc != 0:
                p.failed += 1
                continue
            p.ops += per_batch
            p.records += per_batch
            blob = Path(out).read_bytes()
            digest = "sha256:" + hashlib.sha256(blob).hexdigest()
            manifest = json.loads(Path(out + ".manifest.json").read_text())
            lines = blob.decode().splitlines()
            if manifest["content_digest"] != digest or len(lines) != per_batch:
                st["problems"].append(f"batch {k}: manifest does not describe the output")
            if first:
                st["digests"][k] = digest
                idx = k % per_batch
                st["samples"].append((idx, lines[idx]))
                if k < 20:
                    st["kept"].append((path, lines))
            elif st["digests"].get(k) != digest:
                st["problems"].append(f"batch {k}: output changed between passes")
        return p

    def check(self, st: dict, report: dict, clock: Clock) -> list:
        from stepmath import expr, numeric, steps
        problems = list(st["problems"])
        for idx, line in st["samples"]:
            cat, _ = inputs.category_of(idx)
            mode = "fraction" if cat == "fraction" else "standard"
            first = line.split("=", 1)[0]
            tree = expr.parse(first, mode)
            t = steps.trace(tree, mode)
            if expr.print_expr(tree) != first or steps.render_trace(t) != line:
                problems.append(f"{cat} record does not re-trace to itself: {line[:60]!r}")
            elif not numeric.values_equal(t.final, steps.direct_eval(tree, mode)):
                problems.append(f"{cat} trace disagrees with direct_eval: {line[:60]!r}")

        # The pinned reference schedule at one and two workers.
        work = st["work"]
        ref = work / "reference.json"
        ref.write_text(inputs.schedule_json(inputs.REFERENCE_SEED, inputs.REFERENCE_PHASE_COUNTS))
        total = sum(inputs.REFERENCE_PHASE_COUNTS)
        pinned = json.loads((HERE / "expected.json").read_text())["reference_digest"]
        seconds, digests = {}, {}
        for w in (1, 2):
            out = str(work / f"ref_w{w}.txt")
            (rc, _), seconds[w], _ = clock.measure(
                _quiet_main, ["generate", "--out", out, "--seed", "0",
                              "--schedule", str(ref), "--workers", str(w)])
            if rc != 0:
                problems.append(f"reference generate at --workers {w} ended with {rc!r}")
                continue
            digests[w] = json.loads(Path(out + ".manifest.json").read_text())["content_digest"]
        if digests.get(1) != digests.get(2):
            problems.append(f"digest differs between 1 and 2 workers: {digests}")
        if digests.get(1) != pinned:
            problems.append(f"reference digest {digests.get(1)} != pinned {pinned}")
        report["generate_ref_w1_rec_per_s"] = total / seconds[1]
        report["generate_w2_rec_per_s"] = total / seconds[2]
        report["w2_speedup"] = seconds[1] / seconds[2]
        return problems

    def stage_report(self, passes: list) -> dict:
        lat = per_op_median([p.latencies for p in passes])
        return {"generate_rec_per_s": (passes[0].records / sum(lat), "rec/s")}

    def baseline_table(self, st: dict, clock: Clock) -> list:
        """ROADMAP item 1 table, measured without tracing: per category, the
        nominal microseconds per record of build_record, trace (on the parsed
        first snapshot, so int-mixed goes through the tree engine) and encode."""
        from stepmath import datagen, expr, steps, tokenizer
        acc = {c: {"build_record": [], "trace": [], "encode": [], "steps": []}
               for c in inputs.CATEGORIES}
        for path, lines in st["kept"]:
            schedule = datagen.schedule_from_json(Path(path).read_text())
            for idx, line in enumerate(lines):
                spec = datagen.spec_for_index(schedule, idx)
                row = acc[spec.category]
                tree = expr.parse(line.split("=", 1)[0], spec.mode)
                row["build_record"].append(clock.measure(datagen.build_record, spec, idx)[1])
                t, seconds, _ = clock.measure(steps.trace, tree, spec.mode)
                row["trace"].append(seconds)
                row["encode"].append(clock.measure(tokenizer.encode, line)[1])
                row["steps"].append(len(t.rules))
        out = ["baseline table (nominal us/record, untraced; ROADMAP item 1 value in brackets)",
               f"  {'category':<15}{'trace (steps)':>26}{'build_record':>20}{'encode':>16}"]
        for cat, row in acc.items():
            base = ROADMAP_BASELINE[cat]

            def cell(key):
                v = 1e6 * sum(row[key]) / len(row[key])
                return f"{v:.0f} [{base.get(key, '-')}]"

            steps_avg = sum(row["steps"]) / len(row["steps"])
            trace_cell = f"{cell('trace')} ({steps_avg:.1f} [{base['steps']}])"
            out.append(f"  {cat:<15}{trace_cell:>26}{cell('build_record'):>20}"
                       f"{cell('encode'):>16}")
        return out


# ---------------------------------------------------------------------------
# long chains


class LongChains:
    """`trace` on 200 flat and bracketed chains of 25 to 300 operands. steps
    and expr.print_expr do almost all the work and the cost per step grows with
    the tree; datagen, tokenizer, packing, metrics and mwp are bypassed. Each
    command is one operation; the unit of work is one rewrite step."""
    name = "long-chains"

    def setup(self, seed: int, work: Path) -> dict:
        work.mkdir(parents=True)
        return {"chains": inputs.long_chains(random.Random(seed)), "problems": []}

    def run_pass(self, st: dict, cli: Cli) -> Pass:
        p = Pass()
        for text, n, value in st["chains"]:
            rc, out, dt = cli.run(["trace", text], tag=f"n{n}")
            p.latencies.append(dt)
            p.attempted += 1
            if rc != 0:
                p.failed += 1
                continue
            line = out.rstrip("\n")
            p.ops += line.count("=")
            p.records += 1
            first, final = line.split("=", 1)[0], line.rsplit("=", 1)[1]
            if first != text or inputs.number_value(final) != value:
                st["problems"].append(f"{n}-operand trace is wrong: {text[:40]!r}...")
        return p

    def check(self, st: dict, report: dict, clock: Clock) -> list:
        from stepmath import expr, steps
        problems = list(dict.fromkeys(st["problems"]))
        for text, n, value in st["chains"]:
            if Fraction(steps.direct_eval(expr.parse(text))) != value:
                problems.append(f"direct_eval disagrees on {n}-operand chain {text[:40]!r}")
        return problems

    def stage_report(self, passes: list) -> dict:
        lat = sorted(per_op_median([p.latencies for p in passes]))
        return {"trace_steps_per_s": (passes[0].ops / sum(lat), "steps/s"),
                "trace_p50_ms": (1e3 * nearest_rank(lat, 50), "ms"),
                "trace_p95_ms": (1e3 * nearest_rank(lat, 95), "ms")}


# ---------------------------------------------------------------------------
# downstream


class Downstream:
    """pack, unpack, eval, reconstruct and score-mwp on 20 batches of 50
    records, cycled ten times a pass. tokenizer, packing, metrics and mwp do
    their work here and nowhere else; pack writes the block format that unpack
    reads. One cycle over a batch is one operation."""
    name = "downstream"
    batches = 20
    batch_records = 50
    cycles = 200

    def setup(self, seed: int, work: Path) -> dict:
        from stepmath import datagen
        rng = random.Random(seed)
        work.mkdir(parents=True)
        n = self.batches * self.batch_records
        train = datagen.schedule_from_json(
            inputs.schedule_json(rng.getrandbits(48), (n * 3 // 4, n - n * 3 // 4)))
        held_out = datagen.evaluation_schedule(train, count=n)
        corpus = self._generate(train)
        evalset = self._generate(held_out)
        block_length = max(len(line) for line in corpus) + 1
        batches = []
        for k, (lines, golds) in enumerate(zip(
                inputs.deal_by_length(corpus, len, self.batches),
                inputs.deal_by_length(evalset, len, self.batches))):
            d = work / f"b{k}"
            d.mkdir()
            gold, preds, eval_expected = inputs.eval_plan(rng, golds)
            records, mwp_preds, mwp_expected = inputs.mwp_plan(
                rng, k * self.batch_records, self.batch_records)
            _write_lines(d / "corpus.txt", lines)
            _write_lines(d / "gold.jsonl", [json.dumps(g) for g in gold])
            _write_lines(d / "pred.txt", preds)
            _write_lines(d / "ape.jsonl", [json.dumps(r, ensure_ascii=False) for r in records])
            _write_lines(d / "mwp_pred.jsonl", [json.dumps(x) for x in mwp_preds])
            batches.append({"dir": d, "lines": lines, "bytes": (d / "corpus.txt").stat().st_size,
                            "eval": eval_expected, "mwp": mwp_expected, "records": records})
        return {"work": work, "batches": batches, "block_length": block_length,
                "problems": []}

    @staticmethod
    def _generate(schedule) -> list:
        from stepmath import datagen
        buf = io.BytesIO()
        datagen.generate_dataset(schedule, buf)
        return buf.getvalue().decode().splitlines()

    def run_pass(self, st: dict, cli: Cli) -> Pass:
        from stepmath import packing
        p = Pass()
        problems = st["problems"]
        for c in range(self.cycles):
            b = st["batches"][c % self.batches]
            d = b["dir"]
            cycle = 0.0
            bad = 0  # operations of this cycle that failed

            rc, out, dt = cli.run(["pack", "--in", str(d / "corpus.txt"), "--out",
                                   str(d / "corpus.pack"), "--block-length",
                                   str(st["block_length"]), "--json"], tag="pack")
            cycle += dt
            p.stage("pack", dt, b["bytes"])
            bad += not self._expect(rc, out, {"records": len(b["lines"])}, problems, "pack")

            try:
                with open(d / "corpus.pack", "rb") as f:
                    lines, dt = cli.time(cli.tracer.call, "packing.unpack_sequences",
                                         lambda: list(packing.unpack_sequences(f)))
            except Exception as exc:  # a failed operation, like a nonzero exit
                lines, dt = exc, 0.0
            cycle += dt
            p.stage("unpack", dt, b["bytes"])
            if lines != b["lines"]:
                problems.append("unpack did not return the packed lines")
                bad += 1

            rc, out, dt = cli.run(["eval", "--gold", str(d / "gold.jsonl"), "--pred",
                                   str(d / "pred.txt"), "--json"], tag="eval")
            cycle += dt
            p.stage("eval", dt, len(b["lines"]))
            bad += not self._expect(rc, out, b["eval"], problems, "eval")

            rc, out, dt = cli.run(["reconstruct", "--in", str(d / "ape.jsonl"), "--out",
                                   str(d / "rec.jsonl"), "--json"], tag="reconstruct")
            cycle += dt
            p.stage("reconstruct", dt, len(b["records"]))
            mwp = b["mwp"]
            bad += not self._expect(rc, out, {"reconstructed": mwp["reconstructed"],
                                         "rejected": mwp["rejected"]}, problems, "reconstruct")

            rc, out, dt = cli.run(["score-mwp", "--gold", str(d / "rec.jsonl"), "--pred",
                                   str(d / "mwp_pred.jsonl"), "--json"], tag="score-mwp")
            cycle += dt
            p.stage("score-mwp", dt, mwp["total"])
            total = mwp["total"]
            bad += not self._expect(rc, out, {
                "total": total,
                "arithmetic_accuracy": mwp["arithmetic_correct"] / total,
                "answer_accuracy": mwp["answer_correct"] / total,
            }, problems, "score-mwp")

            p.latencies.append(cycle)
            p.attempted += 5
            p.failed += bad
            if not bad:
                p.ops += self.batch_records
                p.records += self.batch_records
        return p

    @staticmethod
    def _expect(rc, out: str, expected: dict, problems: list, stage: str) -> bool:
        if rc != 0:
            problems.append(f"{stage} ended with {rc!r}")
            return False
        got = json.loads(out)
        wrong = {k: (got.get(k), v) for k, v in expected.items() if got.get(k) != v}
        if wrong:
            problems.append(f"{stage} reported {wrong} (got, planted)")
            return False
        return True

    def check(self, st: dict, report: dict, clock: Clock) -> list:
        problems = list(dict.fromkeys(st["problems"]))
        # Reconstructed traces start at the normalized equation and end at the
        # stored answer (to two decimals).
        for b in st["batches"]:
            planted = {r["id"]: r for r in b["records"]}
            for line in (b["dir"] / "rec.jsonl").read_text(encoding="utf-8").splitlines():
                obj = json.loads(line)
                rec = planted[obj["id"]]
                equation = rec["equation"].removeprefix("x=")
                trace = obj["solution_trace"]
                final = inputs.number_value(trace.rsplit("=", 1)[1])
                if (trace.split("=", 1)[0] != equation or final is None
                        or abs(final - inputs.exact_eval(equation)) >= Fraction(1, 200)):
                    problems.append(f"reconstructed trace is wrong: {trace[:60]!r}")
        report["probes"] = run_probes(st)
        return problems

    def stage_report(self, passes: list) -> dict:
        out = {}
        for stage, key, unit, scale in (
                ("pack", "pack_MB_per_s", "MB/s", 1e-6),
                ("unpack", "unpack_MB_per_s", "MB/s", 1e-6),
                ("eval", "eval_rec_per_s", "rec/s", 1),
                ("reconstruct", "reconstruct_rec_per_s", "rec/s", 1),
                ("score-mwp", "score_mwp_rec_per_s", "rec/s", 1)):
            lat = per_op_median([p.stages[stage] for p in passes])
            out[key] = (scale * passes[0].units[stage] / sum(lat), unit)
        return out


def _write_lines(path: Path, lines: list) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# malformed-input probes (ROADMAP item 3)

# Left out: `trace "9^99999999"`, which does not terminate today; an
# in-process probe cannot be stopped, so it would hang the benchmark.


def _outcome(rc) -> str:
    if isinstance(rc, BaseException):
        cls = type(rc)
        return cls.__name__ if cls.__module__ == "builtins" else f"{cls.__module__}.{cls.__name__}"
    return f"exit {rc}"


def run_probes(st: dict) -> list:
    """Each probe is one operation that passes only when it ends in its
    documented outcome: an exit code of the CLI, or a typed StepmathError."""
    from stepmath import packing
    from stepmath.errors import StepmathError
    d = st["work"] / "probes"
    d.mkdir(exist_ok=True)
    b0 = st["batches"][0]["dir"]
    results = []

    def cli_probe(name, argv, want):
        rc, out = _quiet_main(argv)
        ok = not isinstance(rc, BaseException) and rc in want
        shown = _outcome(rc)
        results.append((name, ok, shown, "exit " + "/".join(map(str, sorted(want)))))
        return rc, out

    (d / "bad_pred.jsonl").write_text('{"id": "0", "prediction": "1+1=2"}\nnot json\n')
    cli_probe("score-mwp non-JSON prediction line",
              ["score-mwp", "--gold", str(b0 / "rec.jsonl"), "--pred", str(d / "bad_pred.jsonl")],
              {2, 3, 4, 64})

    (d / "no_ans.jsonl").write_text(
        '{"id": "1", "original_text": "q", "equation": "1+2", "ans": "3"}\n'
        '{"id": "2", "original_text": "q", "equation": "2+2"}\n')
    rc, out = _quiet_main(["reconstruct", "--in", str(d / "no_ans.jsonl"),
                           "--out", str(d / "no_ans.out"), "--json"])
    ok = rc == 0 and json.loads(out) == {"reconstructed": 1, "rejected": 1,
                                         "rejects_file": str(d / "no_ans.out") + ".rejects.jsonl"}
    results.append(("reconstruct record without ans", ok, _outcome(rc), "exit 0, one reject row"))

    (d / "gold2.jsonl").write_text('{"problem": "1+1", "ground_truth": "2"}\n'
                                   '{"problem": "2+2", "ground_truth": "4"}\n')
    (d / "pred1.txt").write_text("1+1=2\n")
    cli_probe("eval with misaligned gold/pred",
              ["eval", "--gold", str(d / "gold2.jsonl"), "--pred", str(d / "pred1.txt")], {64})

    blob = (b0 / "corpus.pack").read_bytes()
    (d / "cut.pack").write_bytes(blob[: 16 + (len(blob) - 16) // 2 + 2])
    try:
        with open(d / "cut.pack", "rb") as f:
            list(packing.unpack_sequences(f))
        results.append(("truncated .pack file", False, "no error", "a StepmathError"))
    except StepmathError as exc:
        results.append(("truncated .pack file", True, _outcome(exc), "a StepmathError"))
    except Exception as exc:  # the defect this probe looks for
        results.append(("truncated .pack file", False, _outcome(exc), "a StepmathError"))

    cli_probe('trace "9999^2000"', ["trace", "9999^2000"], {3})

    chain = "+".join(["1"] * 1000)
    rc, out = cli_probe("trace of a 1000-term chain", ["trace", chain], {0, 2})
    if rc == 0 and not out.rstrip("\n").endswith("=1000"):
        results[-1] = (results[-1][0], False, "wrong trace", results[-1][3])
    return results


WORKLOADS = {w.name: w for w in (Curriculum(), LongChains(), Downstream())}


def clean(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)

