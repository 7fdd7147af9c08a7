"""stepmath benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program under test is the source tree in
`src/`. Workloads: curriculum, long-chains, downstream (see BENCHMARK.json and
perfbench/README.md). The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`. Exits 1
when an output check fails and 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
SETUPS = 5  # set-up runs per benchmark run; setup_s is their median


def load_program() -> None:
    pkg = ROOT / "src" / "stepmath" / "__init__.py"
    if not pkg.is_file():
        print(f"perfbench: {pkg.relative_to(ROOT)} not found; run from a stepmath checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import stepmath
    if Path(stepmath.__file__).resolve() != pkg.resolve():
        print(f"perfbench: imported stepmath from {stepmath.__file__}, not {pkg}", file=sys.stderr)
        sys.exit(2)


def environment(seed: int) -> dict:
    """Identity of the measured code and machine, recorded with every result."""
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from clock import Clock
    from spans import Tracer, highest_percentile, nearest_rank
    from workloads import (WORKLOADS, Cli, clean, common_layer_metrics, instrument, layer_unit,
                           per_op_median)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    env = environment(args.seed)
    work = WORK / f"{wl.name}-{os.getpid()}"
    clean(work)
    tracer = Tracer(keep={"datagen.chunk"})
    clock = Clock()
    cli = Cli(tracer, clock)

    try:
        setup_times = []
        for i in range(SETUPS):
            clock.prime()
            st, seconds, _ = clock.measure(wl.setup, args.seed, work / f"setup{i}")
            setup_times.append(seconds)
            if i + 1 < SETUPS:
                clean(work / f"setup{i}")

        baseline = None
        if args.trace:
            baseline = wl.run_pass(st, cli)  # untraced, for the tracing overhead
            instrument(tracer)
            tracer.enabled = True
        passes = []
        start = perf_counter()
        measured = cli.measured
        while not passes or perf_counter() - start < args.seconds:
            passes.append(wl.run_pass(st, cli))
        tracer.enabled = False
        tracer.unwrap_all()
        measured = cli.measured - measured
        elapsed = perf_counter() - start

        report: dict = {}
        problems = wl.check(st, report, clock)
    finally:
        tracer.unwrap_all()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    n = len(passes[0].latencies)
    level = highest_percentile(n)
    nominal = sum(p.seconds for p in passes)
    speed = nominal / measured
    lines = [
        f"perfbench {wl.name}: seed {args.seed}, trace {args.trace}, "
        f"{len(passes)} passes of {n} operations in {elapsed:.1f} s",
        f"timing: {nominal:.3f} nominal s for {measured:.3f} measured s of operations "
        f"(machine at {speed:.2f}x nominal speed)",
        "environment: " + json.dumps(env),
        f"percentiles: p95 is the highest with >= 10 of {n} samples beyond it per pass "
        f"(computed: p{level:g}); an operation's latency is its median over {len(passes)} passes",
    ]
    probes = report.get("probes", [])
    probe_failures = sum(not ok for _, ok, _, _ in probes)

    if args.trace:
        metrics = common_layer_metrics(tracer, len(passes), sum(p.records for p in passes),
                                       probe_failures)
        # Span times are measured seconds; rescale them by the passes' own
        # measured-to-nominal ratio (clock.py) like every other duration.
        for key, value in metrics.items():
            unit = layer_unit(key)
            if unit in ("us", "ms", "s"):
                metrics[key] = value * speed
            elif unit == "MB/s":
                metrics[key] = value / speed
        if "w2_speedup" in report:
            metrics["datagen.w2_speedup"] = report["w2_speedup"]
        traced = median([p.seconds for p in passes])
        metrics["tracing.overhead_share"] = traced / baseline.seconds - 1
        lines.append(f"tracing overhead: traced pass {traced:.3f} s vs untraced pass "
                     f"{baseline.seconds:.3f} s ({100 * metrics['tracing.overhead_share']:+.1f}%)")
        if hasattr(wl, "baseline_table"):
            lines += wl.baseline_table(st, clock)
        result_metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        lat = sorted(per_op_median([p.latencies for p in passes]))
        metrics = {
            "ops_per_s": (passes[0].ops / sum(lat), "1/s"),
            "p50_ms": (1e3 * nearest_rank(lat, 50), "ms"),
            "p95_ms": (1e3 * nearest_rank(lat, 95), "ms"),
            "setup_s": (median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    lines.append("end-to-end (untraced):" if not args.trace else "stage rates (traced):")
    stage = wl.stage_report(passes)
    for key, (value, unit) in stage.items():
        lines.append(f"  {key} = {value:.6g} {unit}")
    for key in ("generate_w2_rec_per_s", "generate_ref_w1_rec_per_s", "w2_speedup"):
        if key in report:
            unit = "x" if key == "w2_speedup" else "rec/s"
            lines.append(f"  {key} = {report[key]:.6g} {unit} (reference schedule, one run each)")
    lines.append(f"  failed_share = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for key, m in result_metrics.items():
        lines.append(f"  {key} = {m['value']:.6g} {m['unit']}")
    for name, ok, got, want in probes:
        lines.append(f"probe {'ok  ' if ok else 'FAIL'} {name}: {got} (documented: {want})")
    if probes:
        lines.append(f"probes: {probe_failures} of {len(probes)} end outside their documented "
                     f"outcome (known defects; not counted in failed)")
    for problem in problems:
        lines.append(f"CHECK FAILED: {problem}")
    lines.append("checks: " + ("all passed" if not problems else f"{len(problems)} failed"))

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json").write_text(
        json.dumps({"environment": env, "result": result, "report": lines}, indent=1) + "\n")
    clean(work)

    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
