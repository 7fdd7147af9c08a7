"""Command-line entry point for every pipeline stage.

Exit codes: 0 success, 2 expression parse error, 3 math error, 4 I/O error,
64 usage error or malformed input file. Every run prints its effective
configuration as one JSON line on stderr so it can be reproduced exactly;
`--workers` changes throughput only, never output bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import stat
import sys
from typing import Iterator, Optional

from . import datagen, metrics, mwp, packing, tokenizer
from .errors import (ExprSyntaxError, MalformedInput, MathError, NonTerminating, RecordTooLong,
                     StepmathError, UnknownSymbol)
from .expr import parse
from .numeric import render
from .steps import render_trace, trace

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MATH = 3
EXIT_IO = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_in(lo: int, hi: Optional[int] = None):
    """An argparse type: an int of at least lo, and at most hi if given;
    anything else is a usage error."""
    span = f"at least {lo}" if hi is None else f"from {lo} to {hi}"

    def integer(text: str) -> int:
        n = int(text)
        if n < lo or hi is not None and n > hi:
            raise argparse.ArgumentTypeError(f"{n} is not an integer {span}")
        return n
    return integer


def _threshold(text: str) -> float:
    """An argparse type: a finite number of at least 0."""
    x = float(text)
    if not 0 <= x <= sys.float_info.max:
        raise argparse.ArgumentTypeError(f"{text} is not a finite number of at least 0")
    return x


_threshold.__name__ = "float"  # a non-number gets argparse's `invalid float value`


_CONFIG_JSON = json.JSONEncoder(ensure_ascii=False)


def _echo_config(command: str, args: argparse.Namespace) -> None:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(_CONFIG_JSON.encode({"command": command, "config": cfg}), file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_trace(args) -> int:
    t = trace(parse(args.expr, args.mode), args.mode, args.expr)
    line = render_trace(t)
    if args.json:
        print(json.dumps({
            "expression": t.snapshots[0],
            "trace": line,
            "final": render(t.final),
            "rules": t.rules,
        }))
    else:
        print(line)
    return EXIT_OK


def _cmd_generate(args) -> int:
    manifest_path = args.manifest or args.out + ".manifest.json"
    if os.path.realpath(manifest_path) == os.path.realpath(args.out):
        # the manifest, renamed last, would take the traces' place
        print(f"stepmath: generate --manifest {manifest_path} is the --out file",
              file=sys.stderr)
        return EXIT_USAGE
    if args.schedule:
        text = "".join(metrics.utf8_lines(args.schedule))
        schedule = datagen.schedule_from_json(text, args.schedule)
    else:
        if args.total is None:
            print("stepmath: generate needs --total or --schedule", file=sys.stderr)
            return EXIT_USAGE
        schedule = datagen.default_curriculum(args.total, args.seed)
    # the manifest is renamed last: one on disk describes the trace file beside it
    with metrics.replacing(args.out, manifest_path) as (out, manifest_file):
        manifest = datagen.generate_dataset(schedule, out, path_label=args.out,
                                            workers=args.workers)
        manifest_file.write((manifest.to_json() + "\n").encode())
    if args.json:
        print(manifest.to_json())
    else:
        print(f"wrote {manifest.record_count} records to {args.out}")
        print(f"digest {manifest.content_digest}")
        print(f"manifest {manifest_path}")
    return EXIT_OK


def _checked_lines(path: str) -> Iterator[bytes]:
    """The tokenizer.low_bytes of each line of metrics.read_lines(path): a
    symbol outside the vocabulary is malformed input naming the line."""
    for line_no, line in metrics.read_lines(path):
        try:
            low = tokenizer.low_bytes(line)
        except UnknownSymbol as err:
            raise MalformedInput(f"{path}:{line_no}: {err}") from None
        yield low


def _cmd_tokenize(args) -> int:
    if args.text is not None:
        records = [tokenizer.low_bytes(args.text)]
    elif stat.S_ISREG(os.stat(args.infile).st_mode):
        # a bad line anywhere prints nothing: one pass checks, a second prints
        for _ in _checked_lines(args.infile):
            pass
        records = _checked_lines(args.infile)
    else:  # a pipe or FIFO can be read only once: hold its lines' low bytes
        records = list(_checked_lines(args.infile))
    if args.json:
        # the bytes of json.dumps of the whole list, written item by item; no
        # record symbol is one that JSON escapes
        sep = "["
        for low in records:
            text = low.translate(tokenizer.LOW_TO_SYMBOL).decode("ascii")
            ids = tokenizer.id_text(low)[:-1].replace(" ", ", ")
            sys.stdout.write(f'{sep}{{"text": "{text}", "ids": [{ids}]}}')
            sep = ", "
        print("[]" if sep == "[" else "]")
    else:
        for low in records:
            sys.stdout.write(tokenizer.id_text(low))
    return EXIT_OK


def _cmd_pack(args) -> int:
    records = line_no = 0
    numbered = metrics.read_lines(args.infile)  # --in opens before --out is made

    def lines():
        nonlocal records, line_no
        for line_no, line in numbered:
            records += 1
            yield line

    try:
        with metrics.replacing(args.out) as (out,):
            blocks = packing.pack_sequences(lines(), args.block_length, out)
    except RecordTooLong as err:  # pack_sequences numbers records, not file lines
        raise RecordTooLong(line_no, err.length, err.block_length, args.infile) from None
    except UnknownSymbol as err:
        raise MalformedInput(f"{args.infile}:{line_no}: {err}") from None
    payload = {"records": records, "blocks": blocks, "block_length": args.block_length}
    print(json.dumps(payload) if args.json else
          f"packed {records} records into {blocks} blocks of {args.block_length}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.infile is None and (args.gold is None or args.pred is None):
        print("stepmath: eval needs --in, or --gold and --pred", file=sys.stderr)
        return EXIT_USAGE
    if args.infile is not None and (args.gold is not None or args.pred is not None):
        print("stepmath: eval --in takes no --gold or --pred", file=sys.stderr)
        return EXIT_USAGE
    records = metrics.load_prediction_records(
        combined_path=args.infile, gold_path=args.gold, pred_path=args.pred
    )
    report = metrics.evaluate(records, threshold=args.threshold)
    if args.csv:
        with metrics.replacing(args.csv) as (f,):
            f.write(metrics.grouped_csv(report).encode())
    if args.json:
        print(report.to_json())
    else:
        print(f"records {report.total}")
        print(f"ACC {report.accuracy:.4f}")
        print(f"RE  {report.re_accuracy:.4f} (threshold {report.threshold})")
    return EXIT_OK


def _cmd_bigbench(args) -> int:
    problems = metrics.bigbench_suite(args.op, args.digits, args.n, args.seed)
    lines = [json.dumps(p) for p in problems]
    if args.out:
        with metrics.replacing(args.out) as (f,):
            f.write("".join(line + "\n" for line in lines).encode())
        print(f"wrote {len(problems)} problems to {args.out}")
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    rejects = args.rejects or args.out + ".rejects.jsonl"
    if os.path.realpath(rejects) == os.path.realpath(args.out):
        # the rejects file would take the records' place
        print(f"stepmath: reconstruct --rejects {rejects} is the --out file", file=sys.stderr)
        return EXIT_USAGE
    written, rejected = mwp.reconstruct_file(args.infile, args.out, rejects)
    payload = {"reconstructed": written, "rejected": rejected, "rejects_file": rejects}
    print(json.dumps(payload) if args.json else
          f"reconstructed {written} records, rejected {rejected} (see {rejects})")
    return EXIT_OK


def _cmd_score_mwp(args) -> int:
    gold = mwp.load_reconstructed(args.gold)
    preds = mwp.load_predictions(args.pred)
    report = mwp.score_mwp(gold, preds)
    if args.json:
        print(report.to_json())
    else:
        print(f"records {report.total}")
        print(f"arithmetic accuracy {report.arithmetic_accuracy:.4f}")
        print(f"answer accuracy     {report.answer_accuracy:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="stepmath", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="print the step-by-step trace of an expression")
    # let expressions with a leading negative number ("-7805+...") or signed
    # bracket pass as positionals instead of being read as flags
    p._negative_number_matcher = re.compile(r"^-\d|^-[([]")
    p.add_argument("expr")
    p.add_argument("--mode", choices=["standard", "fraction"], default="standard")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("generate", help="write a curriculum dataset and its manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--total", type=_int_in(0), help="record count for the default curriculum")
    p.add_argument("--schedule", help="JSON schedule file (overrides --total)")
    p.add_argument("--workers", type=_int_in(1), default=1)
    p.add_argument("--manifest", help="manifest path (default: OUT.manifest.json)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("tokenize", help="encode text records to token ids")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--text")
    g.add_argument("--in", dest="infile")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("pack", help="pack tokenized records into fixed-length blocks")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--block-length", type=_int_in(2, packing.MAX_BLOCK_LENGTH), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--in", dest="infile", help="combined JSONL {problem, ground_truth, prediction}")
    p.add_argument("--gold", help="JSONL {problem, ground_truth}")
    p.add_argument("--pred", help="line-aligned predictions (JSONL or raw text)")
    p.add_argument("--threshold", type=_threshold, default=metrics.DEFAULT_RE_THRESHOLD)
    p.add_argument("--csv", help="write the operation-by-format accuracy grid here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bigbench", help="emit an n-digit two-operand problem suite")
    p.add_argument("--op", required=True, choices=sorted(metrics.BIGBENCH_OPS))
    p.add_argument("--digits", type=_int_in(1, 5), required=True)
    p.add_argument("--n", type=_int_in(0), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bigbench)

    p = sub.add_parser("reconstruct", help="rewrite word-problem answers as step traces")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rejects", help="rejects path (default: OUT.rejects.jsonl)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("score-mwp", help="arithmetic vs answer accuracy for word problems")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_score_mwp)

    parser.commands = sub.choices  # each subcommand's parser, by name
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process: parsing keeps no state on it, and
    help and error output look up sys.stdout and sys.stderr at each call."""
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """`_parser().parse_args(argv)`, with a known subcommand's arguments
    parsed by its own parser alone. Whatever that parser leaves over, and any
    argv that does not start with a subcommand, goes through the full parser,
    so usage, help and errors are its own."""
    sub = _parser().commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return _parser().parse_args(argv)


# Each error a subcommand may raise, mapped to its exit code and the label
# its stderr line carries; the first class that matches wins.
_EXITS = (
    (ExprSyntaxError, EXIT_PARSE, "parse error: "),
    (MathError, EXIT_MATH, "math error: "),
    (NonTerminating, EXIT_MATH, "math error: "),
    (OSError, EXIT_IO, "io error: "),
    (MalformedInput, EXIT_USAGE, "malformed input: "),
    (UnicodeDecodeError, EXIT_USAGE, "malformed input: "),
    (StepmathError, EXIT_MATH, ""),
)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    _echo_config(args.command, args)
    try:
        return args.func(args)
    except tuple(cls for cls, _, _ in _EXITS) as err:
        code, label = next((code, label) for cls, code, label in _EXITS if isinstance(err, cls))
        print(f"stepmath: {label}{err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
