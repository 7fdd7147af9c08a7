"""Scoring of model predictions: two-decimal accuracy, relative error under a
threshold, accuracy grids grouped by operation and number format, and n-digit
two-operand problem suites.

A prediction is read as the text after its last ``=``; an unparseable tail is
an extraction failure and scores as incorrect under both metrics, never as an
exception. Scoring is pure and order-independent.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import re
import stat
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

from . import numeric
from .expr import FRACTION, Chain, FractionLit, Lit, STANDARD, Unary, iter_nodes, parse
from .errors import Dec64RangeError, MalformedInput, MathError, StepmathError
from .numeric import Frac, Number
from .steps import direct_eval

DEFAULT_RE_THRESHOLD = 0.01

# An integer or decimal, with an optional percent sign, or a fraction.
_NUMBER_RE = re.compile(r"([+-]?\d+(?:\.\d+)?)(%?)|([+-]?\d+)/(\d+)")


def parse_number_text(text: str) -> Optional[Number]:
    """Integer, decimal, fraction, or percent text to a value; None otherwise,
    also for an integer past Python's 4300-digit conversion limit, a zero
    denominator or a decimal or percent past binary64."""
    m = _NUMBER_RE.fullmatch(text.strip())
    if m is None:
        return None
    number, percent, num, den = m.groups()
    try:
        if num is not None:
            return Frac(int(num), int(den))
        value = numeric.decimal_value(number) if "." in number else int(number)
        return numeric.percent_value(value) if percent else value
    except (ValueError, MathError):  # the digit limit, or no value
        return None


def extract_answer(prediction_text: str) -> Optional[Number]:
    """Value of the segment after the final '='; None on extraction failure."""
    tail = prediction_text.rsplit("=", 1)[-1]
    return parse_number_text(tail)


def is_correct(y_hat: Number, y: Number) -> bool:
    """Two-decimal agreement, rounding half away from zero; fractions compare
    as exact rationals first so distinct fractions are never conflated."""
    if isinstance(y_hat, Frac) and isinstance(y, Frac):
        return y_hat.num * y.den == y.num * y_hat.den
    try:
        return numeric.two_decimal_cents(y_hat) == numeric.two_decimal_cents(y)
    except (StepmathError, ArithmeticError):
        return False


def relative_error(y_hat: Number, y: Number) -> Optional[float]:
    """|y_hat - y| / |y| as binary64. None when y == 0 and y_hat != 0, which has
    no defined relative error; exactly 0.0 when both are zero."""
    if numeric.is_zero(y):
        return 0.0 if numeric.is_zero(y_hat) else None
    if isinstance(y_hat, float) or isinstance(y, float):
        fy = numeric.to_float(y)
        return abs((numeric.to_float(y_hat) - fy) / fy)
    try:
        return abs(numeric.to_float(numeric.div(numeric.sub(y_hat, y), y)))
    except Dec64RangeError:
        return float("inf")


# ---------------------------------------------------------------------------
# grouped classification

OPS = ("ADD", "SUB", "MUL", "DIV", "POW", "MIX")
FORMATS = ("Int", "Dec", "Frac", "Perc", "Neg")

_OP_LABEL = {"+": "ADD", "-": "SUB", "*": "MUL", "/": "DIV", "^": "POW"}
_FRACTION_LIT_RE = re.compile(r"\(-?\d+/\d+\)")


def classify_problem(problem: str) -> Optional[tuple[str, str]]:
    """(operation, format) bucket for a problem string, None if unclassifiable.

    Format priority when a problem mixes several: Frac > Perc > Dec > Neg > Int.
    """
    mode = FRACTION if _FRACTION_LIT_RE.search(problem) else STANDARD
    try:
        tree = parse(problem, mode)
    except StepmathError:
        return None
    ops, has_frac, has_neg = [], False, False
    for n in iter_nodes(tree):
        if isinstance(n, Chain):
            ops.extend(n.ops)
        has_frac = has_frac or isinstance(n, FractionLit)
        has_neg = has_neg or (isinstance(n, Lit) and "-" in n.text
                              or isinstance(n, Unary) and n.op == "-")
    if not ops:
        return None
    op_label = _OP_LABEL[ops[0]] if len(ops) == 1 else "MIX"

    if has_frac:
        fmt = "Frac"
    elif "%" in problem:
        fmt = "Perc"
    elif "." in problem:
        fmt = "Dec"
    elif has_neg:
        fmt = "Neg"
    else:
        fmt = "Int"
    return op_label, fmt


# ---------------------------------------------------------------------------
# record scoring


@dataclass
class PredictionRecord:
    problem: str
    ground_truth: Optional[Number]  # None marks a malformed record
    prediction_text: str
    extracted: Optional[Number] = None

    @classmethod
    def from_raw(cls, problem: str, ground_truth: Union[str, int, float],
                 prediction: str) -> "PredictionRecord":
        gt = parse_number_text(str(ground_truth))
        return cls(problem, gt, prediction, extract_answer(prediction))

    @classmethod
    def malformed(cls, detail: str) -> "PredictionRecord":
        return cls(problem="", ground_truth=None, prediction_text=detail)


@dataclass
class EvalReport:
    total: int
    correct: int
    threshold: float
    re_correct: int
    re_defined: int
    errors: int = 0
    grouped: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    @property
    def re_accuracy(self) -> float:
        # True answer 0 with a nonzero prediction has no defined relative error
        # and is excluded from this denominator; extraction failures stay in it
        # as plain misses.
        return self.re_correct / self.re_defined if self.re_defined else 0.0

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "accuracy": self.accuracy,
            "re_accuracy": self.re_accuracy,
            "threshold": self.threshold,
            "correct": self.correct,
            "re_correct": self.re_correct,
            "re_defined": self.re_defined,
            "errors": self.errors,
            "grouped": {
                f"{op}/{fmt}": stats for (op, fmt), stats in sorted(self.grouped.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def evaluate(records: Iterable[PredictionRecord],
             threshold: float = DEFAULT_RE_THRESHOLD,
             keep_verdicts: bool = False) -> EvalReport:
    total = correct = re_correct = re_defined = errors = 0
    grouped: dict = {}
    verdicts = []
    for rec in records:
        total += 1
        if rec.ground_truth is None:
            # malformed record: an error verdict, incorrect, no defined RE
            errors += 1
            re_val, re_ok, ok = None, False, False
        elif rec.extracted is None:
            re_val = None
            re_ok = ok = False
            # an extraction failure is incorrect, not undefined, so it counts
            re_defined += 1
        else:
            ok = is_correct(rec.extracted, rec.ground_truth)
            re_val = relative_error(rec.extracted, rec.ground_truth)
            re_ok = re_val is not None and re_val <= threshold
            if re_val is not None:
                re_defined += 1
        correct += ok
        re_correct += re_ok

        bucket = classify_problem(rec.problem) if rec.ground_truth is not None else None
        if bucket is not None:
            stats = grouped.setdefault(bucket, {"n": 0, "correct": 0})
            stats["n"] += 1
            stats["correct"] += ok
        if keep_verdicts:
            verdicts.append(
                {
                    "problem": rec.problem,
                    "error": rec.ground_truth is None,
                    "correct": bool(ok),
                    "re": re_val,
                    "re_correct": bool(re_ok),
                    "extracted": None if rec.extracted is None else numeric.render(rec.extracted),
                }
            )
    for stats in grouped.values():
        stats["accuracy"] = stats["correct"] / stats["n"] if stats["n"] else 0.0
    return EvalReport(
        total=total,
        correct=correct,
        threshold=threshold,
        re_correct=re_correct,
        re_defined=re_defined,
        errors=errors,
        grouped=grouped,
        verdicts=verdicts,
    )


def grouped_csv(report: EvalReport) -> str:
    """Grid of accuracies, operations down the side and formats across."""
    lines = ["task," + ",".join(FORMATS)]
    for op in OPS:
        cells = []
        for fmt in FORMATS:
            stats = report.grouped.get((op, fmt))
            cells.append("" if stats is None else f"{stats['accuracy']:.4f}")
        lines.append(op + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# n-digit two-operand suites


BIGBENCH_OPS = {label: op for op, label in _OP_LABEL.items() if op != "^"}


def bigbench_suite(op: str, digits: int, n: int, seed: int) -> list[dict]:
    """n two-operand problems with both operands of exactly `digits` digits."""
    if op not in BIGBENCH_OPS:
        raise ValueError(f"op must be one of {sorted(BIGBENCH_OPS)}")
    if not 1 <= digits <= 5:
        raise ValueError("digits must be in 1..5")
    sym = BIGBENCH_OPS[op]
    lo = 10 ** (digits - 1) if digits > 1 else 1
    hi = 10 ** digits - 1
    rng = random.Random((seed * 0x9E3779B97F4A7C15 + digits) & ((1 << 64) - 1))
    problems = []
    for _ in range(n):
        a = rng.randint(lo, hi)
        b = rng.randint(lo, hi)
        problem = f"{a}{sym}{b}"
        truth = direct_eval(parse(problem, STANDARD))
        problems.append({"problem": problem, "ground_truth": numeric.render(truth)})
    return problems


# ---------------------------------------------------------------------------
# JSONL plumbing


def load_prediction_records(
    combined_path: Optional[str] = None,
    gold_path: Optional[str] = None,
    pred_path: Optional[str] = None,
) -> list[PredictionRecord]:
    """Either one combined JSONL ({problem, ground_truth, prediction}) or a gold
    file ({problem, ground_truth}) plus a line-aligned prediction file (JSONL
    with {prediction} or raw text lines). Files that are not line-aligned
    raise MalformedInput at the first line without a partner."""
    if combined_path is not None:
        return [_prediction_record(obj, isinstance(obj, dict) and obj.get("prediction"))
                for _, obj in read_jsonl(combined_path)]
    if gold_path is None or pred_path is None:
        raise ValueError("need either a combined file or gold and prediction files")
    golds = list(read_jsonl(gold_path))
    preds = [(line_no, _prediction_text(line)) for line_no, line in read_lines(pred_path)]
    if len(golds) != len(preds):
        n = min(len(golds), len(preds))
        path, rows = (gold_path, golds) if len(golds) > n else (pred_path, preds)
        raise MalformedInput(f"{path}:{rows[n][0]}: no partner line "
                             f"({len(golds)} gold records vs {len(preds)} predictions)")
    return [_prediction_record(g, p) for (_, g), (_, p) in zip(golds, preds)]


def _prediction_record(gold, prediction) -> PredictionRecord:
    """A malformed record unless `gold` is an object with a string problem and
    a ground truth, and `prediction` is a string."""
    if isinstance(gold, dict) and isinstance(gold.get("problem"), str) \
            and "ground_truth" in gold and isinstance(prediction, str):
        return PredictionRecord.from_raw(gold["problem"], gold["ground_truth"], prediction)
    return PredictionRecord.malformed(repr(gold))


def utf8_lines(path: str) -> Iterator[str]:
    """The lines of the UTF-8 text file at `path`, line ends kept. The file
    opens at the call, so a missing one fails before the caller writes
    anything; a byte that does not decode ends the lines in MalformedInput."""
    def lines(f):
        with f:
            yield  # primed by next() below, so closing unread lines still closes f
            try:
                yield from f
            except UnicodeDecodeError as err:
                raise MalformedInput(f"{path}: not UTF-8: byte 0x{err.object[err.start]:02x}, "
                                     f"{err.reason}") from None
    started = lines(open(path, encoding="utf-8"))
    next(started)
    return started


def _temp_beside(path: str) -> Optional[tuple[int, str, str]]:
    """(descriptor, temporary file, file) for `path` with symlinks resolved:
    a fresh file beside it, open for writing, with the mode it has or would be
    created with. None when it is written in place: it exists and is not a
    regular file of this user with one link (a device such as /dev/null, a
    FIFO, a hard link), or its directory takes no new file."""
    target = os.path.realpath(path)
    try:
        st = os.lstat(target)
        if not stat.S_ISREG(st.st_mode) or st.st_nlink > 1 or st.st_uid != os.geteuid():
            return None
        mode = stat.S_IMODE(st.st_mode)
    except FileNotFoundError:
        mode = 0o666 & ~os.umask(os.umask(0))
    except OSError:
        return None
    try:
        fd, tmp = tempfile.mkstemp(".tmp", os.path.basename(target) + ".",
                                   os.path.dirname(target))
    except OSError:  # open(path) then names the error, or writes a writable file
        return None
    os.fchmod(fd, mode)
    return fd, tmp, target


@contextlib.contextmanager
def replacing(*paths: str):
    """Binary files to write, one per path: the temporary file _temp_beside
    opens, through its descriptor, or else the path in place. When the block
    ends without error each temporary file replaces its file, in the order
    given; when it fails they are removed, so a failed run leaves no partial
    file behind."""
    temps = [_temp_beside(path) for path in paths]
    try:
        with contextlib.ExitStack() as stack:
            for fd, _, _ in filter(None, temps):
                stack.callback(os.close, fd)
            yield [stack.enter_context(open(temp[0] if temp else path, "wb", closefd=not temp))
                   for temp, path in zip(temps, paths)]
        for _, *temp in filter(None, temps):
            os.replace(*temp)
    finally:
        for _, tmp, _ in filter(None, temps):
            if os.path.exists(tmp):  # left by a failure
                os.remove(tmp)


def read_lines(path: str) -> Iterator[tuple[int, str]]:
    """The one reader of text input: yields (line number, line without its
    line end) for each line of the file at `path` that is not blank. Blank
    lines count toward the numbering. Opens the file at the call."""
    return ((line_no, line.rstrip("\n"))
            for line_no, line in enumerate(utf8_lines(path), start=1) if line.strip())


def _json_value(line: str) -> object:
    try:
        return json.loads(line.strip())
    except (ValueError, RecursionError):
        return None


def read_jsonl(path: str) -> Iterator[tuple[int, object]]:
    """read_lines with each line parsed as JSON. A line that is not JSON, or
    not JSON this program can hold (an integer past the 4300-digit limit,
    nesting past the recursion limit), reads as None, so each caller decides
    between a reject, an error verdict and an error."""
    return ((line_no, _json_value(line)) for line_no, line in read_lines(path))


def _prediction_text(line: str) -> str:
    """The string prediction of a JSON object line, the text of any other
    JSON value (`1e5` reads as 100000.0), or else the line as it is."""
    try:
        obj = json.loads(line)
        pred = obj["prediction"] if isinstance(obj, dict) else str(obj)
    except (ValueError, RecursionError, KeyError):
        return line
    return pred if isinstance(pred, str) else line
