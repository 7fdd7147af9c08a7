"""Math-word-problem ingestion: rewrite directly-calculated answers into
step-by-step traces, and score predictions for arithmetic vs answer accuracy.

Records arrive as JSONL with Ape210K's field names ({id, original_text,
equation, ans}). Question text is carried
verbatim (it is usually Chinese); only the equation is parsed. Records that
fail (equation does not parse, stored answer disagrees with evaluation) go to
a rejects file with their line number and a reason, never silently dropped.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Optional

from . import numeric
from .errors import AnswerMismatch, EquationParseError, MalformedInput, MathError, StepmathError
from .expr import STANDARD, parse
from .metrics import extract_answer, is_correct, parse_number_text, read_jsonl, replacing
from .numeric import Number
from .steps import direct_eval, render_trace, trace

# Leading "x=" style prefixes and trailing unit text are stripped before
# parsing; both normalizations are inferred conventions.
_EQ_PREFIX_RE = re.compile(r"^[xX]=")
_ANSWER_CORE_RE = re.compile(r"[+-]?\d[\d./%]*")


@dataclass
class MWPRecord:
    id: str
    question: str
    equation: str
    answer: Number
    answer_text: str


@dataclass
class ReconstructedRecord:
    record: MWPRecord
    solution_trace: str

    def to_json_obj(self) -> dict:
        return {
            "id": self.record.id,
            "original_text": self.record.question,
            "equation": self.record.equation,
            "ans": self.record.answer_text,
            "solution_trace": self.solution_trace,
        }


def normalize_equation(text: str) -> str:
    eq = text.strip()
    if _EQ_PREFIX_RE.match(eq):
        eq = eq[2:]
    return "".join(eq.split())


def normalize_answer(text: str) -> tuple[Optional[Number], str]:
    raw = text.strip()
    value = parse_number_text(raw)
    if value is not None:
        return value, raw
    m = _ANSWER_CORE_RE.search(raw)
    if m and m.group(0) != raw:
        core = m.group(0)
        value = parse_number_text(core)
        if value is not None:
            return value, core
    return None, raw


def record_from_obj(obj: dict) -> MWPRecord:
    """Raises MalformedInput when obj is not a dict holding the id, equation
    and ans fields, EquationParseError when the answer does not parse."""
    if not isinstance(obj, dict):
        raise MalformedInput("record is not a JSON object")
    missing = [k for k in ("id", "equation", "ans") if k not in obj]
    if missing:
        raise MalformedInput(f"record lacks {', '.join(map(repr, missing))}")
    equation = normalize_equation(str(obj["equation"]))
    answer, answer_text = normalize_answer(str(obj["ans"]))
    if answer is None:
        raise EquationParseError(f"unparseable answer {obj['ans']!r}")
    return MWPRecord(
        id=str(obj["id"]),
        question=str(obj.get("original_text", "")),
        equation=equation,
        answer=answer,
        answer_text=answer_text,
    )


def reconstruct(record: MWPRecord) -> ReconstructedRecord:
    """Attach the step-by-step trace of the record's equation.

    Raises EquationParseError or AnswerMismatch; idempotent on success (the
    trace is a pure function of the equation).
    """
    try:
        tree = parse(record.equation, STANDARD)
    except StepmathError as err:
        raise EquationParseError(f"{record.equation!r}: {err}") from None
    try:
        value = direct_eval(tree)
    except MathError as err:
        raise EquationParseError(f"{record.equation!r}: {err}") from None
    if not is_correct(value, record.answer):
        raise AnswerMismatch(
            f"equation {record.equation!r} evaluates to {numeric.render(value)}, "
            f"stored answer is {record.answer_text!r}"
        )
    solution = render_trace(trace(tree, STANDARD, record.equation))
    return ReconstructedRecord(record=record, solution_trace=solution)


def reconstruct_file(in_path: str, out_path: str, rejects_path: str) -> tuple[int, int]:
    """Returns (reconstructed count, reject count). Each record that fails,
    including a line that is not a JSON object holding the record fields,
    becomes a rejects row {id, line, reason}. The rejects file is always
    created, even when empty. A run that fails leaves neither (`replacing`)."""
    written = rejected = 0
    rows = read_jsonl(in_path)  # opens the input before the outputs exist
    with replacing(out_path, rejects_path) as (fout, frej):
        for line_no, obj in rows:
            try:
                rec = reconstruct(record_from_obj(obj))
            except StepmathError as err:
                id_ = obj.get("id", "?") if isinstance(obj, dict) else "?"
                row = {"id": str(id_), "line": line_no, "reason": str(err)}
                frej.write((json.dumps(row, ensure_ascii=False) + "\n").encode())
                rejected += 1
            else:
                fout.write((json.dumps(rec.to_json_obj(), ensure_ascii=False) + "\n").encode())
                written += 1
    return written, rejected


# ---------------------------------------------------------------------------
# scoring


@dataclass
class MWPReport:
    total: int
    arithmetic_correct: int
    answer_correct: int
    verdicts: list

    @property
    def arithmetic_accuracy(self) -> float:
        return self.arithmetic_correct / self.total if self.total else 0.0

    @property
    def answer_accuracy(self) -> float:
        return self.answer_correct / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "arithmetic_accuracy": self.arithmetic_accuracy,
            "answer_accuracy": self.answer_accuracy,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _equation_value(text: str) -> Optional[Number]:
    try:
        return direct_eval(parse(text, STANDARD))
    except StepmathError:
        return None


def score_mwp(gold: Iterable[ReconstructedRecord], predictions: dict[str, str],
              keep_verdicts: bool = False) -> MWPReport:
    """Arithmetic accuracy: the predicted expression (text before the first '=')
    is value-equivalent to the gold equation. Answer accuracy: the extracted
    final answer matches the stored answer. Missing ids count as incorrect on
    both metrics."""
    total = arith = ans = 0
    verdicts = []
    for g in gold:
        total += 1
        pred = predictions.get(g.record.id)
        arith_ok = ans_ok = False
        if pred is None:
            verdict = "missing"
        else:
            verdict = "scored"
            first = pred.split("=", 1)[0]
            pv = _equation_value(first)
            gv = _equation_value(g.record.equation)
            arith_ok = pv is not None and gv is not None and is_correct(pv, gv)
            extracted = extract_answer(pred)
            ans_ok = extracted is not None and is_correct(extracted, g.record.answer)
        arith += arith_ok
        ans += ans_ok
        if keep_verdicts:
            verdicts.append(
                {
                    "id": g.record.id,
                    "status": verdict,
                    "arithmetic_correct": bool(arith_ok),
                    "answer_correct": bool(ans_ok),
                }
            )
    return MWPReport(total=total, arithmetic_correct=arith, answer_correct=ans,
                     verdicts=verdicts)


def load_reconstructed(path: str) -> list[ReconstructedRecord]:
    """Raises MalformedInput at the first line that is not a JSON object holding
    the record fields, a parseable answer and a solution_trace."""
    out = []
    for line_no, obj in read_jsonl(path):
        try:
            rec = record_from_obj(obj)
        except (MalformedInput, EquationParseError) as err:
            raise MalformedInput(f"{path}:{line_no}: {err}") from None
        if "solution_trace" not in obj:
            raise MalformedInput(f"{path}:{line_no}: record lacks 'solution_trace'")
        out.append(ReconstructedRecord(record=rec, solution_trace=obj["solution_trace"]))
    return out


def load_predictions(path: str) -> dict[str, str]:
    """{id: prediction} from JSONL {id, prediction} lines; raises MalformedInput
    at the first line that is not an object with an id and a string prediction."""
    preds = {}
    for line_no, obj in read_jsonl(path):
        if not (isinstance(obj, dict) and "id" in obj
                and isinstance(obj.get("prediction"), str)):
            raise MalformedInput(f"{path}:{line_no}: expected a JSON object "
                                 "with an id and a string prediction")
        preds[str(obj["id"])] = obj["prediction"]
    return preds
