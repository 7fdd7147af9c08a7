"""Benchmark inputs drawn from the workload seed, and the planted plans whose
expected outcomes the output checks compare against.

Nothing here calls into stepmath: values are computed with an evaluator of the
benchmark's own (exact rationals), so the checks do not trust the code they
measure.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

CATEGORIES = ("int-mixed", "exponentiation", "bracketed-int", "lengthy-mixed", "fraction")

# One curriculum batch: phase one over all five categories at 1-5 digits, then
# the 5-12 digit tail. Spec seeds are left out so the schedule loader derives
# them the way the default curriculum does (same category rotation).
BATCH_PHASE_COUNTS = (75, 25)

# Fixed schedule whose digest is pinned in expected.json: four 1024-record
# chunks, two of each phase, so `--workers 2` runs two processes with about
# equal work.
REFERENCE_SEED = 20230906
REFERENCE_PHASE_COUNTS = (2048, 2048)

# Long-chain operand counts, fixed so that only values, operators and bracket
# placement depend on the seed. 200 chains make the 95th percentile the highest
# one with ten samples beyond it, and it falls inside the 200-operand class.
CHAIN_SIZES = (25,) * 120 + (50,) * 40 + (100,) * 25 + (200,) * 10 + (300,) * 5


def schedule_json(seed: int, phase_counts=BATCH_PHASE_COUNTS) -> str:
    digit_ranges = ([1, 5], [5, 12])
    phases = [
        {"count": count,
         "specs": [{"category": c, "digits": digits} for c in CATEGORIES]}
        for count, digits in zip(phase_counts, digit_ranges)
    ]
    return json.dumps({"seed": seed, "phases": phases})


def category_of(index: int) -> tuple[str, str]:
    """(category, phase) of record `index` in a curriculum batch."""
    head = BATCH_PHASE_COUNTS[0]
    if index < head:
        return CATEGORIES[index % len(CATEGORIES)], "p1"
    return CATEGORIES[(index - head) % len(CATEGORIES)], "p2"


# ---------------------------------------------------------------------------
# an evaluator of the benchmark's own, for + - * / and brackets over integer
# and decimal literals

_TOKEN_RE = re.compile(r"\d+(?:\.\d+)?|[-+*/()\[\]]")


def exact_eval(text: str) -> Fraction:
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens) != text:
        raise ValueError(f"unsupported text {text!r}")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def atom() -> Fraction:
        tok = take()
        if tok in ("(", "["):
            value = expr()
            take()
            return value
        if tok == "-":
            return -atom()
        return Fraction(tok)

    def term() -> Fraction:
        value = atom()
        while peek() in ("*", "/"):
            value = value * atom() if take() == "*" else value / atom()
        return value

    def expr() -> Fraction:
        value = term()
        while peek() in ("+", "-"):
            value = value + term() if take() == "+" else value - term()
        return value

    result = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return result


_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?|-?\d+/\d+")


def number_value(text: str):
    """Exact value of an integer, decimal or fraction text; None otherwise."""
    return Fraction(text) if _NUMBER_RE.fullmatch(text) else None


def decimal_text(v: Fraction, places: int) -> str:
    scaled = round(abs(v) * 10 ** places)
    whole, frac = divmod(scaled, 10 ** places)
    sign = "-" if v < 0 and scaled else ""
    return f"{sign}{whole}.{frac:0{places}d}" if places else f"{sign}{whole}"


def value_text(v: Fraction) -> str:
    """Text of a value whose denominator divides 10."""
    if v.denominator == 1:
        return str(v.numerator)
    assert 10 % v.denominator == 0, v
    return decimal_text(v, 1)


# ---------------------------------------------------------------------------
# long chains


def _bracket(rng, terms: list[str]) -> list[str]:
    """Wrap about one in eight operands into non-overlapping groups of 2-5."""
    out = list(terms)
    i = rng.randint(0, 3)
    while i < len(out) - 2:
        width = rng.randint(2, 5)
        j = min(i + width - 1, len(out) - 1)
        kind = "(" if rng.random() < 0.7 else "["
        close = ")" if kind == "(" else "]"
        out[i] = kind + out[i]
        out[j] = out[j] + close
        i = j + rng.randint(3, 12)
    return out


def chain_text(rng, n: int, bracketed: bool) -> str:
    """n two-digit operands joined by + - * (no division, so no step fails)."""
    terms = [str(rng.randint(1, 99)) for _ in range(n)]
    if bracketed:
        terms = _bracket(rng, terms)
    ops = [rng.choice("+-*") for _ in range(n - 1)]
    return terms[0] + "".join(op + t for op, t in zip(ops, terms[1:]))


def long_chains(rng) -> list[tuple[str, int, Fraction]]:
    """(expression, operand count, exact value), flat and bracketed alternating."""
    chains = []
    for i, n in enumerate(CHAIN_SIZES):
        text = chain_text(rng, n, bracketed=bool(i % 2))
        chains.append((text, n, exact_eval(text)))
    return chains


# ---------------------------------------------------------------------------
# held-out predictions for `stepmath eval`

GARBAGE_TAILS = ("", "?", "1,5", "NaN", "12.5.1", "x+1")
NEAR_FACTOR = Fraction(1004, 1000)  # 0.4% off: within 1% relative error, wrong at 2 dp


def eval_plan(rng, trace_lines: list[str]) -> tuple[list[dict], list[str], dict]:
    """Gold records, line-aligned predictions and the counts they imply.

    Kinds: exact (the full trace), near (final value off by 0.4%, for golds with
    1e3 <= |y| <= 1e12 so the miss shows at two decimals), garbage (a tail that
    fails answer extraction).
    """
    gold, preds = [], []
    counts = {"exact": 0, "near": 0, "garbage": 0}
    for line in trace_lines:
        problem, final = line.split("=", 1)[0], line.rsplit("=", 1)[1]
        y = number_value(final)
        if y is None:
            raise ValueError(f"final {final!r} is not a number text")
        roll = rng.random()
        if roll < 0.2:
            kind = "garbage"
            pred = f"{problem}={rng.choice(GARBAGE_TAILS)}"
        elif roll < 0.45 and 1000 <= abs(y) <= 10 ** 12:
            kind = "near"
            pred = f"{problem}={decimal_text(y * NEAR_FACTOR, 6)}"
        else:
            kind = "exact"
            pred = line
        counts[kind] += 1
        gold.append({"problem": problem, "ground_truth": final})
        preds.append(pred)
    total = len(trace_lines)
    expected = {
        "total": total,
        "correct": counts["exact"],
        "re_correct": counts["exact"] + counts["near"],
        "re_defined": total,
        "errors": 0,
    }
    return gold, preds, expected


# ---------------------------------------------------------------------------
# Ape210K-style word problems for `stepmath reconstruct` and `score-mwp`

_QUESTION = "某商店第{}天卖出一批货物，按算式计算总数是多少？"


def mwp_equation(rng) -> str:
    """Integers, exact divisions written q/d, one-decimal literals that only
    meet + and -, and at most one bracket group."""
    n = rng.randint(2, 5)
    terms, is_decimal = [], []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.15:
            d = rng.randint(2, 12)
            terms.append(f"{d * rng.randint(2, 30)}/{d}")
            is_decimal.append(False)
        elif roll < 0.25:
            a = rng.randint(11, 999)
            terms.append(f"{a // 10}.{a % 10}")
            is_decimal.append(True)
        else:
            terms.append(str(rng.randint(1, 999)))
            is_decimal.append(False)
    ops = []
    for i in range(n - 1):
        additive = is_decimal[i] or is_decimal[i + 1]
        ops.append(rng.choice("+-" if additive else "+-*"))
    if n >= 3 and rng.random() < 0.4:
        i = rng.randint(0, n - 2)
        j = rng.randint(i + 1, n - 1)
        if (i, j) != (0, n - 1):
            terms[i] = "(" + terms[i]
            terms[j] = terms[j] + ")"
    return terms[0] + "".join(op + t for op, t in zip(ops, terms[1:]))


def mwp_plan(rng, first_id: int, count: int) -> tuple[list[dict], list[dict], dict]:
    """Word-problem records with planted rejects, score-mwp predictions, and
    the counts both commands must report.

    Rejects (about 12%): a stored answer off by one, an equation with a doubled
    operator, an answer with no number in it. Predictions for the records that
    reconstruct: both right, arithmetic only, answer only, neither, missing.
    """
    records, predictions = [], []
    rejected = arith = answer = good = 0
    for k in range(count):
        rid = str(first_id + k)
        equation = mwp_equation(rng)
        value = exact_eval(equation)
        answer_text = value_text(value)
        stored_equation = ("x=" + equation) if rng.random() < 0.3 else equation
        roll = rng.random()
        if roll < 0.04:
            answer_text = value_text(value + 1)
        elif roll < 0.08:
            at = next(i for i, ch in enumerate(equation) if i and ch in "+-*")
            stored_equation = equation[: at + 1] + "*" + equation[at + 1:]
        elif roll < 0.12:
            answer_text = "abc"
        records.append({"id": rid, "original_text": _QUESTION.format(k + 1),
                        "equation": stored_equation, "ans": answer_text})
        if roll < 0.12:
            rejected += 1
            continue
        good += 1
        wrong = value_text(value + 1)
        kind = rng.random()
        if kind < 0.5:
            pred, a_ok, n_ok = f"{equation}={answer_text}", True, True
        elif kind < 0.65:
            pred, a_ok, n_ok = f"{equation}={wrong}", True, False
        elif kind < 0.8:
            pred, a_ok, n_ok = f"{wrong}={answer_text}", False, True
        elif kind < 0.9:
            pred, a_ok, n_ok = f"{wrong}={wrong}", False, False
        else:
            continue  # missing prediction: wrong on both counts
        predictions.append({"id": rid, "prediction": pred})
        arith += a_ok
        answer += n_ok
    expected = {
        "reconstructed": good,
        "rejected": rejected,
        "total": good,
        "arithmetic_correct": arith,
        "answer_correct": answer,
    }
    return records, predictions, expected


def deal_by_length(items: list, key, batches: int) -> list[list]:
    """Sort by size and deal round-robin, so every batch costs about the same."""
    order = sorted(items, key=key)
    return [order[b::batches] for b in range(batches)]
