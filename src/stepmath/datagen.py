"""Seeded, deterministic generation of step-by-step arithmetic datasets.

Five expression categories are produced:

* ``int-mixed``     -- flat integer chains over + - * /
* ``exponentiation``-- one ``base^exponent`` with base <= 10000, exponent <= 100
* ``bracketed-int`` -- integer chains with one or two bracket groups
* ``lengthy-mixed`` -- brackets plus a blend of integers, decimals, percents,
                       and negative numbers
* ``fraction``      -- chains of rational literals, parsed in fraction mode

Every record is a deterministic function of (seed, record index) alone, so
generation parallelizes to any worker count with byte-identical output. Each
record's trace is checked against direct evaluation before it is emitted; a
draw that fails (division by zero via a bracketed subtraction, binary64
overflow past the printable range, a binary64 of 1e16 or more, which prints
without a decimal point) is resampled from the same stream, with an
add/subtract-only fallback after too many rejects.

The samplers return each tree with its operator count and its largest
operand digit count, which they know as they draw; the manifest histograms
are made from those, not from another walk of the tree.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import IO, Iterator, Optional

from .errors import Dec64RangeError, DivByZero, MalformedInput, MathError, RenderOverflow
from .expr import FRACTION, STANDARD, FractionLit, Group, Lit, Node, chain, signed
from .numeric import Frac, values_equal
from .steps import direct_eval, render_trace, trace

CATEGORIES = ("int-mixed", "exponentiation", "bracketed-int", "lengthy-mixed", "fraction")

MANIFEST_FORMAT_VERSION = 1

MAX_DIGITS = 12
MAX_STEPS = 10
EXP_BASE_CAP = 10000
EXP_CAP = 100

# Keep any binary64 intermediate far below the 1e21 positional-print limit.
_FLOAT_BUDGET = 15

_SEED_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class GenSpec:
    category: str
    digit_range: tuple[int, int] = (1, 5)
    step_range: tuple[int, int] = (2, 10)
    seed: int = 0

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if type(self.seed) is not int:
            raise ValueError(f"seed {self.seed!r} is not an integer")
        if not _is_range(self.digit_range, 1, MAX_DIGITS):
            raise ValueError(f"digit range {self.digit_range} is not lo <= hi in [1, {MAX_DIGITS}]")
        if self.category == "exponentiation":
            if self.step_range != (1, 1):
                object.__setattr__(self, "step_range", (1, 1))
        elif not _is_range(self.step_range, 2, MAX_STEPS):
            raise ValueError(f"step range {self.step_range} is not lo <= hi in [2, {MAX_STEPS}]")

    @property
    def mode(self) -> str:
        return FRACTION if self.category == "fraction" else STANDARD


def _is_range(r: tuple, lo: int, hi: int) -> bool:
    """Whether r holds two integers a, b with lo <= a <= b <= hi."""
    return len(r) == 2 and type(r[0]) is int and type(r[1]) is int and lo <= r[0] <= r[1] <= hi


@dataclass(frozen=True)
class Phase:
    specs: tuple[GenSpec, ...]
    count: int


@dataclass(frozen=True)
class CurriculumSchedule:
    phases: tuple[Phase, ...]
    seed: int

    @property
    def total(self) -> int:
        return sum(p.count for p in self.phases)


def default_curriculum(total: int, seed: int, tail_count: int = 50_000) -> CurriculumSchedule:
    """Phase 1: all categories capped at 5 digits. Phase 2: a smaller tail of
    records with operands of 5 to 12 digits."""
    tail = min(tail_count, total)
    head = total - tail
    phases = []
    if head:
        phases.append(Phase(_phase_specs(seed, 0, (1, 5)), head))
    if tail:
        phases.append(Phase(_phase_specs(seed, 1, (5, MAX_DIGITS)), tail))
    return CurriculumSchedule(tuple(phases), seed)


def _spec_seed(seed: int, phase_idx: int, slot: int) -> int:
    """The seed of the spec in `slot` of phase `phase_idx` when none is given."""
    return (seed * 1_000_003 + phase_idx * 101 + slot * 7919) & _MASK


def _phase_specs(seed: int, phase_idx: int, digits: tuple[int, int]) -> tuple[GenSpec, ...]:
    return tuple(GenSpec(cat, digits, seed=_spec_seed(seed, phase_idx, slot))
                 for slot, cat in enumerate(CATEGORIES))


def evaluation_schedule(train: CurriculumSchedule, count: int = 9_592) -> CurriculumSchedule:
    """Held-out set mirroring the training mixture, from a disjoint seed stream."""
    new_seed = (train.seed ^ _SEED_MIX) & _MASK
    total = train.total
    phases = []
    allotted = 0
    for i, phase in enumerate(train.phases):
        n = count - allotted if i == len(train.phases) - 1 else round(count * phase.count / total)
        allotted += n
        specs = tuple(
            GenSpec(s.category, s.digit_range, s.step_range,
                    seed=(s.seed ^ _SEED_MIX) & _MASK)
            for s in phase.specs
        )
        phases.append(Phase(specs, n))
    return CurriculumSchedule(tuple(phases), new_seed)


# ---------------------------------------------------------------------------
# draws
#
# `randint` and `choice` check their arguments and then call `_randbelow`;
# these call it directly, so they consume the same bits and return the same
# values.


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """`rng.randint(lo, hi)` for lo <= hi."""
    return lo + rng._randbelow(hi - lo + 1)


def _choice(rng: random.Random, seq):
    """`rng.choice(seq)` for a non-empty sequence."""
    return seq[rng._randbelow(len(seq))]


# ---------------------------------------------------------------------------
# literal and chain construction
#
# A literal builder returns the literal and its digit count: the digits of
# its whole part, the larger of a fraction's two parts.


def _int_of_digits(rng: random.Random, d: int) -> int:
    lo = 10 ** (d - 1)
    return lo + rng._randbelow(9 * lo)  # randint(lo, 10 ** d - 1)


def _int_lit(rng, spec, negative=False) -> tuple[Lit, int]:
    d = _randint(rng, *spec.digit_range)
    v = _int_of_digits(rng, d)
    if negative:
        return Lit(-v, f"-{v}"), d
    return Lit(v, str(v)), d


def _decimal_lit(rng, spec, negative=False) -> tuple[Lit, int]:
    d = _randint(rng, *spec.digit_range)
    whole = _int_of_digits(rng, d)
    fd = _randint(rng, 1, 5)
    frac = _randint(rng, 0, 10 ** fd - 1)
    text = f"{whole}.{frac:0{fd}d}"
    if negative:
        text = "-" + text
    return Lit(float(text), text), d


def _percent_lit(rng, spec) -> tuple[Lit, int]:
    d = _randint(rng, *spec.digit_range)
    v = _int_of_digits(rng, d)
    return Lit(v, f"{v}%"), d


def _fraction_lit(rng, spec) -> tuple[FractionLit, int]:
    dn = _randint(rng, *spec.digit_range)
    num = _int_of_digits(rng, dn)
    dd = _randint(rng, *spec.digit_range)
    den = _int_of_digits(rng, dd)
    return FractionLit(Frac(num, den)), max(dn, dd)


def _literals(rng, spec: GenSpec, count: int, literal) -> tuple[list[Node], list[int]]:
    """`count` literals drawn by `literal(rng, spec)`, and their digit counts."""
    nodes = []
    digits = []
    for _ in range(count):
        node, d = literal(rng, spec)
        nodes.append(node)
        digits.append(d)
    return nodes, digits


def _negate_fraction(f: FractionLit) -> FractionLit:
    return signed("-", f, "-" + f.text)


def _chain(nodes: list[Node], ops: list[str]) -> Node:
    """`nodes` joined by `ops`: a chain of + and - over chains of * and /,
    which bind tighter; a run of one operand is that operand."""
    terms: list[Node] = []
    adds = run_ops = ""
    run = [nodes[0]]
    for op, nd in zip(ops, nodes[1:]):
        if op in "*/":
            run_ops += op
        else:
            terms.append(chain(run_ops, run))
            adds, run, run_ops = adds + op, [], ""
        run.append(nd)
    terms.append(chain(run_ops, run))
    return chain(adds, terms)


def _cap_float_magnitudes(rng, nodes: list[Node], digits: list[int], ops: list[str]) -> None:
    """Clamp multiplicative runs so binary64 intermediates stay printable:
    swap a * or / for + or - wherever the running digit estimate of a run,
    from the literals' digit counts, would leave the binary64 budget.

    Only matters once a division or decimal makes the value non-exact; pure
    integer chains are exact at any size and left alone.
    """
    if "/" not in ops and not any(n.percent or n.value.__class__ is float for n in nodes):
        return
    est = digits[0]
    for i, op in enumerate(ops):
        d = digits[i + 1]
        if op == "*" and est + d > _FLOAT_BUDGET:
            op = ops[i] = _choice(rng, "+-")
        elif op == "/" and est - d < -_FLOAT_BUDGET:
            op = ops[i] = _choice(rng, "+-")
        est = est + d if op == "*" else (est - d if op == "/" else d)


def _wrap_span(nodes: list[Node], ops: list[str], i: int, j: int) -> None:
    """Bracket operands i..j (inclusive) into a single group operand, square
    when it takes in an earlier group."""
    span = nodes[i : j + 1]
    kind = "[" if any(n.__class__ is Group for n in span) else "("
    nodes[i : j + 1] = [Group(kind, _chain(span, ops[i:j]))]
    del ops[i:j]


def _wrap_spans(rng, nodes: list[Node], ops: list[str], k: int) -> None:
    """Bracket k random runs in turn while two operators remain; each run
    takes in at least one operator and leaves at least one outside."""
    for _ in range(k):
        remaining = len(ops)
        if remaining < 2:
            break
        run = _randint(rng, 1, remaining - 1)
        s = _randint(rng, 0, remaining - run)
        _wrap_span(nodes, ops, s, s + run)


# ---------------------------------------------------------------------------
# category samplers
#
# Each returns the tree, its operator count and its largest operand digit
# count; wrapping operands in brackets changes neither count.


def _sample_chain(literal, wraps, rng, spec: GenSpec,
                  pool: str = "+-*/") -> tuple[Node, int, int]:
    """A chain of `literal`s with `wraps(rng)` bracketed runs."""
    n = _randint(rng, *spec.step_range)
    nodes, digits = _literals(rng, spec, n + 1, literal)
    ops = [_choice(rng, pool) for _ in range(n)]
    _cap_float_magnitudes(rng, nodes, digits, ops)
    _wrap_spans(rng, nodes, ops, wraps(rng))
    return _chain(nodes, ops), n, max(digits)


def _sample_exponentiation(rng, spec: GenSpec, pool: str = "") -> tuple[Node, int, int]:
    hi_digits = min(spec.digit_range[1], 4)
    lo_digits = min(spec.digit_range[0], hi_digits)
    base = _int_of_digits(rng, _randint(rng, lo_digits, hi_digits))
    base = min(base, EXP_BASE_CAP)
    exponent = _randint(rng, 0, EXP_CAP)
    base_text, exponent_text = str(base), str(exponent)
    return (chain("^", (Lit(base, base_text), Lit(exponent, exponent_text))), 1,
            max(len(base_text), len(exponent_text)))


def _bracketed_literal(rng, spec: GenSpec) -> tuple[Lit, int]:
    return _int_lit(rng, spec, negative=rng.random() < 0.15)


def _lengthy_literal(rng, spec: GenSpec) -> tuple[Lit, int]:
    roll = rng.random()
    if roll < 0.35:
        return _int_lit(rng, spec)
    if roll < 0.60:
        return _decimal_lit(rng, spec)
    if roll < 0.75:
        return _percent_lit(rng, spec)
    if roll < 0.90:
        return _int_lit(rng, spec, negative=True)
    return _decimal_lit(rng, spec, negative=True)


def _sample_fraction(rng, spec: GenSpec, pool: str = "+-*/") -> tuple[Node, int, int]:
    n = _randint(rng, *spec.step_range)
    nodes, digits = _literals(rng, spec, n + 1, _fraction_lit)
    ops = [_choice(rng, pool) for _ in range(n)]

    mul_positions = [i for i, op in enumerate(ops) if op in "*/"]
    if mul_positions and rng.random() < 0.35:
        # Cancel-style sign pair on the two factors around one * or /, with the
        # left part of that multiplicative run bracketed.
        i = _choice(rng, mul_positions)
        nodes[i] = _negate_fraction(nodes[i])
        nodes[i + 1] = _negate_fraction(nodes[i + 1])
        l = i
        while l > 0 and ops[l - 1] in "*/":
            l -= 1
        if i > l:
            _wrap_span(nodes, ops, l, i)
    elif len(ops) >= 2 and rng.random() < 0.25:
        _wrap_spans(rng, nodes, ops, 1)
    return _chain(nodes, ops), n, max(digits)


# The plain chain categories: (literal, draw of the number of bracketed runs).
_CHAINS = {
    "int-mixed": (_int_lit, lambda rng: 0),
    "bracketed-int": (_bracketed_literal, lambda rng: 1),
    "lengthy-mixed": (_lengthy_literal,
                      lambda rng: 0 if rng.random() < 0.25 else _choice(rng, (1, 1, 2))),
}

_SAMPLERS = {
    **{cat: partial(_sample_chain, *chain) for cat, chain in _CHAINS.items()},
    "exponentiation": _sample_exponentiation,
    "fraction": _sample_fraction,
}

_MAX_ATTEMPTS = 32


def _record_rng(spec: GenSpec, index: int) -> random.Random:
    return random.Random((spec.seed * _SEED_MIX + index) & _MASK)


def sample_expression(spec: GenSpec, index: int) -> Node:
    """Deterministic expression for (spec.seed, index); validity is guaranteed."""
    return _build(spec, index)[0]


def _build(spec: GenSpec, index: int):
    """(tree, its trace, operator count, largest operand digit count)."""
    rng = _record_rng(spec, index)
    sampler = _SAMPLERS[spec.category]
    for _ in range(_MAX_ATTEMPTS):
        expr, ops, digits = sampler(rng, spec)
        try:
            t = trace(expr, spec.mode)
        except (DivByZero, Dec64RangeError, RenderOverflow):
            continue
        if t.ambiguous:  # a value that prints without its `.` re-reads as an int
            continue
        if not values_equal(t.final, direct_eval(expr, spec.mode)):
            raise MathError(f"trace/eval mismatch for {render_trace(t)!r}")
        return expr, t, ops, digits
    # Add/subtract-only chains always evaluate cleanly.
    expr, ops, digits = sampler(rng, spec, pool="+-")
    t = trace(expr, spec.mode)
    if not values_equal(t.final, direct_eval(expr, spec.mode)):
        raise MathError("trace/eval mismatch in fallback record")
    return expr, t, ops, digits


def build_record(spec: GenSpec, index: int) -> tuple[str, int, int]:
    """Returns (trace line, atomic op count, max operand digit count)."""
    _, t, ops, digits = _build(spec, index)
    return render_trace(t), ops, digits


# ---------------------------------------------------------------------------
# dataset assembly


@dataclass
class DatasetManifest:
    path: str
    record_count: int
    seed: int
    content_digest: str
    category_histogram: dict = field(default_factory=dict)
    step_histogram: dict = field(default_factory=dict)
    digit_histogram: dict = field(default_factory=dict)
    format_version: int = MANIFEST_FORMAT_VERSION

    def to_json(self) -> str:
        return json.dumps(
            {
                "format_version": self.format_version,
                "path": self.path,
                "record_count": self.record_count,
                "seed": self.seed,
                "content_digest": self.content_digest,
                "category_histogram": dict(sorted(self.category_histogram.items())),
                "step_histogram": {str(k): v for k, v in sorted(self.step_histogram.items())},
                "digit_histogram": {str(k): v for k, v in sorted(self.digit_histogram.items())},
            },
            indent=2,
        )


def spec_for_index(schedule: CurriculumSchedule, index: int) -> GenSpec:
    start = 0
    for phase in schedule.phases:
        if index < start + phase.count:
            return phase.specs[(index - start) % len(phase.specs)]
        start += phase.count
    raise IndexError(index)


def iter_records(schedule: CurriculumSchedule, start: int = 0,
                 end: Optional[int] = None) -> Iterator[tuple[str, str, int, int]]:
    """Yields (line, category, op count, digit count) for indices [start, end)."""
    end = schedule.total if end is None else end
    for i in range(start, end):
        spec = spec_for_index(schedule, i)
        line, ops, digits = build_record(spec, i)
        yield line, spec.category, ops, digits


def _chunk_worker(args: tuple[CurriculumSchedule, int, int]) -> tuple[bytes, Counter]:
    """The records [start, end) of `schedule` as bytes, and their counts keyed
    ("category", category), ("step", op count) and ("digit", digit count)."""
    schedule, start, end = args
    counts: Counter = Counter()
    parts = []
    for line, category, ops, digits in iter_records(schedule, start, end):
        parts.append(line)
        counts["category", category] += 1
        counts["step", ops] += 1
        counts["digit", digits] += 1
    blob = ("\n".join(parts) + "\n").encode() if parts else b""
    return blob, counts


def generate_dataset(
    schedule: CurriculumSchedule,
    out: IO[bytes],
    path_label: str = "<stream>",
    workers: int = 1,
    chunk_size: int = 1024,
) -> DatasetManifest:
    """Write one trace per line; byte-identical output for any worker count.
    At most one process per chunk and per CPU is started."""
    total = schedule.total
    digest = hashlib.sha256()
    counts: Counter = Counter()
    starts = range(0, total, chunk_size)
    # the slice keeps `len` within a C integer for any total
    processes = min(workers, len(starts[:workers]), os.cpu_count() or 1)
    chunks = ((schedule, s, min(s + chunk_size, total)) for s in starts)
    with (multiprocessing.get_context("fork").Pool(processes) if processes > 1
          else nullcontext()) as pool:
        for blob, chunk_counts in (map if pool is None else pool.imap)(_chunk_worker, chunks):
            out.write(blob)
            digest.update(blob)
            counts.update(chunk_counts)
    histograms = {"category": {}, "step": {}, "digit": {}}
    for (kind, key), n in counts.items():
        histograms[kind][key] = n
    return DatasetManifest(
        path=path_label,
        record_count=total,
        seed=schedule.seed,
        content_digest="sha256:" + digest.hexdigest(),
        category_histogram=histograms["category"],
        step_histogram=histograms["step"],
        digit_histogram=histograms["digit"],
    )


def _field(obj, path: str, key: str, kind: type):
    """obj[key] if it is a `kind` (int or list); MalformedInput names `path.key`
    otherwise."""
    if obj.__class__ is not dict:
        raise MalformedInput(f"{path or 'top level'}: expected a JSON object, got {obj!r}")
    value = obj.get(key)
    if value.__class__ is not kind:
        name = f"{path}.{key}" if path else key
        if key not in obj:
            raise MalformedInput(f"{name}: missing")
        raise MalformedInput(f"{name}: expected {'an integer' if kind is int else 'a list'}, "
                             f"got {value!r}")
    return value


_RANGE_FIELDS = (("digits", "digit_range"), ("steps", "step_range"))


def schedule_from_json(text: str, where: str = "schedule") -> CurriculumSchedule:
    """Schedule file format: {"seed": int, "phases": [{"count": int, "specs":
    [{"category", "digits": [lo, hi], "steps": [lo, hi], "seed"?}, ...]}, ...]}.
    Raises MalformedInput, its message starting with `where`, at the first
    field that breaks the format."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as err:
        raise MalformedInput(f"{where}: not JSON: {err}") from None
    try:
        seed = _field(data, "", "seed", int)
        phases = []
        for p_idx, p in enumerate(_field(data, "", "phases", list)):
            at = f"phases[{p_idx}]"
            count = _field(p, at, "count", int)
            if count < 0:
                raise MalformedInput(f"{at}.count: expected 0 or more, got {count}")
            specs = []
            for s_idx, s in enumerate(_field(p, at, "specs", list)):
                if s.__class__ is not dict:
                    raise MalformedInput(f"{at}.specs[{s_idx}]: expected a JSON object, got {s!r}")
                spec_seed = s.get("seed")
                if spec_seed is None:
                    spec_seed = _spec_seed(seed, p_idx, s_idx)
                try:
                    ranges = {name: tuple(s[key]) for key, name in _RANGE_FIELDS if key in s}
                    specs.append(GenSpec(s.get("category"), seed=spec_seed, **ranges))
                except (TypeError, ValueError) as err:  # GenSpec checks each field
                    raise MalformedInput(f"{at}.specs[{s_idx}]: {err}") from None
            if not specs:
                raise MalformedInput(f"{at}.specs: expected at least one spec")
            phases.append(Phase(tuple(specs), count))
    except MalformedInput as err:
        raise MalformedInput(f"{where}: {err}") from None
    return CurriculumSchedule(tuple(phases), seed)
