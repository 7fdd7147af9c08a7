"""In-memory span recording for the traced benchmark run, plus the order
statistics the benchmark reports.

Spans are recorded from outside the program: `Tracer.wrap` replaces the module
or class attribute a caller looks up (for example `stepmath.datagen.trace`)
with a wrapper that times the call and links it to the enclosing span. Spans
are aggregated as they close, keyed by (name, parent name, tag), because a
traced pass makes millions of calls; per-call durations are kept only for the
names listed in `keep`.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter
from typing import Callable, Optional

PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10
ANY = object()  # query wildcard


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples, computed exactly
    (p / 100 * n in floating point puts 99.9% of 10000 at 9990.000000000002)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def nearest_rank(sorted_values: list, p: float):
    """Nearest-rank percentile: the value at rank ceil(p/100 * n), so exactly
    n - rank samples lie beyond it."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(p, n) - 1]


def highest_percentile(n: int, candidates=PERCENTILES, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest candidate percentile that leaves at least `min_beyond` of `n`
    samples beyond its nearest rank, or None when even the lowest does not."""
    best = None
    for p in candidates:
        if n - _rank(p, n) >= min_beyond:
            best = p
    return best


class _Frame:
    __slots__ = ("name", "tag", "child", "kids")

    def __init__(self, name: str, tag):
        self.name = name
        self.tag = tag
        self.child = 0.0  # seconds covered by direct child spans
        self.kids: set = set()  # names of direct child spans


class Tracer:
    """Records nested spans while `enabled`; a disabled wrapper costs one
    attribute test per call."""

    def __init__(self, keep=()):
        self.enabled = False
        self._stack: list[_Frame] = []
        self._patched: list[tuple] = []
        self.keep = set(keep)
        # (name, parent name, tag) -> [calls, total seconds, self seconds]
        self.stats: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.samples: dict = defaultdict(list)  # name -> durations, for `keep`
        self.counts: Counter = Counter()  # free-form counters fed by hooks

    # -- recording -------------------------------------------------------

    def _close(self, frame: _Frame, parent: Optional[_Frame], duration: float) -> None:
        if parent is not None:
            parent.child += duration
            parent.kids.add(frame.name)
        row = self.stats[(frame.name, parent.name if parent else None, frame.tag)]
        row[0] += 1
        row[1] += duration
        row[2] += duration - frame.child
        if frame.name in self.keep:
            self.samples[frame.name].append(duration)

    def call(self, name: str, fn: Callable, *args, tag=None, **kwargs):
        """Run fn inside a span of the benchmark's own."""
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(name, tag if tag is not None or parent is None else parent.tag)
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self._stack.pop()
            self._close(frame, parent, duration)

    def wrap(self, owner, attr: str, name: str,
             tag_of: Optional[Callable] = None,
             on_result: Optional[Callable] = None) -> None:
        """Replace owner.attr with a recording wrapper. `tag_of(*args)` gives the
        span's tag (children inherit it); `on_result(tracer, frame, result,
        args)` runs after a call that returned."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            tag = tag_of(*args) if tag_of is not None else parent.tag if parent else None
            frame = _Frame(name, tag)
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                tracer._close(frame, parent, duration)
            if on_result is not None:
                on_result(tracer, frame, result, args)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- queries ---------------------------------------------------------

    def rows(self, name: str, parent=ANY, tag=ANY):
        for (n, p, t), row in self.stats.items():
            if n != name:
                continue
            if parent is not ANY and p != parent:
                continue
            if tag is not ANY and not (tag(t) if callable(tag) else t == tag):
                continue
            yield row

    def calls(self, name: str, parent=ANY, tag=ANY) -> int:
        return sum(r[0] for r in self.rows(name, parent, tag))

    def total(self, name: str, parent=ANY, tag=ANY) -> float:
        return sum(r[1] for r in self.rows(name, parent, tag))

    def self_time(self, name: str, parent=ANY, tag=ANY) -> float:
        return sum(r[2] for r in self.rows(name, parent, tag))


def ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was measured (a layer the workload does
    not reach)."""
    return num / den if den else 0.0
