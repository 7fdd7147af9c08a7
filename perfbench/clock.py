"""Timing normalized to a reference workload run next to the measurement.

The machines this benchmark runs on are shared: the speed of one core drifts
by a third over tens of seconds as neighbours come and go, and the drift
reaches process CPU time too, so neither medians nor best-of-repeats make one
run agree with the next. Every measured duration is therefore scaled by
(NOMINAL / t_ref) ** EXPONENT, where t_ref is the running median of the time a
fixed piece of reference work takes right now. The reference work is
interpreter-bound code of the benchmark's own (building, printing and
evaluating small expression trees as stepmath does, and chasing pointers
through a few thousand objects), so it slows down with the machine but not
with any change to stepmath.

The reference slows down more than stepmath does: over 3,200 interleaved
samples on a 2-core shared Xeon, the log of a stepmath command's time rose by
0.70-0.84 times the log of the reference time (`generate`, long and short
`trace`). EXPONENT is that slope. Results read as seconds on a machine where
the reference work takes NOMINAL seconds.
"""

from __future__ import annotations

import random
from collections import deque
from time import perf_counter

NOMINAL = 0.002  # seconds; about the reference work on a quiet 2.1 GHz Xeon core
EXPONENT = 0.8
CADENCE = 0.05  # seconds between reference measurements
WINDOW = 5  # reference measurements in the running median


class _Node:
    __slots__ = ("op", "lhs", "rhs", "value")

    def __init__(self, op, lhs=None, rhs=None, value=None):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        self.value = value


def _build(rng, depth):
    if depth == 0:
        return _Node(None, value=rng.randint(1, 99))
    return _Node(rng.choice("+-*"), _build(rng, depth - 1), _build(rng, rng.randint(0, depth - 1)))


def _text(n):
    if n.op is None:
        return str(n.value)
    return "(" + _text(n.lhs) + n.op + _text(n.rhs) + ")"


def _value(n):
    if n.op is None:
        return n.value
    a, b = _value(n.lhs), _value(n.rhs)
    return a + b if n.op == "+" else a - b if n.op == "-" else a * b


class _Link:
    __slots__ = ("key", "next")

    def __init__(self, key):
        self.key = key
        self.next = None


def reference_work() -> float:
    """Seconds taken by a fixed amount of reference work."""
    start = perf_counter()
    rng = random.Random(7)
    acc = 0
    for _ in range(20):
        tree = _build(rng, 6)
        acc += len(_text(tree)) + _value(tree) % 7
    links = [_Link(str(i)) for i in range(3000)]
    for i, link in enumerate(links):
        link.next = links[i * 7919 % 3000]
    link = links[0]
    for _ in range(6000):
        link = link.next
        acc += len(link.key)
    return perf_counter() - start


class Clock:
    """Measures durations in nominal-machine seconds."""

    def __init__(self):
        self._recent: deque = deque(maxlen=WINDOW)
        self._last = float("-inf")

    def tick(self) -> None:
        """Refresh the speed reading if it is older than CADENCE. Call it
        before starting a measurement, never inside one."""
        if perf_counter() - self._last >= CADENCE:
            self._recent.append(reference_work())
            self._last = perf_counter()

    def prime(self) -> None:
        """Fill the window with fresh readings."""
        for _ in range(WINDOW):
            self._recent.append(reference_work())
        self._last = perf_counter()

    def scale(self) -> float:
        """Factor from measured to nominal seconds."""
        recent = sorted(self._recent)
        return (NOMINAL / recent[len(recent) // 2]) ** EXPONENT

    def measure(self, fn, *args):
        """(result, nominal seconds, measured seconds) of fn(*args)."""
        self.tick()
        start = perf_counter()
        result = fn(*args)
        seconds = perf_counter() - start
        return result, seconds * self.scale(), seconds
