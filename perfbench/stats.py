"""Statistics used by the benchmark: medians, tail percentiles, span self time.

Pure functions over plain numbers, so they can be tested without running a
workload.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer, the value is one or two outliers, not a percentile.
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or None when too few samples lie beyond it."""
    if not 0.0 < q < 100.0:
        raise ValueError("percentile must lie strictly between 0 and 100")
    n = len(values)
    if n * (100.0 - q) / 100.0 < MIN_SAMPLES_BEYOND:
        return None
    rank = math.ceil(q / 100.0 * n)
    return float(sorted(values)[rank - 1])


@dataclass(frozen=True)
class Span:
    """One call of a traced function.

    ``parent`` indexes the span that was open when this one started, or is -1.
    ``size`` is the number of work items the call received (sigma nodes for
    batched evaluations, 1 otherwise).
    """

    name: str
    start: float
    end: float
    parent: int = -1
    phase: str = ""
    size: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] that the union of intervals covers."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Sequence[Span]) -> list:
    """Self time of every span: its duration minus what its child spans cover."""
    children = [[] for _ in spans]
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.start, sp.end))
    return [sp.duration - _covered(sp.start, sp.end, kids) for sp, kids in zip(spans, children)]


@dataclass
class NameTotals:
    calls: int = 0
    inclusive: float = 0.0  # outermost calls only, so recursion is not counted twice
    self_time: float = 0.0
    size: int = 0


def totals_by_name(spans: Sequence[Span], phase: Optional[str] = None) -> dict:
    """Calls, inclusive time, self time and work size per span name.

    With ``phase`` given, only spans recorded in that phase are summed.
    """
    selfs = self_times(spans)
    out: dict = {}
    for i, sp in enumerate(spans):
        if phase is not None and sp.phase != phase:
            continue
        t = out.setdefault(sp.name, NameTotals())
        t.calls += 1
        t.self_time += selfs[i]
        t.size += sp.size
        p = sp.parent
        while p >= 0 and spans[p].name != sp.name:
            p = spans[p].parent
        if p < 0:
            t.inclusive += sp.duration
    return out
