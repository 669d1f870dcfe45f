"""Summary statistics used by the benchmark: percentiles and span self time.

Kept free of any dependency on the program under test so the unit tests
in ``perfbench/tests`` can exercise the arithmetic on hand-made inputs.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles the tail rule may pick from, lowest first.
TAIL_CANDIDATES: Tuple[float, ...] = (50.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between order statistics.

    Matches ``numpy.percentile(samples, p)`` (its default "linear"
    method) without needing numpy in the benchmark process.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def supports_percentile(count: int, p: float, beyond: int = MIN_BEYOND) -> bool:
    """True when ``count`` samples leave at least ``beyond`` above the ``p``-th."""
    # Rounded so that e.g. 10 000 samples do support p99.9 despite 100 - 99.9
    # not being exact in binary floating point.
    return round(count * (100.0 - p) / 100.0, 9) >= beyond


def tail_percentile(
    samples: Sequence[float],
    candidates: Sequence[float] = TAIL_CANDIDATES,
    beyond: int = MIN_BEYOND,
) -> Optional[Tuple[float, float]]:
    """``(p, value)`` for the highest candidate percentile with ``beyond``
    samples above it, or ``None`` when even the lowest candidate has too few.
    """
    best = None
    for p in sorted(candidates):
        if supports_percentile(len(samples), p, beyond):
            best = p
    if best is None:
        return None
    return best, percentile(samples, best)


def median(samples: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(samples, 50.0)


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Tuple[str, float, float, int]]) -> List[float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` holds ``(name, start, end, parent)`` with ``parent`` the
    index of the enclosing span in the same list (``-1`` for a root).
    Children that overlap each other (several threads under one parent)
    are counted once, and a child sticking out of its parent only
    subtracts the part inside it.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_name, start, end, _parent) in enumerate(spans):
        out.append((end - start) - _covered(children.get(i, ()), start, end))
    return out


def self_time_by_name(spans: Sequence[Tuple[str, float, float, int]]) -> Dict[str, float]:
    """Total self time per span name."""
    totals: Dict[str, float] = {}
    for (name, *_rest), own in zip(spans, self_times(spans)):
        totals[name] = totals.get(name, 0.0) + own
    return totals
