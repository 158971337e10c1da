"""Order statistics, span self-time math and trace counts for the
benchmark.

Kept free of any import from the program under test, so the tests in
``test_perfbench.py`` run without it.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), interpolating between ranks.

    Matches ``numpy.percentile``'s default (linear) method: rank
    ``(n - 1) * q / 100`` of the sorted sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def beyond(count: int, q: float) -> int:
    """Samples that lie strictly above the ``q``-th percentile rank."""
    return count - 1 - math.floor((count - 1) * q / 100.0)


def supported(count: int, q: float, tail: int = 10) -> bool:
    """Whether ``count`` samples put at least ``tail`` beyond ``q``."""
    return count > 0 and beyond(count, q) >= tail


def unique_share(cells: Iterable) -> float:
    """Share of gathered GEMM input vectors that SIC kept unique, over
    the traces of evaluation results (``EvalResult.traces``)."""
    unique = total = 0
    for cell in cells:
        for trace in cell.traces:
            for gemm in trace.gemms:
                if gemm.input_unique is not None:
                    unique += gemm.input_unique
                    total += gemm.m * gemm.k_blocks
    return unique / total if total else 0.0


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(
    spans: Sequence[tuple[str, float, float, int]],
) -> list[float]:
    """Self time of each span: its duration minus the part of its
    interval that its child spans cover.

    ``spans`` holds ``(name, start, end, parent)`` with ``parent`` the
    index of the parent span in the same sequence, or ``-1``.  Child
    intervals are clipped to the parent's, and overlapping children
    are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_name, start, end, _parent) in enumerate(spans):
        clipped = [
            (max(start, s), min(end, e))
            for s, e in children.get(index, ())
            if min(end, e) > max(start, s)
        ]
        out.append(max(0.0, (end - start) - _union_length(clipped)))
    return out
