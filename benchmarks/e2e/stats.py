"""Statistics helpers of the end-to-end benchmark (stdlib only).

Kept apart from the harness so ``test_stats.py`` can pin them on
synthetic data without booting anything.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = [
    "percentile",
    "geomean",
    "median_of_rounds",
    "relative_tail",
    "self_times",
    "derived_self",
    "spearman",
    "iqr_spread",
]


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation
    between closest ranks — NumPy's default definition."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; every value must be positive."""
    data = list(values)
    if not data:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in data):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in data) / len(data))


def median_of_rounds(rounds: Sequence[Sequence[float]]) -> float:
    """Median over rounds of each round's median.  A round is a short
    window, so slow drift of a shared box moves whole rounds, and the
    outer median discards the drifted ones; empty rounds are skipped."""
    medians = [statistics.median(r) for r in rounds if r]
    if not medians:
        raise ValueError("median_of_rounds of no samples")
    return statistics.median(medians)


def relative_tail(groups: Iterable[Sequence[float]], q: float) -> float:
    """The ``q``-th percentile of every sample divided by the median of
    its own group, all groups pooled.

    A group is one pipeline's ops within one round, so slow drift of the
    box (which moves whole rounds) and the pipelines' different medians
    both cancel, and every op counts towards the "ten samples beyond the
    percentile" a tail needs.  Multiply by a median latency to get a
    tail latency.
    """
    ratios = []
    for group in groups:
        if group:
            mid = statistics.median(group)
            ratios.extend(x / mid for x in group)
    return percentile(ratios, q)


def self_times(spans: Sequence[Mapping]) -> List[float]:
    """Each span's self time, in the order given: its duration minus
    the durations of its direct children (spans whose ``parent`` is its
    ``id``).  Children of one span do not overlap here — one op is in
    flight at a time — so their durations add."""
    child_sum: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_sum[s["parent"]] = (
                child_sum.get(s["parent"], 0.0) + s["end"] - s["start"]
            )
    return [s["end"] - s["start"] - child_sum.get(s["id"], 0.0)
            for s in spans]


def derived_self(outer: Sequence[float], inner: Sequence[float]) -> float:
    """Self time of an outer entry point whose inner call cannot be
    observed from outside: both are called separately on the same
    inputs and the medians subtracted.  May come out slightly negative
    when the true self time is below the noise; it is not clamped."""
    return statistics.median(outer) - statistics.median(inner)


def _ranks(values: Sequence[float]) -> List[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Spearman rank correlation with average ranks for ties (infinite
    values rank last and tie with each other).  ``None`` when either
    side is constant, where the coefficient is undefined."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("spearman needs two equally long series")
    rx, ry = _ranks(xs), _ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return None
    return cov / math.sqrt(vx * vy)


def iqr_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the
    median — the run-to-run spread the driver holds against a bound."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
