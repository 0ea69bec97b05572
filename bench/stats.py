"""
Summaries of repeated measurements and the verdict of a comparison.

Spreads are quartile distances from ``statistics.quantiles(values, n=4)``,
as a share of the median.  The verdict follows the choosing-metrics rules:
a gain needs at least ten pairs of runs, the change to win at least nine
tenths of them and to move the median by more than the parent's own
spread; a regression is a median worse by more than the metric's bound;
where the spread is wider than the bound the pairing is unresolved,
unless every run of one side beats every run of the other.  A gain is only given for paired runs, taken
alternately in one suite: runs taken at different times may differ by the
host's speed alone.
"""

from __future__ import annotations

import math
import statistics

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10

MIN_PAIRS = 10  # a gain needs at least this many pairs

BETTER, WORSE, UNCHANGED, UNRESOLVED = "better", "worse", "unchanged", "unresolved"


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    """Quartile distance as a share of the median (0 when the median is 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def tail_percentile(count: int) -> float | None:
    """The highest reported percentile with at least ten samples beyond it,
    or None when even the 75th has fewer than ten."""
    for p in TAIL_CANDIDATES:
        if round(count * (100.0 - p) / 100.0, 9) >= TAIL_MIN_BEYOND:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def verdict(parent, change, bound: float, lower_is_better: bool = True,
            paired: bool = True) -> dict:
    """Compare per-run values of a parent and a change for one metric.

    Runs are paired by position (the same seed on both sides).  ``paired``
    says whether each pair was run alternately; if not, a gain reads
    unresolved.  Returns the verdict with the numbers it rests on.
    """
    parent, change = list(parent), list(change)
    sign = 1.0 if lower_is_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    base = abs(p_med) or 1.0
    change_share = (c_med - p_med) / base
    worse_by = sign * change_share  # > 0 means the change is worse
    width = max(p_q3 - p_q1, c_q3 - c_q1) / base
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    gain = (
        len(pairs) >= MIN_PAIRS
        and wins >= 0.9 * len(pairs)
        and worse_by < 0
        and abs(c_med - p_med) > (p_q3 - p_q1)
    )
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) > 0 for c in change for p in parent)
    if gain or (width > bound and all_better):
        result = BETTER if paired else UNRESOLVED
    elif width > bound:
        result = WORSE if all_worse and worse_by > bound else UNRESOLVED
    elif worse_by > bound:
        result = WORSE
    else:
        result = UNCHANGED
    return {
        "verdict": result,
        "change": change_share,
        "worse_by": worse_by,
        "spread": width,
        "wins": wins,
        "pairs": len(pairs),
    }
