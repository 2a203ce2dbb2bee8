"""Percentiles, quartiles and the comparison rule shared by run and compare."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: Below this many samples a run reports its median alone: a higher
#: percentile would have too few samples beyond it to be a tail.
MIN_TAIL_SAMPLES = 40


def tail_percentile(samples: Sequence[float], q: float = 0.9) -> Optional[float]:
    """The ``q`` percentile, or None when it is not a tail.

    It is a tail when at least ten samples lie beyond it and there are at
    least ``MIN_TAIL_SAMPLES`` samples in all.
    """
    n = len(samples)
    if n < MIN_TAIL_SAMPLES or n * (1 - q) < 10 - 1e-9:
        return None
    ordered = sorted(samples)
    return ordered[min(n - 1, math.ceil(q * n) - 1)]


def quartiles(values: Sequence[float]) -> tuple:
    """(first quartile, median, third quartile), as ``statistics.quantiles``
    gives them; one value is its own quartiles."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: Optional[float],
) -> dict:
    """Compare two sets of one metric, runs paired in the order given.

    * improved: the change wins at least nine tenths of the pairs (ties
      count for neither) and the medians differ by more than the parent's
      own quartile distance;
    * worse: the change's median is worse than the parent's by more than
      ``bound`` of the parent's median;
    * unresolved: the parent's spread is wider than ``bound``, unless every
      change run reads better than every parent run;
    * within bound: otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share_won = wins / len(pairs) if pairs else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    gain = sign * (cm - pm)
    if pairs and wins >= 0.9 * len(pairs) and gain > (p3 - p1):
        label = "improved"
    elif bound is not None and -gain > bound * abs(pm):
        label = "worse"
    elif bound is not None and spread(parent) > bound and not all_better:
        label = "unresolved"
    else:
        label = "within bound"
    return {
        "parent": {"q1": p1, "median": pm, "q3": p3, "runs": len(parent)},
        "change": {"q1": c1, "median": cm, "q3": c3, "runs": len(change)},
        "pairs": len(pairs),
        "share_won": share_won,
        "verdict": label,
    }
