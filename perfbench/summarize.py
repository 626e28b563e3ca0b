"""The one summarizer: every window metric of every workload comes from
:func:`summarize`, and every per-layer median from :func:`median_ms`.

An *op* is one compile or one frame; an op *class* is one app or one
frame size.  A sample is ``(class, end_time_s, latency_s)``.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Hashable, Iterable, Sequence

#: every emitted metric / workload / span name must match this
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: the window's ops are cut into at least this many consecutive groups
MIN_GROUPS = 5


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence (no
    interpolation: the result is always a latency that was observed)."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = math.ceil(pct / 100.0 * len(sorted_values))
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


def geometric_mean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    if not logs:
        raise ValueError("geometric mean of no values")
    return math.exp(sum(logs) / len(logs))


def median_ms(seconds: Sequence[float]) -> float:
    """Median of durations given in seconds, in milliseconds."""
    return statistics.median(seconds) * 1e3


def summarize(samples: Sequence[tuple[Hashable, float, float]],
              t_start: float, t_end: float, tail_pct: float,
              cycle: int) -> dict:
    """Window metrics from per-op samples.

    The ops that *ended* inside ``[t_start, t_end)`` are put in order of
    completion and cut into consecutive groups of equal size, a multiple
    of ``cycle`` — the length of the workload's class cycle (one sweep
    over the apps, one traffic block), so every group holds the same mix
    of work — with at least :data:`MIN_GROUPS` groups.  (A window too
    short for that many whole cycles gets fewer groups, in the end one
    group of whatever ended inside; ``groups`` says how many there were.)

    * ``op_ms_typ`` — geometric mean over op classes of the class's
      median latency.  A plain median over a mix of classes sits in the
      gap between two of them and flips from one to the other when the
      mix shifts by one sample; class medians do not.
    * ``op_ms_tail`` — the ``tail_pct`` percentile of each group (fixed
      per workload, so two runs always compare the same statistic),
      then the median over groups.
    * ``ops_per_s`` — each group's size over the time from the previous
      group's last completion to its own, then the median over groups.

    The medians over groups are what a burst from a neighbour on a
    shared box cannot move: it spoils the groups it hits, not the
    median group.  Because a group is a whole number of cycles, an op
    that takes a second (one compile does) cannot make group rates
    jump the way fixed time slices would.
    """
    if t_end <= t_start:
        raise ValueError("empty window")
    ordered = sorted(samples, key=lambda s: s[1])
    inside = [s for s in ordered if t_start <= s[1] < t_end]
    if not inside:
        raise ValueError("no op ended inside the window")
    size = max(len(inside) // MIN_GROUPS // cycle * cycle,
               min(cycle, len(inside)))
    by_class: dict[Hashable, list[float]] = {}
    for cls, _, latency in inside:
        by_class.setdefault(cls, []).append(latency)
    class_ms = {cls: statistics.median(vals) * 1e3
                for cls, vals in by_class.items()}
    # the clock of the first group starts where the op before it ended
    before = [s[1] for s in ordered if s[1] < t_start]
    previous = before[-1] if before else t_start
    rates, tails = [], []
    for i in range(0, len(inside) - size + 1, size):
        group = inside[i:i + size]
        rates.append(size / (group[-1][1] - previous))
        previous = group[-1][1]
        tails.append(percentile(sorted(s[2] for s in group), tail_pct))
    beyond = size - math.ceil(tail_pct / 100.0 * size)
    return {
        "op_ms_typ": geometric_mean(class_ms.values()),
        "op_ms_tail": statistics.median(tails) * 1e3,
        "ops_per_s": statistics.median(rates),
        "ops": len(inside),
        "groups": len(rates),
        "group_ops": size,
        "tail_pct": tail_pct,
        "tail_samples_beyond": beyond,
        "class_ms": class_ms,
        "class_ops": {cls: len(vals) for cls, vals in by_class.items()},
    }


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the
    steadiness statistic the acceptance contract uses."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")
