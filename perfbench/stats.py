"""Pure helpers of the benchmark: percentiles, arrival schedules, the SLO
ladder and span self-time arithmetic.

Nothing here reads a clock or imports the program under test, so the unit
tests in ``test_perfbench.py`` exercise every rule in milliseconds.
"""

from __future__ import annotations

import math
import random
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles the benchmark may report, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: The tail percentile reported and judged against the SLO.
TAIL_PERCENTILE = 99.0


def reportable_percentile(count: int, candidates: Sequence[float] = PERCENTILES) -> Optional[float]:
    """Highest percentile in ``candidates`` with >= 10 of ``count`` samples beyond it.

    ``None`` when not even the lowest candidate qualifies.
    """
    best = None
    for q in sorted(candidates):
        if count * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9:
            best = q
    return best


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100] of ``samples`` (inf counts as a miss)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: Sequence[float]) -> Tuple[Optional[float], float]:
    """``(q, value)``: the highest reportable percentile up to :data:`TAIL_PERCENTILE`.

    ``(None, inf)`` when even the median has fewer than 10 samples beyond it.
    """
    q = reportable_percentile(len(samples), [p for p in PERCENTILES if p <= TAIL_PERCENTILE])
    return q, (percentile(samples, q) if q is not None else math.inf)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# Open-loop arrival schedules
# ----------------------------------------------------------------------
def poisson_schedule(seed: object, rate: float, duration_s: float) -> List[float]:
    """Due times (seconds from the step's start) of a Poisson arrival process.

    Fully determined by ``(seed, rate, duration_s)``: the schedule is computed
    before the first request is sent, so no clock reading enters it.
    """
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    rng = random.Random(f"schedule:{seed}:{rate}:{duration_s}")
    due: List[float] = []
    t = rng.expovariate(rate)
    while t < duration_s:
        due.append(t)
        t += rng.expovariate(rate)
    return due


def pick_indices(seed: object, count: int, pool: int) -> List[int]:
    """``count`` seeded draws (with replacement) from ``range(pool)``."""
    rng = random.Random(f"pick:{seed}:{pool}")
    return [rng.randrange(pool) for _ in range(count)]


# ----------------------------------------------------------------------
# Rate steps and the SLO ladder
# ----------------------------------------------------------------------
def has_backlog(due: Sequence[float], latencies_ms: Sequence[float], slo_ms: float) -> bool:
    """True when completions fall behind the schedule during a step.

    Requests are split into quarters by due time; the step has a growing
    backlog when the median latency of the last quarter exceeds that of the
    first quarter by more than half the SLO, or when any request of the last
    quarter never completed (infinite latency).
    """
    if len(due) != len(latencies_ms):
        raise ValueError("due times and latencies must align")
    if len(due) < 8:
        return False
    order = sorted(range(len(due)), key=due.__getitem__)
    quarter = len(order) // 4
    first = [latencies_ms[i] for i in order[:quarter]]
    last = [latencies_ms[i] for i in order[-quarter:]]
    if any(math.isinf(v) for v in last):
        return True
    return median(last) - median(first) > slo_ms / 2.0


def summarize_step(
    rate: float,
    due: Sequence[float],
    latencies_ms: Sequence[float],
    slo_ms: float,
) -> Dict[str, object]:
    """Latency summary of one fixed-rate step; failed requests carry ``inf``.

    The SLO is judged on :data:`TAIL_PERCENTILE` when the step has enough
    samples for it, else on the highest reportable percentile below it.
    """
    count = len(latencies_ms)
    q, tail_ms = tail(latencies_ms)
    p50 = percentile(latencies_ms, 50.0) if count else math.inf
    backlog = has_backlog(due, latencies_ms, slo_ms)
    failed = sum(1 for v in latencies_ms if math.isinf(v))
    return {
        "rate": rate,
        "count": count,
        "failed": failed,
        "p50_ms": p50,
        "tail_q": q,
        "tail_ms": tail_ms,
        "backlog": backlog,
        "meets_slo": q is not None and tail_ms <= slo_ms and not backlog and failed == 0,
    }


def max_rate_at_slo(steps: Iterable[Dict[str, object]]) -> float:
    """Highest rate of an ascending ladder whose steps all met the SLO so far.

    The ladder stops counting at the first step that misses: a higher step
    that happens to pass after a miss is not sustainable capacity.
    """
    best = 0.0
    for step in sorted(steps, key=lambda s: float(s["rate"])):
        if not step["meets_slo"]:
            break
        best = float(step["rate"])
    return best


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Tuple[float, float, Optional[int]]]) -> List[float]:
    """Self time of each ``(start, end, parent_index)`` span.

    A span's self time is its duration minus the part of its interval that
    its direct children cover (children clipped to the parent's interval).
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (start, end, _) in enumerate(spans):
        inner = [
            (max(s, start), min(e, end))
            for s, e in children.get(index, ())
            if min(e, end) > max(s, start)
        ]
        result.append((end - start) - covered(inner))
    return result
