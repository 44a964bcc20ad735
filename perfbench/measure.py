"""Summary statistics for the benchmark: the tail-percentile rule,
per-operation latencies, log-log growth exponents, and the reference loop
that rescales pass times to a host of fixed speed."""

from __future__ import annotations

import math
import random
import statistics
import time
from fractions import Fraction
from typing import List, Optional, Sequence

# A fixed scale: wall_s and setup_s are in seconds on a host where
# reference_loop takes this long.  On the 2-vCPU Intel Xeon host (Python
# 3.11.7) the benchmark was defined on, the loop took 29 to 80 ms, with the
# load of other tenants.
REFERENCE_S = 0.040

# Percentile levels tried for the tail, lowest first.  A level is usable when
# at least ten operations of one pass lie beyond it.
TAIL_LADDER = tuple(Fraction(x) for x in ("90", "99", "99.9", "99.99", "99.999"))
TAIL_BEYOND = 10


def tail_level(ops_per_pass: int) -> Optional[Fraction]:
    """Highest ladder percentile with at least ten operations of one pass
    beyond it, or None when a pass has fewer than 100 operations.

    The level depends on the fixed size of the workload's input set, not on
    how many passes fit in a run, so a faster program is measured at the
    same percentile as a slower one.
    """
    best = None
    for level in TAIL_LADDER:
        if ops_per_pass * (100 - level) / 100 >= TAIL_BEYOND:
            best = level
    return best


def percentile(values: Sequence[float], level: Fraction) -> float:
    """Nearest-rank percentile: the smallest value with at least level% of
    the values at or below it."""
    ordered = sorted(values)
    rank = math.ceil(Fraction(level) * len(ordered) / 100)
    return ordered[max(rank, 1) - 1]


def level_name(level: Optional[Fraction]) -> str:
    if level is None:
        return "max"
    return "p" + (str(level.numerator) if level.denominator == 1 else str(float(level)))


def op_latencies(per_pass: List[List[float]]) -> tuple[float, float, str]:
    """(p50, tail, tail level name) of one operation's latency.

    Each operation of the fixed input set gets its median latency over the
    passes; the p50 and the tail are taken across those per-operation
    medians.  The tail is the percentile from tail_level; below 100
    operations per pass no percentile has ten operations beyond it and the
    tail is the slowest operation.
    """
    per_op = [statistics.median(column) for column in zip(*per_pass)]
    level = tail_level(len(per_op))
    tail = max(per_op) if level is None else percentile(per_op, level)
    return statistics.median(per_op), tail, level_name(level)


def loglog_slope(x1: float, y1: float, x2: float, y2: float) -> float:
    """Exponent e of y ~ x^e through two points; 0.0 when a point is not
    positive (nothing was measured)."""
    if min(x1, y1, x2, y2) <= 0 or x1 == x2:
        return 0.0
    return math.log(y2 / y1) / math.log(x2 / x1)


def reference_loop() -> int:
    """A fixed pure-Python load of the package's kind: exact rationals with
    growing denominators, tuples and a dict, in little memory so that it does
    not raise peak_rss_mb.  It imports nothing from realcover, so no change
    to the package moves its time; only the host does."""
    rng = random.Random(0)
    acc = Fraction(0)
    seen: dict = {}
    for i in range(1, 8000):
        acc += Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        if i % 40 == 0:
            acc = Fraction(acc.numerator % 10**40, acc.denominator % 10**40 + 1)
        key = (acc.denominator.bit_length(), i % 7)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def time_reference() -> float:
    t = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t


def host_ratios(times_s: Sequence[float], ref_s: Sequence[float]) -> List[float]:
    """Each timed run (a pass or a set-up) divided by the reference loop's
    speed around it.

    ref_s holds the reference loop's time before the first run and after
    each run, one more entry than times_s.  Each run is divided by the mean
    of the two reference times around it, so a stretch in which other
    tenants slow the host slows both sides of the ratio alike.
    """
    if len(ref_s) != len(times_s) + 1:
        raise ValueError("need a reference time before the first run and after each run")
    return [2 * t / (a + b) for t, a, b in zip(times_s, ref_s, ref_s[1:])]


def host_scaled(times_s: Sequence[float], ref_s: Sequence[float]) -> float:
    """Median of timed runs on a host where reference_loop takes REFERENCE_S."""
    return statistics.median(host_ratios(times_s, ref_s)) * REFERENCE_S
