"""Closed arcs on the unit circle and the minimal circle-cover computation.

The circle is R/Z with counterclockwise orientation; an arc is either the
whole circle or a closed interval given by its start and end, traversed
counterclockwise from start to end.  All endpoints are exact rationals, so
coverage questions have exact answers.  An arc keeps its ends as integer
lifts over their least common denominator.  The cover search,
min_lifted_cover, takes arcs as integer ends over one denominator; it walks
greedily only from the arcs through a least-covered point, in memory linear
in the arcs.  Nothing here builds a Fraction.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import gcd
from typing import Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class FullCircle:
    """The whole target circle, the image of any circle with nonzero winding."""


@dataclass(frozen=True, slots=True, init=False)
class Arc:
    """Proper closed arc from lo / den to hi / den counterclockwise.

    Arc(den, lo, hi) reduces the ends mod 1 to 0 <= lo, hi < den over
    their least common denominator and refuses a den that is not a positive
    int and equal ends.
    """

    den: int
    lo: int
    hi: int

    def __init__(self, den: int, lo: int, hi: int):
        if type(den) is not int or den <= 0:
            raise ValueError("den must be a positive int")
        lo, hi = lo % den, hi % den
        if lo == hi:
            raise ValueError("proper arc needs distinct endpoints")
        g = gcd(den, lo, hi)
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "lo", lo // g)
        object.__setattr__(self, "hi", hi // g)


ArcLike = Union[Arc, FullCircle]

FULL_CIRCLE = FullCircle()


def min_lifted_cover(den: int, ends: Sequence[Tuple[int, int]]) -> Optional[int]:
    """Size of the smallest sub-multiset of the proper arcs from lo / den to
    hi / den that covers the circle, or None when even all of them leave a
    point uncovered.  The arcs come as integer lifts (lo, hi) with
    0 <= lo < den and lo < hi < lo + den.

    A greedy walk after C. C. Lee and D. T. Lee, "On a circle-cover
    minimization problem", Inform. Process. Lett. 18 (1984).  Each arc is
    unrolled onto the line as two closed intervals, [lo, hi] and its copy
    shifted by den, in order of start.  Every own interval starts below den
    and every copy at den or above, so only the n own intervals are sorted
    and the copies follow them in the same order.  The greedy successor of
    an end e is the farthest end among the intervals starting no later
    than e: a prefix maximum of the ends (reach) and one bisection find it.
    One sweep over the arc ends, entering at 2 lo and leaving at 2 hi + 1
    mod 2 den in doubled coordinates, finds a least-covered point p and its
    depth m; a depth of 0 is an uncovered point.  The greedy walk then runs
    only from the m arcs through p, each from its start lo until it reaches
    lo + den, and the answer is the fewest arcs over those walks.  That is
    O(n log n) for the sort and the sweep plus O(m c log n) for the walks,
    with c the answer, in O(n) memory.

    This is exact.  Every cover holds an arc through p, so anchor an
    optimal cover at such an arc A = [a, e].  No other arc B of it
    contains A, so the part of the circle B must cover beyond A lies in
    B's lift starting in [a, a + den), which is one of the two intervals;
    the greedy covers [e, a + den] with no more of them than the cover
    does.  Conversely every greedy chain is a cover.
    """
    own = sorted(ends)
    # The entries come sorted already, so the sort merges in the exits.
    events = sorted([2 * lo for lo, _ in own] + [2 * (hi % den) + 1 for _, hi in own])
    wrapping = sum([hi >= den for _, hi in own])  # the depth just below den
    depths = list(accumulate([1 - 2 * (e & 1) for e in events], initial=wrapping))
    least = min(depths)
    if least == 0:
        return None
    i = depths.index(least)
    p = events[i - 1] if i else 2 * den - 1
    through = [(lo, hi) for lo, hi in own if 2 * lo <= p <= 2 * hi or p + 2 * den <= 2 * hi]
    starts = [lo for lo, _ in own]
    starts += [lo + den for lo in starts]
    tops = [hi for _, hi in own]
    # A loop, not accumulate(..., max): a call to max per end costs more.
    reach, top = [], 0
    for hi in tops + [hi + den for hi in tops]:
        top = hi if hi > top else top
        reach.append(top)
    best: Optional[int] = None
    for lo, end in through:
        goal, count = lo + den, 1
        while end < goal and (best is None or count < best):
            nxt = reach[bisect_right(starts, end) - 1]
            # An unreachable guard: at a stall every arc over end + 1/2 covers
            # it by its lift shifted by -den, so contains the start arc and p,
            # and p would lie deeper than end + 1/2, yet p is least covered.
            if nxt <= end:
                break
            end, count = nxt, count + 1
        if end >= goal and (best is None or count < best):
            best = count
    return best
