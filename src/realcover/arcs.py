"""Closed arcs on the unit circle and the minimal circle-cover computation.

The circle is R/Z with counterclockwise orientation; an arc is either the
whole circle or a closed interval given by its start and end, traversed
counterclockwise from start to end.  All endpoints are exact rationals, so
coverage questions have exact answers.  An arc keeps its ends as integer
lifts over their least common denominator; min_circle_cover reads those
integers and never builds a Fraction.  It walks greedily only from the
arcs through a least-covered point, in memory linear in the arcs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Optional, Sequence, Union


@dataclass(frozen=True)
class FullCircle:
    """The whole target circle, the image of any circle with nonzero winding."""


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Arc:
    """Proper closed arc from lo / den to hi / den counterclockwise.

    Arc(den, lo, hi) reduces the ends mod 1 to 0 <= lo, hi < den over
    their least common denominator and refuses a den that is not a positive
    int and equal ends; start and end are Fractions built when read.
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

    def __repr__(self):
        return f"{type(self).__qualname__}({self.den!r}, {self.lo!r}, {self.hi!r})"

    @property
    def start(self) -> Fraction:
        return Fraction(self.lo, self.den)

    @property
    def end(self) -> Fraction:
        return Fraction(self.hi, self.den)


ArcLike = Union[Arc, FullCircle]

FULL_CIRCLE = FullCircle()


def min_circle_cover(arcs: Sequence[ArcLike]) -> Optional[int]:
    """Size of the smallest sub-multiset of arcs covering the circle.

    Returns None when even the full multiset leaves a point uncovered.

    A greedy walk after C. C. Lee and D. T. Lee, "On a circle-cover
    minimization problem", Inform. Process. Lett. 18 (1984).  Each arc is
    unrolled onto the line as two closed intervals, its own and its copy
    shifted by +1, sorted by start.  The greedy successor of an end e is
    the farthest end among the intervals starting no later than e: a
    prefix maximum of the ends (reach) and one bisection find it.  One
    sweep over the arc ends, entering at 2 lo and leaving at 2 hi + 1 in
    doubled coordinates, finds a least-covered point p and its depth m; a
    depth of 0 is an uncovered point.  The greedy walk then runs only from
    the m arcs through p, each from its start a in [0, 1) until it reaches
    a + 1, and the answer is the fewest arcs over those walks.  That is
    O(n log n) for the sort and the sweep plus O(m c log n) for the walks,
    with c the answer, in O(n) memory.

    This is exact.  Every cover holds an arc through p, so anchor an
    optimal cover at such an arc A = [a, e].  No other arc B of it
    contains A, so the part of the circle B must cover beyond A lies in
    B's lift starting in [a, a + 1), which is one of the two intervals;
    the greedy covers [e, a + 1] with no more of them than the cover does.
    Conversely every greedy chain is a cover.
    """
    if any(isinstance(a, FullCircle) for a in arcs):
        return 1
    den = lcm(*{a.den for a in arcs})
    lifted = [(a.lo * (den // a.den), a.hi * (den // a.den)) for a in arcs]
    events = sorted([2 * lo for lo, _ in lifted] + [2 * hi + 1 for _, hi in lifted])
    wrapping = sum([lo > hi for lo, hi in lifted])  # the depth just below 1
    depths = list(accumulate([1 - 2 * (e & 1) for e in events], initial=wrapping))
    least = min(depths)
    if least == 0:
        return None
    i = depths.index(least)
    p = events[i - 1] if i else 2 * den - 1
    through = [
        (lo, lo + (hi - lo) % den)
        for lo, hi in lifted
        if (2 * lo <= p <= 2 * hi if lo < hi else p <= 2 * hi or 2 * lo <= p)
    ]
    intervals = sorted((lo + d, lo + (hi - lo) % den + d) for lo, hi in lifted for d in (0, den))
    starts = [lo for lo, _ in intervals]
    reach = list(accumulate([hi for _, hi in intervals], max))
    best: Optional[int] = None
    for lo, end in through:
        goal, count = lo + den, 1
        while end < goal and (best is None or count < best):
            nxt = reach[bisect_right(starts, end) - 1]
            if nxt <= end:  # stalled: no chain from this arc gets through
                break
            end, count = nxt, count + 1
        if end >= goal and (best is None or count < best):
            best = count
    return best
