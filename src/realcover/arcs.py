"""Closed arcs on the unit circle and the minimal circle-cover computation.

The circle is R/Z with counterclockwise orientation; an arc is either the
whole circle or a closed interval given by its start and end, traversed
counterclockwise from start to end.  All endpoints are exact rationals, so
coverage questions have exact answers.  An arc keeps its ends as integer
lifts over their least common denominator; min_circle_cover reads those
integers and never builds a Fraction.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union


@dataclass(frozen=True)
class FullCircle:
    """The whole target circle, the image of any circle with nonzero winding."""


class Arc:
    """Proper closed arc from lo / den to hi / den counterclockwise.

    Arc(den, lo, hi) reduces the ends mod 1 to 0 <= lo, hi < den over
    their least common denominator and refuses a den that is not a positive
    int and equal ends; start and end are Fractions built when read.
    """

    __slots__ = ("den", "lo", "hi")

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

    def __setattr__(self, name, *_):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.den, self.lo, self.hi) == (other.den, other.lo, other.hi)

    def __hash__(self):
        return hash((self.den, self.lo, self.hi))

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

    Sort-and-double sweep after C. C. Lee and D. T. Lee, "On a circle-cover
    minimization problem", Inform. Process. Lett. 18 (1984), in O(n log n)
    exact comparisons for n arcs.  Each arc is unrolled onto the line as two
    closed intervals, its own and its copy shifted by +1, sorted by start.
    The greedy successor of an interval is the one reaching farthest among
    those starting no later than its end: a prefix maximum of the ends and
    one bisection find it.  Composing successors by doubling counts in
    O(log n) steps the greedy jumps that take an anchor, an arc starting at
    a in [0, 1), to a + 1; the answer is the fewest over all anchors.

    This is exact.  Anchor an optimal cover at any of its arcs A = [a, e].
    No other arc B of it contains A, so the part of the circle B must cover
    beyond A lies in B's lift starting in [a, a + 1), which is one of the
    two intervals; the greedy covers [e, a + 1] with no more of them than
    the cover does.  Conversely every greedy chain is a cover.  A chain
    that stalls below a + 1 has met a gap, and the arcs cover the circle
    iff some anchor gets through, so no separate coverage test is needed.
    """
    if any(isinstance(a, FullCircle) for a in arcs):
        return 1
    den = lcm(*{a.den for a in arcs})
    lifted = [(a.lo * (den // a.den), a.hi * (den // a.den)) for a in arcs]
    intervals = sorted((lo + d, lo + (hi - lo) % den + d) for lo, hi in lifted for d in (0, den))
    starts = [lo for lo, _ in intervals]
    ends = [hi for _, hi in intervals]
    farthest: list[int] = []
    for i, hi in enumerate(ends):
        farthest.append(i if not farthest or hi > ends[farthest[-1]] else farthest[-1])
    jumps = [[farthest[bisect_right(starts, hi) - 1] for hi in ends]]
    while 1 << len(jumps) <= len(intervals):  # a chain makes fewer than len(intervals) jumps
        prev = jumps[-1]
        jumps.append([prev[j] for j in prev])
    best: Optional[int] = None
    for i, lo in enumerate(starts):
        if lo >= den:
            break
        goal = lo + den
        cur, count = i, 1
        for level in range(len(jumps) - 1, -1, -1):
            j = jumps[level][cur]
            if ends[j] < goal:
                cur, count = j, count + (1 << level)
        if ends[jumps[0][cur]] >= goal and (best is None or count + 1 < best):
            best = count + 1
    return best
