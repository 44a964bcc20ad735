"""Brute-force oracles, written independently of the package internals.

These re-derive the answers from first principles (subset enumeration,
nested loops over raw tuples) so the package's algorithms have something
honest to be compared against.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from realcover.arcs import Arc, FullCircle


def brute_min_circle_cover(arcset):
    """Minimal covering sub-multiset by exhaustive subset search.

    Coverage is decided on elementary intervals: the circle is cut at every
    arc endpoint and a subset covers the circle iff it covers every cut
    point and the midpoint of every piece.  Returns None when even the full
    multiset fails.
    """
    if any(isinstance(a, FullCircle) for a in arcset):
        return 1
    proper = [a for a in arcset if isinstance(a, Arc)]
    if not proper:
        return None
    points = sorted({a.start for a in proper} | {a.end for a in proper})
    probes = []
    for i, p in enumerate(points):
        q = points[(i + 1) % len(points)]
        gap = (q - p) % 1
        if gap == 0:
            gap = Fraction(1)
        probes.append(p)
        probes.append((p + gap / 2) % 1)

    def covered_mask(arc):
        mask = 0
        for bit, x in enumerate(probes):
            if (x - arc.start) % 1 <= (arc.end - arc.start) % 1:
                mask |= 1 << bit
        return mask

    masks = [covered_mask(a) for a in proper]
    full = (1 << len(probes)) - 1
    for size in range(1, len(masks) + 1):
        for combo in itertools.combinations(range(len(masks)), size):
            acc = 0
            for i in combo:
                acc |= masks[i]
            if acc == full:
                return size
    return None


def greedy_min_circle_cover(arcset):
    """Minimal covering sub-multiset by the anchor-by-anchor greedy, O(n^3).

    Anchor at each arc in turn, unroll every other arc into the two
    intervals it induces on the line from the anchor's start, and extend
    the covered prefix by the interval reaching farthest until it spans the
    circle.  An anchor that meets a gap gives no answer; the minimum over
    the others is exact by the usual exchange argument, and None when every
    anchor meets a gap.
    """
    if any(isinstance(a, FullCircle) for a in arcset):
        return 1
    proper = [a for a in arcset if isinstance(a, Arc)]
    best = None
    for anchor in proper:
        intervals = []
        for a in proper:
            if a is anchor:
                continue
            left = (a.start - anchor.start) % 1
            right = left + a.length
            intervals.append((left, right))
            intervals.append((left - 1, right - 1))
        reach = anchor.length
        count = 1
        while reach < 1:
            extend = max((right for left, right in intervals if left <= reach), default=reach)
            if extend <= reach:
                count = None
                break
            reach = extend
            count += 1
        if count is not None and (best is None or count < best):
            best = count
    return best


def oracle_admissible_tuples(g_max, k_min, k_max):
    """Admissible raw tuples (g, s, a, target, k, degrees) by nested loops.

    The predicates are restated here from scratch: the type existence
    bounds, the three degree clauses, the separating bound for a = 1, and
    the genus parity for coverings of the conic without real points.
    """
    out = set()
    for g in range(g_max + 1):
        for k in range(k_min, k_max + 1):
            for s in range(g + 2):
                for a in (0, 1):
                    if a == 1 and not 0 <= s <= g:
                        continue
                    if a == 0 and not (s % 2 == (g + 1) % 2 and 1 <= s <= g + 1):
                        continue
                    for raw in itertools.combinations_with_replacement(range(k + 1), s):
                        d = tuple(sorted(raw, reverse=True))
                        total = sum(d)
                        if total > k:
                            continue
                        if (k - total) % 2 != 0:
                            continue
                        if d and d[-1] == 0 and total > k - 2:
                            continue
                        if a == 1 and total > k - 2:
                            continue
                        out.add((g, s, a, "P1", k, d))
                    if s == 0 and a == 1 and (k - g - 1) % 2 == 0:
                        out.add((g, 0, 1, "R0", k, ()))
    return out


def all_box_tuples(g_max, k_min, k_max):
    """Every raw candidate tuple in the scan box, admissible or not."""
    for g in range(g_max + 1):
        for k in range(k_min, k_max + 1):
            for s in range(g + 2):
                for raw in itertools.combinations_with_replacement(range(k + 1), s):
                    d = tuple(sorted(raw, reverse=True))
                    for a in (0, 1):
                        for target in ("P1", "R0"):
                            yield (g, s, a, target, k, d)
