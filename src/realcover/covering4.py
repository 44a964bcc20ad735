"""Degree-4 coverings with all windings zero and a prescribed covering number.

The covering number of a covering is the least number of real circles whose
images jointly cover the target circle (0 when even all of them fail to).
Winding-0 circles map onto arcs, so the whole question lives at the level
of arc layouts; the builders below produce explicit rational layouts:

  * maximal case (s = g + 1, covering number s): a cyclic chain of g + 2
    fold arcs with consecutive overlaps, two of them merged through one
    smoothed node.  For odd genus the chain has g + 1 arcs and the extra
    arc, nested inside the first one, is merged into it.
  * covering number below s on a maximal curve: take the previous build at
    the smaller genus and split its first circle repeatedly at doubly
    covered values; every split piece is redundant for covering.
  * fewer circles than g + 1 (separating case): a chain of kcov + b arcs,
    the first b + 1 merged into one circle, plus s - kcov arcs nested in
    the first arc's exclusive region, where 2b = g + 1 - s.
  * non-separating case: the separating build one or two genera lower,
    followed by node smoothings away from the real locus which change
    nothing at arc level.

Every component of a built cover is a winding-0 circle, the total degree is
4, and no value is covered by more than two arcs, so the fiber budget holds
with room for the two non-real sheets wherever only one arc passes.

Each builder writes the layout these smoothings produce in closed form:
per circle its breakpoint lifts as integers over one known denominator,
which build_covnum hands to PLMap._unchecked(den, xs, 0).  That builds the
map PLMap(den, xs, 0) builds without checking its refusals again, which
the closed forms pass by construction: den = 8 m h > 0, the winding is 0
and no two consecutive lifts, the closing pair included, are equal.
tests/test_plsim.py builds every target of g <= 25 both ways.
Fractions are built only when a caller reads the breakpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import List, Tuple

from .arcs import min_lifted_cover
from .plsim import PLCover, PLMap, image_ends
from .topology import CoverSpec, CoverTarget, DegreeVector, TopType, weichold_admissible


class InfeasibleTarget(ValueError):
    """The requested type or covering number violates the known bounds."""


@dataclass(frozen=True)
class CoveringNumberTarget:
    """A topological type with at least one real circle and 1 <= kcov <= s."""

    top: TopType
    kcov: int

    def __post_init__(self):
        if not weichold_admissible(self.top.g, self.top.s, self.top.a):
            raise InfeasibleTarget(
                f"type {(self.top.g, self.top.s, self.top.a)} fails the existence bounds")
        if self.top.s < 1:
            raise InfeasibleTarget("covering numbers need at least one real circle")
        if not 1 <= self.kcov <= self.top.s:
            raise InfeasibleTarget(f"covering number must lie in 1..{self.top.s}")


def covering_number(cover: PLCover) -> int:
    """Minimal number of circles whose images cover the target circle; 0 if none do.

    Reads each map's image_ends: a full circle answers 1; otherwise the
    ends are lifted to the least common denominator of the maps and
    min_lifted_cover searches them.  No Arc is built: PLMap already puts
    the lowest lift in [0, den), and a winding-0 map climbs somewhere, so
    its highest lift lies above it.
    """
    maps = [m for _, m in cover.components]
    ends = [image_ends(m) for m in maps]
    if None in ends:
        return 1
    den = lcm(*[m.den for m in maps])
    scale = [den // m.den for m in maps]
    result = min_lifted_cover(den, [(lo * f, hi * f) for f, (lo, hi) in zip(scale, ends)])
    return 0 if result is None else result


# A build's layout: per circle its label and its winding-0 breakpoint lifts
# over the build's one denominator.
_Layout = List[Tuple[str, List[int]]]


def _chain(m: int, first: int, h: int) -> _Layout:
    """Chain arcs first..m - 1, labeled C(first + 1)..Cm, over den = 8 m h:
    arc j runs from j/m - o to (j + 1)/m + o with o = 1/(4m), so consecutive
    ones overlap, others are disjoint, and for m = 2 the two overlap at both
    ends.  The part of arc 0 meeting no other arc, its exclusive region, runs
    from o to 1/m - o: 2 h to 6 h."""
    return [(f"C{j + 1}", [(8 * j - 2) * h, (8 * j + 10) * h]) for j in range(first, m)]


def _merged_c1(b: int, h: int) -> List[int]:
    """Chain arcs 0..b joined into one circle C1, over den = 8 m h, by
    smoothing the node of arcs j - 1 and j over j/m for j = 1..b into folds
    at j/m -/+ 1/(8m); the fibers over each gap lose the two glued sheets.
    Read from the top of arc b - 1, the circle zigzags down the tops of arcs
    b - 1..0 through the upper folds, falls to the bottom of arc 0, zigzags
    up the bottoms of arcs 1..b through the lower folds, and climbs over arc
    b to its upper fold."""
    falls = [x for i in range(b, 1, -1) for x in ((8 * i + 2) * h, (8 * i - 7) * h)]
    rises = [x for i in range(1, b + 1) for x in ((8 * i - 1) * h, (8 * i - 2) * h)]
    return falls + [10 * h, -2 * h] + rises + [(8 * b + 10) * h, (8 * b + 1) * h]


def _build_m_max(g: int, f: int = 1) -> Tuple[int, _Layout]:
    """Maximal real locus (s = g + 1) with covering number g + 1; den and
    lifts times f."""
    if g % 2 == 0:
        m = g + 2
        return 8 * m * f, [("C1", _merged_c1(1, f))] + _chain(m, 2, f)
    # Over den 16 m, the nested arc 6..10 (the middle half of arc 0's
    # exclusive region) smoothed into arc 0 over 8 with folds at 7 and 9.
    m = g + 1
    c1 = [x * f for x in (20, -4, 7, 6, 10, 9)]
    return 16 * m * f, [("C1", c1)] + _chain(m, 1, 2 * f)


def _build_m_split(g: int, kcov: int) -> Tuple[int, _Layout]:
    """Maximal real locus with covering number kcov < g + 1.

    From its peak, the first circle of the kcov - 1 build covers a stretch of
    width o = 1/(4m) twice: around 2/m for odd kcov, m = kcov + 1 (it spans
    chain arcs 0 and 1, or for kcov = 1 the merge used one of two overlaps),
    and around 1/m for even kcov, m = kcov (its image is chain arc 0).  Over
    den = 16 m (n + 1), n = g + 1 - kcov splits at the evenly spaced values
    c_1 < .. < c_n of its middle half, each with folds at c_i -/+ 1, add
    only redundant circles: C1 keeps its lower part up to c_1 - 1, N_i runs
    from c_i + 1 to c_(i+1) - 1 and N_n from c_n + 1 to the peak.
    """
    n = g - kcov + 1
    den, circles = _build_m_max(kcov - 1, (n + 1) * (1 + kcov % 2))
    start = (16 * (1 + kcov % 2) - 2) * (n + 1)  # (1 + kcov % 2)/m - 1/(8 m)
    cuts = range(start + 4, start + 4 * n + 1, 4)
    xs = circles[0][1]
    p = xs.index(max(xs))
    circles[0] = ("C1", [cuts[0] - 1] + xs[p + 1 :] + xs[:p])
    circles += [(f"N{i + 1}", [cuts[i + 1] - 1, cuts[i] + 1]) for i in range(n - 1)]
    circles.append((f"N{n}", [cuts[-1] + 1, xs[p]]))
    return den, circles


def _build_separating(g: int, s: int, kcov: int) -> Tuple[int, _Layout]:
    """Separating case for s < g + 1 circles: b = (g + 1 - s)/2 >= 1."""
    b = (g + 1 - s) // 2
    m = kcov + b
    extra = s - kcov
    # Over den = 8 m extra the exclusive region 2 extra..6 extra holds extra
    # slots of 4 units, each with a nested arc over its middle half.
    h = extra or 1
    nested = [(f"C{m + 1 + i}", [2 * h + 4 * i + 1, 2 * h + 4 * i + 3]) for i in range(extra)]
    return 8 * m * h, [("C1", _merged_c1(b, h))] + _chain(m, b + 1, h) + nested


def _build_orientable(g: int, s: int, kcov: int) -> Tuple[int, _Layout]:
    if s == g + 1:
        if kcov == s:
            return _build_m_max(g)
        return _build_m_split(g, kcov)
    return _build_separating(g, s, kcov)


def build_covnum(target: CoveringNumberTarget) -> Tuple[PLCover, CoverSpec]:
    """Build a degree-4 covering of the target type with every winding zero
    and the prescribed covering number.

    Returns the PL realization together with its symbolic specification.
    Each build writes its layout over one denominator in closed form, so
    time and memory are linear in g: the cover has s <= g + 1 circles and
    at most 2 g + 6 breakpoints.
    """
    g, s, a = target.top.g, target.top.s, target.top.a
    if a == 0:
        den, circles = _build_orientable(g, s, target.kcov)
    else:
        # Drop to the separating case one or two genera lower (matching the
        # circle-count parity), then smooth one or two conjugate pairs of
        # nodes away from the real locus; the arc picture is unchanged.
        down = 1 if (g - s) % 2 == 0 else 2
        den, circles = _build_orientable(g - down, s, target.kcov)
    spec = CoverSpec(
        target.top, CoverTarget.PROJ_LINE, 4, DegreeVector((0,) * s)
    )
    comps = tuple([(lbl, PLMap._unchecked(den, xs, 0)) for lbl, xs in circles])
    return PLCover(comps, 4, CoverTarget.PROJ_LINE), spec
