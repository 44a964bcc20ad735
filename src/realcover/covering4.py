"""Degree-4 coverings with all windings zero and a prescribed covering number.

The covering number of a covering is the least number of real circles whose
images jointly cover the target circle (0 when even all of them fail to).
Winding-0 circles map onto arcs, so the whole question lives at the level
of arc layouts; the builders below produce explicit rational layouts:

  * maximal case (s = g + 1, covering number s): a cyclic chain of g + 2
    fold arcs with consecutive overlaps, two of them merged through one
    smoothed node.  For odd genus the chain has g + 1 arcs and the extra
    arc sits nested inside the first one.
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

The builds and their node smoothings run on plsim's integer form.  At the
end each circle becomes a PLMap that keeps its integer lifts; Fractions
are built only when a caller reads its breakpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Tuple

from .arcs import min_circle_cover
from .plsim import PLCover, _decode, _Lifts, _merge, _split, image_arcs
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
            raise InfeasibleTarget(f"type {self.top} fails the existence bounds")
        if self.top.s < 1:
            raise InfeasibleTarget("covering numbers need at least one real circle")
        if not 1 <= self.kcov <= self.top.s:
            raise InfeasibleTarget(f"covering number must lie in 1..{self.top.s}")


def covering_number(cover: PLCover) -> int:
    """Minimal number of circles whose images cover the target circle; 0 if none do."""
    result = min_circle_cover([arc for _, arc in image_arcs(cover)])
    return 0 if result is None else result


def _chain(m: int, unit: int) -> _Lifts:
    """m fold arcs over den = 4 m unit, consecutive ones overlapping, others
    disjoint: arc j runs from j/m - o to (j+1)/m + o with o = 1/(4m), and for
    m = 2 the two overlap at both ends.  The part of arc 0 meeting no other
    arc, its exclusive region, runs from o to 1/m - o: unit to 3 unit."""
    circles = [(f"C{j + 1}", [(4 * j - 1) * unit, (4 * j + 5) * unit], 0) for j in range(m)]
    return _Lifts(4 * m * unit, circles, 4, CoverTarget.PROJ_LINE)


def _build_m_max(g: int) -> _Lifts:
    """Maximal real locus (s = g + 1) with covering number g + 1."""
    if g % 2 == 0:
        form = _chain(g + 2, 1)
        _merge(form, 0, 1, 4)  # C1 and C2 at 1/(g + 2)
        return form
    mc = g + 1
    # The nested arc is the middle half of the exclusive region 2..6 of arc 0.
    form = _chain(mc, 2)
    form.circles.append((f"C{mc + 1}", [3, 5], 0))
    _merge(form, 0, mc, 4)
    return form


def _build_m_split(g: int, kcov: int) -> _Lifts:
    """Maximal real locus with covering number kcov < g + 1.

    The first circle of the kcov - 1 build covers a stretch of width
    o = 1/(4m) twice: around 2/m for odd kcov, m = kcov + 1 (it spans chain
    arcs 0 and 1, or for kcov = 1 the merge used one of two overlaps), and
    around 1/m for even kcov, m = kcov (its image is chain arc 0).  Splits
    at evenly spaced points of its middle half add only redundant circles.
    """
    form = _build_m_max(kcov - 1)
    n = g - kcov + 1
    m = kcov + kcov % 2
    unit = 16 * m * (n + 1)  # 1 / unit: a quarter spacing
    form.scale(lcm(form.den, unit) // form.den)
    den = form.den
    q = den // unit
    start = (16 * (1 + kcov % 2) - 2) * (n + 1) * q  # (1 + kcov % 2)/m - 1/(8 m), over den
    j = 0  # C1 first, then the circle split off last; the base has no N labels
    for i in range(1, n + 1):
        f = form.den // den  # a split refines den when its gap needs halving
        _split(form, j, f * (start + 4 * i * q), f * q, f"N{i}")
        j = len(form.circles) - 1
    return form


def _build_separating(g: int, s: int, kcov: int) -> _Lifts:
    """Separating case for s < g + 1 circles."""
    b = (g + 1 - s) // 2
    m = kcov + b
    extra = s - kcov
    # Over den = 8 m extra the exclusive region 2 extra..6 extra holds extra
    # slots of 4 units, each with a nested arc over its middle half.
    form = _chain(m, 2 * extra or 1)
    form.circles += [
        (f"C{m + 1 + i}", [2 * extra + 4 * i + 1, 2 * extra + 4 * i + 3], 0)
        for i in range(extra)
    ]
    for j in range(b):  # C1 and C(j + 2), now second, at (j + 1)/m; m divides den
        _merge(form, 0, 1, form.den // m * (j + 1))
    return form


def _build_orientable(g: int, s: int, kcov: int) -> _Lifts:
    if s == g + 1:
        if kcov == s:
            return _build_m_max(g)
        return _build_m_split(g, kcov)
    return _build_separating(g, s, kcov)


def build_covnum(target: CoveringNumberTarget) -> Tuple[PLCover, CoverSpec]:
    """Build a degree-4 covering of the target type with every winding zero
    and the prescribed covering number.

    Returns the PL realization together with its symbolic specification.

    The separating case costs time quadratic in g + 1 - s: it merges
    (g + 1 - s)/2 chain arcs into the first circle, and each merge scans
    that circle from its start for the first climb through the merge value.
    For s = 1 that is about 0.10, 0.43 and 2.0 s at g = 1000, 2000 and 4000.
    Only the realcover command bounds it (g + 1 - s <= 5,000); callers of
    this function must bound g + 1 - s themselves.
    """
    g, s, a = target.top.g, target.top.s, target.top.a
    if a == 0:
        form = _build_orientable(g, s, target.kcov)
    else:
        # Drop to the separating case one or two genera lower (matching the
        # circle-count parity), then smooth one or two conjugate pairs of
        # nodes away from the real locus; the arc picture is unchanged.
        down = 1 if (g - s) % 2 == 0 else 2
        form = _build_orientable(g - down, s, target.kcov)
    spec = CoverSpec(
        target.top, CoverTarget.PROJ_LINE, 4, DegreeVector((0,) * s)
    )
    return _decode(form), spec
