"""Piecewise-linear simulation of the real locus of a covering.

Each real circle of the source is a piecewise-linear circle map: a cyclic
sequence of breakpoints (t, x) where t parameterizes the source circle with
period 1 and x is a lift of the image to the real line, closed up by
x(t0 + 1) = x0 + w for the integer winding w.  Segments between breakpoints
have nonzero rational slope, so folds happen exactly at breakpoints and
every fiber question reduces to exact rational interval arithmetic.

Only the cyclic sequence of breakpoint lifts matters for windings, fibers
and image arcs; the t coordinates are re-gauged to equal spacing after
every surgery.

A PLCover bundles the circle maps with the sheet budget k of the covering.
Sheets not accounted for by real preimages come in conjugate pairs, whence
the invariant: at every regular value the number of real preimages is at
most k and has the parity of k (coverings of the projective line).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import List, Optional, Sequence, Tuple

from .arcs import FULL_CIRCLE, Arc, ArcLike
from .constructions import (
    BaseSeed,
    ConstructionStep,
    GenericPencil,
    GenericR0Pencil,
    Hyperelliptic,
    HyperellipticToR0,
    PreconditionViolated,
    StepKind,
    Variant,
    check_seed,
    next_new_label,
)
from .topology import CoverTarget


class BudgetExceeded(Exception):
    """A surgery would force more real preimages than the sheet budget allows."""


@dataclass(frozen=True)
class PLMap:
    """Piecewise-linear circle map given by breakpoints and a closure winding."""

    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    closure: int

    def __post_init__(self):
        pts = self.breakpoints
        if not pts:
            raise ValueError("a circle map needs at least one breakpoint")
        ts = [t for t, _ in pts]
        if any(not 0 <= t < 1 for t in ts):
            raise ValueError("breakpoint parameters must lie in [0, 1)")
        if any(ts[i] >= ts[i + 1] for i in range(len(ts) - 1)):
            raise ValueError("breakpoint parameters must be strictly increasing")
        for u, v in self.segments():
            if u == v:
                raise ValueError("zero-slope segment: folds must be isolated breakpoints")

    def lifts(self) -> List[Fraction]:
        """Breakpoint lifts followed by the closure lift x0 + w."""
        xs = [x for _, x in self.breakpoints]
        return xs + [xs[0] + self.closure]

    def segments(self) -> List[Tuple[Fraction, Fraction]]:
        xs = self.lifts()
        return [(xs[i], xs[i + 1]) for i in range(len(xs) - 1)]


def pl_map(values: Sequence[Fraction], closure: int) -> PLMap:
    """Build a map from a lift profile, equally spaced in t and re-anchored."""
    values = [Fraction(v) for v in values]
    shift = floor(min(values))
    n = len(values)
    return PLMap(
        tuple((Fraction(i, n), v - shift) for i, v in enumerate(values)), closure
    )


def reverse(m: PLMap) -> PLMap:
    """The same circle map with the source traversed backwards; winding negates."""
    xs = [x for _, x in m.breakpoints]
    values = [xs[0] + m.closure] + xs[:0:-1]
    return pl_map(values, -m.closure)


def orient(m: PLMap) -> PLMap:
    """Normalize the orientation so the winding is nonnegative."""
    return reverse(m) if m.closure < 0 else m


@dataclass(frozen=True)
class PLCover:
    """Realization of a covering's real locus: labeled circle maps plus budget."""

    components: tuple[tuple[str, PLMap], ...]
    k: int
    target: CoverTarget

    def map_of(self, label: str) -> PLMap:
        for lbl, m in self.components:
            if lbl == label:
                return m
        raise KeyError(label)

    def windings(self) -> dict:
        return {lbl: abs(m.closure) for lbl, m in self.components}


def critical_values(cover: PLCover) -> List[Fraction]:
    """Sorted residues of all breakpoint lifts; fibers are constant in between."""
    vals = {x % 1 for _, m in cover.components for _, x in m.breakpoints}
    return sorted(vals)


def fiber_profile(cover: PLCover) -> List[Tuple[Fraction, Fraction, int]]:
    """Exact fiber count on every maximal regular interval of the target circle.

    Returns (start, length, count) per interval, in the order of
    critical_values: the intervals start at the critical values and tile
    the circle.  A segment from lo to hi (lo < hi) passes over every value
    floor(hi - lo) times, plus once more over the open residue arc from
    lo % 1 to hi % 1 when hi - lo is not an integer.  Both ends of that arc
    are critical values, so one difference array over the sorted residues
    and one prefix sum give every count in O(B log B) for B breakpoints.
    """
    crit = critical_values(cover)
    if not crit:
        return [(Fraction(0), Fraction(1), 0)]
    index = {c: i for i, c in enumerate(crit)}
    n = len(crit)
    delta = [0] * n
    count = 0
    for _, m in cover.components:
        for u, v in m.segments():
            lo, hi = (u, v) if u < v else (v, u)
            sheets, extra = divmod(hi - lo, 1)
            count += sheets
            if extra:
                a, b = index[lo % 1], index[hi % 1]
                delta[a] += 1
                delta[b] -= 1
                if a > b:  # the arc wraps through 0, so it covers interval 0 too
                    count += 1
    out = []
    for i, a in enumerate(crit):
        count += delta[i]
        length = (crit[i + 1] if i + 1 < n else crit[0] + 1) - a
        out.append((a, length, count))
    return out


def regular_samples(cover: PLCover) -> List[Fraction]:
    """One regular value per maximal regular interval, its midpoint; sorted."""
    return sorted((a + length / 2) % 1 for a, length, _ in fiber_profile(cover))


def fiber_budget_violations(cover: PLCover) -> List[str]:
    """Violations of the budget/parity invariant on any regular interval;
    empty when clean.

    Only meaningful for coverings of the projective line; for R0 there is
    no target circle to check.
    """
    if cover.target is not CoverTarget.PROJ_LINE:
        return []
    bad = []
    for a, length, n in fiber_profile(cover):
        where = f"fiber over ({a}, {a + length})"
        if n > cover.k:
            bad.append(f"{where} has {n} > {cover.k} real points")
        if (cover.k - n) % 2 != 0:
            bad.append(f"{where} has {n} real points, parity differs from {cover.k}")
    return bad


def image_arcs(cover: PLCover) -> List[Tuple[str, ArcLike]]:
    """The image of each circle: the whole target circle, or a proper arc."""
    out: List[Tuple[str, ArcLike]] = []
    for lbl, m in cover.components:
        if m.closure != 0:
            out.append((lbl, FULL_CIRCLE))
            continue
        xs = m.lifts()
        span = max(xs) - min(xs)
        if span >= 1:
            out.append((lbl, FULL_CIRCLE))
        else:
            out.append((lbl, Arc(min(xs) % 1, max(xs) % 1)))
    return out


# ---------------------------------------------------------------------------
# Surgeries mirroring the symbolic constructions.


def _rising_segment(m: PLMap) -> int:
    """Index of the widest increasing segment (ties to the earliest)."""
    best, best_span = -1, None
    for i, (u, v) in enumerate(m.segments()):
        if v > u and (best_span is None or v - u > best_span):
            best, best_span = i, v - u
    if best < 0:
        raise ValueError("map has no increasing segment")
    return best


def _splice_wrap(m: PLMap) -> PLMap:
    """Extend one climb by a full extra turn: winding + 1, one more preimage
    of every value."""
    i = _rising_segment(m)
    xs = [x for _, x in m.breakpoints]
    values = xs[: i + 1] + [x + 1 for x in xs[i + 1 :]]
    return pl_map(values, m.closure + 1)


def _splice_fold(m: PLMap) -> PLMap:
    """Splice a backward turn with a fold gap into a climb: winding - 1.

    Outside the small gap every value gains one preimage; inside the gap it
    loses one (the two local sheets become a conjugate pair).  The result
    is orientation-normalized, so a winding-0 circle flips to winding 1.
    """
    i = _rising_segment(m)
    u, v = m.segments()[i]
    center = (u + v) / 2
    # the backward turn drops by 1 - 2h, so h must stay below 1/2 even on
    # segments that climb several full turns
    h = min(center - u, v - center, Fraction(1)) / 4
    xs = [x for _, x in m.breakpoints]
    values = (
        xs[: i + 1]
        + [center - h, center + h - 1]
        + [x - 1 for x in xs[i + 1 :]]
    )
    return orient(pl_map(values, m.closure - 1))


def _new_fold_component(cover: PLCover) -> PLMap:
    """A fresh winding-0 fold over an interval where two more sheets fit."""
    slack = [iv for iv in fiber_profile(cover) if iv[2] <= cover.k - 2]
    if not slack:
        raise BudgetExceeded("no regular interval has room for two more real sheets")
    a, gap, _ = max(slack, key=lambda iv: (iv[1], -iv[0]))
    return pl_map([a + gap / 4, a + 3 * gap / 4], 0)


def surgery(cover: PLCover, step: ConstructionStep) -> PLCover:
    """Apply the PL surgery mirroring one construction step.

    Kinds I, II and III operate on the real locus; IV and V have no real
    picture and only update the sheet budget.  Sites are chosen canonically,
    so realizations are deterministic.
    """
    kind, variant = step.kind, step.variant
    if kind in (StepKind.I, StepKind.II, StepKind.III, StepKind.IV):
        if cover.target is not CoverTarget.PROJ_LINE:
            raise PreconditionViolated(kind, "requires a covering of the projective line")
    if kind is StepKind.I:
        labels = [lbl for lbl, _ in cover.components]
        if step.placement not in labels:
            raise PreconditionViolated(kind, f"no circle labeled {step.placement!r}")
        comps = []
        for lbl, m in cover.components:
            if lbl == step.placement:
                if variant is Variant.WITH_REAL_RAM:
                    m = _splice_fold(m)
                else:
                    m = _splice_wrap(m)
            comps.append((lbl, m))
        return PLCover(tuple(comps), cover.k + 1, cover.target)
    if kind is StepKind.II:
        if sum(abs(m.closure) for _, m in cover.components) >= cover.k:
            raise PreconditionViolated(
                kind, "needs a non-real point over a real value (winding sum < k)"
            )
        if variant is Variant.WITHOUT_REAL_RAM:
            return cover  # happens away from the real locus
        fold = _new_fold_component(cover)
        label = next_new_label(cover.components)
        return PLCover(cover.components + ((label, fold),), cover.k, cover.target)
    if kind is StepKind.III:
        label = next_new_label(cover.components)
        wrap = pl_map([Fraction(0), Fraction(1, 2)], 1)
        return PLCover(cover.components + ((label, wrap),), cover.k + 1, cover.target)
    if kind is StepKind.IV:
        if cover.components:
            raise PreconditionViolated(kind, "needs an empty real locus")
        return PLCover(cover.components, cover.k + 2, cover.target)
    if cover.target is not CoverTarget.ANISOTROPIC_CONIC:
        raise PreconditionViolated(kind, "requires a covering of R0")
    return PLCover(cover.components, cover.k + 1, cover.target)


# ---------------------------------------------------------------------------
# Node smoothings at the level of circle maps: merging two circles over a
# common value, and splitting one circle at a doubly covered value.  Both
# model the fold-type smoothing, which opens a small gap with two fewer
# real preimages.


def _class_crossings(m: PLMap, c: Fraction) -> List[Tuple[int, Fraction, int]]:
    """Crossings of the residue class of c in traversal order.

    Returns (segment index, crossing lift, direction) with direction +1 for
    climbs.  Within one segment crossings are ordered along the traversal.
    """
    c = Fraction(c)
    out: List[Tuple[int, Fraction, int]] = []
    for i, (u, v) in enumerate(m.segments()):
        lo, hi = (u, v) if u < v else (v, u)
        js = [j for j in range(ceil(lo - c), floor(hi - c) + 1) if lo < c + j < hi]
        vals = [c + j for j in js]
        if v < u:
            vals.reverse()
        out.extend((i, val, 1 if v > u else -1) for val in vals)
    return out


def _cycle_values(m: PLMap, start_after: int) -> List[Fraction]:
    """Breakpoint lifts read once around a winding-0 map, beginning after the
    given segment index."""
    if m.closure != 0:
        raise ValueError("cycled reading needs winding 0")
    xs = [x for _, x in m.breakpoints]
    n = len(xs)
    return [xs[(start_after + 1 + i) % n] for i in range(n)]


def merge_components(
    cover: PLCover, label_a: str, label_b: str, t: Fraction, h: Optional[Fraction] = None
) -> PLCover:
    """Smooth a node joining two winding-0 circles over the common value t.

    Both circles are cut at a climb through t and cross-joined with folds
    at t -/+ h; the fibers over the gap lose the two glued sheets, nothing
    else changes.  The merged circle keeps label_a.
    """
    ma, mb = cover.map_of(label_a), cover.map_of(label_b)
    if ma.closure != 0 or mb.closure != 0:
        raise ValueError("node smoothing is implemented for winding-0 circles")
    t = Fraction(t)
    ups_a = [cr for cr in _class_crossings(ma, t) if cr[2] > 0]
    ups_b = [cr for cr in _class_crossings(mb, t) if cr[2] > 0]
    if not ups_a or not ups_b:
        raise ValueError(f"both circles must climb through {t}")
    ia, va, _ = ups_a[0]
    ib, vb, _ = ups_b[0]
    shift = va - vb
    ua_lo, ua_hi = ma.segments()[ia]
    ub_lo, ub_hi = mb.segments()[ib]
    bound = min(va - ua_lo, ua_hi - va, vb - ub_lo, ub_hi - vb)
    h = bound / 2 if h is None else min(Fraction(h), bound / 2)
    rev_b = [x + shift for x in reversed(_cycle_values(mb, ib))]
    values = _cycle_values(ma, ia) + [va - h] + rev_b + [va + h]
    merged = pl_map(values, 0)
    comps = []
    for lbl, m in cover.components:
        if lbl == label_b:
            continue
        comps.append((lbl, merged if lbl == label_a else m))
    return PLCover(tuple(comps), cover.k, cover.target)


def fold_split(
    cover: PLCover, label: str, c: Fraction, h: Optional[Fraction] = None
) -> Tuple[PLCover, str]:
    """Smooth a self-node of one winding-0 circle at a doubly covered value c.

    The circle is cut at two consecutive crossings of c bounding an
    excursion above c; the excursion closes into a new circle folding at
    c + h, the rest folds at c - h.  Returns the new cover and the label of
    the split-off circle.
    """
    m = cover.map_of(label)
    if m.closure != 0:
        raise ValueError("node smoothing is implemented for winding-0 circles")
    c = Fraction(c)
    crossings = _class_crossings(m, c)
    if len(crossings) < 2:
        raise ValueError(f"circle does not cross {c} twice")
    n = len(crossings)
    pick = next(
        (
            p
            for p in range(n)
            if crossings[p][2] > 0 and crossings[(p + 1) % n][2] < 0
        ),
        None,
    )
    if pick is None:
        raise ValueError("no upward excursion to cut")
    ip, cstar, _ = crossings[pick]
    iq, cq, _ = crossings[(pick + 1) % n]
    if cq != cstar:
        raise ValueError("inconsistent excursion: crossing lifts differ")
    segs = m.segments()
    bound = min(
        segs[ip][1] - cstar, cstar - segs[ip][0], segs[iq][0] - cstar, cstar - segs[iq][1]
    )
    h = bound / 2 if h is None else min(Fraction(h), bound / 2)
    xs = [x for _, x in m.breakpoints]
    nb = len(xs)
    between = [xs[(ip + 1 + i) % nb] for i in range(((iq - ip) % nb) or nb)]
    rest = [xs[(iq + 1 + i) % nb] for i in range(((ip - iq) % nb) or nb)]
    lobe = pl_map([cstar + h] + between, 0)
    remainder = pl_map([cstar - h] + rest, 0)
    new_label = next_new_label(cover.components)
    comps = [(lbl, remainder if lbl == label else mm) for lbl, mm in cover.components]
    comps.append((new_label, lobe))
    return PLCover(tuple(comps), cover.k, cover.target), new_label


# ---------------------------------------------------------------------------
# Realization of plans.


def seed_cover(seed: BaseSeed) -> PLCover:
    """Canonical PL realization of a base covering.

    The winding-(2) double covering is one double wrap; (1, 1) is two
    monotone wraps; the all-zero pattern is one fold per circle over
    disjoint arcs.  Pencil seeds and coverings of R0 contribute only their
    sheet budget.  A seed outside the catalog raises SeedNotInCatalog.
    """
    check_seed(seed)
    if isinstance(seed, Hyperelliptic):
        e = seed.degrees.entries
        if e == (2,):
            comps = (("C1", pl_map([Fraction(0), Fraction(1)], 2)),)
        elif e == (1, 1):
            comps = (
                ("C1", pl_map([Fraction(0), Fraction(1, 2)], 1)),
                ("C2", pl_map([Fraction(0), Fraction(1, 2)], 1)),
            )
        else:
            s = len(e)
            comps = tuple(
                (
                    f"C{i + 1}",
                    pl_map([Fraction(4 * i + 1, 4 * s), Fraction(4 * i + 3, 4 * s)], 0),
                )
                for i in range(s)
            )
        return PLCover(comps, 2, CoverTarget.PROJ_LINE)
    if isinstance(seed, HyperellipticToR0):
        return PLCover((), 2, CoverTarget.ANISOTROPIC_CONIC)
    if isinstance(seed, GenericPencil):
        return PLCover((), seed.k, CoverTarget.PROJ_LINE)
    if isinstance(seed, GenericR0Pencil):
        return PLCover((), seed.k, CoverTarget.ANISOTROPIC_CONIC)
    raise ValueError(f"unknown seed {seed!r}")


def realize(seed: BaseSeed, steps: Sequence[ConstructionStep]) -> PLCover:
    """Fold the PL surgeries of a plan over its seed realization."""
    cover = seed_cover(seed)
    for i, step in enumerate(steps):
        try:
            cover = surgery(cover, step)
        except PreconditionViolated as exc:
            raise PreconditionViolated(exc.kind, exc.reason, step_index=i) from None
    return cover


# ---------------------------------------------------------------------------
# JSON wire format: breakpoints as pairs of rational strings "p/q".


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def cover_to_json(cover: PLCover) -> dict:
    return {
        "target": cover.target.value,
        "k": cover.k,
        "components": [
            {
                "label": lbl,
                "winding": m.closure,
                "breakpoints": [[_rat(t), _rat(x)] for t, x in m.breakpoints],
            }
            for lbl, m in cover.components
        ],
    }
