"""Brute-force oracles, written independently of the package internals.

These re-derive the answers from first principles (subset enumeration,
nested loops over raw tuples, per-point lattice counts) so the package's
algorithms have something honest to be compared against.  A few small
helpers that only tests need live here too.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from math import ceil, floor, lcm
from typing import List, Optional, Tuple

from realcover.arcs import Arc, FullCircle
from realcover.constructions import (
    ConstructionStep,
    GenericPencil,
    GenericR0Pencil,
    Hyperelliptic,
    HyperellipticToR0,
    LabeledState,
    PreconditionViolated,
    SeedNotInCatalog,
    StepKind,
    Variant,
    apply_step,
    execute_states,
    seed_state,
)
from realcover.plsim import BudgetExceeded, PLCover, PLMap
from realcover.topology import CoverTarget, DegreeVector, TopType


# ---------------------------------------------------------------------------
# Fraction views of maps and arcs.  The package builds both from integer
# lifts only; these read and build them from rationals.


def pl_map(values, closure):
    """The map with breakpoint lifts values, equally spaced in t."""
    values = [Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return PLMap(den, [v.numerator * (den // v.denominator) for v in values], closure)


def lifts(m):
    """Breakpoint lifts followed by the closure lift x0 + w."""
    xs = [x for _, x in m.breakpoints]
    return xs + [xs[0] + m.closure]


def segments(m):
    """(from, to) lifts of each segment, the closing one last."""
    xs = lifts(m)
    return list(zip(xs, xs[1:]))


def map_of(cover, label):
    """The map of the first circle with the label."""
    for lbl, m in cover.components:
        if lbl == label:
            return m
    raise KeyError(label)


def next_new_label(components):
    """The label of the next circle a step creates: N1, N2, ... counting the
    N circles already there."""
    n = sum(1 for lbl, _ in components if lbl.startswith("N"))
    return f"N{n + 1}"


def windings(cover):
    """{label: |winding|} of the cover's circles."""
    return {lbl: abs(m.closure) for lbl, m in cover.components}


def arc(start, end):
    """The arc from the rational start to the rational end."""
    start, end = Fraction(start), Fraction(end)
    den = lcm(start.denominator, end.denominator)
    lo, hi = (x.numerator * (den // x.denominator) for x in (start, end))
    return Arc(den, lo, hi)


def arc_start(a):
    """Where the arc starts, in [0, 1)."""
    return Fraction(a.lo, a.den)


def arc_end(a):
    """Where the arc ends, in [0, 1)."""
    return Fraction(a.hi, a.den)


def arc_length(a):
    """Length of the arc, counterclockwise from start to end."""
    return (arc_end(a) - arc_start(a)) % 1


def arc_contains(a, point):
    """Whether the closed arc contains the point of R/Z."""
    return (Fraction(point) - arc_start(a)) % 1 <= arc_length(a)


def arcs_intersect(a, b):
    """Whether two arcs (or full circles) share a point."""
    if isinstance(a, FullCircle) or isinstance(b, FullCircle):
        return True
    return (
        arc_contains(a, arc_start(b))
        or arc_contains(a, arc_end(b))
        or arc_contains(b, arc_start(a))
        or arc_contains(b, arc_end(a))
    )


def cover_of_arcs(arcs):
    """A cover of the projective line whose circle images are the arcs: a
    winding-0 map climbing from each arc's start to its end, a map of
    winding 1 for each full circle."""
    comps = []
    for i, a in enumerate(arcs):
        if isinstance(a, FullCircle):
            m = PLMap(1, [0], 1)
        else:
            m = PLMap(a.den, [a.lo, a.hi + (a.den if a.hi < a.lo else 0)], 0)
        comps.append((f"C{i + 1}", m))
    return PLCover(tuple(comps), 4, CoverTarget.PROJ_LINE)


def execute(seed, steps):
    """Fold the steps over the seed and canonicalize the outcome.

    The result is whatever the bookkeeping says, admissible or not; plans
    are judged by comparing it against their target.
    """
    for state in execute_states(seed, steps):
        pass
    return state.state().canonical_spec()


def _segment_crossings(u, v, x):
    """Number of lifts x + j strictly inside the segment from u to v."""
    lo, hi = (u, v) if u < v else (v, u)
    count = floor(hi - x) - ceil(lo - x) + 1
    if count <= 0:
        return 0
    if ceil(lo - x) + x == lo:
        count -= 1
    if floor(hi - x) + x == hi:
        count -= 1
    return max(count, 0)


def brute_fiber_count(cover, x):
    """Real preimages of the value x, counted segment by segment."""
    x = Fraction(x)
    return sum(
        _segment_crossings(u, v, x) for _, m in cover.components for u, v in segments(m)
    )


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
    points = sorted({arc_start(a) for a in proper} | {arc_end(a) for a in proper})
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
            if (x - arc_start(arc)) % 1 <= arc_length(arc):
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
            left = (arc_start(a) - arc_start(anchor)) % 1
            right = left + arc_length(a)
            intervals.append((left, right))
            intervals.append((left - 1, right - 1))
        reach = arc_length(anchor)
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


def oracle_type_exists(g, s, a):
    """The existence bounds of a real curve of type (g, s, a): a = 1 takes
    any 0 <= s <= g, a = 0 takes 1 <= s <= g + 1 with s of the parity of g + 1."""
    if a == 1:
        return 0 <= s <= g
    return a == 0 and s % 2 == (g + 1) % 2 and 1 <= s <= g + 1


def oracle_admissibility_failure(g, s, a, target, k, deg):
    """The first failing clause for one raw tuple, or None if admissible.

    The clauses are restated here from scratch, in the order the package
    documents: k >= 2 and a canonical vector (else ValueError), the type
    bounds, the vector's length, then for "P1" the winding sum, parity, the
    zero tail and the separating bound for a = 1, and for "R0" an empty real
    locus and the genus parity.
    """
    deg = tuple(deg)
    if k < 2:
        raise ValueError(f"covering degree must be >= 2, got {k}")
    if list(deg) != sorted(deg, reverse=True) or (deg and deg[-1] < 0):
        raise ValueError(f"degree vector not in canonical sorted form: {deg}")
    if not oracle_type_exists(g, s, a):
        return "weichold"
    if len(deg) != s:
        return "degree_length"
    if target == "P1":
        total = sum(deg)
        if total > k:
            return "sum"
        if (k - total) % 2 != 0:
            return "parity"
        if 0 in deg and total > k - 2:
            return "zero_tail"
        if a == 1 and total > k - 2:
            return "separating"
        return None
    if s != 0:
        return "r0_nonempty_real_locus"
    if (k - g - 1) % 2 != 0:
        return "r0_parity"
    return None


def oracle_admissible_tuples(g_max, k_min, k_max):
    """Admissible raw tuples (g, s, a, target, k, degrees) by nested loops
    over every type that exists, asking oracle_admissibility_failure of each."""
    out = set()
    for g in range(g_max + 1):
        for k in range(k_min, k_max + 1):
            for s in range(g + 2):
                for a in (0, 1):
                    if not oracle_type_exists(g, s, a):
                        continue
                    # Every non-increasing vector of s entries in 0..k, once.
                    for d in itertools.combinations_with_replacement(range(k, -1, -1), s):
                        if oracle_admissibility_failure(g, s, a, "P1", k, d) is None:
                            out.add((g, s, a, "P1", k, d))
                    if oracle_admissibility_failure(g, s, a, "R0", k, ()) is None:
                        out.add((g, s, a, "R0", k, ()))
    return out


def catalog_seeds(g_max, k_max):
    """Every catalog seed of genus <= g_max and degree <= k_max: each
    candidate is kept when the catalog admits it."""
    candidates = []
    for g in range(g_max + 1):
        for s in range(g + 2):
            for a in (0, 1):
                candidates.append(Hyperelliptic(TopType(g, s, a), DegreeVector((0,) * s)))
        candidates.append(Hyperelliptic(TopType(g, 1, 0), DegreeVector((2,))))
        candidates.append(Hyperelliptic(TopType(g, 2, 0), DegreeVector((1, 1))))
        candidates.append(HyperellipticToR0(g))
        for k in range(2, k_max + 1):
            candidates.extend([GenericPencil(g, k), GenericR0Pencil(g, k)])
    for seed in candidates:
        try:
            state = seed_state(seed)
        except SeedNotInCatalog:
            continue
        if state.k <= k_max:
            yield seed, state


def _canonical_state(state):
    """The state with its circles relabeled C1, C2, ... by non-increasing
    winding: states that differ only in labels step alike."""
    windings = sorted((d for _, d in state.components), reverse=True)
    comps = tuple((f"C{i + 1}", d) for i, d in enumerate(windings))
    return LabeledState(state.g, state.a, state.k, state.target, comps)


_BFS_STEPS = (
    ConstructionStep(StepKind.II, Variant.WITH_REAL_RAM),
    ConstructionStep(StepKind.II, Variant.WITHOUT_REAL_RAM),
    ConstructionStep(StepKind.III),
    ConstructionStep(StepKind.IV),
    ConstructionStep(StepKind.V),
)


def reachable_specs(g_max, k_max):
    """{spec tuple: (seed, steps)} for every spec the step language reaches
    from a catalog seed within g <= g_max and k <= k_max, with a shortest
    step path to it.

    A breadth-first search over canonical LabeledStates through apply_step:
    one kind-I step of each variant per distinct winding, plus II (both
    variants), III, IV and V.  No step lowers g or k, so pruning at the box
    is exact.  Every visited state must pass invariant_failure.  Spec tuples
    are (g, s, a, target, k, degrees), as in oracle_admissible_tuples.
    """
    paths = {}
    queue = deque()
    for seed, state in catalog_seeds(g_max, k_max):
        state = _canonical_state(state)
        if state not in paths:
            paths[state] = (seed, ())
            queue.append(state)
    while queue:
        state = queue.popleft()
        seed, steps = paths[state]
        assert state.invariant_failure() is None, (state, seed, steps)
        labels = {d: lbl for lbl, d in reversed(state.components)}
        moves = [
            ConstructionStep(StepKind.I, variant, lbl)
            for lbl in labels.values()
            for variant in (Variant.WITH_REAL_RAM, Variant.WITHOUT_REAL_RAM)
        ]
        for step in moves + list(_BFS_STEPS):
            try:
                nxt = apply_step(state, step)
            except PreconditionViolated:
                continue
            if nxt.g > g_max or nxt.k > k_max:
                continue
            nxt = _canonical_state(nxt)
            if nxt not in paths:
                paths[nxt] = (seed, steps + (step,))
                queue.append(nxt)
    out = {}
    for state, path in paths.items():
        spec = state.canonical_spec()
        key = (spec.top.g, spec.top.s, spec.top.a, spec.target.value, spec.k,
               spec.degrees.entries)
        out.setdefault(key, path)
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


# ---------------------------------------------------------------------------
# The PL surgeries and the fiber sweep in Fraction arithmetic, re-anchoring
# and revalidating every circle map after each surgery.  The package runs
# them on integer lifts over one common denominator; these are the
# reference it must match bit for bit.


def reverse(m):
    """The same circle map with the source traversed backwards; winding negates."""
    xs = [x for _, x in m.breakpoints]
    values = [xs[0] + m.closure] + xs[:0:-1]
    return pl_map(values, -m.closure)


def orient(m):
    """Normalize the orientation so the winding is nonnegative."""
    return reverse(m) if m.closure < 0 else m


def fraction_fiber_profile(cover):
    """fiber_profile in Fraction arithmetic: one difference array over the
    sorted residues of the Fraction breakpoints.  A cover of R0 has no
    target circle, so no intervals."""
    if cover.target is not CoverTarget.PROJ_LINE:
        return []
    crit = sorted({x % 1 for _, m in cover.components for _, x in m.breakpoints})
    if not crit:
        return [(Fraction(0), Fraction(1), 0)]
    index = {c: i for i, c in enumerate(crit)}
    n = len(crit)
    delta = [0] * n
    count = 0
    for _, m in cover.components:
        for u, v in segments(m):
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


def fraction_budget_violations(cover):
    """fiber_budget_violations worded from fraction_fiber_profile: on each
    regular interval, a count over k and a count of the wrong parity."""
    k, bad = cover.k, []
    for a, length, n in fraction_fiber_profile(cover):
        where = f"fiber over ({a}, {a + length})"
        if n > k:
            bad.append(f"{where} has {n} > {k} real points")
        if (k - n) % 2 != 0:
            bad.append(f"{where} has {n} real points, parity differs from {k}")
    return bad


def _rising_segment(m):
    """Index of the widest increasing segment (ties to the earliest)."""
    best, best_span = -1, None
    for i, (u, v) in enumerate(segments(m)):
        if v > u and (best_span is None or v - u > best_span):
            best, best_span = i, v - u
    if best < 0:
        raise ValueError("map has no increasing segment")
    return best


def _splice_wrap(m):
    """Extend one climb by a full extra turn: winding + 1, one more preimage
    of every value."""
    i = _rising_segment(m)
    xs = [x for _, x in m.breakpoints]
    values = xs[: i + 1] + [x + 1 for x in xs[i + 1 :]]
    return pl_map(values, m.closure + 1)


def _splice_fold(m):
    """Splice a backward turn with a fold gap into a climb: winding - 1.

    Outside the small gap every value gains one preimage; inside the gap it
    loses one (the two local sheets become a conjugate pair).  The result
    is orientation-normalized, so a winding-0 circle flips to winding 1.
    """
    i = _rising_segment(m)
    u, v = segments(m)[i]
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


def _new_fold_component(cover):
    """A fresh winding-0 fold over an interval where two more sheets fit."""
    slack = [iv for iv in fraction_fiber_profile(cover) if iv[2] <= cover.k - 2]
    if not slack:
        raise BudgetExceeded("no regular interval has room for two more real sheets")
    a, gap, _ = max(slack, key=lambda iv: (iv[1], -iv[0]))
    return pl_map([a + gap / 4, a + 3 * gap / 4], 0)


def fraction_surgery(cover, step):
    """Apply the PL surgery mirroring one construction step.

    Kinds I, II and III operate on the real locus; IV and V have no real
    picture and only update the sheet budget.  Sites are chosen canonically,
    so realizations are deterministic.  The step is a single step, not a
    record of several.
    """
    if step.repeat != 1:
        raise ValueError("fraction_surgery takes single steps; expand the record first")
    kind, variant = step.kind, step.variant
    if kind in (StepKind.I, StepKind.II, StepKind.III, StepKind.IV):
        if cover.target is not CoverTarget.PROJ_LINE:
            raise PreconditionViolated(kind, "requires a covering of the projective line")
    if kind is StepKind.I:
        if not cover.components:
            raise PreconditionViolated(kind, "needs at least one real circle")
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


def expand(steps):
    """The plan's records written out as single steps: a record of repeat m
    becomes m records of repeat 1."""
    out = []
    for record in steps:
        one = ConstructionStep(record.kind, record.variant, record.placement)
        out.extend([one] * record.repeat)
    return out


def record_index(steps, j):
    """The index of the record that holds step j of expand(steps)."""
    for i, record in enumerate(steps):
        j -= record.repeat
        if j < 0:
            return i
    raise IndexError("step index past the end of the plan")


def fraction_seed_cover(seed):
    """The canonical realization of a seed, circle by circle of its
    seed_state: a circle of winding d > 0 has lifts [0, d/2] and closure d,
    the i-th of s circles of winding 0 has lifts [(4i + 1)/4s, (4i + 3)/4s]."""
    state = seed_state(seed)
    s = len(state.components)
    comps = tuple(
        (lbl, pl_map([0, Fraction(d, 2)], d) if d else
         pl_map([Fraction(4 * i + 1, 4 * s), Fraction(4 * i + 3, 4 * s)], 0))
        for i, (lbl, d) in enumerate(state.components)
    )
    return PLCover(comps, state.k, state.target)


def fraction_realize(seed, steps):
    """Fold the PL surgeries of a plan of single steps over
    fraction_seed_cover(seed); expand a plan of records first."""
    cover = fraction_seed_cover(seed)
    for i, step in enumerate(steps):
        try:
            cover = fraction_surgery(cover, step)
        except PreconditionViolated as exc:
            raise PreconditionViolated(exc.kind, exc.reason, step_index=i) from None
    return cover


# ---------------------------------------------------------------------------
# The node smoothings in Fraction arithmetic, rebuilding and revalidating
# the touched circle maps after each smoothing.  The package writes what
# they produce for the covnum builds in closed form (see below).


def _class_crossings(m: PLMap, c: Fraction) -> List[Tuple[int, Fraction, int]]:
    """Crossings of the residue class of c in traversal order.

    Returns (segment index, crossing lift, direction) with direction +1 for
    climbs.  Within one segment crossings are ordered along the traversal.
    """
    c = Fraction(c)
    out: List[Tuple[int, Fraction, int]] = []
    for i, (u, v) in enumerate(segments(m)):
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


def fraction_merge_components(
    cover: PLCover, label_a: str, label_b: str, t: Fraction, h: Optional[Fraction] = None
) -> PLCover:
    """Smooth a node joining two winding-0 circles over the common value t.

    Both circles are cut at a climb through t and cross-joined with folds
    at t -/+ h; the fibers over the gap lose the two glued sheets, nothing
    else changes.  The merged circle keeps label_a.
    """
    ma, mb = map_of(cover, label_a), map_of(cover, label_b)
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
    ua_lo, ua_hi = segments(ma)[ia]
    ub_lo, ub_hi = segments(mb)[ib]
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


def fraction_fold_split(
    cover: PLCover, label: str, c: Fraction, h: Optional[Fraction] = None
) -> Tuple[PLCover, str]:
    """Smooth a self-node of one winding-0 circle at a doubly covered value c.

    The circle is cut at two consecutive crossings of c bounding an
    excursion above c; the excursion closes into a new circle folding at
    c + h, the rest folds at c - h.  Returns the new cover and the label of
    the split-off circle.
    """
    m = map_of(cover, label)
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
    segs = segments(m)
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
# The covnum builds as node smoothings of fold-arc chains.  The package
# writes the resulting layouts in closed form; these loops are the
# reference it must match bit for bit.


def _fraction_chain(m):
    """m fold arcs, arc j from j/m - o to (j + 1)/m + o with o = 1/(4m)."""
    o = Fraction(1, 4 * m)
    return [(f"C{j + 1}", pl_map([Fraction(j, m) - o, Fraction(j + 1, m) + o], 0)) for j in range(m)]


def _fraction_m_max(g):
    """Maximal real locus with covering number g + 1: for even g the chain
    of g + 2 arcs with C1 and C2 merged over 1/m; for odd g the chain of
    g + 1 arcs plus an arc nested over the middle half of arc 0's exclusive
    region, merged into C1 over 1/(2m)."""
    if g % 2 == 0:
        m = g + 2
        cover = PLCover(tuple(_fraction_chain(m)), 4, CoverTarget.PROJ_LINE)
        return fraction_merge_components(cover, "C1", "C2", Fraction(1, m))
    m = g + 1
    nested = (f"C{m + 1}", pl_map([Fraction(3, 8 * m), Fraction(5, 8 * m)], 0))
    cover = PLCover(tuple(_fraction_chain(m)) + (nested,), 4, CoverTarget.PROJ_LINE)
    return fraction_merge_components(cover, "C1", nested[0], Fraction(1, 2 * m))


def _fraction_m_split(g, kcov):
    """The kcov - 1 build with its first circle split g + 1 - kcov times,
    each time the circle split off last, at evenly spaced doubly covered
    values with half-gap q."""
    cover = _fraction_m_max(kcov - 1)
    n = g - kcov + 1
    m = kcov + kcov % 2
    q = Fraction(1, 16 * m * (n + 1))
    start = Fraction(1 + kcov % 2, m) - Fraction(1, 8 * m)
    label = "C1"
    for i in range(1, n + 1):
        cover, label = fraction_fold_split(cover, label, start + 4 * i * q, q)
    return cover


def _fraction_separating(g, s, kcov):
    """A chain of kcov + b arcs with C2..C(b + 1) merged into C1 one by one,
    2b = g + 1 - s, plus s - kcov arcs nested in arc 0's exclusive region."""
    b = (g + 1 - s) // 2
    m = kcov + b
    extra = s - kcov
    comps = _fraction_chain(m)
    den = 8 * m * extra
    comps += [
        (f"C{m + 1 + i}", pl_map([Fraction(2 * extra + 4 * i + 1, den),
                                  Fraction(2 * extra + 4 * i + 3, den)], 0))
        for i in range(extra)
    ]
    cover = PLCover(tuple(comps), 4, CoverTarget.PROJ_LINE)
    for j in range(b):
        cover = fraction_merge_components(cover, "C1", f"C{j + 2}", Fraction(j + 1, m))
    return cover


def fraction_build_covnum(target):
    """The cover covering4.build_covnum builds for the target, by merging
    and splitting circles with fraction_merge_components and
    fraction_fold_split."""
    g, s, kcov = target.top.g, target.top.s, target.kcov
    if target.top.a == 1:
        g -= 1 if (g - s) % 2 == 0 else 2
    if s < g + 1:
        return _fraction_separating(g, s, kcov)
    if kcov < s:
        return _fraction_m_split(g, kcov)
    return _fraction_m_max(g)


# ---------------------------------------------------------------------------
# Reference wire objects: the documents the library's text writers print,
# built as dicts of lists.  json.dumps(obj, separators=(",", ":")) of each
# must equal the writer's text.


def spec_to_json(spec):
    """The spec's wire object; the target read as its CoverTarget member."""
    return {
        "g": spec.top.g,
        "s": spec.top.s,
        "a": spec.top.a,
        "target": CoverTarget(spec.target).value,
        "k": spec.k,
        "deg": list(spec.degrees.entries),
    }


def cover_to_json(cover):
    """The cover's wire object, every ratio printed from its Fraction in
    lowest terms as "p/q", whole numbers included."""

    def ratio(f):
        return f"{f.numerator}/{f.denominator}"

    return {
        "target": CoverTarget(cover.target).value,
        "k": cover.k,
        "components": [
            {
                "label": lbl,
                "winding": m.closure,
                "breakpoints": [
                    [ratio(Fraction(i, len(m.xs))), ratio(Fraction(x, m.den))]
                    for i, x in enumerate(m.xs)
                ],
            }
            for lbl, m in cover.components
        ],
    }
