"""Piecewise-linear simulation of the real locus of a covering.

Each real circle of the source is a piecewise-linear circle map: a cyclic
sequence of breakpoints (t, x) where t parameterizes the source circle with
period 1 and x is a lift of the image to the real line, closed up by
x(t0 + 1) = x0 + w for the integer winding w.  Segments between breakpoints
have nonzero rational slope, so folds happen exactly at breakpoints.

Only the cyclic sequence of breakpoint lifts matters for windings, fibers
and image arcs; the t coordinates are equally spaced, t = i/n.  A PLMap
keeps its lifts as integers over its least denominator and builds its
Fraction breakpoints only when read.  The fiber sweep and plan steps
share one integer form over a common denominator per cover: per circle its
first lift and its segment spans.  The sweep walks the spans; steps
rewrite them, refining the denominator in strides of 2**30.
The wire formats print "p/q" straight from the integers, each t = i/n
from one table per breakpoint count.

A PLCover bundles the circle maps with the sheet budget k of the covering.
Sheets not accounted for by real preimages come in conjugate pairs, whence
the invariant: at every regular value the number of real preimages is at
most k and has the parity of k (coverings of the projective line).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm
from operator import eq, neg, sub
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .arcs import FULL_CIRCLE, Arc, ArcLike
from .constructions import (
    BaseSeed,
    ConstructionStep,
    LabeledState,
    Variant,
    _Replay,
    runs,
    seed_state,
)
from .topology import CoverTarget


class BudgetExceeded(Exception):
    """A surgery would force more real preimages than the sheet budget allows."""


@dataclass(frozen=True, slots=True, init=False)
class PLMap:
    """Piecewise-linear circle map: breakpoint lifts xs / den, breakpoint i
    of n at t = i/n, closed up by the integer winding closure.

    PLMap(den, xs, closure) refuses a den that is not a positive int, a
    closure that is not an int, a map without breakpoints or with a
    zero-slope segment; then _normalize re-anchors the lifts so the lowest
    lies in [0, 1) and reduces them to their least common denominator.
    The Fraction view breakpoints is built when read, not kept.

    PLMap._unchecked runs only _normalize, for the two callers whose lifts
    pass the refusals by construction, where checking them again was most
    of the cost of building a map: covering4.build_covnum, whose closed
    forms have den = 8 m h > 0, closure 0 and distinct consecutive lifts,
    and _decode, whose span forms have no zero span (see there).
    """

    den: int
    xs: Tuple[int, ...]
    closure: int

    def __init__(self, den: int, xs: Sequence[int], closure: int):
        if type(den) is not int or den <= 0:
            raise ValueError("den must be a positive int")
        if type(closure) is not int:
            raise ValueError("closure must be an int")
        if not xs:
            raise ValueError("a circle map needs at least one breakpoint")
        if any(map(eq, xs, xs[1:])) or xs[-1] == xs[0] + closure * den:
            raise ValueError("zero-slope segment: folds must be isolated breakpoints")
        self._normalize(den, xs, closure)

    @classmethod
    def _unchecked(cls, den: int, xs: Sequence[int], closure: int) -> "PLMap":
        """The map PLMap(den, xs, closure) builds, for arguments known to
        pass its refusals, which are not checked again."""
        m = object.__new__(cls)
        m._normalize(den, xs, closure)
        return m

    def _normalize(self, den: int, xs: Sequence[int], closure: int) -> None:
        # Shifting by a multiple of den keeps the gcd, so one pass both
        # shifts and reduces.  Tuples are built from lists: tuple() of a
        # generator starts at ten slots and shrinks, and the shrunk tuples
        # pile up on the interpreter's tuple free lists, which shows as peak
        # memory.
        shift = min(xs) // den * den
        g = gcd(den, *xs)
        if shift or g != 1:
            den, xs = den // g, tuple([(x - shift) // g for x in xs])
        else:
            xs = tuple(xs)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "closure", closure)

    @property
    def breakpoints(self) -> Tuple[Tuple[Fraction, Fraction], ...]:
        n, den = len(self.xs), self.den
        return tuple((Fraction(i, n), Fraction(x, den)) for i, x in enumerate(self.xs))


@dataclass(frozen=True)
class PLCover:
    """Realization of a covering's real locus: labeled circle maps plus budget."""

    components: tuple[tuple[str, PLMap], ...]
    k: int
    target: CoverTarget


def critical_values(cover: PLCover) -> List[Fraction]:
    """Sorted residues of all breakpoint lifts, the starts of the
    fiber_profile's intervals; fibers are constant in between.  A cover of
    R0, or one without circles, has none."""
    den, profile = _profile(cover)
    return [Fraction(a, den) for a, _, _ in profile] if cover.components else []


# ---------------------------------------------------------------------------
# The integer form, over one common den per cover: per circle its first
# lift x0 and its segment spans d[i] = x[i+1] - x[i], the closing one
# included, so sum(d) == winding * den.  A PLCover enters it through
# _circles; a realized form leaves it through _decode.


def _circles(cover: PLCover) -> Tuple[int, List[Tuple[int, List[int]]]]:
    """The cover's circles in the integer form, over the least common
    denominator of its maps.  A list in the cover's order, so circles that
    repeat a label all count."""
    den = lcm(*[m.den for _, m in cover.components])
    circles = []
    for _, m in cover.components:
        xs = list(m.xs) if m.den == den else [x * (den // m.den) for x in m.xs]
        circles.append((xs[0], list(map(sub, xs[1:] + [xs[0] + m.closure * den], xs))))
    return den, circles


def _tally(den: int, circles) -> Tuple[int, dict]:
    """The fiber counts of circles (x0, d) over den as (base, delta): base
    is the count just below residue 0, and delta maps every breakpoint
    residue to the change in count past it, so the interval starting at
    residue r counts base plus the deltas at residues <= r.

    A count changes only at a fold: by +2 past a fold's bottom, where a
    falling span meets a climbing one, by -2 past its top, where a climbing
    span meets a falling one, not at all past a monotone breakpoint.  A
    span from x to x + t passes below residue 0 once per multiple of den in
    between, |(x + t) // den - x // den| times.  One walk per circle, adding
    its spans to a running lift, with one floor division per breakpoint."""
    base, delta = 0, {}
    get = delta.get
    for x, d in circles:
        s, q = d[-1], x // den
        for t in d:
            r = x - q * den
            if s < 0:
                delta[r] = get(r, 0) + 2 if t > 0 else get(r, 0)  # a fold's bottom
            else:
                delta[r] = get(r, 0) - 2 if t < 0 else get(r, 0)  # a fold's top
            x += t
            p = x // den
            base += p - q if p > q else q - p
            q, s = p, t
    return base, delta


def _sweep(den: int, circles) -> List[Tuple[int, int, int]]:
    """fiber_profile on the integer form: (start, length, count) with start
    and length in units of 1 / den, laid from the _tally in residue order."""
    base, delta = _tally(den, circles)
    crit = sorted(delta)
    if not crit:
        return [(0, den, 0)]
    out, count = [], base
    for a, b in zip(crit, crit[1:] + [crit[0] + den]):
        count += delta[a]
        out.append((a, b - a, count))
    return out


def _profile(cover: PLCover) -> Tuple[int, List[Tuple[int, int, int]]]:
    """The cover's _sweep with its den; a cover of R0 has no target circle,
    so no intervals.  A target given by its string value is read as the
    CoverTarget member, and any other value raises ValueError.  Every fiber
    view reads the target here, but fiber_budget_violations, which reads it
    the same way before its tally."""
    if CoverTarget(cover.target) is not CoverTarget.PROJ_LINE:
        return 1, []
    den, circles = _circles(cover)
    return den, _sweep(den, circles)


def fiber_profile(cover: PLCover) -> List[Tuple[Fraction, Fraction, int]]:
    """Exact fiber count on every maximal regular interval of the target circle.

    Returns (start, length, count) per interval, in the order of
    critical_values: the intervals start at the critical values and tile
    the circle.  Counts change only at folds: past a fold's bottom the
    fiber gains two points, past its top it loses two, and a monotone
    breakpoint changes nothing.  So one pass over the B breakpoints gives
    the count just below 0 and the change at every critical value, and one
    sort and prefix sum give every count in O(B log B); every count has the
    parity of the total winding.  The pass walks each circle's segment
    spans over one common denominator.  A cover of R0 has no target circle,
    so no intervals.
    """
    den, profile = _profile(cover)
    return [(Fraction(a, den), Fraction(gap, den), n) for a, gap, n in profile]


def regular_samples(cover: PLCover) -> List[Fraction]:
    """One regular value per maximal regular interval, its midpoint; sorted."""
    return sorted((a + length / 2) % 1 for a, length, _ in fiber_profile(cover))


def fiber_budget_violations(cover: PLCover) -> List[str]:
    """Violations of the budget/parity invariant on any regular interval;
    empty when clean.

    The tally answers a clean cover without laying its intervals.  A cover
    of R0 has no target circle, so no interval to check; it is answered
    before any span is built.  A target given by its string value is read
    as the CoverTarget member, and any other value raises ValueError.
    """
    if CoverTarget(cover.target) is not CoverTarget.PROJ_LINE:
        return []
    k = cover.k
    den, circles = _circles(cover)
    base, delta = _tally(den, circles)
    highest = base + max(accumulate(map(delta.get, sorted(delta)), initial=0))
    if (k - base) % 2 == 0 and highest <= k:
        return []
    bad = []
    for a, gap, n in _sweep(den, circles):
        if n > k or (k - n) % 2 != 0:
            where = f"fiber over ({Fraction(a, den)}, {Fraction(a + gap, den)})"
            if n > k:
                bad.append(f"{where} has {n} > {k} real points")
            if (k - n) % 2 != 0:
                bad.append(f"{where} has {n} real points, parity differs from {k}")
    return bad


def image_ends(m: PLMap) -> Optional[Tuple[int, int]]:
    """The image of m's circle as its lowest and highest lift (lo, hi)
    over m.den, with 0 <= lo < hi < lo + m.den; None when the image is the
    whole target circle: a nonzero winding, or lifts spanning den or more."""
    lo, hi = min(m.xs), max(m.xs)
    return None if m.closure != 0 or hi - lo >= m.den else (lo, hi)


def image_arcs(cover: PLCover) -> List[Tuple[str, ArcLike]]:
    """The image of each circle: the whole target circle, or a proper arc."""
    out: List[Tuple[str, ArcLike]] = []
    for lbl, m in cover.components:
        ends = image_ends(m)
        out.append((lbl, FULL_CIRCLE if ends is None else Arc(m.den, *ends)))
    return out


# ---------------------------------------------------------------------------
# Surgeries mirroring the symbolic constructions, on the span form.
# The step rules and the windings live in constructions._Replay; these are
# the geometry.

_STRIDE = 2**30  # one CPython digit; see _refine
_RAM = Variant.WITH_REAL_RAM


class _Spans:
    """The form plan steps run on: replay, the symbolic working state
    (constructions._Replay) of the cover's windings, k and target, plus den
    and per label its circle (x0, d) in the integer form.  A splice
    rewrites a few spans, not every later lift.  Holding the state rather
    than subclassing it keeps the rules' attribute reads on one type in
    both interpreters."""

    __slots__ = ("replay", "den", "spans")

    def __init__(self, replay: _Replay, den: int, spans: dict):
        self.replay, self.den, self.spans = replay, den, spans


def _cover_spans(cover: PLCover) -> _Spans:
    """The span form of a cover, over the common den of its maps."""
    # The rules read neither the genus nor a, which a PLCover does not have.
    windings = tuple([(lbl, m.closure) for lbl, m in cover.components])
    replay = _Replay(LabeledState(0, 0, cover.k, cover.target, windings))
    den, circles = _circles(cover)
    return _Spans(replay, den, dict(zip([lbl for lbl, _ in windings], circles)))


def _decode(form: _Spans) -> PLCover:
    """The cover of the span form: each circle's lifts summed up from x0,
    closed up by its spans' own winding sum(d) / den, re-anchored and
    reduced as PLMaps.

    The maps skip PLMap's refusals (PLMap._unchecked), which the form
    cannot break: den is a positive int, the lcm of positive dens times
    strides; every circle has two spans or more, so a breakpoint or more;
    and no span is zero, so no segment has zero slope.  A seed writes
    d * den/2 twice for d > 0 or 2q, -2q with q >= 1, and a map read in
    writes the nonzero spans of its valid lifts.  No surgery writes a zero
    span: a fold writes a, h/4 - den, a, with a = (4w - h)/8 >= 1 from
    w >= h > 0, and h/4 - den < 0 from h <= 2 den; a splice widens a
    positive climb; a new fold writes 2q, -2q with q >= 1; III writes
    den/2 twice; a refinement scales and a reversal negates every span."""
    replay, den = form.replay, form.den
    comps = [
        (lbl, PLMap._unchecked(den, list(accumulate(d[:-1], initial=x0)), sum(d) // den))
        for lbl, (x0, d) in form.spans.items()
    ]
    return PLCover(tuple(comps), replay.k, replay.target)


def _seed_spans(seed: BaseSeed) -> _Spans:
    """The span form of the seed's canonical realization, built circle by
    circle of its seed_state with no PLMap: a circle of winding d > 0 is a
    monotone wrap climbing d/2 twice (the (2) and (1, 1) double coverings),
    the i-th of s circles of winding 0 folds over [(4i + 1)/4s, (4i + 3)/4s].
    Pencil seeds and coverings of R0 have no real circles and contribute
    only their sheet budget.  A seed outside the catalog raises
    SeedNotInCatalog."""
    state = seed_state(seed)
    comps, s = state.components, state.s
    den = lcm(*[2 // gcd(2, d) if d else 4 * s for _, d in comps])
    spans = {}
    for i, (lbl, d) in enumerate(comps):
        if d:
            spans[lbl] = (0, [d * den // 2] * 2)
        else:
            q = den // (4 * s)
            spans[lbl] = ((4 * i + 1) * q, [2 * q, -2 * q])
    return _Spans(_Replay(state), den, spans)


def _refine(form: _Spans) -> None:
    """Multiply den, every x0 and every span by the stride: a step needs den
    times 8 at most, so this O(B) rescale runs about once in ten single
    folds, and at most once per level of a fold run (see _fold)."""
    f = _STRIDE
    form.den *= f
    form.spans = {lbl: (x0 * f, [x * f for x in d]) for lbl, (x0, d) in form.spans.items()}


def _splice(form: _Spans, label: str, turns: int) -> None:
    """Widen the widest climb of the circle (ties to the earliest) by turns
    full turns.  A wrap leaves its climb strictly the widest, so m single
    wraps all land on the climb the first one takes: a run of wraps is one
    splice, d[i] += m * den, and costs one scan of the spans."""
    d = form.spans[label][1]
    w = max(d)
    if w <= 0:
        raise ValueError("map has no increasing segment")
    d[d.index(w)] += turns * form.den


def _fold(form: _Spans, label: str, before: int, m: int) -> None:
    """Apply m folds to the circle at winding before, level by level.

    A fold turns the widest climb w (ties to the earliest) into a backward
    turn whose small gap loses a preimage where every other value gains
    one: u -> u + w becomes u -> c - h/8 -> c + h/8 - den -> u + w - den,
    with c = u + w/2 and h = min(w, 2 den), that is spans a, h/4 - den < 0
    and a again, with a = (4w - h)/8 < w/2.  All three are narrower than w,
    so once the earliest climb of width w has folded, the widest climb is
    the next one of width w.  Folds that do not pass winding 0 therefore
    take every climb equal to max(d), earliest first and as many as are
    still owed, in one rebuild of the spans, then the next max, and so on:
    a run of n folds costs about log2(n) scans.  Whether den must be
    refined depends only on w and den, and a refinement scales every span
    alike, so it happens at most once per level.

    A fold at winding <= 0, which only hand-written plans make, is a level
    of one fold, after which the circle is read backwards so that its
    winding is 1 - before: an O(B) pass."""
    while m:
        n = min(m, before) if before > 0 else 1
        m, before = m - n, before - n
        x0, d = form.spans[label]
        while n:
            w = max(d)
            if w <= 0:
                raise ValueError("map has no increasing segment")
            h = min(w, 2 * form.den)
            if (4 * w - h) % 8:  # 8 | 4w - h implies 4 | h
                _refine(form)
                x0, d = form.spans[label]
                w, h = w * _STRIDE, h * _STRIDE
            a = (4 * w - h) // 8
            folded = [a, h // 4 - form.den, a]
            i = d.index(w)
            j = min(n, d.count(w)) if n > 1 else 1
            n -= j
            if j == 1:  # in place: spares a lone fold a copy of the spans
                d[i : i + 1] = folded
                continue
            out, start = d[:i] + folded, i + 1
            for _ in range(j - 1):
                i = d.index(w, start)
                out += d[start:i]
                out += folded
                start = i + 1
            out += d[start:]
            d = out
            form.spans[label] = (x0, d)
        if before < 0:
            form.spans[label] = (x0 + before * form.den, list(map(neg, reversed(d))))
            before = -before


def _new_folds(form: _Spans, labels: List[str]) -> None:
    """Add a winding-0 fold per label, each a quarter of the way into the
    widest regular interval where two more sheets fit (ties to the lowest
    start), back out a quarter before its end.  A fold adds two sheets
    between its ends and splits its interval in three, so the cover is
    swept once and the intervals are then split in a heap keyed by
    (-gap, start), keys the distinct starts make unique; a cover with no
    breakpoints has no true interval ends, so the first fold there sweeps
    again.  The sweep is O(B log B) in the cover's B breakpoints; planner
    plans open their new folds before any fold run (planner.plan), so it
    reads four breakpoints in Case5 and in Case4 with one nonzero circle,
    whatever k is."""
    room, heap = form.replay.k - 2, None
    for label in labels:
        if heap is None:
            ends = bool(form.spans)
            profile = _sweep(form.den, form.spans.values())
            heap = [(-gap, a, n) for a, gap, n in profile if n <= room]
            heapify(heap)
        if not heap:
            raise BudgetExceeded("no regular interval has room for two more real sheets")
        gap, a, n = heappop(heap)
        gap = -gap
        if gap % 4:
            _refine(form)
            a, gap = a * _STRIDE, gap * _STRIDE
            heap = [(g * _STRIDE, b * _STRIDE, c) for g, b, c in heap]  # still a heap
        q = gap // 4
        form.spans[label] = (a + q, [2 * q, -2 * q])
        if not ends:
            heap = None
            continue
        den = form.den
        heappush(heap, (-q, a, n))
        heappush(heap, (-q, (a + 3 * q) % den, n))
        if n + 2 <= room:
            heappush(heap, (-2 * q, (a + q) % den, n + 2))


def _step(form: _Spans, step: ConstructionStep, index: Optional[int] = None) -> None:
    """Apply one record to the span form in place.  _Replay.step checks the
    rules and updates the windings, k and labels once for the whole record;
    this adds only the geometry: one splice for a run of wraps, a fold run
    applied level by level, or a new fold or wrap per circle the record
    creates.  A refusal raises before any span changes."""
    label = step.placement  # kind I only
    replay = form.replay
    if label is not None:
        before = replay.windings.get(label)
        replay.step(step, index)
        if step.variant is _RAM:
            _fold(form, label, before, step.repeat)
        else:
            _splice(form, label, step.repeat)
        return
    labels = replay.step(step, index)
    if labels is None:
        return
    if step.variant is _RAM:  # II/ram
        _new_folds(form, labels)
        return
    if form.den % 2:  # III: monotone wraps over half the circle
        _refine(form)
    for label in labels:
        form.spans[label] = (0, [form.den // 2] * 2)


def surgery(cover: PLCover, step: ConstructionStep) -> PLCover:
    """Apply the PL surgeries mirroring one construction record, its repeat
    equal steps.

    The record runs on the symbolic working state of the cover's windings, so
    its rules, refusals, windings and new labels are apply_step's.  Kinds
    I, II and III operate on the real locus; IV and V have no real picture
    and only update the sheet budget.  Sites are chosen canonically, so
    realizations are deterministic.  A cover whose circles repeat a label
    raises ValueError.
    """
    form = _cover_spans(cover)
    _step(form, step)
    return _decode(form)


# ---------------------------------------------------------------------------
# Realization of plans.


def realize(seed: BaseSeed, steps: Sequence[ConstructionStep]) -> PLCover:
    """Fold the PL surgeries of a plan over its seed realization; with no
    steps, the seed's canonical realization.

    The span form starts from the seed's seed_state, with no PLMap built
    (see _seed_spans).  Each record runs the symbolic step on the form's
    state once, so the windings and k of the result are the symbolic ones,
    then rewrites the spans at its sites, refining den by a stride of 2**30
    where a fold needs it.  A run of m wraps is one splice, d[i] += m * den;
    a run of m folds rebuilds its circle's spans once per width it folds,
    about log2(m) times (see _fold); a run of new folds sweeps the cover
    once and splits its intervals in a heap.  A planner plan of B
    breakpoints thus realizes in O(B log B) steps on the integers.
    Consecutive equal records are one run (constructions.runs), so a plan
    written one record per step gets the same splices.  The result is
    decoded, at its least denominator, once at the end (see _decode).  A
    refused record raises PreconditionViolated carrying its index, the
    first of its run.
    """
    form = _seed_spans(seed)
    for i, step in runs(steps):
        _step(form, step, i)
    return _decode(form)


# ---------------------------------------------------------------------------
# Wire formats: rationals as strings "p/q" in lowest terms, printed from
# the integer lifts.


def _ratios(ps: Iterable[int], q: int) -> Iterator[str]:
    """"p/q" in lowest terms for each p of ps over the one denominator q."""
    # gcd(p, q) = 2^min(v2(p), v2(q)) * gcd(p, odd part of q), with q's
    # power of two found once.  Lift denominators grow only by powers of
    # two, so their odd part stays small, and this skips a quadratic
    # big-integer gcd per p.
    v = (q & -q).bit_length() - 1
    odd = q >> v
    for p in ps:
        g = gcd(p, odd) << (min((p & -p).bit_length() - 1, v) if p else v)
        yield f"{p // g}/{q // g}"


def cover_text(cover: PLCover) -> Iterator[str]:
    """The cover's wire document as compact JSON text, in chunks: a head,
    one chunk per circle, then the close.

        {"target": "P1"|"R0", "k": int,
         "components": [{"label": str, "winding": int,
                         "breakpoints": [["i/n", "p/q"], ...]}, ...]}

    Every refusal raises ValueError here, at the call, before any chunk: a
    target that is not a CoverTarget value, and an integer past Python's
    digit limit for str().  So a pre-pass proves each printed integer
    short enough: k is printed into the head; a winding, a map's den and
    its highest lift (the lowest lies in [0, den)) by their bit lengths.
    A reduced "p/q" is no longer than its lift over den, so only a map
    whose den or highest lift could pass the limit has its ratios reduced
    in the pre-pass, where they raise if they do.  Each n of a t = i/n
    counts breakpoints held in memory, far below the limit.
    """
    head = f'{{"target":"{CoverTarget(cover.target).value}","k":{cover.k},"components":['
    reduced = {}
    limit = sys.get_int_max_str_digits()
    if limit:  # 0 is no limit
        bits = limit * 100_000 // 30_103  # 2**bits < 10**limit, as log10(2) < 0.30103
        for i, (_, m) in enumerate(cover.components):
            if m.closure.bit_length() > bits:
                str(m.closure)  # raises past the limit
            if m.den.bit_length() > bits or max(m.xs).bit_length() > bits:
                reduced[i] = list(_ratios(m.xs, m.den))
    return _cover_chunks(cover, head, reduced)


def _cover_chunks(cover: PLCover, head: str, reduced: dict) -> Iterator[str]:
    yield head
    ts = {}  # the t strings i/n of every n in the cover, one table each
    sep = ""
    for i, (lbl, m) in enumerate(cover.components):
        n = len(m.xs)
        t = ts.get(n)
        if t is None:
            t = ts[n] = list(_ratios(range(n), n))
        xs = reduced.get(i)
        if xs is None:
            xs = _ratios(m.xs, m.den)
        points = '"],["'.join(map('","'.join, zip(t, xs)))
        yield f'{sep}{{"label":{_quote(lbl)},"winding":{m.closure},"breakpoints":[["{points}"]]}}'
        sep = ","
    yield "]}"


def fiber_csv(cover: PLCover) -> str:
    """The fiber_profile as CSV: per regular interval its midpoint and fiber
    count, sorted by midpoint, under the header x,fiber_count.  A cover of
    R0 has no target circle, so it has no rows."""
    den, profile = _profile(cover)
    period = 2 * den  # midpoints in units of 1 / (2 den)
    rows = sorted(((2 * a + gap) % period, n) for a, gap, n in profile)
    xs = _ratios((x for x, _ in rows), period)
    return "x,fiber_count\n" + "".join(f"{x},{n}\n" for x, (_, n) in zip(xs, rows))
