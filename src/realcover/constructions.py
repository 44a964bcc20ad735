"""The five covering constructions as symbolic operators on labeled state.

Each construction smooths a nodal curve built from an existing covering and
changes (g, s, a, k) and the winding numbers by a fixed delta.  Kinds I and
II come in two flavours depending on the sign of the smoothing parameter:
with real ramification (a fold appears on the real locus) or without (the
real locus is untouched near the node).

Delta table, per (kind, variant):

    I/ram     g+0  k+1  s+0  placed winding d -> |d-1|
    I/noram   g+0  k+1  s+0  placed winding d -> d+1
    II/ram    g+1  k+0  s+1  new circle with winding 0
    II/noram  g+1  k+0  s+0  a -> 1
    III       g+1  k+1  s+1  new circle with winding 1
    IV        g+1  k+2  s=0 unchanged (target P1, no real points)
    V         g+1  k+1  s=0 unchanged (target R0)

The absolute value in I/ram comes from re-orienting the deformed circle
so its winding stays nonnegative: at winding 0 the fold gives winding 1.
A record of m equal steps applies m times each delta, in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Iterator, List, Optional, Sequence, Tuple, Union, get_args

from .topology import (
    CoverSpec,
    CoverTarget,
    DegreeVector,
    TopType,
    check_deg_field,
    check_int_fields,
    weichold_admissible,
)


class StepKind(str, Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"


class Variant(str, Enum):
    WITH_REAL_RAM = "ram"
    WITHOUT_REAL_RAM = "noram"


class SeedNotInCatalog(ValueError):
    """The requested base covering is not one the catalog guarantees to exist."""


class PreconditionViolated(Exception):
    """A construction step was applied to a state that does not support it."""

    def __init__(self, kind: StepKind, reason: str, step_index: Optional[int] = None):
        self.kind = kind
        self.reason = reason
        self.step_index = step_index
        at = "" if step_index is None else f" (step {step_index})"
        super().__init__(f"construction {kind.value}{at}: {reason}")


@dataclass(frozen=True, slots=True)
class ConstructionStep:
    """A run of repeat applications of one construction: kind, smoothing
    variant, placement.

    Kind I acts on a named circle (placement is its label); kind II needs a
    variant but no placement; kinds III, IV, V take neither.  A plan holds
    one record per run of equal steps, so its length does not grow with k.
    """

    kind: StepKind
    variant: Optional[Variant] = None
    placement: Optional[str] = None
    repeat: int = 1

    def __post_init__(self):
        kind = self.kind
        if type(self.repeat) is not int or self.repeat < 1:
            raise ValueError("repeat must be a positive integer")
        if kind in _VARIANT_KINDS:
            if self.variant is None:
                raise ValueError(f"construction {kind.value} requires a variant")
        elif self.variant is not None:
            raise ValueError(f"construction {kind.value} takes no variant")
        if kind is StepKind.I:
            if self.placement is None:
                raise ValueError("construction I requires a placement label")
        elif self.placement is not None:
            raise ValueError(f"construction {kind.value} takes no placement")


_VARIANT_KINDS = (StepKind.I, StepKind.II)


@dataclass(frozen=True, slots=True)
class LabeledState:
    """Covering state with individually labeled real circles.

    Labels are distinct opaque ids in creation order ("C1".. at seed time,
    "N1".. for circles created by steps); they let plans address a specific
    circle even though the canonical degree vector forgets the ordering.
    """

    g: int
    a: int
    k: int
    target: CoverTarget
    components: tuple[tuple[str, int], ...]

    @property
    def s(self) -> int:
        return len(self.components)

    def canonical_spec(self) -> CoverSpec:
        degrees = DegreeVector.canonical(d for _, d in self.components)
        return CoverSpec(TopType(self.g, self.s, self.a), self.target, self.k, degrees)

    def invariant_failure(self) -> Optional[str]:
        """Check the state invariants of _Replay.invariant_failure; None
        when they hold.  A state whose circles repeat a label raises
        ValueError."""
        return _Replay(self).invariant_failure()


# ---------------------------------------------------------------------------
# Base seeds: coverings the plans start from, taken as existing.


@dataclass(frozen=True, slots=True)
class Hyperelliptic:
    """Double covering of P1 by a curve of the given type.

    Catalog of allowed winding patterns: (2) on a separating curve with one
    circle, (1, 1) on a separating curve with two circles, or all zeros on
    any admissible type.
    """

    top: TopType
    degrees: DegreeVector


@dataclass(frozen=True, slots=True)
class HyperellipticToR0:
    """Double covering of the anisotropic conic; exists for odd genus."""

    g: int


@dataclass(frozen=True, slots=True)
class GenericPencil:
    """Base-point-free pencil of even degree k > g on a curve with no real points."""

    g: int
    k: int


@dataclass(frozen=True, slots=True)
class GenericR0Pencil:
    """Covering of R0 of degree k >= g + 1 with k = g + 1 (mod 2), no real points."""

    g: int
    k: int


BaseSeed = Union[Hyperelliptic, HyperellipticToR0, GenericPencil, GenericR0Pencil]


def seed_state(seed: BaseSeed) -> LabeledState:
    """Initial labeled state of a seed; circles are labeled C1, C2, ... in
    order.  Raises SeedNotInCatalog unless the seed is a base covering known
    to exist."""
    if isinstance(seed, Hyperelliptic):
        top, deg = seed.top, seed.degrees
        if not weichold_admissible(top.g, top.s, top.a):
            raise SeedNotInCatalog(f"type {(top.g, top.s, top.a)} fails the existence bounds")
        if len(deg) != top.s:
            raise SeedNotInCatalog("winding vector length differs from circle count")
        e = deg.entries
        if e == (2,):
            if (top.s, top.a) != (1, 0):
                raise SeedNotInCatalog("winding (2) needs a separating curve with one circle")
        elif e == (1, 1):
            if (top.s, top.a) != (2, 0):
                raise SeedNotInCatalog("winding (1,1) needs a separating curve with two circles")
        elif any(d != 0 for d in e):
            raise SeedNotInCatalog(f"winding pattern {e} not in the hyperelliptic catalog")
        comps = tuple((f"C{i + 1}", d) for i, d in enumerate(e))
        return LabeledState(top.g, top.a, 2, CoverTarget.PROJ_LINE, comps)
    if isinstance(seed, HyperellipticToR0):
        if seed.g < 1 or seed.g % 2 == 0:
            raise SeedNotInCatalog("double coverings of R0 need odd genus")
        return LabeledState(seed.g, 1, 2, CoverTarget.ANISOTROPIC_CONIC, ())
    if isinstance(seed, GenericPencil):
        if seed.k < 2 or seed.k % 2 != 0 or not 0 <= seed.g < seed.k:
            raise SeedNotInCatalog("generic pencils need k even and g < k")
        return LabeledState(seed.g, 1, seed.k, CoverTarget.PROJ_LINE, ())
    if isinstance(seed, GenericR0Pencil):
        if seed.k < 2 or seed.k < seed.g + 1 or (seed.k - seed.g - 1) % 2 != 0:
            raise SeedNotInCatalog("generic R0 pencils need k >= g+1 with k = g+1 (mod 2)")
        return LabeledState(seed.g, 1, seed.k, CoverTarget.ANISOTROPIC_CONIC, ())
    raise SeedNotInCatalog(f"unknown seed {seed!r}")


# The step rules run on every step of every replay and realization, and an
# Enum member read through its class costs several module-name reads.
_I, _II, _III, _IV, _V = StepKind
_RAM = Variant.WITH_REAL_RAM
_P1, _R0 = CoverTarget.PROJ_LINE, CoverTarget.ANISOTROPIC_CONIC
# Sheet-budget gain k' - k of each kind.
_SHEETS = {_I: 1, _II: 0, _III: 1, _IV: 2, _V: 1}


def _check_step(
    state: _Replay, step: ConstructionStep, index: Optional[int] = None
) -> Optional[int]:
    """The step rules, shared by the symbolic and the PL interpreter.

    Reads the working state: its target, k, the labels of its real locus
    and the sum of its absolute windings, all kept running, so the rules
    cost O(1) per record.  A record's later steps keep every quantity the
    rules read, so its rules hold at every step iff they hold at the first.
    Raises PreconditionViolated, carrying index as its step index, when the
    state does not support the step; otherwise returns the winding of each
    circle the step creates, or None: II/ram opens a fold of winding 0, III
    a monotone wrap of winding 1.
    """
    kind, target, circles, reason = step.kind, state.target, state.windings, None
    if kind is _V:
        if target is not _R0:
            reason = "requires a covering of R0"
    elif target is not _P1:
        reason = "requires a covering of the projective line"
    elif kind is _I:
        if not circles:
            reason = "needs at least one real circle"
        elif step.placement not in circles:
            reason = f"no circle labeled {step.placement!r}"
    elif kind is _II:
        if state.total >= state.k:
            reason = "needs a non-real point over a real value (winding sum < k)"
    elif kind is _IV and circles:
        reason = "needs an empty real locus"
    if reason is not None:
        raise PreconditionViolated(kind, reason, index)
    if kind is _III:
        return 1
    if kind is _II and step.variant is _RAM:
        return 0
    return None


def _folds(d: int, m: int) -> int:
    """The winding after m >= 1 I/ram steps at winding d: |d - 1| iterated
    in closed form.  A fold at d <= 0 turns the circle around to 1 - d >= 1;
    from d >= 1 the winding falls by one per fold to 0, then alternates
    1, 0."""
    if d < 1:
        d, m = 1 - d, m - 1
    return d - m if m <= d else (m - d) % 2


class _Replay:
    """The working state both interpreters step: the LabeledState fields
    with the real locus as a label -> winding dict in creation order, plus
    the sum of the absolute windings and the count of N circles that
    _check_step and the invariants read.  A record updates them in O(1),
    or O(repeat) when it creates circles; plsim's span form is this state
    plus the geometry of each circle.  A target given by its string value
    is read as the CoverTarget member, once per replay; any other value
    raises ValueError."""

    __slots__ = ("g", "a", "k", "target", "windings", "total", "new")

    def __init__(self, state: LabeledState):
        comps = state.components
        self.g, self.a, self.k, self.target = state.g, state.a, state.k, CoverTarget(state.target)
        self.windings = dict(comps)
        if len(self.windings) != len(comps):
            raise ValueError("circle labels must be distinct")
        self.total = sum([abs(d) for _, d in comps])
        self.new = sum([lbl.startswith("N") for lbl, _ in comps])

    def step(self, step: ConstructionStep, index: Optional[int] = None) -> Optional[List[str]]:
        """Apply a record, its repeat equal steps, in place and in closed
        form: I/noram adds repeat to the winding, I/ram iterates |d - 1|,
        III and II/ram add circles N(new + 1) .. N(new + repeat), and k
        gains repeat times the kind's sheets.  Returns the labels of the
        circles the record creates, or None; a refusal leaves the state as
        it was.  A new label that already names a circle, which only a
        hand-built state can hold, raises ValueError."""
        kind, m = step.kind, step.repeat
        w = _check_step(self, step, index)
        labels = None
        if w is not None:
            windings, new = self.windings, self.new
            labels = [f"N{new + j}" for j in range(1, m + 1)]
            if not windings.keys().isdisjoint(labels):  # N circles numbered out of order
                raise ValueError("circle labels must be distinct")
            windings.update(dict.fromkeys(labels, w))
            self.total += m * w
            self.new = new + m
        elif kind is _I:
            windings, label = self.windings, step.placement
            d = windings[label]
            after = windings[label] = _folds(d, m) if step.variant is _RAM else d + m
            self.total += abs(after) - abs(d)
        elif kind is _II:
            self.a = 1
        if kind is not _I:
            self.g += m
        self.k += m * _SHEETS[kind]
        return labels

    def invariant_failure(self) -> Optional[str]:
        """Check the running bookkeeping invariants in O(1); None when they
        hold.

        Coverings of the projective line keep sum(|windings|) <= k with even
        defect: each circle of winding w meets a real fiber in at least |w|
        points.  Coverings of R0 have no real circles at all; there the
        degree parity is tied to the genus instead and is checked by the
        admissibility predicates, not here.
        """
        if self.target is _P1:
            total, k = self.total, self.k
            if total > k:
                return f"winding sum {total} exceeds degree {k}"
            if (k - total) % 2 != 0:
                return f"degree defect {k - total} is odd"
            return None
        if self.windings:
            return "covering of R0 with nonempty real locus"
        return None

    def state(self) -> LabeledState:
        """A snapshot of the state as a LabeledState."""
        return LabeledState(self.g, self.a, self.k, self.target, tuple(self.windings.items()))


def apply_step(
    state: LabeledState, step: ConstructionStep, index: Optional[int] = None
) -> LabeledState:
    """Apply one construction record, its repeat equal steps, enforcing
    their preconditions.

    Raises PreconditionViolated, carrying index as the step index, when the
    state does not support the step; an invalid plan is never silently
    repaired.  The step runs on a copy of the state, through the same
    update execute_states uses; a state whose circles repeat a label
    raises ValueError.
    """
    replay = _Replay(state)
    replay.step(step, index)
    return replay.state()


def execute_states(seed: BaseSeed, steps: Sequence[ConstructionStep]):
    """Yield the working state after the seed and after each record of a
    plan: one mutable _Replay that takes every record in closed form, so a
    record costs O(1), or O(repeat) when it creates circles.  A consumer
    reads it before asking for the next record, or snapshots it with
    .state().  A PreconditionViolated carries the index of the failing
    record.
    """
    replay = _Replay(seed_state(seed))
    yield replay
    for i, step in enumerate(steps):
        replay.step(step, i)
        yield replay


def runs(steps: Sequence[ConstructionStep]) -> Iterator[Tuple[int, ConstructionStep]]:
    """Yield each maximal run of consecutive records of one step (kind,
    variant, placement) as the index of its first record and one record of
    their summed repeats; a record alone in its run comes back as itself."""
    i, n = 0, len(steps)
    while i < n:
        step, j = steps[i], i + 1
        key, m = (step.kind, step.variant, step.placement), step.repeat
        while j < n and (steps[j].kind, steps[j].variant, steps[j].placement) == key:
            m += steps[j].repeat
            j += 1
        yield i, step if j == i + 1 else replace(step, repeat=m)
        i = j


# ---------------------------------------------------------------------------
# JSON wire format for seeds and steps.


# Each seed kind by its wire name: its class and dataclass field names.  A
# seed of the integer-field kinds is its fields in this order; Hyperelliptic
# is written g, s, a and deg.
_SEEDS = {cls.__name__: (cls, tuple(f.name for f in fields(cls))) for cls in get_args(BaseSeed)}


def seed_to_json(seed: BaseSeed) -> dict:
    if isinstance(seed, Hyperelliptic):
        return {
            "kind": "Hyperelliptic",
            "g": seed.top.g,
            "s": seed.top.s,
            "a": seed.top.a,
            "deg": list(seed.degrees.entries),
        }
    kind = type(seed).__name__
    return {"kind": kind, **{f: getattr(seed, f) for f in _SEEDS[kind][1]}}


def seed_from_json(obj: object) -> BaseSeed:
    """Parse the seed wire object, reporting the offending field on error.

    Only field types are checked here; seed_state decides catalog membership.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("seed: expected an object with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _SEEDS:
        raise ValueError(f"seed.kind: unknown seed kind {kind!r}")
    if kind == "Hyperelliptic":
        check_int_fields(obj, "seed", ("g", "s", "a"))
        check_deg_field(obj, "seed")
        return Hyperelliptic(
            TopType(obj["g"], obj["s"], obj["a"]), DegreeVector(tuple(obj["deg"]))
        )
    cls, names = _SEEDS[kind]
    check_int_fields(obj, "seed", names)
    return cls(*[obj[f] for f in names])


def step_to_json(step: ConstructionStep) -> dict:
    """The wire object of a record; "repeat" only when it is not 1, so a
    plan of single steps keeps its old form."""
    obj = {
        "kind": step.kind.value,
        "variant": step.variant.value if step.variant else None,
        "placement": step.placement,
    }
    if step.repeat != 1:
        obj["repeat"] = step.repeat
    return obj


_STEP_FIELDS = frozenset(("kind", "variant", "placement", "repeat"))


def step_from_json(obj: object, index: int = 0) -> ConstructionStep:
    if not isinstance(obj, dict):
        raise ValueError(f"steps[{index}]: expected an object")
    for name in obj:
        if name not in _STEP_FIELDS:
            raise ValueError(f"steps[{index}]: unknown field {name!r}")
    try:
        kind = StepKind(obj["kind"])
    except (KeyError, ValueError):
        raise ValueError(f"steps[{index}].kind: expected one of I..V") from None
    raw_variant = obj.get("variant")
    variant = None
    if raw_variant is not None:
        try:
            variant = Variant(raw_variant)
        except ValueError:
            raise ValueError(f'steps[{index}].variant: expected "ram", "noram" or null') from None
    placement = obj.get("placement")
    if placement is not None and not isinstance(placement, str):
        raise ValueError(f"steps[{index}].placement: expected a string or null")
    repeat = obj.get("repeat", 1)
    if type(repeat) is not int or repeat < 1:  # bool is an int subclass
        raise ValueError(f"steps[{index}].repeat: expected a positive integer")
    try:
        return ConstructionStep(kind, variant, placement, repeat)
    except ValueError as exc:
        raise ValueError(f"steps[{index}]: {exc}") from None
