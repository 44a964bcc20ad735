"""The five covering constructions as symbolic operators on labeled state.

Each construction smooths a nodal curve built from an existing covering and
changes (g, s, a, k) and the winding numbers by a fixed delta.  Kinds I and
II come in two flavours depending on the sign of the smoothing parameter:
with real ramification (a fold appears on the real locus) or without (the
real locus is untouched near the node).

Delta table, per (kind, variant):

    I/ram     g+0  k+1  s+0  placed winding d -> d-1 if d >= 1 else 1
    I/noram   g+0  k+1  s+0  placed winding d -> d+1
    II/ram    g+1  k+0  s+1  new circle with winding 0
    II/noram  g+1  k+0  s+0  a -> 1
    III       g+1  k+1  s+1  new circle with winding 1
    IV        g+1  k+2  s=0 unchanged (target P1, no real points)
    V         g+1  k+1  s=0 unchanged (target R0)

The flip in I/ram at winding 0 comes from re-orienting the deformed circle
so its winding stays nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

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


@dataclass(frozen=True)
class ConstructionStep:
    """One application of a construction: kind, smoothing variant, placement.

    Kind I acts on a named circle (placement is its label); kind II needs a
    variant but no placement; kinds III, IV, V take neither.
    """

    kind: StepKind
    variant: Optional[Variant] = None
    placement: Optional[str] = None

    def __post_init__(self):
        if self.kind in (StepKind.I, StepKind.II) and self.variant is None:
            raise ValueError(f"construction {self.kind.value} requires a variant")
        if self.kind in (StepKind.III, StepKind.IV, StepKind.V):
            if self.variant is not None:
                raise ValueError(f"construction {self.kind.value} takes no variant")
        if self.kind is StepKind.I:
            if self.placement is None:
                raise ValueError("construction I requires a placement label")
        elif self.placement is not None:
            raise ValueError(f"construction {self.kind.value} takes no placement")


@dataclass(frozen=True)
class LabeledState:
    """Covering state with individually labeled real circles.

    Labels are opaque ids in creation order ("C1".. at seed time, "N1"..
    for circles created by steps); they let plans address a specific circle
    even though the canonical degree vector forgets the ordering.
    """

    g: int
    a: int
    k: int
    target: CoverTarget
    components: tuple[tuple[str, int], ...]

    @property
    def s(self) -> int:
        return len(self.components)

    @property
    def delta_sum(self) -> int:
        return sum(d for _, d in self.components)

    def winding_of(self, label: str) -> int:
        for lbl, d in self.components:
            if lbl == label:
                return d
        raise KeyError(label)

    def canonical_spec(self) -> CoverSpec:
        degrees = DegreeVector.canonical(d for _, d in self.components)
        return CoverSpec(TopType(self.g, self.s, self.a), self.target, self.k, degrees)

    def invariant_failure(self) -> Optional[str]:
        """Check the running bookkeeping invariants; None when they hold.

        Coverings of the projective line keep sum(windings) <= k with even
        defect.  Coverings of R0 have no real circles at all; there the
        degree parity is tied to the genus instead and is checked by the
        admissibility predicates, not here.
        """
        if self.target is CoverTarget.PROJ_LINE:
            if self.delta_sum > self.k:
                return f"winding sum {self.delta_sum} exceeds degree {self.k}"
            if (self.k - self.delta_sum) % 2 != 0:
                return f"degree defect {self.k - self.delta_sum} is odd"
            return None
        if self.components:
            return "covering of R0 with nonempty real locus"
        return None


# ---------------------------------------------------------------------------
# Base seeds: coverings the plans start from, taken as existing.


@dataclass(frozen=True)
class Hyperelliptic:
    """Double covering of P1 by a curve of the given type.

    Catalog of allowed winding patterns: (2) on a separating curve with one
    circle, (1, 1) on a separating curve with two circles, or all zeros on
    any admissible type.
    """

    top: TopType
    degrees: DegreeVector


@dataclass(frozen=True)
class HyperellipticToR0:
    """Double covering of the anisotropic conic; exists for odd genus."""

    g: int


@dataclass(frozen=True)
class GenericPencil:
    """Base-point-free pencil of even degree k > g on a curve with no real points."""

    g: int
    k: int


@dataclass(frozen=True)
class GenericR0Pencil:
    """Covering of R0 of degree k >= g + 1 with k = g + 1 (mod 2), no real points."""

    g: int
    k: int


BaseSeed = Union[Hyperelliptic, HyperellipticToR0, GenericPencil, GenericR0Pencil]


def check_seed(seed: BaseSeed) -> None:
    """Raise SeedNotInCatalog unless the seed is a base covering known to exist."""
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
        return
    if isinstance(seed, HyperellipticToR0):
        if seed.g < 1 or seed.g % 2 == 0:
            raise SeedNotInCatalog("double coverings of R0 need odd genus")
        return
    if isinstance(seed, GenericPencil):
        if seed.k < 2 or seed.k % 2 != 0 or not 0 <= seed.g < seed.k:
            raise SeedNotInCatalog("generic pencils need k even and g < k")
        return
    if isinstance(seed, GenericR0Pencil):
        if seed.k < 2 or seed.k < seed.g + 1 or (seed.k - seed.g - 1) % 2 != 0:
            raise SeedNotInCatalog("generic R0 pencils need k >= g+1 with k = g+1 (mod 2)")
        return
    raise SeedNotInCatalog(f"unknown seed {seed!r}")


def seed_state(seed: BaseSeed) -> LabeledState:
    """Initial labeled state of a seed; circles are labeled C1, C2, ... in order."""
    check_seed(seed)
    if isinstance(seed, Hyperelliptic):
        comps = tuple((f"C{i + 1}", d) for i, d in enumerate(seed.degrees))
        return LabeledState(seed.top.g, seed.top.a, 2, CoverTarget.PROJ_LINE, comps)
    if isinstance(seed, HyperellipticToR0):
        return LabeledState(seed.g, 1, 2, CoverTarget.ANISOTROPIC_CONIC, ())
    if isinstance(seed, GenericPencil):
        return LabeledState(seed.g, 1, seed.k, CoverTarget.PROJ_LINE, ())
    return LabeledState(seed.g, 1, seed.k, CoverTarget.ANISOTROPIC_CONIC, ())


def next_new_label(components: Sequence[tuple[str, int]]) -> str:
    n = sum(1 for lbl, _ in components if lbl.startswith("N"))
    return f"N{n + 1}"


def apply_step(state: LabeledState, step: ConstructionStep) -> LabeledState:
    """Apply one construction step, enforcing its preconditions.

    Raises PreconditionViolated when the state does not support the step;
    an invalid plan is never silently repaired.
    """
    kind, variant = step.kind, step.variant
    if kind in (StepKind.I, StepKind.II, StepKind.III, StepKind.IV):
        if state.target is not CoverTarget.PROJ_LINE:
            raise PreconditionViolated(kind, "requires a covering of the projective line")
    if kind is StepKind.I:
        if state.s < 1:
            raise PreconditionViolated(kind, "needs at least one real circle")
        labels = [lbl for lbl, _ in state.components]
        if step.placement not in labels:
            raise PreconditionViolated(kind, f"no circle labeled {step.placement!r}")
        comps = []
        for lbl, d in state.components:
            if lbl == step.placement:
                if variant is Variant.WITH_REAL_RAM:
                    d = d - 1 if d >= 1 else 1
                else:
                    d = d + 1
            comps.append((lbl, d))
        return LabeledState(state.g, state.a, state.k + 1, state.target, tuple(comps))
    if kind is StepKind.II:
        if state.delta_sum >= state.k:
            raise PreconditionViolated(
                kind, "needs a non-real point over a real value (winding sum < k)"
            )
        if variant is Variant.WITH_REAL_RAM:
            comps = state.components + ((next_new_label(state.components), 0),)
            return LabeledState(state.g + 1, state.a, state.k, state.target, comps)
        return LabeledState(state.g + 1, 1, state.k, state.target, state.components)
    if kind is StepKind.III:
        comps = state.components + ((next_new_label(state.components), 1),)
        return LabeledState(state.g + 1, state.a, state.k + 1, state.target, comps)
    if kind is StepKind.IV:
        if state.s != 0:
            raise PreconditionViolated(kind, "needs an empty real locus")
        return LabeledState(state.g + 1, state.a, state.k + 2, state.target, ())
    # kind V
    if state.target is not CoverTarget.ANISOTROPIC_CONIC:
        raise PreconditionViolated(kind, "requires a covering of R0")
    return LabeledState(state.g + 1, state.a, state.k + 1, state.target, ())


def execute_states(seed: BaseSeed, steps: Sequence[ConstructionStep]):
    """Yield the seed state and each intermediate state of a step sequence.

    PreconditionViolated is re-raised with the failing step index attached.
    """
    state = seed_state(seed)
    yield state
    for i, step in enumerate(steps):
        try:
            state = apply_step(state, step)
        except PreconditionViolated as exc:
            raise PreconditionViolated(exc.kind, exc.reason, step_index=i) from None
        yield state


def execute(seed: BaseSeed, steps: Sequence[ConstructionStep]) -> CoverSpec:
    """Fold the steps over the seed and canonicalize the outcome.

    The result is whatever the bookkeeping says, admissible or not; plans
    are judged by comparing it against their target.
    """
    state = None
    for state in execute_states(seed, steps):
        pass
    return state.canonical_spec()


# ---------------------------------------------------------------------------
# JSON wire format for seeds and steps.


def seed_to_json(seed: BaseSeed) -> dict:
    if isinstance(seed, Hyperelliptic):
        return {
            "kind": "Hyperelliptic",
            "g": seed.top.g,
            "s": seed.top.s,
            "a": seed.top.a,
            "deg": list(seed.degrees.entries),
        }
    if isinstance(seed, HyperellipticToR0):
        return {"kind": "HyperellipticToR0", "g": seed.g}
    if isinstance(seed, GenericPencil):
        return {"kind": "GenericPencil", "g": seed.g, "k": seed.k}
    return {"kind": "GenericR0Pencil", "g": seed.g, "k": seed.k}


# Integer fields of each seed kind; Hyperelliptic also carries "deg".
_SEED_FIELDS = {
    "Hyperelliptic": ("g", "s", "a"),
    "HyperellipticToR0": ("g",),
    "GenericPencil": ("g", "k"),
    "GenericR0Pencil": ("g", "k"),
}


def seed_from_json(obj: object) -> BaseSeed:
    """Parse the seed wire object, reporting the offending field on error.

    Only field types are checked here; check_seed decides catalog membership.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("seed: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind not in _SEED_FIELDS:
        raise ValueError(f"seed.kind: unknown seed kind {kind!r}")
    check_int_fields(obj, "seed", _SEED_FIELDS[kind])
    if kind == "Hyperelliptic":
        check_deg_field(obj, "seed")
        return Hyperelliptic(
            TopType(obj["g"], obj["s"], obj["a"]), DegreeVector(tuple(obj["deg"]))
        )
    if kind == "HyperellipticToR0":
        return HyperellipticToR0(obj["g"])
    if kind == "GenericPencil":
        return GenericPencil(obj["g"], obj["k"])
    return GenericR0Pencil(obj["g"], obj["k"])


def step_to_json(step: ConstructionStep) -> dict:
    return {
        "kind": step.kind.value,
        "variant": step.variant.value if step.variant else None,
        "placement": step.placement,
    }


def step_from_json(obj: object, index: int = 0) -> ConstructionStep:
    if not isinstance(obj, dict):
        raise ValueError(f"steps[{index}]: expected an object")
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
    try:
        return ConstructionStep(kind, variant, placement)
    except ValueError as exc:
        raise ValueError(f"steps[{index}]: {exc}") from None
