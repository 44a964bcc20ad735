"""Deterministic synthesis of construction plans for admissible coverings.

For every admissible covering specification the planner emits a plan: a
base seed plus a step sequence whose execution reproduces the target
exactly.  The dispatch follows the constructive existence proofs case by
case; the provenance tag on each plan records which branch produced it.

Inadmissible targets yield Infeasible carrying the name of the first
violated predicate.  Degree-2 targets over the projective line are refused
outright: the double coverings themselves live in the seed catalog, and
their full classification (which is stricter in the separating case) is
out of scope here.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

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
    execute_states,
    runs,
    seed_from_json,
    seed_to_json,
    step_from_json,
    step_to_json,
)
from .topology import (
    CoverSpec,
    CoverTarget,
    DegreeVector,
    TopType,
    admissibility_failure,
    spec_text,
)

PROVENANCE_TAGS = (
    "A1-sPos",
    "A1-s0-small-g",
    "A1-s0-big-g",
    "Case1",
    "Case2-all1",
    "Case2-big",
    "Case3",
    "Case4",
    "Case5",
    "R0-big-k",
    "R0-small-k",
)


@dataclass(frozen=True, slots=True)
class Plan:
    seed: BaseSeed
    steps: tuple[ConstructionStep, ...]
    provenance: str


@dataclass(frozen=True, slots=True)
class Infeasible:
    reason: str


# A run of n applications of one step, written (kind, variant, placement),
# as a recipe lists it; _records makes one ConstructionStep per maximal run.
Step = Tuple[StepKind, Optional[Variant], Optional[str]]
Run = Tuple[Step, int]
_III: Step = (StepKind.III, None, None)
_IV: Step = (StepKind.IV, None, None)
_V: Step = (StepKind.V, None, None)
_II_RAM: Step = (StepKind.II, Variant.WITH_REAL_RAM, None)


def _ram(label: str) -> Step:
    return StepKind.I, Variant.WITH_REAL_RAM, label


def _noram(label: str) -> Step:
    return StepKind.I, Variant.WITHOUT_REAL_RAM, label


def _records(recipe: Iterable[Run]) -> tuple[ConstructionStep, ...]:
    """One record per maximal run of equal steps: empty runs vanish, and a
    run of the same step as the one before it joins that record."""
    records = [ConstructionStep(*step, n) for step, n in recipe if n > 0]
    return tuple(record for _, record in runs(records))


def _wraps_then_folds(label: str, wraps: int, folds: int) -> List[Run]:
    """wraps steps of I/noram, then folds steps of I/ram, on one circle.

    Only the net winding change matters to the target, so the planner puts
    every wrap first: the circle never folds at winding 0, and the folds
    halve wide climbs level by level, so realize's denominator grows by
    about log2 of the fold count in bits, not by up to 3 bits per fold
    (see plsim._fold).
    """
    return [(_noram(label), wraps), (_ram(label), folds)]


def _pump_to_degrees(labels: List[str], degrees: tuple[int, ...]) -> List[Run]:
    """Raise circle i from winding 1 to degrees[i], in ascending circle order."""
    return [(_noram(label), d - 1) for label, d in zip(labels, degrees)]


def _case3_recipe(
    g: int, k: int, nonzero: tuple[int, ...], zeros: int
) -> tuple[BaseSeed, List[Run]]:
    """Separating target with every winding nonzero and winding sum < k,
    plus zeros circles of winding 0.

    Start from the winding-(2) double covering, fold once to reach winding
    1, spin up the remaining circles, open each zero circle as a fold over
    a non-real point, pump each nonzero circle to its target winding, and
    absorb the even remainder on the first circle: half of it as wraps,
    then half as folds back to its target winding.
    """
    s_prime = len(nonzero)
    seed = Hyperelliptic(TopType(g - s_prime - zeros + 1, 1, 0), DegreeVector((2,)))
    runs = [(_ram("C1"), 1), (_III, s_prime - 1), (_II_RAM, zeros)]
    labels = ["C1"] + [f"N{i + 1}" for i in range(s_prime - 1)]
    runs.extend(_pump_to_degrees(labels, nonzero))
    spare = (k - sum(nonzero) - 2) // 2
    runs.extend(_wraps_then_folds("C1", spare, spare))
    return seed, runs


def plan(target: CoverSpec) -> Union[Plan, Infeasible]:
    """Synthesize a plan reproducing the target, or explain why none exists.

    The plan holds one record per maximal run of equal steps, so its
    length is O(s) whatever k is.  Spare sheets go to wraps before folds,
    and circles of winding 0 (II/ram) open early: in Case5 right after
    C1's first fold, in Case4 right after the spin-ups (III).  So realize
    places them on a cover of a few breakpoints, not after the fold run."""
    failure = admissibility_failure(target)
    if failure is not None:
        return Infeasible(failure)
    kind = CoverTarget(target.target)
    if kind is CoverTarget.PROJ_LINE and target.k == 2:
        return Infeasible("k=2 out of scope")

    g, s, a = target.top.g, target.top.s, target.top.a
    k = target.k
    degrees = target.degrees.entries
    total = sum(degrees)

    if kind is CoverTarget.ANISOTROPIC_CONIC:
        if k >= g + 1:
            return Plan(GenericR0Pencil(g, k), (), "R0-big-k")
        seed = HyperellipticToR0(g - k + 2)
        return Plan(seed, _records([(_V, k - 2)]), "R0-small-k")

    # The canonical vector lists its nonzero windings first.
    s_prime = s - degrees.count(0)
    if a == 1:
        if s == 0:
            if g < k:
                return Plan(GenericPencil(g, k), (), "A1-s0-small-g")
            seed = Hyperelliptic(TopType(g - k // 2 + 1, 0, 1), DegreeVector())
            return Plan(seed, _records([(_IV, k // 2 - 1)]), "A1-s0-big-g")
        # s >= 1: start from an all-zero double covering of the right type,
        # spin up one circle per nonzero winding, pump, then absorb the
        # remainder as wraps followed by as many folds: on the first zero
        # circle when there is one (0 -> spare -> 0), otherwise on the first
        # nonzero circle.
        nonzero = degrees[:s_prime]
        seed = Hyperelliptic(
            TopType(g - s_prime, s - s_prime, 1), DegreeVector((0,) * (s - s_prime))
        )
        labels = [f"N{i + 1}" for i in range(s_prime)]
        runs = [(_III, s_prime)] + _pump_to_degrees(labels, nonzero)
        spare = (k - 2 - total) // 2
        runs.extend(_wraps_then_folds("C1" if s != s_prime else "N1", spare, spare))
        return Plan(seed, _records(runs), "A1-sPos")

    # Separating case (a = 0); here s >= 1.
    if total == k:
        if degrees[0] == 1:
            seed = Hyperelliptic(TopType(g - k + 2, 2, 0), DegreeVector((1, 1)))
            return Plan(seed, _records([(_III, k - 2)]), "Case2-all1")
        # Case1 is the one-circle instance: no spin-ups, C1 pumped to k.
        seed = Hyperelliptic(TopType(g - s + 1, 1, 0), DegreeVector((2,)))
        labels = [f"N{i + 1}" for i in range(s - 1)]
        runs = [(_III, s - 1), (_noram("C1"), degrees[0] - 2)]
        runs.extend(_pump_to_degrees(labels, degrees[1:]))
        return Plan(seed, _records(runs), "Case1" if s == 1 else "Case2-big")

    if s_prime == 0:
        # All windings vanish: take C1 from winding 2 up to (k - 4) / 2 + 2,
        # fold it once, add each other circle by a fold over a non-real
        # point, then fold C1 the rest of the way down to 0.  The first
        # fold makes the room (winding sum < k) that the new folds need.
        seed = Hyperelliptic(TopType(g - s + 1, 1, 0), DegreeVector((2,)))
        spare = (k - 4) // 2
        runs = _wraps_then_folds("C1", spare, 1)
        runs += [(_II_RAM, s - 1), (_ram("C1"), spare + 1)]
        return Plan(seed, _records(runs), "Case5")
    # Case4 is Case3 with zero circles: each added by a fold over a
    # non-real point right after the spin-ups.
    seed, runs = _case3_recipe(g, k, degrees[:s_prime], s - s_prime)
    return Plan(seed, _records(runs), "Case3" if s_prime == s else "Case4")


def verify_plan(plan_: Plan, target: CoverSpec, trail: Optional[List[str]] = None) -> bool:
    """Replay the plan and check it lands exactly on the target.

    Every intermediate state must satisfy the running state invariants and
    no step may violate its preconditions.  Both are checked once per
    record, which is exactly as strong as checking them after every step:
    within a run the defect k - sum|w| keeps its parity and never
    decreases, so the invariants hold after every step of a run iff they
    hold before it, and a run's steps change nothing its preconditions
    read, so they hold at every step iff they hold at the first.  The
    invariant check cannot fire, and stays as a guard: every catalog seed
    meets the invariants (windings (2), (1,1) or all 0 at k = 2; pencils
    over P1 with no circles and even k; seeds over R0 with no circles),
    windings stay >= 0, each step changes the defect by 0 (I/noram, I/ram
    at winding 0, II, III) or by +2 (I/ram at winding >= 1, IV), and V,
    the one step on R0, adds no circle.  A record of m steps is m such
    steps.  A refusal names its record's index.  Diagnostics are appended
    to `trail` when given; the return value alone answers the question.
    """

    def note(msg: str) -> bool:
        if trail is not None:
            trail.append(msg)
        return False

    try:
        for i, state in enumerate(execute_states(plan_.seed, plan_.steps)):
            bad = state.invariant_failure()
            if bad is not None:
                return note(f"state after step {i - 1}: {bad}")
    except PreconditionViolated as exc:
        return note(str(exc))
    except ValueError as exc:
        return note(f"seed rejected: {exc}")
    outcome = state.state().canonical_spec()
    if outcome != target:
        try:
            shown = spec_text(outcome)
        except ValueError:  # an integer past Python's digit limit for str()
            shown = f"a spec with an integer over {sys.get_int_max_str_digits()} digits"
        return note(f"plan executes to {shown}, not the target")
    return True


# ---------------------------------------------------------------------------
# JSON wire format: the seed/step objects plus a provenance tag.


def plan_to_json(plan_: Plan) -> dict:
    return {
        "seed": seed_to_json(plan_.seed),
        "steps": [step_to_json(s) for s in plan_.steps],
        "provenance": plan_.provenance,
    }


def plan_from_json(obj: object) -> Plan:
    if not isinstance(obj, dict):
        raise ValueError("plan: expected a JSON object")
    for field_name in ("seed", "steps", "provenance"):
        if field_name not in obj:
            raise ValueError(f"plan.{field_name}: missing")
    seed = seed_from_json(obj["seed"])
    raw_steps = obj["steps"]
    if not isinstance(raw_steps, list):
        raise ValueError("plan.steps: expected a list")
    steps = [step_from_json(raw, i) for i, raw in enumerate(raw_steps)]
    provenance = obj["provenance"]
    if provenance not in PROVENANCE_TAGS:
        raise ValueError(f"plan.provenance: unknown tag {provenance!r}")
    return Plan(seed, tuple(steps), provenance)
