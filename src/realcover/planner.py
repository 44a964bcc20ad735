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

from dataclasses import dataclass
from typing import List, Optional, Union

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


# Plans share one step object per distinct step: a plan of length k holds
# only a few distinct records.
_III = ConstructionStep(StepKind.III)
_IV = ConstructionStep(StepKind.IV)
_V = ConstructionStep(StepKind.V)
_II_RAM = ConstructionStep(StepKind.II, Variant.WITH_REAL_RAM)


def _ram(label: str) -> ConstructionStep:
    return ConstructionStep(StepKind.I, Variant.WITH_REAL_RAM, label)


def _noram(label: str) -> ConstructionStep:
    return ConstructionStep(StepKind.I, Variant.WITHOUT_REAL_RAM, label)


def _wraps_then_folds(label: str, wraps: int, folds: int) -> List[ConstructionStep]:
    """wraps steps of I/noram, then folds steps of I/ram, on one circle.

    Only the net winding change matters to the target, so the planner puts
    every wrap first: the circle never folds at winding 0, and the folds
    halve wide climbs level by level, so realize's denominator grows by
    about log2 of the fold count in bits, not by up to 3 bits per fold
    (see plsim._splice).
    """
    return [_noram(label)] * wraps + [_ram(label)] * folds


def _pump_to_degrees(labels: List[str], degrees: tuple[int, ...]) -> List[ConstructionStep]:
    """Raise circle i from winding 1 to degrees[i], in ascending circle order."""
    steps: List[ConstructionStep] = []
    for label, d in zip(labels, degrees):
        steps.extend([_noram(label)] * (d - 1))
    return steps


def _case3_recipe(g: int, k: int, nonzero: tuple[int, ...]) -> tuple[BaseSeed, List[ConstructionStep]]:
    """Separating target with every winding nonzero and winding sum < k.

    Start from the winding-(2) double covering, fold once to reach winding
    1, spin up the remaining circles, pump each to its target winding, and
    absorb the even remainder on the first circle: half of it as wraps,
    then half as folds back to its target winding.
    """
    s_prime = len(nonzero)
    seed = Hyperelliptic(TopType(g - s_prime + 1, 1, 0), DegreeVector((2,)))
    steps: List[ConstructionStep] = [_ram("C1")]
    steps.extend([_III] * (s_prime - 1))
    labels = ["C1"] + [f"N{i + 1}" for i in range(s_prime - 1)]
    steps.extend(_pump_to_degrees(labels, nonzero))
    spare = (k - sum(nonzero) - 2) // 2
    steps.extend(_wraps_then_folds("C1", spare, spare))
    return seed, steps


def plan(target: CoverSpec) -> Union[Plan, Infeasible]:
    """Synthesize a plan reproducing the target, or explain why none exists."""
    failure = admissibility_failure(target)
    if failure is not None:
        return Infeasible(failure)
    if target.target is CoverTarget.PROJ_LINE and target.k == 2:
        return Infeasible("k=2 out of scope")

    g, s, a = target.top.g, target.top.s, target.top.a
    k = target.k
    degrees = target.degrees.entries
    total = sum(degrees)

    if target.target is CoverTarget.ANISOTROPIC_CONIC:
        if k >= g + 1:
            return Plan(GenericR0Pencil(g, k), (), "R0-big-k")
        seed = HyperellipticToR0(g - k + 2)
        steps = (_V,) * (k - 2)
        return Plan(seed, steps, "R0-small-k")

    if a == 1:
        if s == 0:
            if g < k:
                return Plan(GenericPencil(g, k), (), "A1-s0-small-g")
            seed = Hyperelliptic(TopType(g - k // 2 + 1, 0, 1), DegreeVector())
            steps = (_IV,) * (k // 2 - 1)
            return Plan(seed, steps, "A1-s0-big-g")
        # s >= 1: start from an all-zero double covering of the right type,
        # spin up one circle per nonzero winding, pump, then absorb the
        # remainder as wraps followed by as many folds: on the first zero
        # circle when there is one (0 -> spare -> 0), otherwise on the first
        # nonzero circle.
        s_prime = sum(1 for d in degrees if d != 0)
        nonzero = degrees[:s_prime]
        seed = Hyperelliptic(
            TopType(g - s_prime, s - s_prime, 1), DegreeVector((0,) * (s - s_prime))
        )
        steps: List[ConstructionStep] = []
        steps.extend([_III] * s_prime)
        labels = [f"N{i + 1}" for i in range(s_prime)]
        steps.extend(_pump_to_degrees(labels, nonzero))
        spare = (k - 2 - total) // 2
        steps.extend(_wraps_then_folds("C1" if s != s_prime else "N1", spare, spare))
        return Plan(seed, tuple(steps), "A1-sPos")

    # Separating case (a = 0); here s >= 1.
    if total == k:
        if s == 1:
            seed = Hyperelliptic(TopType(g, 1, 0), DegreeVector((2,)))
            steps = (_noram("C1"),) * (k - 2)
            return Plan(seed, steps, "Case1")
        if degrees[0] == 1:
            seed = Hyperelliptic(TopType(g - k + 2, 2, 0), DegreeVector((1, 1)))
            steps = (_III,) * (k - 2)
            return Plan(seed, steps, "Case2-all1")
        seed = Hyperelliptic(TopType(g - s + 1, 1, 0), DegreeVector((2,)))
        steps = []
        steps.extend([_III] * (s - 1))
        steps.extend([_noram("C1")] * (degrees[0] - 2))
        labels = [f"N{i + 1}" for i in range(s - 1)]
        steps.extend(_pump_to_degrees(labels, degrees[1:]))
        return Plan(seed, tuple(steps), "Case2-big")

    s_prime = sum(1 for d in degrees if d != 0)
    if s_prime == 0:
        # All windings vanish: take C1 from winding 2 up to (k - 4) / 2 + 2,
        # fold it down to 0, then add each other circle by a fold over a
        # non-real point.
        seed = Hyperelliptic(TopType(g - s + 1, 1, 0), DegreeVector((2,)))
        steps = _wraps_then_folds("C1", (k - 4) // 2, (k - 4) // 2 + 2)
        steps.extend([_II_RAM] * (s - 1))
        return Plan(seed, tuple(steps), "Case5")
    if s_prime == s:
        seed, steps = _case3_recipe(g, k, degrees)
        return Plan(seed, tuple(steps), "Case3")
    # Some windings vanish: build the all-nonzero covering at the genus
    # reached before the extra circles, then add each zero circle by a
    # fold over a non-real point.
    seed, steps = _case3_recipe(g - (s - s_prime), k, degrees[:s_prime])
    steps.extend([_II_RAM] * (s - s_prime))
    return Plan(seed, tuple(steps), "Case4")


def verify_plan(plan_: Plan, target: CoverSpec, trail: Optional[List[str]] = None) -> bool:
    """Replay the plan and check it lands exactly on the target.

    Every intermediate state must satisfy the running state invariants and
    no step may violate its preconditions.  Diagnostics are appended to
    `trail` when given; the return value alone answers the question.
    """

    def note(msg: str) -> bool:
        if trail is not None:
            trail.append(msg)
        return False

    try:
        final = None
        for i, state in enumerate(execute_states(plan_.seed, plan_.steps)):
            bad = state.invariant_failure()
            if bad is not None:
                return note(f"state after step {i - 1}: {bad}")
            final = state
    except PreconditionViolated as exc:
        return note(str(exc))
    except ValueError as exc:
        return note(f"seed rejected: {exc}")
    outcome = final.canonical_spec()
    if outcome != target:
        return note(f"plan executes to {outcome}, not the target")
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
    # A plan repeats a few distinct steps about k times: parse each distinct
    # wire step once and share its ConstructionStep, as plan() does.  Only
    # valid steps are stored, and their three fields are str or None.
    shared: dict = {}
    steps = []
    for i, raw in enumerate(raw_steps):
        key = None
        if isinstance(raw, dict):
            key = (raw.get("kind"), raw.get("variant"), raw.get("placement"))
        try:
            step = shared[key]
        except (KeyError, TypeError):  # a new step, or one with a list or object field
            step = shared[key] = step_from_json(raw, i)
        steps.append(step)
    provenance = obj["provenance"]
    if provenance not in PROVENANCE_TAGS:
        raise ValueError(f"plan.provenance: unknown tag {provenance!r}")
    return Plan(seed, tuple(steps), provenance)
