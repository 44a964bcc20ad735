"""Acceptance gate: the seven exit criteria, one test and one PASS/FAIL
line per criterion.  Everything is exact integer or rational bookkeeping;
no tolerances apply anywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import random
from collections import Counter
from fractions import Fraction

from realcover.arcs import FULL_CIRCLE
from realcover.brill_noether import FactKind, dims, lookup_fact, rho
from realcover.constructions import (
    ConstructionStep,
    Hyperelliptic,
    StepKind,
    Variant,
    apply_step,
    seed_state,
)
from realcover.covering4 import CoveringNumberTarget, build_covnum, covering_number
from realcover.planner import Plan, plan, verify_plan
from realcover.plsim import fiber_budget_violations, image_arcs, realize
from realcover.topology import (
    CoverSpec,
    CoverTarget,
    DegreeVector,
    TopType,
    target_admissible,
    weichold_admissible,
)

from oracles import all_box_tuples, arc, brute_min_circle_cover, cover_of_arcs

F = Fraction


def _report(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not failures, failures[:5]


def _spec(t):
    g, s, a, target, k, deg = t
    return CoverSpec(TopType(g, s, a), CoverTarget(target), k, DegreeVector(deg))


def _box_plans(g_max, k_min, k_max):
    for t in all_box_tuples(g_max, k_min, k_max):
        spec = _spec(t)
        result = plan(spec)
        yield spec, result


def test_criterion_1_admissibility_iff_plannable():
    failures = []
    for spec, result in _box_plans(8, 3, 6):
        is_plan = isinstance(result, Plan)
        if is_plan != target_admissible(spec):
            failures.append(("plannability mismatch", spec))
        elif is_plan and not verify_plan(result, spec):
            failures.append(("emitted plan fails verification", spec))
    _report(1, "admissibility iff plannability", failures)


def test_criterion_2_construction_deltas():
    RAM, NORAM = Variant.WITH_REAL_RAM, Variant.WITHOUT_REAL_RAM
    from realcover.constructions import HyperellipticToR0, LabeledState

    base = LabeledState(5, 0, 4, CoverTarget.PROJ_LINE, (("C1", 2), ("C2", 0)))
    empty = seed_state(Hyperelliptic(TopType(3, 0, 1), DegreeVector()))
    conic = seed_state(HyperellipticToR0(3))

    # one case per (kind, variant): (state, step, expected
    # (dg, ds, dk, a_out, windings_out))
    cases = [
        (
            "I/ram lowers the placed winding",
            base,
            ConstructionStep(StepKind.I, RAM, "C1"),
            (0, 0, 1, 0, (("C1", 1), ("C2", 0))),
        ),
        (
            "I/ram flips winding 0 to 1",
            base,
            ConstructionStep(StepKind.I, RAM, "C2"),
            (0, 0, 1, 0, (("C1", 2), ("C2", 1))),
        ),
        (
            "I/noram raises the placed winding",
            base,
            ConstructionStep(StepKind.I, NORAM, "C1"),
            (0, 0, 1, 0, (("C1", 3), ("C2", 0))),
        ),
        (
            "II/ram adds a winding-0 circle",
            base,
            ConstructionStep(StepKind.II, RAM),
            (1, 1, 0, 0, (("C1", 2), ("C2", 0), ("N1", 0))),
        ),
        (
            "II/noram joins the halves",
            base,
            ConstructionStep(StepKind.II, NORAM),
            (1, 0, 0, 1, (("C1", 2), ("C2", 0))),
        ),
        (
            "III adds a winding-1 circle",
            base,
            ConstructionStep(StepKind.III),
            (1, 1, 1, 0, (("C1", 2), ("C2", 0), ("N1", 1))),
        ),
        (
            "IV raises degree by two off the real locus",
            empty,
            ConstructionStep(StepKind.IV),
            (1, 0, 2, 1, ()),
        ),
        (
            "V raises degree by one over the conic",
            conic,
            ConstructionStep(StepKind.V),
            (1, 0, 1, 1, ()),
        ),
    ]
    failures = []
    for name, state, step, (dg, ds, dk, a_out, comps) in cases:
        out = apply_step(state, step)
        got = (out.g - state.g, out.s - state.s, out.k - state.k, out.a, out.components)
        if got != (dg, ds, dk, a_out, comps):
            failures.append((name, got))
    _report(2, "construction deltas", failures)


def test_criterion_3_symbolic_pl_agreement():
    failures = []
    for spec, result in _box_plans(8, 3, 6):
        if not isinstance(result, Plan) or spec.target is not CoverTarget.PROJ_LINE:
            continue
        cover = realize(result.seed, result.steps)
        want = Counter(spec.degrees.entries)
        got = Counter(abs(m.closure) for _, m in cover.components)
        if got != want:
            failures.append(("winding multiset", spec, dict(got)))
            continue
        bad = fiber_budget_violations(cover)
        if bad:
            failures.append(("fiber budget", spec, bad[0]))
    _report(3, "symbolic and PL layers agree", failures)


def test_criterion_4_covering_numbers_degree_four():
    failures = []
    for g in range(12):
        for s in range(1, g + 2):
            for a in (0, 1):
                if not weichold_admissible(g, s, a):
                    continue
                for kcov in range(1, s + 1):
                    cover, spec = build_covnum(
                        CoveringNumberTarget(TopType(g, s, a), kcov)
                    )
                    # covering_number reads the maps' integer ends itself,
                    # not image_arcs, so the subset brute force over the
                    # image arcs is an independent check of it.
                    arcs = [arc for _, arc in image_arcs(cover)]
                    checks = [
                        cover.k == 4,
                        spec.top == TopType(g, s, a),
                        len(cover.components) == s,
                        all(m.closure == 0 for _, m in cover.components),
                        covering_number(cover) == kcov,
                        brute_min_circle_cover(arcs) == kcov,
                    ]
                    if not all(checks):
                        failures.append(((g, s, a, kcov), checks))
    _report(4, "degree-4 covering numbers", failures)


def test_criterion_5_circle_cover_oracle():
    rng = random.Random(20260810)
    failures = []
    for trial in range(1000):
        count = rng.randint(1, 12)
        arcs = []
        for _ in range(count):
            if rng.random() < 0.03:
                arcs.append(FULL_CIRCLE)
                continue
            den = rng.choice([8, 12, 16, 24, 360])
            start = F(rng.randrange(den), den)
            length = F(rng.randrange(1, den), den)
            arcs.append(arc(start, (start + length) % 1))
        # covering_number answers 0 where the brute force finds no cover.
        greedy = covering_number(cover_of_arcs(arcs))
        brute = brute_min_circle_cover(arcs)
        if greedy != (brute or 0):
            failures.append((trial, greedy, brute, arcs))
    _report(5, "covering number of random arcs equals brute force", failures)


def test_criterion_6_dimension_formulas():
    failures = []
    if rho(4, 3, 1) != 0:
        failures.append(("rho(4,3,1)", rho(4, 3, 1)))
    for g in range(2, 21):
        for k in range(2, g + 1):
            d = dims(g, k)
            if d.hurwitz - 3 != d.image_bound:
                failures.append(("hurwitz - 3", g, k))
            if d.image_bound - d.moduli != rho(g, k, 1):
                failures.append(("image bound - moduli", g, k))
    _report(6, "dimension formulas", failures)


def test_criterion_7_facts_cross_check():
    failures = []
    fact = lookup_fact(4, 0, 1, 3)
    spec = CoverSpec(TopType(4, 0, 1), CoverTarget.PROJ_LINE, 3, DegreeVector())
    if fact is None or fact.kind is not FactKind.NO_REAL_PENCIL:
        failures.append(("fact missing or wrong kind", fact))
    if target_admissible(spec):
        failures.append(("admissibility disagrees with the recorded fact", spec))
    _report(7, "facts agree with admissibility", failures)
