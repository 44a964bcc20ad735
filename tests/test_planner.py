import hashlib
import itertools
import json
from dataclasses import replace

import pytest

from realcover.constructions import (
    ConstructionStep,
    GenericR0Pencil,
    Hyperelliptic,
    LabeledState,
    StepKind,
    Variant,
    _Replay,
    execute_states,
)
from realcover.planner import (
    PROVENANCE_TAGS,
    Infeasible,
    Plan,
    plan,
    plan_from_json,
    plan_to_json,
    verify_plan,
)
from realcover.plsim import fiber_budget_violations, realize
from realcover.topology import (
    CoverSpec,
    CoverTarget,
    DegreeVector,
    TopType,
    admissibility_failure,
    enumerate_admissible,
    spec_text,
)

from oracles import execute, expand, oracle_admissibility_failure


def spec(g, s, a, target, k, deg=()):
    return CoverSpec(TopType(g, s, a), CoverTarget(target), k, DegreeVector(tuple(deg)))


class TestStringTargets:
    """A spec whose target is the string "P1" or "R0" gets the answers of
    the one holding the CoverTarget member; any other target is refused."""

    def test_string_targets_answer_like_members(self):
        for member in enumerate_admissible(4, 5):
            text = replace(member, target=member.target.value)
            assert type(text.target) is str
            assert admissibility_failure(text) == admissibility_failure(member) is None
            assert spec_text(text) == spec_text(member)
            result = plan(text)
            assert result == plan(member)
            if isinstance(result, Plan):
                assert verify_plan(result, text) and verify_plan(result, member)

    def test_string_targets_of_inadmissible_specs(self):
        for target in ("P1", "R0"):
            for deg in ((2,), (1,), (0,)):
                for k in (2, 3, 4):
                    text = CoverSpec(TopType(0, 1, 0), target, k, DegreeVector(deg))
                    member = replace(text, target=CoverTarget(target))
                    assert admissibility_failure(text) == admissibility_failure(member)
                    assert plan(text) == plan(member)

    def test_other_targets_raise(self):
        bad = CoverSpec(TopType(0, 1, 0), "Q", 2, DegreeVector((2,)))
        for call in (admissibility_failure, plan, spec_text):
            with pytest.raises(ValueError, match="'Q'"):
                call(bad)


class TestDispatch:
    def test_all_unit_windings(self):
        target = spec(6, 3, 0, "P1", 3, (1, 1, 1))
        result = plan(target)
        assert result.provenance == "Case2-all1"
        assert result.seed == Hyperelliptic(TopType(5, 2, 0), DegreeVector((1, 1)))
        assert result.steps == (ConstructionStep(StepKind.III),)
        assert verify_plan(result, target)

    def test_genus_four_parity_infeasible(self):
        result = plan(spec(4, 0, 1, "P1", 3))
        assert result == Infeasible("parity")

    def test_conic_with_large_degree(self):
        g = 4
        result = plan(spec(g, 0, 1, "R0", g + 3))
        assert result.provenance == "R0-big-k"
        assert result.seed == GenericR0Pencil(g, g + 3)
        assert result.steps == ()

    def test_all_zero_windings_roundtrip(self):
        target = spec(5, 2, 0, "P1", 4, (0, 0))
        result = plan(target)
        assert result.provenance == "Case5"
        assert execute(result.seed, result.steps) == target

    def test_full_winding_on_one_circle(self):
        target = spec(4, 1, 0, "P1", 3, (3,))
        result = plan(target)
        assert result.provenance == "Case1"
        assert verify_plan(result, target)

    def test_degree_two_refused_even_when_admissible(self):
        result = plan(spec(1, 2, 0, "P1", 2, (1, 1)))
        assert isinstance(result, Infeasible)
        assert "k=2" in result.reason

    def test_every_branch_appears_in_the_box(self):
        tags = set()
        for target in enumerate_admissible(8, 6):
            if target.k == 2:
                continue
            result = plan(target)
            tags.add(result.provenance)
        assert tags == {
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
        }


class TestBranchGuards:
    def test_all_unit_branch_parity(self):
        # the all-ones branch only fires when g and k+1 share parity and the
        # base genus g-k+2 is at least 1
        for target in enumerate_admissible(8, 6):
            if target.k == 2:
                continue
            result = plan(target)
            if result.provenance == "Case2-all1":
                g, k = target.top.g, target.k
                assert (g - k - 1) % 2 == 0
                assert g - k + 2 >= 1

    def test_prefixes_of_emitted_plans_execute(self):
        target = spec(7, 4, 0, "P1", 6, (2, 1, 1, 0))
        result = plan(target)
        assert isinstance(result, Plan)
        for i in range(len(result.steps) + 1):
            execute(result.seed, result.steps[:i])  # must not raise


def dispatch_tag(g, s, a, target, k, deg):
    """The branch planner.plan takes for an admissible tuple, restated from
    the dispatch conditions."""
    total, nonzero = sum(deg), sum(d > 0 for d in deg)
    if target == "R0":
        return "R0-big-k" if k >= g + 1 else "R0-small-k"
    if a == 1:
        if s == 0:
            return "A1-s0-small-g" if g < k else "A1-s0-big-g"
        return "A1-sPos"
    if total == k:
        if s == 1:
            return "Case1"
        return "Case2-all1" if deg[0] == 1 else "Case2-big"
    if nonzero == 0:
        return "Case5"
    return "Case3" if nonzero == s else "Case4"


def lattice_vectors(s, k):
    """Canonical vectors of s windings: every one with entries in 0..3, and
    every one with s - 1 entries in 0..3 and one more that brings the sum
    to k - 4 .. k + 1, astride the sum, parity, zero-tail, separating and
    total == k thresholds."""
    out = set(itertools.combinations_with_replacement(range(3, -1, -1), s))
    if s:
        for rest in itertools.combinations_with_replacement(range(3, -1, -1), s - 1):
            for delta in range(-4, 2):
                big = k - sum(rest) + delta
                if big >= 0:
                    out.add(tuple(sorted((big, *rest), reverse=True)))
    return sorted(out)


def boundary_lattice(G):
    """Every tuple of the lattice around genus G: g in G - 2 .. G; k in
    3..6 and around g + 1, where the R0 branches and the a = 1, s = 0
    branches part; s <= 4 over P1 (s <= 1 over R0, whose real locus must be
    empty); both a."""
    for g in (G - 2, G - 1, G):
        for k in sorted({3, 4, 5, 6} | {g + d for d in range(-1, 4)}):
            for target in ("P1", "R0"):
                for a in (0, 1):
                    for s in range(5 if target == "P1" else 2):
                        for deg in lattice_vectors(s, k):
                            yield g, s, a, target, k, deg


class TestBoundaryLattice:
    """The planner at huge genus, on every point of a lattice around each
    dispatch threshold; plans have O(s) records and verify in closed form,
    so a point costs about the same at g = 10**100 as at g = 8."""

    @pytest.mark.parametrize("G", [10**3, 10**9, 10**100], ids=["1e3", "1e9", "1e100"])
    def test_every_lattice_point(self, G):
        tags, planned = set(), 0
        for t in boundary_lattice(G):
            point = spec(*t)
            failure = admissibility_failure(point)
            assert failure == oracle_admissibility_failure(*t), t
            result = plan(point)
            if failure is not None:
                assert result == Infeasible(failure), t
                continue
            assert isinstance(result, Plan) and verify_plan(result, point), t
            assert len(result.steps) <= point.top.s + 4, t
            assert result.provenance == dispatch_tag(*t), t
            tags.add(result.provenance)
            planned += 1
            if G == 10**3 and point.target is CoverTarget.PROJ_LINE:
                assert fiber_budget_violations(realize(result.seed, result.steps)) == [], t
        assert tags == set(PROVENANCE_TAGS)
        assert planned == 2688

    def test_box_plans_take_the_restated_branch(self, box_tuples):
        # The box is g <= 10, 3 <= k <= 8.
        for t in box_tuples:
            result = plan(spec(*t))
            assert result.provenance == dispatch_tag(*t), t
            assert len(result.steps) <= t[1] + 4, t


# sha256 of the plans over P1 in g <= 10, 3 <= k <= 8, one JSON line each
# with every record written out as single steps.  Outside Case4 and Case5
# these are the steps the planner emitted before plans were run-length
# records; Case4 and Case5 open their zero circles before their fold runs.
SINGLE_STEP_PLANS_SHA256 = "605d9233da2c1830724226007c3cc589f7ecb49dbea20e728a7917f117e98b8e"


class TestPlanShape:
    def test_no_fold_at_winding_zero(self, p1_box_plans):
        # Spare sheets go to wraps first, then folds, so no plan folds a
        # circle of winding 0 and realize never turns a circle around: a
        # record of m folds starts at winding m or more.
        n = 0
        for target, result in p1_box_plans:
            states = execute_states(result.seed, result.steps)
            for i, (state, step) in enumerate(zip(states, result.steps)):
                if step.kind is StepKind.I and step.variant is Variant.WITH_REAL_RAM:
                    winding = state.windings[step.placement]
                    assert winding >= step.repeat, (result.provenance, target, i)
            n += 1
        assert n == 3625

    def test_records_are_the_single_steps_of_before(self, p1_box_plans):
        # Written out as single steps, every plan is the step list the
        # planner emitted before it wrote runs as records, and no two
        # consecutive records are equal steps.
        digest = hashlib.sha256()
        for _, result in p1_box_plans:
            for a, b in zip(result.steps, result.steps[1:]):
                assert (a.kind, a.variant, a.placement) != (b.kind, b.variant, b.placement)
            single = Plan(result.seed, tuple(expand(result.steps)), result.provenance)
            doc = json.dumps(plan_to_json(single), separators=(",", ":"))
            digest.update(doc.encode() + b"\n")
        assert digest.hexdigest() == SINGLE_STEP_PLANS_SHA256

    def test_plan_length_does_not_grow_with_k(self):
        for k in (101, 10**6 + 1, 10**100 + 1):
            result = plan(spec(6, 1, 0, "P1", k, (1,)))
            assert [st.repeat for st in result.steps] == [1, (k - 3) // 2, (k - 3) // 2]
            assert verify_plan(result, spec(6, 1, 0, "P1", k, (1,)))

    @pytest.mark.parametrize(
        "target, provenance, label, wraps, folds",
        [
            (spec(6, 1, 0, "P1", 11, (3,)), "Case3", "C1", 3, (3,)),
            (spec(6, 3, 0, "P1", 9, (1, 0, 0)), "Case4", "C1", 3, (3,)),
            (spec(6, 3, 0, "P1", 12, (0, 0, 0)), "Case5", "C1", 4, (1, 5)),
            (spec(8, 3, 1, "P1", 14, (5, 3, 0)), "A1-sPos", "C1", 2, (2,)),
            (spec(8, 2, 1, "P1", 14, (5, 3)), "A1-sPos", "N1", 2, (2,)),
        ],
    )
    def test_spare_sheets_wrap_then_fold(self, target, provenance, label, wraps, folds):
        # the last kind-I records, III/II aside: wraps, then folds, which
        # Case5 splits around its II/ram record after the first; a circle
        # pumped before its spare wraps (Case3 (3,): two) holds its pump in
        # the same record
        result = plan(target)
        assert result.provenance == provenance and verify_plan(result, target)
        tail = [st for st in result.steps if st.kind is StepKind.I][-1 - len(folds) :]
        wrap = ConstructionStep(StepKind.I, Variant.WITHOUT_REAL_RAM, label)
        fold = ConstructionStep(StepKind.I, Variant.WITH_REAL_RAM, label)
        pumped = 2 if provenance == "Case3" else 0  # C1 from winding 1 to 3
        assert tail == [replace(wrap, repeat=wraps + pumped)] + [
            replace(fold, repeat=m) for m in folds
        ]
        single = [wrap] * wraps + [fold] * sum(folds)
        assert expand(tail)[-len(single) :] == single

    def test_zero_circles_open_before_the_fold_run(self, p1_box_plans):
        # Case4 and Case5 add their winding-0 circles (II/ram) when C1 has
        # folded once, so placing them reads a cover of a few breakpoints
        n = 0
        for _, result in p1_box_plans:
            if result.provenance in ("Case4", "Case5"):
                steps = list(result.steps)
                kinds = [(st.kind, st.variant) for st in steps]
                if (StepKind.II, Variant.WITH_REAL_RAM) not in kinds:
                    continue
                opened = kinds.index((StepKind.II, Variant.WITH_REAL_RAM))
                folds = [
                    st.repeat
                    for st in steps[:opened]
                    if (st.kind, st.variant) == (StepKind.I, Variant.WITH_REAL_RAM)
                ]
                assert folds == [1], (result.provenance, steps)
                n += 1
        assert n == 1093


class TestVerify:
    def test_deleting_a_step_breaks_verification(self):
        target = spec(6, 3, 0, "P1", 4, (2, 1, 1))
        result = plan(target)
        assert verify_plan(result, target)
        for i in range(len(result.steps)):
            mutated = Plan(
                result.seed, result.steps[:i] + result.steps[i + 1 :], result.provenance
            )
            assert not verify_plan(mutated, target)

    def test_mismatched_target_reports_a_trail(self):
        target = spec(6, 3, 0, "P1", 3, (1, 1, 1))
        result = plan(target)
        other = spec(6, 3, 0, "P1", 5, (1, 1, 1))
        trail = []
        assert not verify_plan(result, other, trail)
        assert trail and "executes to" in trail[0]

    def test_invalid_hand_built_plan(self):
        bad = Plan(
            Hyperelliptic(TopType(4, 1, 0), DegreeVector((2,))),
            (ConstructionStep(StepKind.II, Variant.WITH_REAL_RAM),),
            "Case5",
        )
        trail = []
        assert not verify_plan(bad, spec(5, 2, 0, "P1", 2, (2, 0)), trail)
        assert trail

    def test_verify_snapshots_the_state_once(self, monkeypatch):
        # verify checks every record on the one working state and builds a
        # LabeledState only for the seed and the outcome, so its cost is
        # linear in records plus circles, not their product.
        s = 2000
        target = spec(s - 1, s, 0, "P1", 2 * s, (2,) * s)
        result = plan(target)
        assert (result.provenance, len(result.steps)) == ("Case2-big", s)
        snapshots, built = [], []
        state, init = _Replay.state, LabeledState.__init__
        monkeypatch.setattr(_Replay, "state", lambda self: snapshots.append(1) or state(self))
        monkeypatch.setattr(
            LabeledState, "__init__", lambda self, *args: built.append(1) or init(self, *args)
        )
        assert verify_plan(result, target)
        assert (len(snapshots), len(built)) == (1, 2)


class TestDeterminism:
    def test_plans_are_pure(self):
        target = spec(7, 4, 1, "P1", 6, (2, 1, 1, 0))
        assert plan(target) == plan(target)
        a = json.dumps(plan_to_json(plan(target)))
        b = json.dumps(plan_to_json(plan(target)))
        assert a == b

    def test_json_round_trip(self):
        for target in [
            spec(5, 2, 0, "P1", 4, (0, 0)),
            spec(6, 0, 1, "P1", 4),
            spec(3, 0, 1, "R0", 2),
            spec(4, 2, 1, "P1", 5, (1, 0)),
        ]:
            result = plan(target)
            assert isinstance(result, Plan)
            assert plan_from_json(plan_to_json(result)) == result

    def test_serialize_parse_verify_round_trip_over_box(self):
        for target in enumerate_admissible(4, 4):
            if target.k == 2:
                continue
            result = plan(target)
            reparsed = plan_from_json(json.loads(json.dumps(plan_to_json(result))))
            assert verify_plan(reparsed, target)

    def test_malformed_plan_documents(self):
        with pytest.raises(ValueError, match="provenance"):
            plan_from_json({"seed": {"kind": "GenericPencil", "g": 1, "k": 2}, "steps": []})
        with pytest.raises(ValueError, match="seed.kind"):
            plan_from_json({"seed": {"kind": "Nope"}, "steps": [], "provenance": "Case1"})
        with pytest.raises(ValueError, match="steps\\[0\\]"):
            plan_from_json(
                {
                    "seed": {"kind": "GenericPencil", "g": 1, "k": 2},
                    "steps": [{"kind": "VIII"}],
                    "provenance": "Case1",
                }
            )

    def test_steps_differing_in_repeat_are_different_records(self):
        # each record keeps its own repeat, which must be a true int
        doc = {"seed": {"kind": "GenericPencil", "g": 1, "k": 2}, "provenance": "Case1"}
        iii = {"kind": "III", "variant": None, "placement": None}
        raw = [iii, {**iii, "repeat": 3}, {**iii, "repeat": 1}, {**iii, "repeat": 3}, iii]
        parsed = plan_from_json({**doc, "steps": raw})
        assert [st.repeat for st in parsed.steps] == [1, 3, 1, 3, 1]
        for bad in (True, 3.0):
            steps = [iii, {**iii, "repeat": 3}, {**iii, "repeat": bad}]
            with pytest.raises(ValueError, match=r"steps\[2\]\.repeat: expected a positive"):
                plan_from_json({**doc, "steps": steps})

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("I", "steps[3]: expected an object"),
            ({"variant": "ram", "placement": "C1"}, "steps[3].kind: expected one of I..V"),
            ({"kind": ["I"], "variant": "ram"}, "steps[3].kind: expected one of I..V"),
            (
                {"kind": "I", "variant": {"ram": 1}, "placement": "C1"},
                'steps[3].variant: expected "ram", "noram" or null',
            ),
            (
                {"kind": "I", "variant": "ram", "placement": ["C1"]},
                "steps[3].placement: expected a string or null",
            ),
            (
                {"kind": "I", "variant": "ram"},
                "steps[3]: construction I requires a placement label",
            ),
            ({"kind": "III", "variant": "ram"}, "steps[3]: construction III takes no variant"),
            (
                {"kind": "I", "variant": "ram", "placement": "C1", "repat": 5},
                "steps[3]: unknown field 'repat'",
            ),
        ],
    )
    def test_repeated_steps_are_shared_and_a_bad_one_fails_at_its_index(self, bad, message):
        ram = {"kind": "I", "variant": "ram", "placement": "C1"}
        doc = {"seed": {"kind": "GenericPencil", "g": 1, "k": 2}, "provenance": "Case1"}
        parsed = plan_from_json({**doc, "steps": [ram, dict(ram), {"kind": "III"}, ram]})
        assert parsed.steps[0] == ConstructionStep(StepKind.I, Variant.WITH_REAL_RAM, "C1")
        with pytest.raises(ValueError) as refused:
            plan_from_json({**doc, "steps": [ram, ram, {"kind": "III", "variant": None}, bad, ram]})
        assert str(refused.value) == message
