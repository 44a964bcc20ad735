import itertools
import json
import random
import typing
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from realcover.constructions import (
    BaseSeed,
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
    _SEEDS,
    _folds,
    _Replay,
    apply_step,
    runs,
    seed_from_json,
    seed_state,
    seed_to_json,
    step_from_json,
    step_to_json,
)
from realcover.topology import CoverSpec, CoverTarget, DegreeVector, TopType, weichold_admissible

from oracles import catalog_seeds, execute, expand, reachable_specs

RAM = Variant.WITH_REAL_RAM
NORAM = Variant.WITHOUT_REAL_RAM


def hyper(g, s, a, deg):
    return Hyperelliptic(TopType(g, s, a), DegreeVector(tuple(deg)))


def winding_sum(state):
    return sum(d for _, d in state.components)


class TestSeeds:
    def test_double_wrap_seed(self):
        state = seed_state(hyper(4, 1, 0, (2,)))
        assert (state.g, state.s, state.a, state.k) == (4, 1, 0, 2)
        assert state.components == (("C1", 2),)

    def test_two_unit_circles_seed(self):
        state = seed_state(hyper(3, 2, 0, (1, 1)))
        assert state.components == (("C1", 1), ("C2", 1))

    def test_generic_pencil(self):
        state = seed_state(GenericPencil(3, 4))
        assert (state.g, state.s, state.a, state.k) == (3, 0, 1, 4)

    def test_zero_pattern_any_admissible_type(self):
        state = seed_state(hyper(3, 2, 1, (0, 0)))
        assert state.components == (("C1", 0), ("C2", 0))

    @pytest.mark.parametrize(
        "seed",
        [
            hyper(3, 1, 0, (2,)),  # type fails existence bounds (parity)
            hyper(4, 1, 0, (1,)),  # winding pattern outside the catalog
            hyper(4, 2, 0, (2, 0)),
            HyperellipticToR0(4),  # even genus
            GenericPencil(4, 4),  # needs g < k
            GenericPencil(2, 5),  # odd degree
            GenericR0Pencil(4, 4),  # parity of k vs g+1
            GenericR0Pencil(4, 3),  # k below g+1
        ],
    )
    def test_catalog_rejects(self, seed):
        with pytest.raises(SeedNotInCatalog):
            seed_state(seed)

    def test_an_object_that_is_no_seed_is_refused(self):
        with pytest.raises(SeedNotInCatalog) as exc:
            seed_state(object())
        assert str(exc.value).startswith("unknown seed")


class TestStepValidation:
    def test_kind_one_needs_variant_and_placement(self):
        with pytest.raises(ValueError):
            ConstructionStep(StepKind.I, RAM)
        with pytest.raises(ValueError):
            ConstructionStep(StepKind.I, placement="C1")

    def test_late_kinds_take_nothing(self):
        with pytest.raises(ValueError):
            ConstructionStep(StepKind.III, RAM)
        with pytest.raises(ValueError):
            ConstructionStep(StepKind.IV, placement="C1")

    def test_json_round_trip(self):
        step = ConstructionStep(StepKind.I, NORAM, "C2")
        assert step_from_json(step_to_json(step)) == step
        bare = ConstructionStep(StepKind.V)
        assert step_from_json(step_to_json(bare)) == bare

    def test_repeat_is_written_only_past_one(self):
        # a plan of single steps keeps the wire form it had before records
        one, run = ConstructionStep(StepKind.III), ConstructionStep(StepKind.III, repeat=10**30)
        assert step_to_json(one) == {"kind": "III", "variant": None, "placement": None}
        assert step_to_json(run) == {**step_to_json(one), "repeat": 10**30}
        assert step_from_json(step_to_json(run)) == run != one

    @pytest.mark.parametrize("repeat", [0, -1, True, 2.0, "2", None])
    def test_repeat_must_be_a_positive_integer(self, repeat):
        with pytest.raises(ValueError, match="repeat must be a positive integer"):
            ConstructionStep(StepKind.V, repeat=repeat)


class TestApplyStep:
    def test_fold_lowers_winding(self):
        state = seed_state(hyper(4, 1, 0, (2,)))
        out = apply_step(state, ConstructionStep(StepKind.I, RAM, "C1"))
        assert out.components == (("C1", 1),)
        assert (out.g, out.k) == (4, 3)

    def test_fold_flips_zero_winding(self):
        state = seed_state(hyper(2, 1, 1, (0,)))
        out = apply_step(state, ConstructionStep(StepKind.I, RAM, "C1"))
        assert dict(out.components)["C1"] == 1

    def test_wrap_raises_winding(self):
        state = seed_state(hyper(4, 1, 0, (2,)))
        out = apply_step(state, ConstructionStep(StepKind.I, NORAM, "C1"))
        assert dict(out.components)["C1"] == 3
        assert out.k == 3

    def test_new_unit_circle(self):
        state = seed_state(hyper(3, 2, 0, (1, 1)))
        out = apply_step(state, ConstructionStep(StepKind.III))
        assert (out.g, out.s, out.a, out.k) == (4, 3, 0, 3)
        assert out.components[-1] == ("N1", 1)

    def test_connecting_smoothing_sets_a_once(self):
        state = seed_state(hyper(2, 1, 0, (0,)))
        once = apply_step(state, ConstructionStep(StepKind.II, NORAM))
        twice = apply_step(once, ConstructionStep(StepKind.II, NORAM))
        assert once.a == 1 and twice.a == 1
        assert twice.g == state.g + 2

    def test_created_labels_count_up(self):
        state = seed_state(hyper(2, 1, 0, (0,)))
        state = apply_step(state, ConstructionStep(StepKind.II, RAM))
        state = apply_step(state, ConstructionStep(StepKind.III))
        assert [lbl for lbl, _ in state.components] == ["C1", "N1", "N2"]

    def test_preconditions(self):
        no_circles = seed_state(GenericPencil(1, 2))
        with pytest.raises(PreconditionViolated):
            apply_step(no_circles, ConstructionStep(StepKind.I, RAM, "C1"))
        full = seed_state(hyper(4, 1, 0, (2,)))
        with pytest.raises(PreconditionViolated):
            apply_step(full, ConstructionStep(StepKind.II, RAM))  # winding sum = k
        with pytest.raises(PreconditionViolated):
            apply_step(full, ConstructionStep(StepKind.IV))  # real locus nonempty
        with pytest.raises(PreconditionViolated):
            apply_step(full, ConstructionStep(StepKind.V))  # wrong target
        conic = seed_state(HyperellipticToR0(3))
        line_only = [
            ConstructionStep(StepKind.I, RAM, "C1"),
            ConstructionStep(StepKind.II, RAM),
            ConstructionStep(StepKind.III),
            ConstructionStep(StepKind.IV),
        ]
        for step in line_only:
            with pytest.raises(PreconditionViolated):
                apply_step(conic, step)

    def test_missing_placement_label(self):
        state = seed_state(hyper(4, 1, 0, (2,)))
        with pytest.raises(PreconditionViolated):
            apply_step(state, ConstructionStep(StepKind.I, RAM, "C9"))


class TestExecute:
    def test_empty_steps_return_canonical_seed(self):
        out = execute(hyper(5, 2, 0, (1, 1)), ())
        assert out == CoverSpec(
            TopType(5, 2, 0), CoverTarget.PROJ_LINE, 2, DegreeVector((1, 1))
        )

    def test_full_winding_composite(self):
        steps = (ConstructionStep(StepKind.I, NORAM, "C1"),) * 2
        out = execute(hyper(4, 1, 0, (2,)), steps)
        assert out == CoverSpec(TopType(4, 1, 0), CoverTarget.PROJ_LINE, 4, DegreeVector((4,)))

    def test_outcome_is_not_validated_but_comparable(self):
        # The executor reports whatever the bookkeeping yields; a mismatched
        # target is caught by plan verification, not here.
        steps = (
            ConstructionStep(StepKind.I, RAM, "C1"),
            ConstructionStep(StepKind.I, RAM, "C1"),
            ConstructionStep(StepKind.II, RAM),
            ConstructionStep(StepKind.II, RAM),
        )
        out = execute(hyper(0, 1, 0, (2,)), steps)
        assert out == CoverSpec(
            TopType(2, 3, 0), CoverTarget.PROJ_LINE, 4, DegreeVector((0, 0, 0))
        )
        claimed = CoverSpec(
            TopType(2, 3, 0), CoverTarget.PROJ_LINE, 4, DegreeVector((1, 1, 0))
        )
        assert out != claimed

    @pytest.mark.parametrize(
        "k, windings, target, failure",
        [
            (4, (1, 3), CoverTarget.PROJ_LINE, None),
            (3, (2, 2), CoverTarget.PROJ_LINE, "winding sum 4 exceeds degree 3"),
            (2, (-2, 2), CoverTarget.PROJ_LINE, "winding sum 4 exceeds degree 2"),
            (5, (1, 1), CoverTarget.PROJ_LINE, "degree defect 3 is odd"),
            (4, (), CoverTarget.ANISOTROPIC_CONIC, None),
            (4, (0,), CoverTarget.ANISOTROPIC_CONIC, "covering of R0 with nonempty real locus"),
        ],
    )
    def test_invariant_failure_messages(self, k, windings, target, failure):
        comps = tuple((f"C{i + 1}", d) for i, d in enumerate(windings))
        assert LabeledState(3, 0, k, target, comps).invariant_failure() == failure


class TestStringTargets:
    """A state whose target is the string "P1" or "R0" steps and checks like
    the one holding the CoverTarget member; any other target is refused by
    name."""

    STEPS = (
        ConstructionStep(StepKind.I, NORAM, "C1"),
        ConstructionStep(StepKind.I, RAM, "C1", 2),
        ConstructionStep(StepKind.II, RAM),
        ConstructionStep(StepKind.II, NORAM),
        ConstructionStep(StepKind.III, repeat=3),
        ConstructionStep(StepKind.IV),
        ConstructionStep(StepKind.V, repeat=2),
    )

    @staticmethod
    def outcome(state, step):
        try:
            return apply_step(state, step, 4)
        except PreconditionViolated as exc:
            return str(exc)

    @pytest.mark.parametrize("member", list(CoverTarget))
    @pytest.mark.parametrize("comps", [(("C1", 1),), (("C1", 0), ("C2", 2)), ()])
    def test_string_targets_step_and_check_like_members(self, member, comps):
        state = LabeledState(1, 0, 3, member, comps)
        text = replace(state, target=member.value)
        assert type(text.target) is str
        assert text.invariant_failure() == state.invariant_failure()
        for step in self.STEPS:
            out = self.outcome(text, step)
            assert out == self.outcome(state, step)
            if isinstance(out, LabeledState):
                assert out.target is member

    def test_the_string_p1_state_takes_a_wrap(self):
        state = LabeledState(1, 0, 3, "P1", (("C1", 1),))
        assert state.invariant_failure() is None
        out = apply_step(state, ConstructionStep(StepKind.I, NORAM, "C1"))
        assert out == LabeledState(1, 0, 4, CoverTarget.PROJ_LINE, (("C1", 2),))

    def test_other_targets_are_refused_by_name(self):
        state = LabeledState(1, 0, 3, "Q", (("C1", 1),))
        with pytest.raises(ValueError, match="'Q'"):
            state.invariant_failure()
        with pytest.raises(ValueError, match="'Q'"):
            apply_step(state, ConstructionStep(StepKind.I, NORAM, "C1"))


class TestReplay:
    @pytest.mark.parametrize("labels", [("C1", "C1"), ("C1", "N2")])
    def test_repeated_labels_refused(self, labels):
        # ("C1", "N2") would name its next new circle N2 again
        comps = tuple((lbl, 1) for lbl in labels)
        state = LabeledState(3, 0, 4, CoverTarget.PROJ_LINE, comps)
        with pytest.raises(ValueError, match="labels must be distinct"):
            apply_step(state, ConstructionStep(StepKind.III))

    def test_record_of_new_circles_refuses_a_taken_label(self):
        # after ("C1", "N3") the second of three new circles would be N3
        state = LabeledState(3, 0, 4, CoverTarget.PROJ_LINE, (("C1", 1), ("N3", 1)))
        replay = _Replay(state)
        with pytest.raises(ValueError, match="labels must be distinct"):
            replay.step(ConstructionStep(StepKind.III, repeat=3))
        assert replay.state() == state and (replay.total, replay.new) == (2, 1)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_wrap_run_is_m_single_wraps(self, m):
        # One _Replay.step of a record of m wraps leaves the state of m
        # single wraps.
        start = LabeledState(2, 0, 5, CoverTarget.PROJ_LINE, (("C1", 1), ("N1", 0)))
        wrap = ConstructionStep(StepKind.I, NORAM, "N1")
        run, singles = _Replay(start), _Replay(start)
        assert run.step(replace(wrap, repeat=m), 0) is None
        for i in range(m):
            singles.step(wrap, i)
        assert run.state() == singles.state()
        assert (run.total, run.new) == (singles.total, singles.new) == (1 + m, 1)

    @pytest.mark.parametrize("d", range(-3, 7))
    def test_fold_run_closed_form(self, d):
        # m folds at winding d iterate |d - 1| m times, for every integer d;
        # only hand-built states hold a negative winding.
        start = LabeledState(2, 0, 40, CoverTarget.PROJ_LINE, (("C1", d), ("C2", 2)))
        fold = ConstructionStep(StepKind.I, RAM, "C1")
        for m in range(1, 10):
            w = d
            for _ in range(m):
                w = abs(w - 1)
            assert _folds(d, m) == w, (d, m)
            run, singles = _Replay(start), _Replay(start)
            run.step(replace(fold, repeat=m), 0)
            for i in range(m):
                singles.step(fold, i)
            assert run.state() == singles.state() == replace(
                start, k=40 + m, components=(("C1", w), ("C2", 2))
            )
            assert (run.total, run.new) == (singles.total, singles.new) == (w + 2, 0)

    @pytest.mark.parametrize(
        "step",
        [
            ConstructionStep(StepKind.III),
            ConstructionStep(StepKind.II, RAM),
            ConstructionStep(StepKind.II, NORAM),
            ConstructionStep(StepKind.I, RAM, "C1"),
        ],
    )
    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_record_is_its_single_steps(self, step, m):
        # a record creating circles numbers them N(new + 1) .. N(new + m)
        start = LabeledState(2, 0, 9, CoverTarget.PROJ_LINE, (("C1", 3), ("N1", 1)))
        run, singles = _Replay(start), _Replay(start)
        run.step(replace(step, repeat=m), 0)
        for i in range(m):
            singles.step(step, i)
        assert run.state() == singles.state()
        assert (run.total, run.new) == (singles.total, singles.new)

    @pytest.mark.parametrize("kind, gain", [(StepKind.IV, 2), (StepKind.V, 1)])
    def test_budget_records_add_m_gains(self, kind, gain):
        target = CoverTarget.PROJ_LINE if kind is StepKind.IV else CoverTarget.ANISOTROPIC_CONIC
        replay = _Replay(LabeledState(3, 1, 4, target, ()))
        replay.step(ConstructionStep(kind, repeat=10**40))
        assert (replay.g, replay.k) == (3 + 10**40, 4 + gain * 10**40)

    @pytest.mark.parametrize(
        "comps, step",
        [
            ((("C1", 1),), ConstructionStep(StepKind.V)),
            ((("C1", 1),), ConstructionStep(StepKind.I, RAM, "C2")),
            ((("C1", 4),), ConstructionStep(StepKind.II, RAM)),
            ((("C1", 0),), ConstructionStep(StepKind.IV)),
        ],
    )
    def test_refusal_leaves_the_state(self, comps, step):
        # Both interpreters step this state; a refused step changes none of it.
        replay = _Replay(LabeledState(3, 0, 4, CoverTarget.PROJ_LINE, comps))
        before = replay.state(), replay.total, replay.new
        with pytest.raises(PreconditionViolated) as info:
            replay.step(step, 7)
        assert info.value.step_index == 7
        assert (replay.state(), replay.total, replay.new) == before


def _random_states():
    # Labeled states over the projective line with valid bookkeeping.
    def build(g, deltas, extra):
        total = sum(deltas)
        k = total + 2 * extra
        comps = tuple((f"C{i+1}", d) for i, d in enumerate(deltas))
        return LabeledState(g, 0, k, CoverTarget.PROJ_LINE, comps)

    return st.builds(
        build,
        g=st.integers(0, 6),
        deltas=st.lists(st.integers(0, 4), min_size=1, max_size=4),
        extra=st.integers(1, 3),
    )


def _steps_for(state):
    options = [
        ConstructionStep(StepKind.II, RAM),
        ConstructionStep(StepKind.II, NORAM),
        ConstructionStep(StepKind.III),
    ]
    for lbl, _ in state.components:
        options.append(ConstructionStep(StepKind.I, RAM, lbl))
        options.append(ConstructionStep(StepKind.I, NORAM, lbl))
    return st.sampled_from(options)


class TestStepInvariants:
    @given(data=st.data())
    def test_parity_and_budget_conserved(self, data):
        state = data.draw(_random_states())
        step = data.draw(_steps_for(state))
        out = apply_step(state, step)
        total, before = winding_sum(out), winding_sum(state)
        assert total <= out.k
        assert (out.k - total) % 2 == (state.k - before) % 2

    @given(data=st.data())
    def test_connectedness_rule(self, data):
        state = data.draw(_random_states())
        step = data.draw(_steps_for(state))
        out = apply_step(state, step)
        if step.kind is StepKind.II and step.variant is NORAM:
            assert out.a == 1
        else:
            assert out.a == state.a

    @given(data=st.data())
    def test_genus_and_degree_deltas(self, data):
        state = data.draw(_random_states())
        step = data.draw(_steps_for(state))
        out = apply_step(state, step)
        expected_dg = 0 if step.kind is StepKind.I else 1
        expected_dk = {StepKind.I: 1, StepKind.II: 0, StepKind.III: 1, StepKind.IV: 2}[
            step.kind
        ]
        assert out.g - state.g == expected_dg
        assert out.k - state.k == expected_dk

    @given(data=st.data())
    def test_type_existence_preserved(self, data):
        state = data.draw(_random_states())
        step = data.draw(_steps_for(state))
        if not weichold_admissible(state.g, state.s, state.a):
            return
        out = apply_step(state, step)
        assert weichold_admissible(out.g, out.s, out.a)


class TestReachability:
    """The step language reaches exactly the admissible set: a BFS over
    every catalog seed and every applicable step, independent of the
    planner and of topology's predicates, against the nested-loop oracle."""

    def test_reachable_specs_are_the_admissible_ones(self, box_tuples):
        paths = reachable_specs(10, 8)  # asserts the invariant on every state
        reached = {spec for spec in paths if spec[4] >= 3}
        admissible = box_tuples
        for spec in sorted(reached - admissible):
            seed, steps = paths[spec]
            path = [seed_to_json(seed)] + [step_to_json(step) for step in steps]
            print(f"reachable, not admissible: {spec} by {path}")
        for spec in sorted(admissible - reached):
            print(f"admissible, not reachable: {spec}")
        assert reached == admissible
        assert len(reached) == 3658


# One seed off the catalog of each kind: a winding pattern the hyperelliptic
# catalog lacks, an even genus over R0, odd k, and k of the wrong parity.
OFF_CATALOG = [hyper(2, 1, 0, (3,)), HyperellipticToR0(2), GenericPencil(5, 3), GenericR0Pencil(1, 3)]
WIRE_SEEDS = [seed for seed, _ in catalog_seeds(6, 8)] + OFF_CATALOG
# The integer fields of each kind but Hyperelliptic, in wire order.
INT_FIELDS = [(HyperellipticToR0, ("g",)), (GenericPencil, ("g", "k")), (GenericR0Pencil, ("g", "k"))]


class TestSeedWire:
    def test_off_catalog_seeds_are_refused(self):
        for seed in OFF_CATALOG:
            with pytest.raises(SeedNotInCatalog):
                seed_state(seed)

    @pytest.mark.parametrize("seed", WIRE_SEEDS, ids=repr)
    def test_round_trip_and_exact_object(self, seed):
        if isinstance(seed, Hyperelliptic):
            top = seed.top
            expected = {"kind": "Hyperelliptic", "g": top.g, "s": top.s, "a": top.a,
                        "deg": list(seed.degrees.entries)}
        else:
            fields = dict(INT_FIELDS)[type(seed)]
            expected = {"kind": type(seed).__name__, **{f: getattr(seed, f) for f in fields}}
        obj = seed_to_json(seed)
        assert list(obj.items()) == list(expected.items())  # key order is wire order
        assert seed_from_json(obj) == seed
        assert seed_from_json(json.loads(json.dumps(obj))) == seed

    @pytest.mark.parametrize("cls, fields", INT_FIELDS, ids=lambda v: getattr(v, "__name__", ""))
    def test_bad_integer_fields_are_named_in_field_order(self, cls, fields):
        good = {"kind": cls.__name__, **dict.fromkeys(fields, 1)}
        for i, name in enumerate(fields):
            later = fields[i + 1:]
            for bad, reason in ((None, "missing"), (True, "expected an integer"),
                                (False, "expected an integer"), ("1", "expected an integer")):
                obj = {**good, **dict.fromkeys(later, "x")}
                if bad is None:
                    del obj[name]
                else:
                    obj[name] = bad
                with pytest.raises(ValueError) as exc:
                    seed_from_json(obj)
                assert str(exc.value) == f"seed.{name}: {reason}"

    def test_hyperelliptic_without_deg_is_refused(self):
        # seed_from_json checks deg after g, s and a, so only a seed holding
        # all three reaches check_deg_field's own presence check.
        with pytest.raises(ValueError) as exc:
            seed_from_json({"kind": "Hyperelliptic", "g": 2, "s": 1, "a": 0})
        assert str(exc.value) == "seed.deg: missing"

    def test_wire_kinds_are_the_seed_classes(self):
        classes = typing.get_args(BaseSeed)
        assert {type(seed) for seed in WIRE_SEEDS} == set(classes)
        for cls in classes:
            with pytest.raises(ValueError) as exc:
                seed_from_json({"kind": cls.__name__})
            assert "unknown seed kind" not in str(exc.value)
        with pytest.raises(ValueError, match="seed.kind: unknown seed kind 'Torus'"):
            seed_from_json({"kind": "Torus"})

    def test_seed_table_is_the_seed_classes(self):
        assert {cls for cls, _ in _SEEDS.values()} == set(typing.get_args(BaseSeed))
        assert all(kind == cls.__name__ for kind, (cls, _) in _SEEDS.items())


RUN_STEPS = [("I", RAM, "C1"), ("I", NORAM, "C1"), ("I", NORAM, "C2"), ("II", RAM, None),
             ("III", None, None)]


def _record_lists():
    """Every list of up to three of RUN_STEPS with repeats cycling 1..3,
    then longer seeded draws with random repeats."""
    lists = [
        [ConstructionStep(StepKind(k), v, p, i % 3 + 1) for i, (k, v, p) in enumerate(keys)]
        for n in range(4) for keys in itertools.product(RUN_STEPS, repeat=n)
    ]
    rng = random.Random(0)
    for _ in range(30):
        keys = rng.choices(RUN_STEPS, k=rng.randint(4, 9))
        lists.append([ConstructionStep(StepKind(k), v, p, rng.randint(1, 3)) for k, v, p in keys])
    return lists


class TestRuns:
    @pytest.mark.parametrize("steps", _record_lists(), ids=lambda steps: "/".join(
        f"{s.kind.value}{s.variant.value if s.variant else ''}{s.placement or ''}x{s.repeat}"
        for s in steps) or "empty")
    def test_runs_merge_equal_neighbours(self, steps):
        def step_of(record):
            return record.kind, record.variant, record.placement

        merged = list(runs(steps))
        records = [record for _, record in merged]
        assert expand(records) == expand(steps)
        assert all(step_of(a) != step_of(b) for a, b in zip(records, records[1:]))
        starts = [i for i, _ in merged]
        assert starts == [i for i, record in enumerate(steps)
                          if i == 0 or step_of(record) != step_of(steps[i - 1])]
        for (i, record), end in zip(merged, starts[1:] + [len(steps)]):
            if end == i + 1:  # no equal neighbour
                assert record is steps[i]
