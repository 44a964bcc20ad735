import json
import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import ceil, floor, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from realcover import plsim
from realcover.arcs import Arc, FullCircle
from realcover.constructions import (
    ConstructionStep,
    GenericPencil,
    GenericR0Pencil,
    Hyperelliptic,
    HyperellipticToR0,
    LabeledState,
    PreconditionViolated,
    StepKind,
    Variant,
    apply_step,
    execute_states,
    seed_state,
)
from realcover.covering4 import CoveringNumberTarget, build_covnum, covering_number
from realcover.planner import Plan, plan, verify_plan
from realcover.plsim import (
    BudgetExceeded,
    PLCover,
    PLMap,
    cover_text,
    critical_values,
    fiber_budget_violations,
    fiber_csv,
    fiber_profile,
    image_arcs,
    realize,
    regular_samples,
    surgery,
)
from realcover.topology import (
    CoverSpec,
    CoverTarget,
    DegreeVector,
    TopType,
    enumerate_admissible,
    weichold_admissible,
)

from oracles import (
    all_box_tuples,
    arc,
    arc_contains,
    arc_start,
    brute_fiber_count,
    catalog_seeds,
    cover_to_json,
    expand,
    fraction_budget_violations,
    fraction_fiber_profile,
    fraction_realize,
    fraction_seed_cover,
    fraction_fold_split,
    fraction_merge_components,
    fraction_surgery,
    lifts,
    map_of,
    pl_map,
    record_index,
    reverse,
    windings,
)
from test_golden import COVNUM_DIGESTS, covnum_digest

F = Fraction
RAM = Variant.WITH_REAL_RAM
NORAM = Variant.WITHOUT_REAL_RAM


def cover_wire(cover):
    """The library's text of the cover's wire document, joined."""
    return "".join(cover_text(cover))


def hyper(g, s, a, deg):
    return Hyperelliptic(TopType(g, s, a), DegreeVector(tuple(deg)))


def tent(lo, hi):
    return pl_map([F(lo), F(hi)], 0)


def single(m, k=None, target=CoverTarget.PROJ_LINE):
    return PLCover((("C1", m),), k if k is not None else abs(m.closure), target)


def counts(cover):
    return {n for _, _, n in fiber_profile(cover)}


def count_at(cover, x):
    """The profile's count on the regular interval containing x."""
    for a, length, n in fiber_profile(cover):
        if 0 < (x - a) % 1 < length:
            return n
    raise AssertionError(f"{x} is a critical value")


def merged_tents():
    cover = PLCover(
        (("C1", tent(0, F(1, 2))), ("C2", tent(F(3, 8), F(7, 8)))),
        4,
        CoverTarget.PROJ_LINE,
    )
    return fraction_merge_components(cover, "C1", "C2", F(7, 16), F(1, 64))


def split_tent():
    return fraction_fold_split(single(tent(0, F(1, 2)), 4), "C1", F(1, 4), F(1, 64))


@lru_cache(maxsize=None)
def covnum_builds(g_max):
    """Every degree-4 build with prescribed covering number for g <= g_max."""
    out = []
    for g in range(g_max + 1):
        for s in range(1, g + 2):
            for a in (0, 1):
                if weichold_admissible(g, s, a):
                    for kcov in range(1, s + 1):
                        target = CoveringNumberTarget(TopType(g, s, a), kcov)
                        out.append(build_covnum(target)[0])
    return out


@st.composite
def pl_covers(draw):
    """One to three circle maps with mixed windings and small denominators."""
    comps = []
    for i in range(draw(st.integers(1, 3))):
        den = draw(st.sampled_from([1, 2, 3, 4, 6]))
        closure = draw(st.integers(-2, 2))
        nums = draw(st.lists(st.integers(-2 * den, 2 * den), min_size=1, max_size=6))
        values = [F(n, den) for n in nums]
        lifts = values + [values[0] + closure]
        assume(all(u != v for u, v in zip(lifts, lifts[1:])))
        comps.append((f"C{i + 1}", pl_map(values, closure)))
    return PLCover(tuple(comps), draw(st.integers(0, 12)), CoverTarget.PROJ_LINE)


@st.composite
def integer_lifts(draw):
    """(den, xs, closure): one to eight integer lifts over den, not anchored,
    with no zero-slope segment, the closing one included.  den is 1 to 24
    times 1, 2**5 or 2**70: lift denominators grow by powers of two."""
    den = draw(st.integers(1, 24)) << draw(st.sampled_from([0, 0, 5, 70]))
    closure = draw(st.integers(-2, 2))
    xs = draw(st.lists(st.integers(-3 * den, 3 * den), min_size=1, max_size=8))
    assume(all(u != v for u, v in zip(xs, xs[1:] + [xs[0] + closure * den])))
    return den, xs, closure


def fraction_breakpoints(den, xs):
    return tuple((F(i, len(xs)), F(x, den)) for i, x in enumerate(xs))


# where inside each regular interval the oracle is asked, as a share of its length
inner_shares = st.fractions(min_value=0, max_value=1, max_denominator=97).filter(
    lambda r: 0 < r < 1
)


def assert_profile_matches_oracle(cover, r):
    profile = fiber_profile(cover)
    assert [a for a, _, _ in profile] == (critical_values(cover) or [0])
    assert sum(length for _, length, _ in profile) == 1
    for a, length, n in profile:
        assert length > 0
        assert brute_fiber_count(cover, a + length / 2) == n
        assert brute_fiber_count(cover, a + length * r) == n


class TestPLMap:
    def test_winding_of_monotone_map(self):
        assert pl_map([F(0)], 1).closure == 1

    def test_winding_of_tent_is_zero(self):
        assert tent(0, F(1, 4)).closure == 0

    def test_double_wrap(self):
        assert pl_map([F(0), F(1)], 2).closure == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            PLMap(2, [0, 0], 0)  # zero-slope segment
        with pytest.raises(ValueError):
            PLMap(1, [], 1)

    @pytest.mark.parametrize(
        "den, closure, message",
        [
            (-4, 0, "den must be a positive int"),
            (0, 0, "den must be a positive int"),
            (F(4), 0, "den must be a positive int"),
            (4.0, 0, "den must be a positive int"),
            (True, 0, "den must be a positive int"),
            (4, 0.0, "closure must be an int"),
            (4, F(0), "closure must be an int"),
            (4, None, "closure must be an int"),
        ],
    )
    def test_refuses_den_and_closure_of_the_wrong_kind(self, den, closure, message):
        with pytest.raises(ValueError, match=message):
            PLMap(den, [1, 3], closure)

    @given(st.lists(integer_lifts(), min_size=1, max_size=4))
    def test_integer_constructor_matches_fraction_constructor(self, drawn):
        maps = []
        for den, xs, closure in drawn:
            m = PLMap(den, xs, closure)
            r = pl_map([F(x, den) for x in xs], closure)
            assert m == r and hash(m) == hash(r) and repr(m) == repr(r)
            assert m.closure == closure
            # the lifts xs / den, equally spaced in t, re-anchored, in least terms
            shift = floor(min(F(x, den) for x in xs))
            assert m.breakpoints == tuple((t, x - shift) for t, x in fraction_breakpoints(den, xs))
            assert m.den == lcm(*(x.denominator for _, x in m.breakpoints))
            maps.append(m)
        cover = PLCover(tuple((f"C{i}", m) for i, m in enumerate(maps)), 0, CoverTarget.PROJ_LINE)

        def printed(q):
            return f"{q.numerator}/{q.denominator}"

        # the JSON prints each breakpoint in lowest terms, whatever the
        # breakpoint counts and denominators of the other circles
        assert [comp["breakpoints"] for comp in json.loads(cover_wire(cover))["components"]] == [
            [[printed(t), printed(x)] for t, x in m.breakpoints] for m in maps
        ]
        # and the CSV each regular interval's midpoint
        rows = sorted(((a + gap / 2) % 1, n) for a, gap, n in fraction_fiber_profile(cover))
        assert fiber_csv(cover) == "x,fiber_count\n" + "".join(
            f"{printed(x)},{n}\n" for x, n in rows
        )

    @pytest.mark.parametrize(
        "den, xs, closure, message",
        [
            (3, [], 0, "at least one breakpoint"),
            (3, [1, 2, 2], 0, "zero-slope"),
            (3, [1, 2, 1], 0, "zero-slope"),  # the closing segment, winding 0
            (4, [1, 3, 5], 1, "zero-slope"),  # the closing segment, 5 = 1 + 4
            (2, [0, 1, -4], -2, "zero-slope"),  # the closing segment, negative winding
        ],
    )
    def test_both_constructors_refuse(self, den, xs, closure, message):
        with pytest.raises(ValueError, match=message):
            PLMap(den, xs, closure)
        with pytest.raises(ValueError, match=message):
            pl_map([F(x, den) for x in xs], closure)

    def test_immutable(self):
        m = tent(0, F(1, 2))
        with pytest.raises(FrozenInstanceError):
            m.closure = 1
        with pytest.raises(FrozenInstanceError):
            del m.xs

    def test_reverse_negates_winding_keeps_fibers(self):
        m = pl_map([F(0), F(1)], 2)
        r = reverse(m)
        assert r.closure == -2
        assert fiber_profile(single(m, 2)) == fiber_profile(single(r, 2))


@pytest.fixture
def both_constructors(monkeypatch):
    """Make every PLMap._unchecked call also build PLMap(den, xs, closure)
    from the same arguments and assert that the two maps are equal; returns
    the list of the calls' maps."""
    maps = []
    unchecked = PLMap._unchecked

    def checked(cls, den, xs, closure):
        m = unchecked(den, xs, closure)
        assert m == PLMap(den, xs, closure), (den, xs, closure)
        maps.append(m)
        return m

    monkeypatch.setattr(PLMap, "_unchecked", classmethod(checked))
    return maps


class TestUncheckedMaps:
    """The two callers of PLMap._unchecked, build_covnum and realize (through
    _decode), give the maps the public constructor gives."""

    def test_covnum_targets(self, both_constructors):
        # Every target of the golden corpus, g <= 25, with the same bytes.
        for g, want in enumerate(COVNUM_DIGESTS):
            assert covnum_digest(g) == want, g
        assert len(both_constructors) > 50_000

    def test_realized_box_plans(self, p1_box_plans, both_constructors):
        circles = 0
        for spec, result in p1_box_plans:
            assert isinstance(result, Plan), spec
            circles += len(realize(result.seed, result.steps).components)
        assert len(both_constructors) == circles > 0
        assert len(p1_box_plans) == 3625


class TestFiber:
    def test_double_wrap_two_preimages(self):
        cover = single(pl_map([F(0), F(1)], 2), 2)
        assert fiber_profile(cover) == [(F(0), F(1), 2)]

    def test_full_winding_cover_has_full_fibers(self):
        cover = realize(hyper(3, 2, 0, (1, 1)), ())
        assert counts(cover) == {2}

    def test_fold_gap_drops_count_by_two(self):
        before = single(pl_map([F(0), F(1)], 2), 2)
        after = surgery(before, ConstructionStep(StepKind.I, RAM, "C1"))
        assert after.k == 3
        assert map_of(after, "C1").closure == 1
        assert fiber_budget_violations(after) == []
        # the count changes by exactly 2 across a fold image, 0 elsewhere
        m = map_of(after, "C1")
        xs = lifts(m)[:-1]
        folds = set()
        n = len(xs)
        for j in range(n):
            incoming = xs[j] - xs[j - 1] if j else xs[0] - (xs[-1] - m.closure)
            outgoing = (xs[j + 1] if j + 1 < n else xs[0] + m.closure) - xs[j]
            if (incoming > 0) != (outgoing > 0):
                folds.add(xs[j] % 1)
        assert folds
        profile = fiber_profile(after)
        for i, (c, _, right) in enumerate(profile):
            left = profile[i - 1][2]
            assert abs(left - right) == (2 if c in folds else 0)


    def test_violation_messages(self):
        assert fiber_budget_violations(single(tent(0, F(1, 2)), 1)) == [
            "fiber over (0, 1/2) has 2 > 1 real points",
            "fiber over (0, 1/2) has 2 real points, parity differs from 1",
            "fiber over (1/2, 1) has 0 real points, parity differs from 1",
        ]


class TestImageArcs:
    def test_wrap_is_full_circle(self):
        cover = single(pl_map([F(0), F(1, 2)], 1), 1)
        assert image_arcs(cover) == [("C1", FullCircle())]

    def test_tent_image(self):
        cover = single(tent(0, F(1, 4)), 2)
        assert image_arcs(cover) == [("C1", arc(0, F(1, 4)))]

    def test_wide_sweep_is_full_circle(self):
        cover = single(pl_map([F(0), F(9, 8)], 0), 4)
        assert image_arcs(cover) == [("C1", FullCircle())]

    def test_zero_seed_arcs_disjoint(self):
        cover = realize(hyper(4, 4, 1, (0, 0, 0, 0)), ())
        arcs = [a for _, a in image_arcs(cover)]
        assert all(isinstance(a, Arc) for a in arcs)
        for i, a in enumerate(arcs):
            for b in arcs[i + 1 :]:
                assert not arc_contains(a, arc_start(b)) and not arc_contains(b, arc_start(a))


class TestSurgery:
    def test_wrap_raises_winding_everywhere(self):
        before = single(pl_map([F(0), F(1)], 2), 2)
        after = surgery(before, ConstructionStep(StepKind.I, NORAM, "C1"))
        assert map_of(after, "C1").closure == 3
        assert counts(after) == {3}

    def test_fold_flips_zero_winding(self):
        before = single(tent(F(1, 8), F(3, 8)), 2)
        after = surgery(before, ConstructionStep(StepKind.I, RAM, "C1"))
        assert map_of(after, "C1").closure == 1

    def test_new_fold_component(self):
        before = single(tent(F(1, 8), F(3, 8)), 4)
        after = surgery(before, ConstructionStep(StepKind.II, RAM))
        assert after.k == 4
        assert sorted(windings(after).values()) == [0, 0]
        assert [lbl for lbl, _ in after.components] == ["C1", "N1"]
        assert fiber_budget_violations(after) == []

    def test_fold_needs_slack(self):
        saturated = PLCover(
            (("C1", tent(0, F(1, 2))), ("C2", tent(F(1, 2), 1))),
            2,
            CoverTarget.PROJ_LINE,
        )
        with pytest.raises(BudgetExceeded):
            surgery(saturated, ConstructionStep(StepKind.II, RAM))

    def test_connecting_smoothing_is_a_no_op_here(self):
        before = single(tent(F(1, 8), F(3, 8)), 4)
        after = surgery(before, ConstructionStep(StepKind.II, NORAM))
        assert after == before

    def test_new_unit_circle(self):
        before = single(tent(F(1, 8), F(3, 8)), 4)
        after = surgery(before, ConstructionStep(StepKind.III))
        assert after.k == 5
        assert map_of(after, "N1").closure == 1

    def test_budget_only_kinds(self):
        empty = realize(GenericPencil(3, 4), ())
        after = surgery(empty, ConstructionStep(StepKind.IV))
        assert after.k == 6 and after.components == ()
        conic = realize(HyperellipticToR0(3), ())
        after = surgery(conic, ConstructionStep(StepKind.V))
        assert after.k == 3

    def test_preconditions_mirror_symbolic_layer(self):
        conic = realize(HyperellipticToR0(3), ())
        with pytest.raises(PreconditionViolated):
            surgery(conic, ConstructionStep(StepKind.III))
        full = realize(hyper(4, 1, 0, (2,)), ())
        with pytest.raises(PreconditionViolated):
            surgery(full, ConstructionStep(StepKind.II, RAM))
        with pytest.raises(PreconditionViolated):
            surgery(full, ConstructionStep(StepKind.I, RAM, "C9"))
        with pytest.raises(PreconditionViolated):
            surgery(full, ConstructionStep(StepKind.IV))


class TestNodeSmoothings:
    @pytest.mark.parametrize(
        "values, message",
        [
            # both crossings of 0 climb: the descents pass it at breakpoints
            ((0, F(3, 2), 1, F(5, 2), 2, 1), "no upward excursion to cut"),
            # up through 1, over 2 at a breakpoint, then down through 2
            (
                (F(1, 2), F(3, 2), 2, F(5, 2), F(3, 2)),
                "inconsistent excursion: crossing lifts differ",
            ),
        ],
    )
    def test_split_refusals_at_breakpoints(self, values, message):
        cover = single(pl_map([F(v) for v in values], 0), 4)
        with pytest.raises(ValueError) as info:
            fraction_fold_split(cover, "C1", F(0))
        assert str(info.value) == message

    def test_merge_two_tents(self):
        merged = merged_tents()
        assert [lbl for lbl, _ in merged.components] == ["C1"]
        assert map_of(merged, "C1").closure == 0
        assert image_arcs(merged) == [("C1", arc(0, F(7, 8)))]
        assert fiber_budget_violations(merged) == []
        # inside the smoothing gap two sheets became non-real
        assert count_at(merged, F(7, 16)) == 2
        assert count_at(merged, F(5, 16)) == 2
        assert count_at(merged, F(13, 32)) == 4
        assert count_at(merged, F(31, 64)) == 4

    def test_split_tent(self):
        split, new_label = split_tent()
        assert new_label == "N1"
        arcs = dict(image_arcs(split))
        assert arcs["C1"] == arc(0, F(1, 4) - F(1, 64))
        assert arcs["N1"] == arc(F(1, 4) + F(1, 64), F(1, 2))
        assert fiber_budget_violations(split) == []


class TestRealize:
    def test_full_winding_plan(self):
        target = CoverSpec(TopType(4, 1, 0), CoverTarget.PROJ_LINE, 3, DegreeVector((3,)))
        p = plan(target)
        cover = realize(p.seed, p.steps)
        assert [abs(m.closure) for _, m in cover.components] == [3]
        assert counts(cover) == {3}

    def test_all_zero_plan(self):
        target = CoverSpec(
            TopType(5, 2, 0), CoverTarget.PROJ_LINE, 4, DegreeVector((0, 0))
        )
        p = plan(target)
        cover = realize(p.seed, p.steps)
        assert sorted(windings(cover).values()) == [0, 0]
        assert fiber_budget_violations(cover) == []

    def test_labels_match_symbolic_state(self):
        target = CoverSpec(
            TopType(6, 3, 0), CoverTarget.PROJ_LINE, 4, DegreeVector((2, 1, 1))
        )
        p = plan(target)
        cover = realize(p.seed, p.steps)

        for final in execute_states(p.seed, p.steps):
            pass
        assert windings(cover) == final.windings

    def test_conic_plans_have_empty_real_locus(self):
        target = CoverSpec(TopType(4, 0, 1), CoverTarget.ANISOTROPIC_CONIC, 3, DegreeVector())
        p = plan(target)
        cover = realize(p.seed, p.steps)
        assert cover.components == () and cover.k == 3

    def test_seed_realizations_match_fraction_seeds(self):
        # The span form of a seed is written on integers; the oracle writes
        # each circle's lifts as rationals from its seed_state.
        seeds = [seed for seed, _ in catalog_seeds(6, 8)]
        assert len(seeds) == 91
        for seed in seeds:
            assert realize(seed, ()) == fraction_seed_cover(seed), seed


class TestSampling:
    def test_samples_are_interval_midpoints(self):
        cover = realize(hyper(3, 2, 0, (1, 1)), ())
        assert critical_values(cover) == [F(0), F(1, 2)]
        assert regular_samples(cover) == [F(1, 4), F(3, 4)]

    def test_empty_cover_sampling(self):
        cover = realize(GenericPencil(3, 4), ())
        assert fiber_profile(cover) == [(F(0), F(1), 0)]
        assert regular_samples(cover) == [F(1, 2)]

    def test_r0_covers_have_no_fiber_views(self):
        # R0 has no real points, so there is no target circle to sample
        seeds = [HyperellipticToR0(g) for g in (1, 3, 5, 7)] + [
            GenericR0Pencil(g, k) for g in range(6) for k in range(g + 1, g + 7, 2) if k >= 2
        ]
        checked = 0
        for seed in seeds:
            for m in (0, 1, 2, 5):
                cover = realize(seed, [ConstructionStep(StepKind.V, repeat=m)] if m else [])
                assert cover.target is CoverTarget.ANISOTROPIC_CONIC
                assert cover.k == seed_state(seed).k + m
                assert fiber_profile(cover) == regular_samples(cover) == []
                assert critical_values(cover) == fiber_budget_violations(cover) == []
                assert fiber_csv(cover) == "x,fiber_count\n"
                checked += 1
        assert checked == 4 * (4 + 17)

    def test_hand_built_r0_cover_with_circles_has_no_fiber_views(self):
        # No seed or step builds circles over R0, but a hand-built cover can:
        # its breakpoints lie over no target circle, so every view is empty.
        cover = PLCover((("C1", PLMap(4, [1, 3], 0)),), 3, CoverTarget.ANISOTROPIC_CONIC)
        assert critical_values(cover) == fiber_profile(cover) == regular_samples(cover) == []
        assert fiber_budget_violations(cover) == []
        over_p1 = replace(cover, target=CoverTarget.PROJ_LINE)
        assert critical_values(over_p1) == [F(1, 4), F(3, 4)]


class TestStringTargets:
    """A cover whose target is the string "P1" or "R0" gets the answers of
    the one holding the CoverTarget member, on every fiber view, the wire
    form and surgery; any other target is refused by name."""

    VIEWS = (
        critical_values,
        fiber_profile,
        regular_samples,
        fiber_budget_violations,
        fiber_csv,
        cover_wire,
    )

    def test_realized_p1_plans_answer_like_members(self):
        checked = 0
        for spec in enumerate_admissible(6, 6):
            result = plan(spec)
            if spec.target is not CoverTarget.PROJ_LINE or not isinstance(result, Plan):
                continue
            member = realize(result.seed, result.steps)
            text = replace(member, target=member.target.value)
            assert type(text.target) is str
            for view in self.VIEWS:
                assert view(text) == view(member), (spec, view.__name__)
            if member.components:
                step = ConstructionStep(StepKind.I, RAM, member.components[0][0])
                folded = surgery(text, step)
                assert folded == surgery(member, step)
                assert folded.target is CoverTarget.PROJ_LINE
            checked += 1
        assert checked == 569

    def test_a_budget_violation_over_the_string_target_is_reported(self):
        # One monotone circle over a degree-2 budget: one real point where
        # the parity asks for an even count, on both regular intervals.
        m = PLMap(4, [0, 2], 1)
        text = PLCover((("C1", m),), 2, "P1")
        bad = fiber_budget_violations(text)
        assert bad == fiber_budget_violations(replace(text, target=CoverTarget.PROJ_LINE))
        assert len(bad) == 2 and all("parity differs" in line for line in bad)
        assert critical_values(text) == [F(0), F(1, 2)]
        assert fiber_csv(text) == "x,fiber_count\n1/4,1\n3/4,1\n"
        assert json.loads(cover_wire(text))["target"] == "P1"

    def test_string_r0_covers_have_no_fiber_views(self):
        member = PLCover((("C1", PLMap(4, [1, 3], 0)),), 3, CoverTarget.ANISOTROPIC_CONIC)
        text = replace(member, target="R0")
        for view in self.VIEWS:
            assert view(text) == view(member)
        assert critical_values(text) == fiber_profile(text) == []
        assert json.loads(cover_wire(text))["target"] == "R0"

    def test_other_targets_are_refused_by_name(self):
        cover = PLCover((("C1", PLMap(4, [0, 2], 1)),), 3, "Q")
        for view in (critical_values, fiber_profile, regular_samples, fiber_csv, cover_text):
            with pytest.raises(ValueError, match="'Q'"):
                view(cover)
        with pytest.raises(ValueError, match="'Q'"):
            surgery(cover, ConstructionStep(StepKind.I, NORAM, "C1"))

    def test_a_budget_clean_cover_over_another_target_is_refused(self):
        # One monotone circle over a degree-3 budget is clean, so the tally
        # alone would answer it; the target is read first.
        cover = PLCover((("C1", PLMap(4, [0, 2], 1)),), 3, "Q")
        with pytest.raises(ValueError, match="'Q'"):
            fiber_budget_violations(cover)
        assert fiber_budget_violations(replace(cover, target="P1")) == []

    def test_r0_budget_is_answered_without_spans(self, monkeypatch):
        def no_spans(cover):
            raise AssertionError("spans built for a cover of R0")

        monkeypatch.setattr(plsim, "_circles", no_spans)
        m = PLMap(4, [0, 2], 1)  # over a degree-2 budget, a parity violation over P1
        for target in ("R0", CoverTarget.ANISOTROPIC_CONIC):
            assert fiber_budget_violations(PLCover((("C1", m),), 2, target)) == []


class TestFiberProfile:
    """The sweep against the per-point oracle: the intervals tile the circle
    from the critical values, and each count holds everywhere inside."""

    @given(pl_covers(), inner_shares)
    def test_random_pl_covers(self, cover, r):
        assert_profile_matches_oracle(cover, r)

    @settings(max_examples=5, deadline=None)
    @given(inner_shares)
    def test_covnum_builds(self, r):
        for cover in covnum_builds(7):
            assert_profile_matches_oracle(cover, r)

    @given(inner_shares)
    def test_node_smoothings(self, r):
        assert_profile_matches_oracle(merged_tents(), r)
        assert_profile_matches_oracle(split_tent()[0], r)

    @given(pl_covers())
    def test_csv_rows_are_interval_midpoints(self, cover):
        rows = sorted(((a + length / 2) % 1, n) for a, length, n in fiber_profile(cover))
        assert fiber_csv(cover) == "x,fiber_count\n" + "".join(
            f"{x.numerator}/{x.denominator},{n}\n" for x, n in rows
        )

    def test_wrapping_arc_counts_interval_zero(self):
        # the climb from 3/4 to 5/4 passes over [0, 1/4) after wrapping
        cover = single(pl_map([F(3, 4), F(5, 4)], 0), 2)
        assert fiber_profile(cover) == [(F(1, 4), F(1, 2), 0), (F(3, 4), F(1, 2), 2)]


def hand_built_cover(rng):
    """Zero to four circles over one of a few dens: closures from -3 to 3,
    one to six breakpoints (a lone one only with a nonzero closure), lifts
    drawn partly from whole turns (residue 0) and from lifts of earlier
    circles shifted by whole turns (shared residues).  A circle now and then
    takes an earlier circle's label: the fiber functions count every
    circle, and only surgery refuses repeated labels."""
    den = rng.choice([1, 2, 3, 4, 8, 12])
    comps, seen = [], [0]
    for i in range(rng.randrange(5)):
        n = rng.randint(1, 6)
        closure = rng.choice([c for c in range(-3, 4) if c or n > 1])
        while True:
            xs = [
                rng.choice(seen) + rng.randint(-2, 2) * den
                if rng.random() < 0.4
                else rng.randint(-3 * den, 3 * den)
                for _ in range(n)
            ]
            if all(map(int.__ne__, xs, xs[1:] + [xs[0] + closure * den])):
                break
        seen += xs
        label = comps[rng.randrange(i)][0] if i and rng.random() < 0.25 else f"C{i + 1}"
        comps.append((label, PLMap(den, xs, closure)))
    return PLCover(tuple(comps), 0, CoverTarget.PROJ_LINE)


class TestTally:
    """The sweep from the fold tally against the Fraction oracles on
    seeded random hand-built covers."""

    COVERS = [hand_built_cover(random.Random(seed)) for seed in range(300)]

    def test_the_covers_hold_every_case(self):
        maps = [m for cover in self.COVERS for _, m in cover.components]
        assert any(not cover.components for cover in self.COVERS)
        assert any(
            len({lbl for lbl, _ in cover.components}) < len(cover.components)
            for cover in self.COVERS
        )
        assert any(m.closure < 0 for m in maps) and any(len(m.xs) == 1 for m in maps)
        assert any(x % m.den == 0 for m in maps for x in m.xs)
        assert any(
            len({x % m.den for _, m in cover.components for x in m.xs})
            < sum(len({x % m.den for x in m.xs}) for _, m in cover.components)
            for cover in self.COVERS
        )

    def test_sweep_matches_the_fraction_profile(self):
        for cover in self.COVERS:
            den, circles = plsim._circles(cover)
            profile = [(F(a, den), F(gap, den), n) for a, gap, n in plsim._sweep(den, circles)]
            assert profile == fraction_fiber_profile(cover)
            for a, length, n in profile:
                assert brute_fiber_count(cover, a + length / 2) == n

    def test_counts_have_the_parity_of_the_total_winding(self):
        for cover in self.COVERS:
            total = sum(m.closure for _, m in cover.components)
            assert all((n - total) % 2 == 0 for _, _, n in fiber_profile(cover))

    def test_budget_check_matches_the_fraction_messages(self):
        checked = 0
        for cover in self.COVERS:
            top = max(n for _, _, n in fiber_profile(cover))
            for k in range(2, top + 3):
                at_k = replace(cover, k=k)
                assert fiber_budget_violations(at_k) == fraction_budget_violations(at_k)
                checked += fiber_budget_violations(at_k) == []
        assert checked > 100


# Catalog seeds for the step fuzz: every hyperelliptic winding pattern,
# all-zero patterns with s = 3 and 5 (lift denominators 12 and 20, not
# powers of two), pencils and coverings of R0.
FUZZ_SEEDS = (
    hyper(2, 1, 0, (2,)),
    hyper(3, 2, 0, (1, 1)),
    hyper(4, 1, 0, (0,)),
    hyper(2, 3, 0, (0, 0, 0)),
    hyper(4, 3, 1, (0, 0, 0)),
    hyper(5, 5, 1, (0, 0, 0, 0, 0)),
    GenericPencil(0, 2),
    GenericPencil(3, 4),
    HyperellipticToR0(3),
    GenericR0Pencil(2, 3),
)

# (family provenance, type, windings, rungs) of the long plans: each rung
# and its neighbours k - 2 and k + 2, which keep the parity.
LADDERS = (
    ("Case3", (6, 1, 0), (1,), (25, 51, 101)),
    ("Case5", (6, 3, 0), (0, 0, 0), (16, 32, 64)),
    ("A1-sPos", (8, 3, 1), (5, 3, 0), (16, 32, 64)),
)


# Rungs past each ladder's top for the Fraction oracle, up to k near 500.
DEEPER_RUNGS = (
    ("Case3", (6, 1, 0), (1,), 201),
    ("Case5", (6, 3, 0), (0, 0, 0), 128),
    ("A1-sPos", (8, 3, 1), (5, 3, 0), 128),
    ("Case3", (6, 1, 0), (1,), 501),
    ("Case5", (6, 3, 0), (0, 0, 0), 500),
)


# The deepest rungs of each ladder, realized without the oracle; Case3 and
# Case5 up to the CLI's 40,000-breakpoint cap.
DEEPEST_RUNGS = (
    ("Case3", (6, 1, 0), (1,), 4001),
    ("Case5", (6, 3, 0), (0, 0, 0), 4000),
    ("A1-sPos", (8, 3, 1), (5, 3, 0), 2000),
    ("Case3", (6, 1, 0), (1,), 39999),
    ("Case5", (6, 3, 0), (0, 0, 0), 39998),
)


def p1_spec(g, s, a, k, deg):
    return CoverSpec(TopType(g, s, a), CoverTarget.PROJ_LINE, k, DegreeVector(tuple(deg)))


def alternating_case3(k):
    """A Case3 plan for (6, 1, 0) with winding (1,): the opening fold, then
    folds and wraps alternating, so each fold lands on a span shorter than a
    turn and most folds refine the grid."""
    fold, wrap = ConstructionStep(StepKind.I, RAM, "C1"), ConstructionStep(StepKind.I, NORAM, "C1")
    steps = (fold,) + (fold, wrap) * ((k - 3) // 2)
    return p1_spec(6, 1, 0, k, (1,)), Plan(hyper(6, 1, 0, (2,)), steps, "Case3")


def bouncing_case5(k):
    """A Case5 plan for (6, 3, 0) with windings (0, 0, 0): C1 folds straight
    down from winding 2 and then bounces through winding 0, so every other
    fold reverses the circle."""
    fold = ConstructionStep(StepKind.I, RAM, "C1")
    steps = (fold,) * (k - 2) + (ConstructionStep(StepKind.II, RAM),) * 2
    return p1_spec(6, 3, 0, k, (0, 0, 0)), Plan(hyper(4, 1, 0, (2,)), steps, "Case5")


# Plans that fold on narrow spans and at winding 0: planner plans never do,
# hand-written plans may.
HAND_BUILT = (alternating_case3(201), bouncing_case5(128))


def surgery_chain(seed, steps):
    """realize by one surgery per step, each encoding and decoding its cover."""
    cover = realize(seed, ())
    for i, step in enumerate(steps):
        try:
            cover = surgery(cover, step)
        except PreconditionViolated as exc:
            raise PreconditionViolated(exc.kind, exc.reason, i) from None
    return cover


def _runs(*parts):
    """Steps from (step, count) parts."""
    return tuple(step for step, m in parts for _ in range(m))


_FOLD1, _WRAP1 = ConstructionStep(StepKind.I, RAM, "C1"), ConstructionStep(StepKind.I, NORAM, "C1")
_WRAP2 = ConstructionStep(StepKind.I, NORAM, "C2")
_WRAPN1 = ConstructionStep(StepKind.I, NORAM, "N1")
_III, _II_RAM = ConstructionStep(StepKind.III), ConstructionStep(StepKind.II, RAM)
_II_NORAM, _V = ConstructionStep(StepKind.II, NORAM), ConstructionStep(StepKind.V)

# Runs of wraps broken by folds, by wraps on other circles, by new circles
# and by steps off the real locus; the last two are refused, one at the
# first step of a run and one between runs.
BROKEN_RUNS = [
    (hyper(6, 1, 0, (2,)), _runs((_WRAP1, 3), (_FOLD1, 1), (_WRAP1, 2), (_FOLD1, 2), (_WRAP1, 5))),
    (hyper(3, 2, 0, (1, 1)), _runs((_WRAP1, 2), (_WRAP2, 3), (_WRAP1, 4), (_III, 1), (_WRAPN1, 3))),
    (
        hyper(4, 3, 1, (0, 0, 0)),
        _runs((_WRAP2, 4), (_II_NORAM, 1), (_WRAP2, 2), (_II_RAM, 1), (_WRAP1, 3)),
    ),
    (
        hyper(2, 1, 0, (2,)),
        _runs((_WRAP1, 40), (_FOLD1, 1), (_WRAP1, 39), (_FOLD1, 30), (_WRAP1, 7)),
    ),
    (hyper(2, 1, 0, (2,)), _runs((_WRAP1, 2), (_WRAPN1, 3), (_WRAP1, 2))),
    (hyper(4, 1, 0, (0,)), _runs((_WRAP1, 2), (_II_RAM, 1), (_WRAP1, 2), (_V, 1), (_WRAP1, 2))),
]


def criterion_box_plans():
    """Every plan over P1 in g <= 8, 3 <= k <= 6 (947 plans)."""
    for g, s, a, target, k, deg in all_box_tuples(8, 3, 6):
        if target == "P1":
            result = plan(p1_spec(g, s, a, k, deg))
            if isinstance(result, Plan):
                yield result


def outcome(fn, *args):
    """The JSON of fn's cover, or the type, message and step index of its refusal."""
    try:
        return cover_to_json(fn(*args))
    except (PreconditionViolated, BudgetExceeded, ValueError) as exc:
        return (type(exc), str(exc), getattr(exc, "step_index", None))


fuzz_kinds = st.sampled_from(
    [(StepKind.I, RAM)] * 4
    + [(StepKind.I, NORAM)] * 3
    + [(StepKind.II, RAM)] * 2
    + [(StepKind.II, NORAM), (StepKind.III, None), (StepKind.IV, None), (StepKind.V, None)]
)


@st.composite
def step_sequences(draw):
    """A catalog seed and steps drawn one at a time, placements among the
    labels the oracle cover has at that point (now and then a missing one).
    Steps the oracle refuses are dropped, except that a sequence drawn to
    end in a refusal ends at the first one."""
    seed = draw(st.sampled_from(FUZZ_SEEDS))
    refuse = draw(st.booleans())
    cover = fraction_seed_cover(seed)
    steps = []
    for _ in range(draw(st.integers(0, 12))):
        kind, variant = draw(fuzz_kinds)
        placement = None
        if kind is StepKind.I:
            labels = [lbl for lbl, _ in cover.components]
            placement = draw(st.sampled_from(labels * 4 + ["C9"]))
        step = ConstructionStep(kind, variant, placement)
        try:
            cover = fraction_surgery(cover, step)
        except (PreconditionViolated, BudgetExceeded):
            if refuse:
                steps.append(step)
                break
            continue
        steps.append(step)
    return seed, steps


def span_cover(den, d, w, x0=0):
    """One circle C1 from x0 / den with spans d / den, the last closing it
    up to winding w."""
    assert sum(d) == w * den
    xs = list(accumulate(d[:-1], initial=x0))
    return PLCover((("C1", PLMap(den, xs, w)),), 2, CoverTarget.PROJ_LINE)


@st.composite
def fold_runs(draw):
    """A one-circle cover over den with spans drawn from a few widths, so
    that climbs tie, on both sides of 2 den and often needing a refined
    grid, closed up to a winding from -2 to 6; and a run length."""
    den = draw(st.sampled_from([1, 2, 3, 4, 8, 12]))
    widths = [1, 2, 3, den, 2 * den - 1, 2 * den, 2 * den + 1, 4 * den, 5 * den + 3, -1, -den]
    d = draw(st.lists(st.sampled_from(widths), min_size=1, max_size=8))
    w = draw(st.integers(-2, 6))
    close = w * den - sum(d)
    assume(close != 0)
    cover = span_cover(den, d + [close], w, draw(st.integers(0, den - 1)))
    return cover, draw(st.integers(1, 8))


def single_folds(cover, m):
    """m folds on C1, one fraction_surgery each."""
    for _ in range(m):
        cover = fraction_surgery(cover, _FOLD1)
    return cover


class TestIntegerLifts:
    """realize, surgery and fiber_profile run on integer lifts; the Fraction
    path in tests/oracles.py must give the same bytes."""

    def test_criterion_box_matches_fraction_oracle(self):
        n = 0
        for p in criterion_box_plans():
            cover = realize(p.seed, p.steps)
            oracle = fraction_realize(p.seed, expand(p.steps))
            assert cover_to_json(cover) == cover_to_json(oracle)
            assert fiber_profile(cover) == fraction_fiber_profile(cover)
            n += 1
        assert n == 947

    @pytest.mark.parametrize("provenance, top, deg, rungs", LADDERS)
    def test_deep_ladders_match_fraction_oracle(self, provenance, top, deg, rungs):
        for k in sorted({r + d for r in rungs for d in (-2, 0, 2)}):
            p = plan(p1_spec(*top, k, deg))
            assert p.provenance == provenance
            cover = realize(p.seed, p.steps)
            oracle = fraction_realize(p.seed, expand(p.steps))
            assert cover_to_json(cover) == cover_to_json(oracle)
            assert fiber_profile(cover) == fraction_fiber_profile(cover)

    @pytest.mark.parametrize("provenance, top, deg, k", DEEPER_RUNGS)
    def test_deeper_rung_matches_fraction_oracle(self, provenance, top, deg, k):
        p = plan(p1_spec(*top, k, deg))
        assert p.provenance == provenance
        cover = realize(p.seed, p.steps)
        assert json.dumps(cover_to_json(cover)) == json.dumps(
            cover_to_json(fraction_realize(p.seed, expand(p.steps)))
        )

    @pytest.mark.parametrize("spec, p", HAND_BUILT, ids=["alternating-case3", "bouncing-case5"])
    def test_hand_built_plan_matches_fraction_oracle(self, spec, p):
        # the reversal in _fold and long runs of strided refinements
        assert verify_plan(p, spec)
        cover = realize(p.seed, p.steps)
        assert json.dumps(cover_to_json(cover)) == json.dumps(
            cover_to_json(fraction_realize(p.seed, expand(p.steps)))
        )

    @settings(max_examples=300, deadline=None)
    @given(step_sequences())
    def test_step_sequences_match_fraction_oracle(self, drawn):
        seed, steps = drawn
        assert outcome(realize, seed, steps) == outcome(fraction_realize, seed, steps)
        cover = realize(seed, ())
        for step in steps:
            assert outcome(surgery, cover, step) == outcome(fraction_surgery, cover, step)
            try:
                cover = surgery(cover, step)
            except (PreconditionViolated, BudgetExceeded):
                break
            assert fiber_profile(cover) == fraction_fiber_profile(cover)

    @given(pl_covers(), fuzz_kinds, st.sampled_from(["C1", "C2", "C3"]))
    def test_surgery_on_any_cover_matches_fraction_oracle(self, cover, kind, label):
        # negative windings, budgets too small for a new fold, missing labels
        step = ConstructionStep(*kind, label if kind[0] is StepKind.I else None)
        assert outcome(surgery, cover, step) == outcome(fraction_surgery, cover, step)

    def test_surgery_refuses_repeated_labels(self):
        m = map_of(realize(hyper(4, 3, 1, (0, 0, 0)), ()), "C1")
        cover = PLCover((("C1", m), ("C1", m)), 4, CoverTarget.PROJ_LINE)
        with pytest.raises(ValueError, match="labels must be distinct"):
            surgery(cover, ConstructionStep(StepKind.I, NORAM, "C1"))

    def test_surgery_keeps_untouched_maps(self):
        cover = realize(hyper(4, 3, 1, (0, 0, 0)), ())
        before = dict(cover.components)
        for step in (
            ConstructionStep(StepKind.I, RAM, "C2"),
            ConstructionStep(StepKind.I, NORAM, "C2"),
            ConstructionStep(StepKind.II, RAM),
            ConstructionStep(StepKind.II, NORAM),
            ConstructionStep(StepKind.III),
        ):
            after = dict(surgery(cover, step).components)
            for lbl in ("C1", "C3"):
                assert after[lbl] == before[lbl]
            if step.placement is None:
                assert after["C2"] == before["C2"]
            else:
                assert after["C2"] != before["C2"]

    def test_refinement_stays_strided(self, monkeypatch):
        # A fold needs den times 8 at most; refining by a whole 2**30 stride
        # leaves the O(B) rescale to about one fold in ten.
        spec, p = alternating_case3(1001)
        assert verify_plan(p, spec)
        folds = sum(step.kind is StepKind.I and step.variant is RAM for step in p.steps)
        calls = 0
        refine = plsim._refine

        def counting(form):
            nonlocal calls
            calls += 1
            refine(form)

        monkeypatch.setattr(plsim, "_refine", counting)
        realize(p.seed, p.steps)
        assert folds == 500
        assert 0 < calls <= ceil(3 * folds / 30) + 2

    def test_wrap_runs_are_one_splice(self, monkeypatch):
        # The planner's Case3 plans wrap C1 in one record before they fold
        # it: realize splices the run of wraps once, and its folds do not
        # splice, so the wraps cost one scan of the spans, not one each.
        p = plan(p1_spec(6, 1, 0, 1001, (1,)))
        folds = sum(step.repeat for step in p.steps if step.variant is RAM)
        runs = sum(step.variant is NORAM for step in p.steps)
        assert (folds, runs) == (500, 1)
        calls = 0
        splice = plsim._splice

        def counting(*args):
            nonlocal calls
            calls += 1
            splice(*args)

        monkeypatch.setattr(plsim, "_splice", counting)
        cover = realize(p.seed, p.steps)
        assert calls == runs
        assert cover_to_json(cover) == cover_to_json(surgery_chain(p.seed, expand(p.steps)))
        calls = 0
        assert cover_to_json(realize(p.seed, expand(p.steps))) == cover_to_json(cover)
        assert calls == runs  # consecutive equal records are one run

    def test_fold_runs_take_a_scan_per_level(self, monkeypatch):
        # A run of folds from a winding it does not pass folds every climb
        # of the widest width in one rebuild of the spans, and each fold
        # about halves its climb, so Case3 at the breakpoint cap scans its
        # spans for the widest climb about log2(folds) times, not once per
        # fold.
        p = plan(p1_spec(6, 1, 0, 39999, (1,)))
        folds = sum(step.repeat for step in p.steps if step.variant is RAM)
        assert folds == 19999
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return max(*args)

        monkeypatch.setattr(plsim, "max", counting, raising=False)
        cover = realize(p.seed, p.steps)
        assert 0 < calls <= 2 * folds.bit_length()
        assert len(cover.components[0][1].xs) == 40000

    @pytest.mark.parametrize(
        "top, deg, k",
        [
            ((6, 3, 0), (0, 0, 0), 64),
            ((6, 3, 0), (0, 0, 0), 39998),
            ((8, 3, 0), (1, 0, 0), 63),
            ((8, 3, 0), (1, 0, 0), 39993),
        ],
    )
    def test_new_folds_sweep_a_small_cover(self, monkeypatch, top, deg, k):
        # Case4 and Case5 open their zero circles before C1's fold run, so
        # placing them sweeps C1's four breakpoints whatever k is.
        p = plan(p1_spec(*top, k, deg))
        assert p.provenance == ("Case5" if deg[0] == 0 else "Case4")
        swept = []
        tally = plsim._tally

        def spying(den, circles):
            circles = list(circles)
            swept.append(sum(len(d) for _, d in circles))
            return tally(den, circles)

        monkeypatch.setattr(plsim, "_tally", spying)
        cover = realize(p.seed, p.steps)
        assert swept and max(swept) <= 4
        assert sum(len(m.xs) for _, m in cover.components) >= k

    @pytest.mark.parametrize(
        "seed, steps", BROKEN_RUNS + [(p.seed, p.steps) for _, p in HAND_BUILT]
    )
    def test_wrap_runs_match_single_surgeries(self, seed, steps):
        # A run of m wraps gives the bytes of m single-step surgeries, also
        # where other steps break the runs and where a run is refused.
        assert outcome(realize, seed, steps) == outcome(surgery_chain, seed, steps)

    @settings(max_examples=300, deadline=None)
    @given(fold_runs())
    @example((span_cover(1, [3, -1, 3, 3, -2], 6), 5))  # ties wider than 2 den, one refine
    @example((span_cover(8, [16, 16, -8, 16], 5), 4))  # ties at 2 den, no refine
    @example((span_cover(4, [2, 2, 2, 2, -1, 1], 2), 6))  # narrower ties, then past winding 0
    @example((span_cover(2, [9, 4, 9, -3, 1], 10), 5))  # ties split by a narrower climb
    @example((span_cover(3, [1, -5, 1], -1), 3))  # from a negative winding
    def test_fold_runs_match_single_folds(self, drawn):
        # A run of m folds, applied a widest width at a time, gives the
        # bytes of m single folds, or their refusal.
        cover, m = drawn
        run = replace(_FOLD1, repeat=m)
        assert outcome(surgery, cover, run) == outcome(single_folds, cover, m)

    @pytest.mark.parametrize(
        "seed, before, m",
        [
            (GenericPencil(0, 2), (), 40),  # no breakpoints before the first fold
            (GenericPencil(3, 4), (), 40),
            (hyper(4, 3, 1, (0, 0, 0)), (), 25),
            (hyper(2, 1, 0, (2,)), (ConstructionStep(StepKind.I, RAM, "C1", 2),), 6),
            (hyper(2, 1, 0, (2,)), (_WRAP1, ConstructionStep(StepKind.I, RAM, "C1", 3)), 6),
            (hyper(2, 1, 0, (2,)), (), 3),  # refused: winding sum 2 = k
        ],
    )
    def test_new_fold_runs_match_single_surgeries(self, seed, before, m):
        # A record of m new folds sweeps the cover once and then splits its
        # regular intervals; the bytes are those of m single surgeries.
        steps = [*before, ConstructionStep(StepKind.II, RAM, repeat=m)]
        assert outcome(realize, seed, steps) == outcome(surgery_chain, seed, expand(steps))

    def test_new_fold_run_splits_a_wrapping_interval(self):
        # Regular intervals (7/20, 11/20), (11/20, 19/20) and (19/20, 27/20),
        # the last through 0: a record of eight new folds splits it into
        # pieces whose starts pass 1, and every piece must then sort by its
        # residue among the pieces of its width, as a fresh sweep would.
        cover = PLCover((("C1", PLMap(20, [7, 19, 11], 0)),), 6, CoverTarget.PROJ_LINE)
        fold = ConstructionStep(StepKind.II, RAM)
        singles = cover
        for _ in range(8):
            singles = fraction_surgery(singles, fold)
        assert cover_to_json(surgery(cover, replace(fold, repeat=8))) == cover_to_json(singles)

    @pytest.mark.parametrize("provenance, top, deg, k", DEEPEST_RUNGS)
    def test_deep_plans_keep_small_denominators(self, provenance, top, deg, k):
        # The plans wrap before they fold, so the folds halve wide climbs
        # level by level and the denominator grows by about log2 k bits:
        # Case3 k=4001 ends with 4,002 breakpoints over a 15-bit denominator.
        p = plan(p1_spec(*top, k, deg))
        assert p.provenance == provenance
        cover = realize(p.seed, p.steps)
        assert cover.k == k
        assert sorted(m.closure for _, m in cover.components) == sorted(deg)
        assert all(m.den < 2**64 for _, m in cover.components)
        assert fiber_budget_violations(cover) == []


# Records drawn blind: placements among labels a cover may or may not
# have; each drawn step either written out one to three times, so that runs
# of equal records occur, or as one record of repeat 1 to 5; at most 12
# records.
blind_steps = st.lists(
    st.tuples(
        st.builds(
            lambda kind, label: ConstructionStep(*kind, label if kind[0] is StepKind.I else None),
            fuzz_kinds,
            st.sampled_from(["C1", "C2", "C3", "N1", "N2", "C9"]),
        ),
        st.integers(1, 3),
        st.integers(0, 5),
    ),
    max_size=8,
).map(
    lambda runs: [
        record
        for step, m, repeat in runs
        for record in ([replace(step, repeat=repeat)] if repeat else [step] * m)
    ][:12]
)


def refusal_or(fn):
    """fn(), or the text of the PreconditionViolated it raises."""
    try:
        return fn()
    except PreconditionViolated as exc:
        return str(exc)


def at_record(steps, exc):
    """A refusal of step j of expand(steps) as the refusal of the record
    that holds step j."""
    return PreconditionViolated(exc.kind, exc.reason, record_index(steps, exc.step_index))


class TestStepRules:
    """The symbolic and the PL interpreter share one set of step rules."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FUZZ_SEEDS), blind_steps)
    def test_execute_states_and_realize_agree(self, seed, steps):
        # execute_states steps one mutable state a record at a time and
        # apply_step a copy per record: both must give the same states, or
        # the same refusal at the same record, and the running winding sum
        # of the working state must be its own.  The records written out as
        # single steps must end in the same state, or be refused at a step
        # of the refused record, and realize to the same bytes.
        single = expand(steps)

        def replayed():
            states = []
            for state in execute_states(seed, steps):
                assert state.total == sum(map(abs, state.windings.values()))
                states.append(state.state())
            return states

        def folded():
            states = [seed_state(seed)]
            for i, step in enumerate(steps):
                states.append(apply_step(states[-1], step, i))
            return states

        def final_of_expansion():
            try:
                *_, final = execute_states(seed, single)
            except PreconditionViolated as exc:
                return str(at_record(steps, exc))
            return final.state()

        def pl():
            cover = realize(seed, steps)
            return windings(cover), cover.k

        def fraction_pl():
            try:
                return cover_to_json(fraction_realize(seed, single))
            except PreconditionViolated as exc:
                exc = at_record(steps, exc)
                return (PreconditionViolated, str(exc), exc.step_index)
            except (BudgetExceeded, ValueError) as exc:
                return (type(exc), str(exc), None)

        states = refusal_or(replayed)
        assert states == refusal_or(folded)
        if isinstance(states, list):
            assert states[-1] == final_of_expansion()
            final = dict(states[-1].components), states[-1].k
        else:
            assert states == final_of_expansion()
            final = states
        assert final == refusal_or(pl)
        assert outcome(realize, seed, steps) == fraction_pl()

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FUZZ_SEEDS), blind_steps)
    def test_accepted_records_realize_within_the_budget(self, seed, steps):
        # What the step rules accept, realize carries out: the records up to
        # the first one the rules refuse realize with no BudgetExceeded, and
        # every regular fiber has at most k real points, of k's parity.
        state, accepted = seed_state(seed), []
        for i, step in enumerate(steps):
            try:
                state = apply_step(state, step, i)
            except PreconditionViolated:
                break
            accepted.append(step)
        cover = realize(seed, accepted)
        assert cover.k == state.k
        assert fiber_budget_violations(cover) == []

    @pytest.mark.parametrize("d", [-3, -2, -1])
    def test_fold_at_negative_winding_agrees(self, d):
        # A fold at winding d < 0 reads its circle backwards to winding
        # 1 - d, in both interpreters; only hand-built states reach a
        # negative winding.
        fold = ConstructionStep(StepKind.I, RAM, "C1")
        state = LabeledState(3, 0, 6, CoverTarget.PROJ_LINE, (("C1", d),))
        cover = PLCover((("C1", PLMap(1, [0, 1], d)),), 6, CoverTarget.PROJ_LINE)
        assert apply_step(state, fold).components == (("C1", 1 - d),)
        for pl in (surgery, fraction_surgery):
            assert [(lbl, m.closure) for lbl, m in pl(cover, fold).components] == [("C1", 1 - d)]

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FUZZ_SEEDS), blind_steps)
    def test_spans_close_up_to_the_symbolic_windings(self, seed, steps):
        # The span form takes its windings from the symbolic state once per
        # record; its geometry must keep up: after every record each
        # circle's spans sum to its winding times den, and its labels are
        # the state's.  A form that takes every record ends where the
        # records written out as single steps do: in their symbolic state,
        # and with the bytes of their Fraction realization.
        form = plsim._seed_spans(seed)
        for i, step in enumerate(steps):
            try:
                plsim._step(form, step, i)
            except (PreconditionViolated, BudgetExceeded):
                return
            assert {lbl: sum(d) for lbl, (_, d) in form.spans.items()} == {
                lbl: w * form.den for lbl, w in form.replay.windings.items()
            }
        single = expand(steps)
        *_, final = execute_states(seed, single)
        assert (form.replay.windings, form.replay.k) == (final.windings, final.k)
        cover = plsim._decode(form)
        assert cover_to_json(cover) == cover_to_json(fraction_realize(seed, single))


def rebuilt(cover):
    """The cover with every map rebuilt from its own Fraction breakpoints."""
    comps = tuple(
        (lbl, pl_map([x for _, x in m.breakpoints], m.closure)) for lbl, m in cover.components
    )
    return PLCover(comps, cover.k, cover.target)


def pipeline(cover):
    return (
        json.dumps(cover_to_json(cover)),
        fiber_profile(cover),
        image_arcs(cover),
        fiber_budget_violations(cover),
        covering_number(cover),
    )


def fraction_count(monkeypatch, fn):
    """How many Fractions fn() creates."""
    made = 0
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting_new)
        fn()
    return made


class TestFractionViews:
    """Maps and arcs keep integer lifts; a map's Fractions are a view built
    when read, an arc's are test helpers, and the pipeline never converts
    through them."""

    def test_pipeline_matches_rebuilt_fraction_maps(self):
        covers = [realize(p.seed, p.steps) for p in criterion_box_plans()]
        covers += covnum_builds(15)
        assert len(covers) == 947 + 1124
        for cover in covers:
            assert pipeline(rebuilt(cover)) == pipeline(cover)

    @pytest.mark.parametrize("g, s, kcov", [(60, 61, 61), (40, 41, 20)])
    def test_covnum_builds_few_fractions(self, monkeypatch, g, s, kcov):
        # the builds and the cover search run on integers throughout
        tgt = CoveringNumberTarget(TopType(g, s, 0), kcov)
        made = fraction_count(monkeypatch, lambda: covering_number(build_covnum(tgt)[0]))
        assert made == 0

    def test_realize_builds_no_fractions_past_the_seed(self, monkeypatch):
        p = plan(p1_spec(6, 1, 0, 101, (1,)))
        made = fraction_count(
            monkeypatch, lambda: fiber_budget_violations(realize(p.seed, p.steps))
        )
        assert made == 0

    def test_hashing_builds_no_fractions(self, monkeypatch):
        # Case5 k=8: two wraps and four folds on C1, whose image stays a proper arc
        p = plan(p1_spec(6, 3, 0, 8, (0, 0, 0)))
        cover = realize(p.seed, p.steps)
        maps = [m for _, m in cover.components]
        arcs = [a for _, a in image_arcs(cover)]
        assert len(maps) == 3 and all(isinstance(a, Arc) for a in arcs)
        made = fraction_count(monkeypatch, lambda: {hash(x) for x in maps + arcs})
        assert made == 0
