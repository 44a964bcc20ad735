from fractions import Fraction

import pytest

from realcover.arcs import Arc, FullCircle
from realcover.constructions import (
    ConstructionStep,
    GenericPencil,
    Hyperelliptic,
    HyperellipticToR0,
    PreconditionViolated,
    StepKind,
    Variant,
)
from realcover.planner import plan
from realcover.plsim import (
    BudgetExceeded,
    PLCover,
    PLMap,
    SingularValue,
    critical_values,
    fiber,
    fiber_budget_violations,
    fiber_count,
    fold_split,
    image_arcs,
    merge_components,
    pl_map,
    realize,
    regular_samples,
    reverse,
    seed_cover,
    surgery,
    winding,
)
from realcover.topology import CoverSpec, CoverTarget, DegreeVector, TopType

F = Fraction
RAM = Variant.WITH_REAL_RAM
NORAM = Variant.WITHOUT_REAL_RAM


def hyper(g, s, a, deg):
    return Hyperelliptic(TopType(g, s, a), DegreeVector(tuple(deg)))


def tent(lo, hi):
    return pl_map([F(lo), F(hi)], 0)


def single(m, k=None, target=CoverTarget.PROJ_LINE):
    return PLCover((("C1", m),), k if k is not None else abs(m.closure), target)


class TestPLMap:
    def test_winding_of_monotone_map(self):
        assert winding(pl_map([F(0)], 1)) == 1

    def test_winding_of_tent_is_zero(self):
        assert winding(tent(0, F(1, 4))) == 0

    def test_double_wrap(self):
        assert winding(pl_map([F(0), F(1)], 2)) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            PLMap(((F(1, 2), F(0)), (F(1, 4), F(1))), 1)  # t not increasing
        with pytest.raises(ValueError):
            PLMap(((F(0), F(0)), (F(1, 2), F(0))), 0)  # zero-slope segment
        with pytest.raises(ValueError):
            PLMap((), 1)

    def test_reverse_negates_winding_keeps_fibers(self):
        m = pl_map([F(0), F(1)], 2)
        r = reverse(m)
        assert winding(r) == -2
        cover_m, cover_r = single(m, 2), single(r, 2)
        for x in (F(1, 7), F(3, 7), F(6, 7)):
            assert fiber_count(cover_m, x) == fiber_count(cover_r, x)


class TestFiber:
    def test_double_wrap_two_preimages(self):
        cover = single(pl_map([F(0), F(1)], 2), 2)
        pts = fiber(cover, F(1, 3))
        assert len(pts) == 2
        assert all(lbl == "C1" for lbl, _ in pts)

    def test_singular_value_rejected(self):
        cover = single(tent(0, F(1, 4)), 2)
        with pytest.raises(SingularValue):
            fiber(cover, F(1, 4))

    def test_full_winding_cover_has_full_fibers(self):
        cover = seed_cover(hyper(3, 2, 0, (1, 1)))
        for x in regular_samples(cover, 20):
            assert fiber_count(cover, x) == 2

    def test_fold_gap_drops_count_by_two(self):
        before = single(pl_map([F(0), F(1)], 2), 2)
        after = surgery(before, ConstructionStep(StepKind.I, RAM, "C1"))
        assert after.k == 3
        assert winding(after.map_of("C1")) == 1
        crit = critical_values(after)
        assert fiber_budget_violations(after) == []
        # the count changes by exactly 2 across a fold image, 0 elsewhere
        m = after.map_of("C1")
        xs = m.lifts()[:-1]
        folds = set()
        n = len(xs)
        for j in range(n):
            incoming = xs[j] - xs[j - 1] if j else xs[0] - (xs[-1] - m.closure)
            outgoing = (xs[j + 1] if j + 1 < n else xs[0] + m.closure) - xs[j]
            if (incoming > 0) != (outgoing > 0):
                folds.add(xs[j] % 1)
        assert folds
        eps = min((b - a) % 1 for a in crit for b in crit if a != b) / 4
        for c in crit:
            left = fiber_count(after, (c - eps) % 1)
            right = fiber_count(after, (c + eps) % 1)
            assert abs(left - right) == (2 if c in folds else 0)


class TestImageArcs:
    def test_wrap_is_full_circle(self):
        cover = single(pl_map([F(0), F(1, 2)], 1), 1)
        assert image_arcs(cover) == [("C1", FullCircle())]

    def test_tent_image(self):
        cover = single(tent(0, F(1, 4)), 2)
        assert image_arcs(cover) == [("C1", Arc(F(0), F(1, 4)))]

    def test_wide_sweep_is_full_circle(self):
        cover = single(pl_map([F(0), F(9, 8)], 0), 4)
        assert image_arcs(cover) == [("C1", FullCircle())]

    def test_zero_seed_arcs_disjoint(self):
        cover = seed_cover(hyper(4, 4, 1, (0, 0, 0, 0)))
        arcs = [a for _, a in image_arcs(cover)]
        assert all(isinstance(a, Arc) for a in arcs)
        for i, a in enumerate(arcs):
            for b in arcs[i + 1 :]:
                assert not a.contains(b.start) and not b.contains(a.start)


class TestSurgery:
    def test_wrap_raises_winding_everywhere(self):
        before = single(pl_map([F(0), F(1)], 2), 2)
        after = surgery(before, ConstructionStep(StepKind.I, NORAM, "C1"))
        assert winding(after.map_of("C1")) == 3
        for x in regular_samples(after, 30):
            assert fiber_count(after, x) == 3

    def test_fold_flips_zero_winding(self):
        before = single(tent(F(1, 8), F(3, 8)), 2)
        after = surgery(before, ConstructionStep(StepKind.I, RAM, "C1"))
        assert winding(after.map_of("C1")) == 1

    def test_new_fold_component(self):
        before = single(tent(F(1, 8), F(3, 8)), 4)
        after = surgery(before, ConstructionStep(StepKind.II, RAM))
        assert after.k == 4
        assert sorted(after.windings().values()) == [0, 0]
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
        assert winding(after.map_of("N1")) == 1

    def test_budget_only_kinds(self):
        empty = seed_cover(GenericPencil(3, 4))
        after = surgery(empty, ConstructionStep(StepKind.IV))
        assert after.k == 6 and after.components == ()
        conic = seed_cover(HyperellipticToR0(3))
        after = surgery(conic, ConstructionStep(StepKind.V))
        assert after.k == 3

    def test_preconditions_mirror_symbolic_layer(self):
        conic = seed_cover(HyperellipticToR0(3))
        with pytest.raises(PreconditionViolated):
            surgery(conic, ConstructionStep(StepKind.III))
        full = seed_cover(hyper(4, 1, 0, (2,)))
        with pytest.raises(PreconditionViolated):
            surgery(full, ConstructionStep(StepKind.II, RAM))
        with pytest.raises(PreconditionViolated):
            surgery(full, ConstructionStep(StepKind.I, RAM, "C9"))
        with pytest.raises(PreconditionViolated):
            surgery(full, ConstructionStep(StepKind.IV))


class TestNodeSmoothings:
    def test_merge_two_tents(self):
        cover = PLCover(
            (("C1", tent(0, F(1, 2))), ("C2", tent(F(3, 8), F(7, 8)))),
            4,
            CoverTarget.PROJ_LINE,
        )
        merged = merge_components(cover, "C1", "C2", F(7, 16), F(1, 64))
        assert [lbl for lbl, _ in merged.components] == ["C1"]
        m = merged.map_of("C1")
        assert winding(m) == 0
        assert image_arcs(merged) == [("C1", Arc(F(0), F(7, 8)))]
        assert fiber_budget_violations(merged) == []
        # inside the smoothing gap two sheets became non-real
        assert fiber_count(merged, F(7, 16)) == 2
        assert fiber_count(merged, F(5, 16)) == 2
        assert fiber_count(merged, F(13, 32)) == 4
        assert fiber_count(merged, F(31, 64)) == 4

    def test_split_tent(self):
        cover = single(tent(0, F(1, 2)), 4)
        split, new_label = fold_split(cover, "C1", F(1, 4), F(1, 64))
        assert new_label == "N1"
        arcs = dict(image_arcs(split))
        assert arcs["C1"] == Arc(F(0), F(1, 4) - F(1, 64))
        assert arcs["N1"] == Arc(F(1, 4) + F(1, 64), F(1, 2))
        assert fiber_budget_violations(split) == []


class TestRealize:
    def test_full_winding_plan(self):
        target = CoverSpec(TopType(4, 1, 0), CoverTarget.PROJ_LINE, 3, DegreeVector((3,)))
        p = plan(target)
        cover = realize(p.seed, p.steps)
        assert [abs(m.closure) for _, m in cover.components] == [3]
        for x in regular_samples(cover, 30):
            assert fiber_count(cover, x) == 3

    def test_all_zero_plan(self):
        target = CoverSpec(
            TopType(5, 2, 0), CoverTarget.PROJ_LINE, 4, DegreeVector((0, 0))
        )
        p = plan(target)
        cover = realize(p.seed, p.steps)
        assert sorted(cover.windings().values()) == [0, 0]
        assert fiber_budget_violations(cover) == []

    def test_labels_match_symbolic_state(self):
        target = CoverSpec(
            TopType(6, 3, 0), CoverTarget.PROJ_LINE, 4, DegreeVector((2, 1, 1))
        )
        p = plan(target)
        cover = realize(p.seed, p.steps)
        from realcover.constructions import execute_states

        final = None
        for final in execute_states(p.seed, p.steps):
            pass
        assert cover.windings() == dict(final.components)

    def test_conic_plans_have_empty_real_locus(self):
        target = CoverSpec(TopType(4, 0, 1), CoverTarget.ANISOTROPIC_CONIC, 3, DegreeVector())
        p = plan(target)
        cover = realize(p.seed, p.steps)
        assert cover.components == () and cover.k == 3


class TestSampling:
    def test_samples_avoid_critical_values_and_reach_minimum(self):
        cover = seed_cover(hyper(3, 2, 0, (1, 1)))
        samples = regular_samples(cover, 100)
        crit = set(critical_values(cover))
        assert len(samples) >= 100
        assert not crit.intersection(samples)

    def test_empty_cover_sampling(self):
        cover = seed_cover(GenericPencil(3, 4))
        assert len(regular_samples(cover, 50)) == 50
