import itertools
from fractions import Fraction

import pytest

from realcover.arcs import Arc, FullCircle, arcs_intersect
from realcover.covering4 import (
    CoveringNumberTarget,
    InfeasibleTarget,
    _chain_arcs,
    build_covnum,
    covering_number,
)
from realcover.planner import plan
from realcover.plsim import (
    PLCover,
    fiber_budget_violations,
    image_arcs,
    pl_map,
    realize,
    seed_cover,
)
from realcover.topology import CoverSpec, CoverTarget, DegreeVector, TopType
from realcover.constructions import GenericPencil, Hyperelliptic

from oracles import brute_min_circle_cover

F = Fraction


def target(g, s, a, kcov):
    return CoveringNumberTarget(TopType(g, s, a), kcov)


class TestCoveringNumber:
    def test_empty_real_locus(self):
        assert covering_number(seed_cover(GenericPencil(3, 4))) == 0

    def test_nonzero_winding_means_one(self):
        cover = seed_cover(
            Hyperelliptic(TopType(4, 1, 0), DegreeVector((2,)))
        )
        assert covering_number(cover) == 1

    def test_odd_degree_means_one(self):
        spec = CoverSpec(TopType(4, 1, 0), CoverTarget.PROJ_LINE, 3, DegreeVector((3,)))
        p = plan(spec)
        assert covering_number(realize(p.seed, p.steps)) == 1

    def test_disjoint_folds_do_not_cover(self):
        cover = seed_cover(
            Hyperelliptic(TopType(3, 2, 1), DegreeVector((0, 0)))
        )
        assert covering_number(cover) == 0


class TestTargetValidation:
    def test_bounds(self):
        with pytest.raises(InfeasibleTarget):
            target(2, 3, 0, 0)
        with pytest.raises(InfeasibleTarget):
            target(2, 3, 0, 4)
        with pytest.raises(InfeasibleTarget):
            target(2, 0, 1, 1)
        with pytest.raises(InfeasibleTarget):
            target(2, 2, 0, 1)  # type fails existence bounds


class TestChainLayout:
    def test_even_genus_incidence_pattern(self):
        # Chain position 2j carries the j-th arc of the first double cover,
        # position 2j+1 the j-th arc of the second; arcs of the two covers
        # meet exactly in the three stated index patterns.
        g = 4
        half = g // 2
        arcs = [Arc(lo, hi) for lo, hi in _chain_arcs(g + 2)]
        first = {j: arcs[2 * j] for j in range(half + 1)}
        second = {j: arcs[2 * j + 1] for j in range(half + 1)}
        for j1 in range(half + 1):
            for j2 in range(half + 1):
                expected = (
                    j1 == j2
                    or (j1 == j2 + 1 and 1 <= j1 <= half)
                    or (j1 == 0 and j2 == half)
                )
                assert arcs_intersect(first[j1], second[j2]) == expected
        # same-cover arcs stay disjoint, as a degree-2 covering forces
        for d in (first, second):
            for j1 in d:
                for j2 in d:
                    if j1 != j2:
                        assert not arcs_intersect(d[j1], d[j2])


class TestBuilds:
    def test_three_circle_cycle(self):
        cover, spec = build_covnum(target(2, 3, 0, 3))
        assert cover.k == 4
        assert len(cover.components) == 3
        assert all(w == 0 for w in cover.windings().values())
        arcs = [a for _, a in image_arcs(cover)]
        assert all(isinstance(a, Arc) for a in arcs)
        # pairwise adjacency in a 3-cycle
        for a, b in itertools.combinations(arcs, 2):
            assert arcs_intersect(a, b)
        assert covering_number(cover) == 3
        assert spec.top == TopType(2, 3, 0)

    def test_split_build(self):
        cover, _ = build_covnum(target(6, 7, 0, 4))
        assert len(cover.components) == 7
        assert covering_number(cover) == 4
        assert fiber_budget_violations(cover) == []

    def test_covering_number_one_dominant_circle(self):
        cover, _ = build_covnum(target(3, 4, 0, 1))
        arcs = dict(image_arcs(cover))
        assert isinstance(arcs["C1"], FullCircle)
        assert covering_number(cover) == 1

    def test_nonseparating_type(self):
        cover, spec = build_covnum(target(5, 3, 1, 2))
        assert len(cover.components) == 3
        assert covering_number(cover) == 2
        assert spec.top == TopType(5, 3, 1)
        assert fiber_budget_violations(cover) == []

    def test_maximal_type_at_genus_1000(self):
        cover, _ = build_covnum(target(1000, 1001, 0, 1001))
        assert covering_number(cover) == 1001

    def test_tight_cover_needs_every_circle(self):
        for tgt in (target(3, 4, 0, 4), target(4, 4, 1, 4), target(2, 3, 0, 3)):
            cover, _ = build_covnum(tgt)
            arcs = [a for _, a in image_arcs(cover)]
            assert brute_min_circle_cover(arcs) == tgt.kcov
            for i in range(len(arcs)):
                rest = arcs[:i] + arcs[i + 1 :]
                assert brute_min_circle_cover(rest) is None

    def test_parity_of_built_fibers(self):
        cover, _ = build_covnum(target(4, 3, 0, 2))
        assert fiber_budget_violations(cover) == []
