import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from realcover.arcs import Arc, FullCircle
from realcover.covering4 import (
    CoveringNumberTarget,
    InfeasibleTarget,
    build_covnum,
    covering_number,
)
from realcover.planner import plan
from realcover.plsim import (
    PLCover,
    PLMap,
    fiber_budget_violations,
    image_arcs,
    realize,
)
from realcover.topology import CoverSpec, CoverTarget, DegreeVector, TopType, weichold_admissible
from realcover.constructions import GenericPencil, Hyperelliptic

from oracles import (
    arcs_intersect,
    brute_min_circle_cover,
    cover_to_json,
    fraction_build_covnum,
    windings,
)

F = Fraction


def target(g, s, a, kcov):
    return CoveringNumberTarget(TopType(g, s, a), kcov)


class TestCoveringNumber:
    def test_empty_real_locus(self):
        assert covering_number(realize(GenericPencil(3, 4), ())) == 0

    def test_nonzero_winding_means_one(self):
        cover = realize(Hyperelliptic(TopType(4, 1, 0), DegreeVector((2,))), ())
        assert covering_number(cover) == 1

    def test_odd_degree_means_one(self):
        spec = CoverSpec(TopType(4, 1, 0), CoverTarget.PROJ_LINE, 3, DegreeVector((3,)))
        p = plan(spec)
        assert covering_number(realize(p.seed, p.steps)) == 1

    def test_disjoint_folds_do_not_cover(self):
        cover = realize(Hyperelliptic(TopType(3, 2, 1), DegreeVector((0, 0))), ())
        assert covering_number(cover) == 0


@st.composite
def hand_built_covers(draw):
    """Up to six circles over several denominators, many of them reduced by
    PLMap, with nonzero closures and lifts spanning den or more among them,
    over either target.  Most arcs are long, so that some covers need
    several of them."""
    comps = []
    for i in range(draw(st.integers(0, 6))):
        den = draw(st.sampled_from([2, 3, 4, 6, 12, 360]))
        base = draw(st.integers(-den, 2 * den))
        top = draw(st.integers(den // 3, den))
        more = draw(st.lists(st.integers(-1, den), max_size=2))
        xs = [base, base + top] + [base + d for d in more]
        closure = draw(st.sampled_from([0] * 8 + [1, -2]))
        try:
            comps.append((f"C{i + 1}", PLMap(den, xs, closure)))
        except ValueError:  # a zero-slope segment
            pass
    return PLCover(tuple(comps), 4, draw(st.sampled_from(list(CoverTarget))))


class TestCoveringNumberAgainstImageArcs:
    """covering_number reads the maps' integer ends itself; the arcs that
    image_arcs builds and the subset brute force check it."""

    @given(hand_built_covers())
    @example(PLCover((), 4, CoverTarget.PROJ_LINE))
    @example(PLCover((("C1", PLMap(4, [1, 3], 0)),), 3, CoverTarget.ANISOTROPIC_CONIC))
    @example(PLCover((("C1", PLMap(12, [0, 6], 0)), ("C2", PLMap(8, [3, 9], 0))), 4,
                     CoverTarget.PROJ_LINE))
    @example(PLCover((("C1", PLMap(6, [1, 7], 0)), ("C2", PLMap(4, [1, 2], 0))), 4,
                     CoverTarget.PROJ_LINE))
    def test_matches_subset_bruteforce_over_image_arcs(self, cover):
        arcs = [a for _, a in image_arcs(cover)]
        assert covering_number(cover) == (brute_min_circle_cover(arcs) or 0)


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
        m = g + 2
        arcs = [Arc(4 * m, 4 * j - 1, 4 * j + 5) for j in range(m)]  # the chain's arcs
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
        assert all(w == 0 for w in windings(cover).values())
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


# SHA-256 over one compact JSON line {"cover": ..., "covering_number": ...}
# per covnum target with g <= 15 (1,124 targets, in the loop order below),
# computed with the earlier Fraction-arithmetic builds.
FRACTION_BUILDS_G15_SHA256 = "3aceebdb18f765845a3c71cc18ef078797217e53d25b7b7a781a2ffd4f5efb7e"


def covnum_targets(g_max):
    for g in range(g_max + 1):
        for s in range(1, g + 2):
            for a in (0, 1):
                if weichold_admissible(g, s, a):
                    for kcov in range(1, s + 1):
                        yield target(g, s, a, kcov)


class TestIntegerBuilds:
    def test_builds_match_fraction_builds(self):
        digest, n = hashlib.sha256(), 0
        for tgt in covnum_targets(15):
            cover, _ = build_covnum(tgt)
            doc = {"cover": cover_to_json(cover), "covering_number": covering_number(cover)}
            digest.update(json.dumps(doc, separators=(",", ":")).encode() + b"\n")
            n += 1
        assert n == 1124
        assert digest.hexdigest() == FRACTION_BUILDS_G15_SHA256

    def test_closed_forms_match_the_fraction_builds(self):
        # Every target with g <= 20, then the separating builds with s = 1
        # and s = 2 on a ladder up to g = 400: (g + 1 - s)/2 merges into C1.
        # The Fraction loops take time quadratic in g, so the ladder is sparse.
        targets = list(covnum_targets(20))
        assert len(targets) == 2486
        targets += [target(g, s, 0, kcov) for g, s in ((99, 2), (100, 1), (400, 1))
                    for kcov in range(1, s + 1)]
        for tgt in targets:
            cover, _ = build_covnum(tgt)
            assert cover_to_json(cover) == cover_to_json(fraction_build_covnum(tgt)), tgt
