from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realcover.arcs import FULL_CIRCLE, Arc, min_lifted_cover
from realcover.covering4 import covering_number

from oracles import (
    arc,
    arc_contains,
    arc_end,
    arc_length,
    arc_start,
    arcs_intersect,
    brute_min_circle_cover,
    cover_of_arcs,
    greedy_min_circle_cover,
)

F = Fraction


def min_cover(arcs):
    """The covering number of a cover whose circle images are the arcs; the
    oracles' None, no cover, is its 0."""
    return covering_number(cover_of_arcs(arcs))


# The denominators acceptance criterion 5 draws from.
DENOMINATORS = (8, 12, 16, 24, 360)


@st.composite
def large_arc_sets(draw):
    """9 to 64 arcs, past subset brute force; short arcs leave gaps."""
    parts = draw(st.sampled_from([1, 2, 4, 8, 16]))  # arcs span at most 1/parts
    arcs = []
    for den in draw(st.lists(st.sampled_from(DENOMINATORS), min_size=9, max_size=64)):
        start = draw(st.integers(0, den - 1))
        length = draw(st.integers(1, max(1, (den - 1) // parts)))
        arcs.append(Arc(den, start, start + length))
    if draw(st.integers(0, 9)) == 0:
        arcs.insert(draw(st.integers(0, len(arcs))), FULL_CIRCLE)
    return arcs


@st.composite
def edge_lifts(draw):
    """(den, ends) for min_lifted_cover on the cases the search's order of
    intervals turns on: arcs that share a start, start at 0, end at
    den - 1, or wrap past den, and so end at 0 or beyond."""
    den = draw(st.sampled_from([2, 3, 8, 24]))
    ends = []
    for lo in draw(st.lists(st.sampled_from(sorted({0, 1, den // 2, den - 1})), max_size=8)):
        his = {lo + 1, lo + den - 1, den - 1, den, den + 1}
        ends.append((lo, draw(st.sampled_from(sorted(h for h in his if lo < h < lo + den)))))
    return den, ends


# Large and pairwise coprime: the sweep's common denominator is their product.
COPRIME_DENOMINATORS = (360, 1001, 2**61 - 1)


@st.composite
def coprime_arc_sets(draw, min_size, max_size):
    """Arcs over COPRIME_DENOMINATORS, some of them short enough to leave gaps."""
    parts = draw(st.sampled_from([1, 2, 4, 8]))  # arcs span at most 1/parts
    arcs = []
    dens = st.lists(st.sampled_from(COPRIME_DENOMINATORS), min_size=min_size, max_size=max_size)
    for den in draw(dens):
        start = draw(st.integers(0, den - 1))
        length = draw(st.integers(1, max(1, (den - 1) // parts)))
        arcs.append(Arc(den, start, start + length))
    return arcs


class TestArc:
    def test_normalization(self):
        a = Arc(8, 10, -2)
        assert (a.den, a.lo, a.hi) == (4, 1, 3)
        assert arc_start(a) == F(1, 4) and arc_end(a) == F(3, 4)
        assert arc_length(a) == F(1, 2)

    def test_wrap_around_containment(self):
        a = Arc(4, 3, 1)
        assert arc_contains(a, F(7, 8))
        assert arc_contains(a, F(1, 8))
        assert not arc_contains(a, F(1, 2))
        assert arc_contains(a, F(3, 4)) and arc_contains(a, F(1, 4))  # closed ends

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            arc(F(1, 3), F(1, 3))

    @given(st.integers(1, 60), st.integers(-120, 120), st.integers(-120, 120))
    def test_integer_constructor_matches_fraction_constructor(self, den, lo, hi):
        if (hi - lo) % den == 0:
            with pytest.raises(ValueError, match="distinct endpoints"):
                Arc(den, lo, hi)
            with pytest.raises(ValueError, match="distinct endpoints"):
                arc(F(lo, den), F(hi, den))
            return
        a, b = Arc(den, lo, hi), arc(F(lo, den), F(hi, den))
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        ends = (arc_start(a), arc_end(a))
        assert ends == (arc_start(b), arc_end(b)) == (F(lo, den) % 1, F(hi, den) % 1)
        assert arc_length(a) == F(hi - lo, den) % 1

    def test_integer_constructor_rejects_degenerate(self):
        with pytest.raises(ValueError, match="distinct endpoints"):
            Arc(12, 5, 17)  # 5 and 17 agree mod 12

    @pytest.mark.parametrize("den", [-8, 0, F(8), 8.0, True])
    def test_refuses_a_den_that_is_not_a_positive_int(self, den):
        with pytest.raises(ValueError, match="den must be a positive int"):
            Arc(den, 1, 2)

    def test_immutable(self):
        a = Arc(8, 1, 3)
        with pytest.raises(FrozenInstanceError):
            a.lo = 2

    def test_intersection(self):
        assert arcs_intersect(arc(0, F(1, 2)), arc(F(1, 2), F(3, 4)))
        assert not arcs_intersect(arc(0, F(1, 4)), arc(F(1, 2), F(3, 4)))
        assert arcs_intersect(FULL_CIRCLE, arc(0, F(1, 4)))


class TestMinCover:
    """The cover search through covering_number, on covers built from arcs."""

    def test_full_circle_wins(self):
        assert min_cover([FULL_CIRCLE, arc(0, F(1, 2))]) == 1

    def test_three_thirds_with_slack(self):
        arcs = [
            arc(0, F(2, 5)),
            arc(F(1, 3), F(1, 3) + F(2, 5)),
            arc(F(2, 3), F(2, 3) + F(2, 5)),
        ]
        assert min_cover(arcs) == 3

    def test_not_surjective(self):
        assert min_cover([arc(0, F(1, 2)), arc(F(2, 5), F(9, 10))]) == 0
        assert min_cover([]) == 0

    def test_touching_closed_arcs_cover(self):
        assert min_cover([arc(0, F(1, 2)), arc(F(1, 2), 1)]) == 2

    def test_redundant_arc_not_counted(self):
        arcs = [arc(0, F(2, 3)), arc(F(1, 2), F(1, 8)), arc(F(1, 4), F(1, 3))]
        assert min_cover(arcs) == 2

    @given(
        data=st.lists(
            st.tuples(st.integers(0, 23), st.integers(1, 23)),
            min_size=1,
            max_size=8,
        ),
        fulls=st.integers(0, 1),
    )
    def test_matches_subset_bruteforce(self, data, fulls):
        arcs = [Arc(24, s, s + ln) for s, ln in data]
        arcs.extend([FULL_CIRCLE] * fulls)
        assert min_cover(arcs) == (brute_min_circle_cover(arcs) or 0)

    @given(edge_lifts())
    @example((4, [(0, 2), (0, 3), (3, 5)]))  # a shared start, a wrap to 1
    @example((4, [(0, 3), (3, 4)]))  # ends at den - 1, then exactly at 0
    @example((4, [(0, 3), (1, 3)]))  # both end at den - 1, leaving a gap
    @example((3, [(2, 4), (1, 3), (0, 2)]))  # every arc wraps or meets 0
    @example((8, [(7, 14)]))  # the longest arc from den - 1
    def test_lifted_cover_matches_subset_bruteforce_on_edges(self, lifts):
        den, ends = lifts
        arcs = [Arc(den, lo, hi) for lo, hi in ends]
        assert min_lifted_cover(den, ends) == brute_min_circle_cover(arcs)

    @settings(deadline=None)
    @given(arcs=large_arc_sets())
    def test_matches_anchor_greedy_on_large_sets(self, arcs):
        assert min_cover(arcs) == (greedy_min_circle_cover(arcs) or 0)

    @settings(deadline=None)
    @given(arcs=coprime_arc_sets(1, 8))
    def test_large_coprime_denominators_match_subset_bruteforce(self, arcs):
        assert min_cover(arcs) == (brute_min_circle_cover(arcs) or 0)

    @settings(deadline=None)
    @given(arcs=coprime_arc_sets(9, 40))
    def test_large_coprime_denominators_match_anchor_greedy(self, arcs):
        assert min_cover(arcs) == (greedy_min_circle_cover(arcs) or 0)
