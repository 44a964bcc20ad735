from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcover.arcs import FULL_CIRCLE, Arc, arcs_intersect, min_circle_cover

from oracles import brute_min_circle_cover, greedy_min_circle_cover

F = Fraction

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
        arcs.append(Arc(F(start, den), F(start + length, den)))
    if draw(st.integers(0, 9)) == 0:
        arcs.insert(draw(st.integers(0, len(arcs))), FULL_CIRCLE)
    return arcs


class TestArc:
    def test_normalization(self):
        a = Arc(F(5, 4), F(-1, 4))
        assert a.start == F(1, 4) and a.end == F(3, 4)
        assert a.length == F(1, 2)

    def test_wrap_around_containment(self):
        a = Arc(F(3, 4), F(1, 4))
        assert a.contains(F(7, 8))
        assert a.contains(F(1, 8))
        assert not a.contains(F(1, 2))
        assert a.contains(F(3, 4)) and a.contains(F(1, 4))  # closed ends

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Arc(F(1, 3), F(1, 3))

    def test_intersection(self):
        assert arcs_intersect(Arc(0, F(1, 2)), Arc(F(1, 2), F(3, 4)))
        assert not arcs_intersect(Arc(0, F(1, 4)), Arc(F(1, 2), F(3, 4)))
        assert arcs_intersect(FULL_CIRCLE, Arc(0, F(1, 4)))


class TestMinCover:
    def test_full_circle_wins(self):
        assert min_circle_cover([FULL_CIRCLE, Arc(0, F(1, 2))]) == 1

    def test_three_thirds_with_slack(self):
        arcs = [
            Arc(0, F(2, 5)),
            Arc(F(1, 3), F(1, 3) + F(2, 5)),
            Arc(F(2, 3), F(2, 3) + F(2, 5)),
        ]
        assert min_circle_cover(arcs) == 3

    def test_not_surjective(self):
        assert min_circle_cover([Arc(0, F(1, 2)), Arc(F(2, 5), F(9, 10))]) is None
        assert min_circle_cover([]) is None

    def test_touching_closed_arcs_cover(self):
        assert min_circle_cover([Arc(0, F(1, 2)), Arc(F(1, 2), 1)]) == 2

    def test_redundant_arc_not_counted(self):
        arcs = [Arc(0, F(2, 3)), Arc(F(1, 2), F(1, 8)), Arc(F(1, 4), F(1, 3))]
        assert min_circle_cover(arcs) == 2

    @given(
        data=st.lists(
            st.tuples(st.integers(0, 23), st.integers(1, 23)),
            min_size=1,
            max_size=8,
        ),
        fulls=st.integers(0, 1),
    )
    def test_matches_subset_bruteforce(self, data, fulls):
        arcs = [Arc(F(s, 24), F(s + ln, 24)) for s, ln in data]
        arcs.extend([FULL_CIRCLE] * fulls)
        assert min_circle_cover(arcs) == brute_min_circle_cover(arcs)

    @settings(deadline=None)
    @given(arcs=large_arc_sets())
    def test_matches_anchor_greedy_on_large_sets(self, arcs):
        assert min_circle_cover(arcs) == greedy_min_circle_cover(arcs)
