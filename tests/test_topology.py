import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from realcover import topology
from realcover.topology import (
    CoverSpec,
    CoverTarget,
    DegreeVector,
    TopType,
    admissibility_failure,
    enumerate_admissible,
    spec_from_json,
    spec_text,
    target_admissible,
    weichold_admissible,
)

from oracles import oracle_admissibility_failure, oracle_admissible_tuples


def spec(g, s, a, target, k, deg=()):
    return CoverSpec(TopType(g, s, a), CoverTarget(target), k, DegreeVector(tuple(deg)))


class TestWeichold:
    def test_known_types(self):
        assert weichold_admissible(4, 0, 1)
        assert weichold_admissible(4, 1, 0)
        assert not weichold_admissible(4, 2, 0)  # parity of s vs g+1
        assert not weichold_admissible(0, 0, 0)  # separating needs a circle
        assert weichold_admissible(2, 3, 0)
        assert not weichold_admissible(3, 4, 1)  # s > g

    def test_total_function_on_junk(self):
        assert not weichold_admissible(-1, 0, 1)
        assert not weichold_admissible(2, -1, 0)
        assert not weichold_admissible(2, 1, 7)


class TestDegreeAdmissible:
    """The winding clauses of admissibility_failure, on a topology that
    admits any number of circles, so only the windings can fail."""

    @staticmethod
    def failure(deg, k):
        vec = DegreeVector(tuple(deg))
        s = len(vec)
        top = TopType(s - 1, s, 0) if s else TopType(0, 0, 1)
        return admissibility_failure(CoverSpec(top, CoverTarget.PROJ_LINE, k, vec))

    def test_examples(self):
        assert self.failure((3,), 3) is None
        assert self.failure((2, 0), 4) is None
        assert self.failure((3, 2), 4) == "sum"
        assert self.failure((4, 0), 4) == "zero_tail"  # zero entry, sum > k-2
        assert self.failure((1, 1), 3) == "parity"  # odd defect

    def test_empty_vector_forces_even_degree(self):
        assert self.failure((), 4) is None
        assert self.failure((), 5) == "parity"

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="canonical sorted form"):
            self.failure((1, 2), 4)
        with pytest.raises(ValueError, match="canonical sorted form"):
            self.failure((2, -1), 4)
        with pytest.raises(ValueError, match="covering degree must be >= 2"):
            self.failure((1,), 1)

    @given(
        deg=st.lists(st.integers(0, 6), max_size=5),
        k=st.integers(2, 12),
    )
    def test_appending_zero_is_monotone(self, deg, k):
        vec = DegreeVector.canonical(deg)
        if self.failure(vec.entries, k) is None and sum(vec.entries) <= k - 2:
            assert self.failure(vec.entries + (0,), k) is None


class TestTargetAdmissible:
    def test_genus_four_no_odd_pencil(self):
        assert not target_admissible(spec(4, 0, 1, "P1", 3))
        assert admissibility_failure(spec(4, 0, 1, "P1", 3)) == "parity"

    def test_unit_windings(self):
        assert target_admissible(spec(6, 3, 0, "P1", 3, (1, 1, 1)))

    def test_conic_target(self):
        assert target_admissible(spec(5, 0, 1, "R0", 4))
        assert admissibility_failure(spec(5, 0, 1, "R0", 3)) == "r0_parity"
        assert admissibility_failure(spec(2, 1, 1, "R0", 3, (0,))) == "r0_nonempty_real_locus"

    def test_separating_bound(self):
        # Full winding sum forces the real locus to separate.
        assert admissibility_failure(spec(3, 3, 1, "P1", 3, (1, 1, 1))) == "separating"
        assert target_admissible(spec(2, 3, 0, "P1", 3, (1, 1, 1)))

    def test_failure_names_in_order(self):
        assert admissibility_failure(spec(4, 2, 0, "P1", 4, (1, 1))) == "weichold"
        assert admissibility_failure(spec(3, 2, 0, "P1", 3, (3, 2))) == "sum"
        assert admissibility_failure(spec(5, 2, 0, "P1", 4, (4, 0))) == "zero_tail"


def _answer(check, *args):
    """What one check says of one tuple: its reason, or its ValueError text."""
    try:
        return check(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestPointwiseOracle:
    def test_every_tuple_of_a_box_agrees(self):
        # The box holds what the enumeration never builds: types that fail
        # the existence bounds (g = -1, s = -1, s past g + 1, a = 2), vector
        # lengths s - 1 and s + 1, unsorted and negative entries, both
        # targets and degrees below 2.  Vectors of up to three entries take
        # every value in -1..k+1, longer ones every value in -1..1.
        seen = set()
        for g in range(-1, 4):
            for s in range(-1, g + 3):
                for a in (0, 1, 2):
                    for k in range(6):
                        for n in range(max(s - 1, 0), s + 2):
                            values = range(-1, k + 2) if n <= 3 else range(-1, 2)
                            for deg in itertools.product(values, repeat=n):
                                for target in CoverTarget:
                                    got = _answer(admissibility_failure, CoverSpec(
                                        TopType(g, s, a), target, k, DegreeVector(deg)))
                                    want = _answer(oracle_admissibility_failure,
                                                   g, s, a, target.value, k, deg)
                                    assert got == want, (g, s, a, target.value, k, deg)
                                    seen.add(got.split(":")[0] if got else None)
        assert seen == {
            None, "ValueError", "weichold", "degree_length", "sum", "parity", "zero_tail",
            "separating", "r0_nonempty_real_locus", "r0_parity",
        }


class TestEnumerate:
    def test_small_box_includes_known_spec(self):
        found = list(enumerate_admissible(1, 2))
        assert spec(1, 2, 0, "P1", 2, (1, 1)) in found

    def test_everything_passes_the_filter(self):
        for s in enumerate_admissible(3, 4):
            assert target_admissible(s)
            assert weichold_admissible(s.top.g, s.top.s, s.top.a)

    def test_matches_bruteforce_oracle(self):
        mine = {
            (s.top.g, s.top.s, s.top.a, s.target.value, s.k, s.degrees.entries)
            for s in enumerate_admissible(4, 4)
        }
        assert mine == oracle_admissible_tuples(4, 2, 4)
        assert sum(1 for t in mine if t[3] == "P1") == 120

    def test_frozen_small_count(self):
        p1 = [s for s in enumerate_admissible(2, 3) if s.target is CoverTarget.PROJ_LINE]
        assert len(p1) == 24

    def test_order_is_deterministic_and_sorted(self):
        # The stream order is (g, k, target, s, a, degrees), checked against
        # the nested-loop oracle rather than a key the library defines.
        mine = [
            (s.top.g, s.top.s, s.top.a, s.target.value, s.k, s.degrees.entries)
            for s in enumerate_admissible(7, 7)
        ]
        oracle = sorted(
            oracle_admissible_tuples(7, 2, 7), key=lambda t: (t[0], t[4], t[3], t[1], t[2], t[5])
        )
        assert mine == oracle
        assert len(mine) == 1244

    def test_genus_block_streams(self, monkeypatch):
        # The first spec comes out once the candidates of k = 2 are checked,
        # before any of k >= 3: the stream is not built whole first.  Each
        # candidate reaches the check as a bare tuple, not a DegreeVector.
        checked = []
        check = topology._failure

        def counted(top, target, k, entries):
            assert type(entries) is tuple
            checked.append(k)
            return check(top, target, k, entries)

        monkeypatch.setattr(topology, "_failure", counted)
        block = enumerate_admissible(4, 8)
        first = next(block)
        assert first.k == 2 and set(checked) == {2}
        list(block)
        assert set(checked) == set(range(2, 9))

    def test_parts_predicate_matches_the_spec_predicate(self):
        # Every canonical candidate of the enumeration's shape, on every
        # (s, a) of each genus and both targets: the bare-tuple check says
        # what the spec check says.
        seen = set()
        for g in range(7):
            for s in range(g + 2):
                for a in (0, 1):
                    top = TopType(g, s, a)
                    for k in range(2, 8):
                        for deg in itertools.combinations_with_replacement(
                                range(k, -1, -1), s):
                            for target in CoverTarget:
                                got = topology._failure(top, target, k, deg)
                                assert got == admissibility_failure(
                                    CoverSpec(top, target, k, DegreeVector(deg))
                                ), (top, target, k, deg)
                                seen.add(got)
        # A candidate's length is always s, so degree_length cannot fail.
        assert seen == {
            None, "weichold", "sum", "parity", "zero_tail", "separating",
            "r0_nonempty_real_locus", "r0_parity",
        }

    @pytest.mark.parametrize("k,deg,text", [
        (3, (1, 2), "degree vector not in canonical sorted form: (1, 2)"),
        (3, (0, -1), "degree vector not in canonical sorted form: (0, -1)"),
        (1, (1, 0), "covering degree must be >= 2, got 1"),
    ])
    def test_parts_predicate_refuses_malformed_input(self, k, deg, text):
        top = TopType(1, 2, 0)
        for target in CoverTarget:
            assert _answer(topology._failure, top, target, k, deg) == f"ValueError: {text}"
            assert _answer(admissibility_failure, CoverSpec(
                top, target, k, DegreeVector(deg))) == f"ValueError: {text}"

    @pytest.mark.parametrize("bounds", [(-1, 2), (0, 1), (-3, -3)])
    def test_bad_bounds_raise_at_the_call(self, bounds):
        # Not at the first next(): a caller that stores the stream learns of
        # bad bounds where it asks for them.
        with pytest.raises(ValueError, match="need g_max >= 0 and k_max >= 2"):
            enumerate_admissible(*bounds)

    def test_parity_invariant_on_output(self):
        for s in enumerate_admissible(4, 5):
            if s.target is CoverTarget.PROJ_LINE:
                defect = s.k - sum(s.degrees.entries)
                assert defect >= 0 and defect % 2 == 0
                if s.top.a == 1:
                    assert defect >= 2


class TestJson:
    def test_round_trip(self):
        original = spec(5, 2, 0, "P1", 4, (2, 0))
        assert spec_from_json(json.loads(spec_text(original))) == original

    def test_field_order(self):
        doc = json.loads(spec_text(spec(1, 0, 1, "R0", 2)))
        assert list(doc) == ["g", "s", "a", "target", "k", "deg"]

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"g": 1, "s": 0, "a": 1, "target": "P2", "k": 2, "deg": []}, "target"),
            ({"g": 1, "s": 0, "a": 2, "target": "P1", "k": 2, "deg": []}, "a"),
            ({"g": 1, "s": 1, "a": 1, "target": "P1", "k": 2, "deg": [-1]}, "deg[0]"),
            ({"g": 1, "s": 2, "a": 0, "target": "P1", "k": 2, "deg": [1]}, "deg"),
            ({"g": 1, "s": 0, "a": 1, "target": "P1", "deg": []}, "k"),
        ],
    )
    def test_parse_errors_name_the_field(self, doc, field):
        with pytest.raises(ValueError, match=field.replace("[", "\\[")):
            spec_from_json(doc)
