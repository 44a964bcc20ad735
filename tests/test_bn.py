import pytest

from realcover.brill_noether import (
    FactKind,
    dims,
    expected_pencil_dim,
    facts,
    lookup_fact,
    rho,
)
from realcover.topology import CoverSpec, CoverTarget, DegreeVector, TopType, target_admissible


class TestRho:
    def test_known_values(self):
        assert rho(4, 3, 1) == 0
        assert rho(8, 5, 1) == 0
        assert rho(0, 1, 1) == 0

    def test_pencil_formula_identity(self):
        for g in range(0, 21):
            for k in range(1, 21):
                assert rho(g, k, 1) == 2 * k - g - 2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            rho(-1, 2, 1)
        with pytest.raises(ValueError):
            rho(2, 0, 1)
        with pytest.raises(ValueError):
            rho(2, 2, 0)


class TestExpectedDim:
    def test_examples(self):
        assert expected_pencil_dim(4, 3) == 0
        assert expected_pencil_dim(8, 4) is None
        assert expected_pencil_dim(6, 4) == 0

    def test_degree_above_genus_rejected(self):
        with pytest.raises(ValueError):
            expected_pencil_dim(4, 5)


class TestDims:
    def test_genus_four_trigonal(self):
        d = dims(4, 3)
        assert (d.hurwitz, d.moduli, d.image_bound) == (12, 9, 9)

    def test_consistency_identities(self):
        for g in range(2, 21):
            for k in range(2, g + 1):
                d = dims(g, k)
                assert d.hurwitz - d.image_bound == 3  # the line's automorphisms
                assert d.image_bound - d.moduli == rho(g, k, 1)

    def test_zero_expected_dim_matches_moduli(self):
        d = dims(8, 5)
        assert d.image_bound == 21 == d.moduli

    def test_small_genus_rejected(self):
        with pytest.raises(ValueError):
            dims(1, 2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_degree_below_one_rejected_without_r(self, k):
        # dims takes no r, so its refusal names none.
        with pytest.raises(ValueError, match=f"^need k >= 1, got {k}$"):
            dims(2, k)


class TestFacts:
    def test_no_real_pencil_on_pointless_genus_four(self):
        fact = lookup_fact(4, 0, 1, 3)
        assert fact is not None and fact.kind is FactKind.NO_REAL_PENCIL

    def test_two_pencils_dichotomy(self):
        fact = lookup_fact(4, 1, 0, 3)
        assert fact.kind is FactKind.TWO_PENCILS
        assert set(fact.degrees) == {(3,), (1,)}

    def test_genus_eight_full_winding_pencil(self):
        fact = lookup_fact(8, 1, 0, 5)
        assert fact.kind is FactKind.BPF_PENCIL_EXISTS
        assert fact.degrees == ((5,),)

    def test_unlisted_key(self):
        assert lookup_fact(5, 1, 1, 3) is None

    def test_table_is_closed_and_caveated(self):
        table = facts()
        assert len(table) == 3
        assert all(fact.caveat for fact in table)

    def test_agreement_with_admissibility(self):
        # the recorded non-existence matches the parity obstruction
        spec = CoverSpec(TopType(4, 0, 1), CoverTarget.PROJ_LINE, 3, DegreeVector())
        assert lookup_fact(4, 0, 1, 3).kind is FactKind.NO_REAL_PENCIL
        assert not target_admissible(spec)

    def test_recorded_pencils_are_admissible(self):
        fact = lookup_fact(4, 1, 0, 3)
        for deg in fact.degrees:
            spec = CoverSpec(
                TopType(fact.g, fact.s, fact.a),
                CoverTarget.PROJ_LINE,
                fact.k,
                DegreeVector(deg),
            )
            assert target_admissible(spec)
