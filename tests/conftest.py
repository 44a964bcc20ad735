"""Session fixtures: the admissible box and its plans, computed once per run.

Several modules check against the same box, g <= 10 and 3 <= k <= 8; the
nested-loop oracle takes most of a second over it and planning its P1
specs takes more, so both are built once and shared read-only.
"""

import pytest

from realcover.planner import plan
from realcover.topology import CoverSpec, CoverTarget, DegreeVector, TopType

from oracles import oracle_admissible_tuples


@pytest.fixture(scope="session")
def box_tuples():
    """oracle_admissible_tuples(10, 3, 8): every admissible raw tuple of the box."""
    return frozenset(oracle_admissible_tuples(10, 3, 8))


@pytest.fixture(scope="session")
def p1_box_plans(box_tuples):
    """(spec, plan) for every plan over P1 in g <= 10, 3 <= k <= 8, in
    sorted tuple order."""
    pairs = []
    for g, s, a, target, k, deg in sorted(box_tuples):
        if target == "P1":
            spec = CoverSpec(TopType(g, s, a), CoverTarget.PROJ_LINE, k, DegreeVector(deg))
            pairs.append((spec, plan(spec)))
    return tuple(pairs)
