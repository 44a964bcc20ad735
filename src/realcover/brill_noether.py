"""Dimension counts for pencils on real curves, plus a table of checked facts.

Everything here is closed-form integer arithmetic: the expected dimension
rho of the space of degree-k pencils on a genus-g curve, the dimension of
the space of degree-k morphisms to the projective line, and the handful of
low-genus facts about real pencils that the admissibility predicates can be
cross-checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


def rho(g: int, k: int, r: int = 1) -> int:
    """Expected dimension g - (r+1)(g-k+r) of the space of g^r_k's.

    For pencils (r = 1) this is 2k - g - 2.
    """
    if g < 0 or k < 1 or r < 1:
        raise ValueError("need g >= 0, k >= 1, r >= 1")
    return g - (r + 1) * (g - k + r)


def expected_pencil_dim(g: int, k: int) -> Optional[int]:
    """Expected dimension of the degree-k pencil locus on a general curve.

    None when the locus is empty (negative expected dimension).  Only
    meaningful for k <= g; above that every sheaf moves in a pencil.
    """
    if k > g:
        raise ValueError(f"need k <= g, got k={k} > g={g}")
    value = rho(g, k, 1)
    return None if value < 0 else value


@dataclass(frozen=True)
class MorphismSpaceDims:
    hurwitz: int
    moduli: int
    image_bound: int


def dims(g: int, k: int) -> MorphismSpaceDims:
    """Dimensions around the space of degree-k morphisms to the line.

    The morphism space is smooth of dimension 2k + 2g - 2; the moduli of
    genus-g real curves has dimension 3g - 3; composing with the
    3-dimensional automorphism group of the line bounds the image by
    2k + 2g - 5 = 3g - 3 + rho.
    """
    if g < 2:
        raise ValueError(f"need g >= 2, got {g}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return MorphismSpaceDims(
        hurwitz=2 * k + 2 * g - 2,
        moduli=3 * g - 3,
        image_bound=3 * g - 3 + rho(g, k, 1),
    )


class FactKind(str, Enum):
    NO_REAL_PENCIL = "no_real_pencil"
    TWO_PENCILS = "two_pencils"
    BPF_PENCIL_EXISTS = "bpf_pencil_exists"


_GENERIC_CAVEAT = (
    "holds for every curve in some nonempty open subset of the moduli "
    "of this topological type"
)


@dataclass(frozen=True)
class Fact:
    g: int
    s: int
    a: int
    k: int
    kind: FactKind
    degrees: tuple[tuple[int, ...], ...]
    note: str
    caveat: str

    def key(self) -> tuple[int, int, int, int]:
        return (self.g, self.s, self.a, self.k)


_FACTS = (
    Fact(
        4, 0, 1, 3,
        FactKind.NO_REAL_PENCIL,
        (),
        "every real divisor on a curve of type (4,0,1) has even degree, "
        "so no real degree-3 pencil exists",
        "holds for every curve of this type",
    ),
    Fact(
        4, 1, 0, 3,
        FactKind.TWO_PENCILS,
        ((3,), (1,)),
        "a non-hyperelliptic curve of type (4,1,0) carries exactly two real "
        "degree-3 pencils, one of winding 3 and one of winding 1",
        "holds for every non-hyperelliptic curve of this type",
    ),
    Fact(
        8, 1, 0, 5,
        FactKind.BPF_PENCIL_EXISTS,
        ((5,),),
        "a general curve of type (8,1,0) has a base-point-free real "
        "degree-5 pencil of winding 5",
        _GENERIC_CAVEAT,
    ),
)


def facts() -> tuple[Fact, ...]:
    """The static table of recorded pencil facts."""
    return _FACTS


def lookup_fact(g: int, s: int, a: int, k: int) -> Optional[Fact]:
    """The recorded fact for the given type and degree, or None if unlisted."""
    for fact in _FACTS:
        if fact.key() == (g, s, a, k):
            return fact
    return None


def fact_to_json(fact: Fact) -> dict:
    return {
        "g": fact.g,
        "s": fact.s,
        "a": fact.a,
        "k": fact.k,
        "kind": fact.kind.value,
        "degrees": [list(d) for d in fact.degrees],
        "note": fact.note,
        "caveat": fact.caveat,
    }
