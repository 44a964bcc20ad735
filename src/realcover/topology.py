"""Topological types of real curves and admissibility of covering data.

A real curve is recorded by its topological type (g, s, a): the genus, the
number of circles in the real locus, and the connectedness invariant a
(a = 0 exactly when the real locus separates the complex surface).  A
covering specification adds the target curve, the covering degree k and the
sorted vector of winding numbers of the real circles over the target circle.

Two targets exist: the real projective line P1, whose real locus is a
circle, and the anisotropic conic R0, the genus-0 real curve with no real
points at all.  Coverings of R0 only make sense for source curves with
empty real locus.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional


class CoverTarget(str, Enum):
    PROJ_LINE = "P1"
    ANISOTROPIC_CONIC = "R0"


@dataclass(frozen=True, order=True)
class TopType:
    """Topological type (g, s, a) of a smooth real curve."""

    g: int
    s: int
    a: int


@dataclass(frozen=True, order=True)
class DegreeVector:
    """Winding numbers of the real circles, canonically sorted non-increasing.

    The constructor stores entries verbatim; use :meth:`canonical` to sort,
    and :func:`degree_admissible` to validate.  Keeping raw construction
    cheap lets rejected candidates flow through enumeration code.
    """

    entries: tuple[int, ...] = ()

    @classmethod
    def canonical(cls, values: Iterable[int]) -> "DegreeVector":
        return cls(tuple(sorted(values, reverse=True)))

    @property
    def total(self) -> int:
        return sum(self.entries)

    @property
    def nonzero_count(self) -> int:
        """Number of nonzero entries (written s' below)."""
        return sum(1 for d in self.entries if d != 0)

    def is_canonical(self) -> bool:
        e = self.entries
        return all(d >= 0 for d in e) and all(e[i] >= e[i + 1] for i in range(len(e) - 1))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class CoverSpec:
    """A covering request or outcome: source type, target, degree, windings.

    Instances are plain records; nothing is validated on construction so
    that candidates and executor outputs can be compared freely.  Use
    :func:`target_admissible` / :func:`admissibility_failure` to decide
    whether the data can belong to an actual covering.
    """

    top: TopType
    target: CoverTarget
    k: int
    degrees: DegreeVector

    def sort_key(self):
        return (
            self.top.g,
            self.k,
            self.target.value,
            self.top.s,
            self.top.a,
            self.degrees.entries,
        )


def weichold_admissible(g: int, s: int, a: int) -> bool:
    """Whether a smooth real curve of topological type (g, s, a) exists.

    For the non-separating case (a = 1) any 0 <= s <= g occurs; in the
    separating case (a = 0) the count of circles has the parity of g + 1
    and satisfies 1 <= s <= g + 1.
    """
    if g < 0 or s < 0 or a not in (0, 1):
        return False
    if a == 1:
        return 0 <= s <= g
    return s % 2 == (g + 1) % 2 and 1 <= s <= g + 1


def degree_admissible(degrees: DegreeVector, k: int) -> bool:
    """Whether a sorted winding vector is admissible for coverings of degree k.

    Three clauses: the windings sum to at most k, the defect k - sum is
    even, and if some winding is zero the sum is at most k - 2.  The empty
    vector (no real circles) degenerates to the parity clause alone, which
    forces k even.

    Raises ValueError on unsorted or negative input, or k < 2.
    """
    if k < 2:
        raise ValueError(f"covering degree must be >= 2, got {k}")
    if not degrees.is_canonical():
        raise ValueError(f"degree vector not in canonical sorted form: {degrees.entries}")
    total = degrees.total
    if total > k:
        return False
    if (k - total) % 2 != 0:
        return False
    if degrees.entries and degrees.entries[-1] == 0 and total > k - 2:
        return False
    return True


def admissibility_failure(spec: CoverSpec) -> Optional[str]:
    """Name of the first violated admissibility predicate, or None if admissible.

    Check order: weichold, degree_length, then for the projective line
    sum, parity, zero_tail, separating; for the anisotropic conic
    r0_nonempty_real_locus, r0_parity.  Raises ValueError for structurally
    malformed input (non-canonical degree vector, k < 2).
    """
    if spec.k < 2:
        raise ValueError(f"covering degree must be >= 2, got {spec.k}")
    if not spec.degrees.is_canonical():
        raise ValueError(f"degree vector not in canonical sorted form: {spec.degrees.entries}")
    top = spec.top
    if not weichold_admissible(top.g, top.s, top.a):
        return "weichold"
    if len(spec.degrees) != top.s:
        return "degree_length"
    if spec.target is CoverTarget.PROJ_LINE:
        total = spec.degrees.total
        if total > spec.k:
            return "sum"
        if (spec.k - total) % 2 != 0:
            return "parity"
        if spec.degrees.entries and spec.degrees.entries[-1] == 0 and total > spec.k - 2:
            return "zero_tail"
        if top.a == 1 and total > spec.k - 2:
            return "separating"
        return None
    # Anisotropic conic: only sources with empty real locus, and the degree
    # has the parity of g + 1.
    if top.s != 0:
        return "r0_nonempty_real_locus"
    if (spec.k - (top.g + 1)) % 2 != 0:
        return "r0_parity"
    return None


def target_admissible(spec: CoverSpec) -> bool:
    """Whether the covering specification satisfies every known restriction."""
    return admissibility_failure(spec) is None


def _degree_vectors(s: int, k: int) -> Iterator[DegreeVector]:
    """All canonical degree vectors of length s with entries in 0..k."""
    if s == 0:
        yield DegreeVector()
        return

    def rec(prefix: tuple[int, ...], bound: int, remaining: int):
        if remaining == 0:
            yield DegreeVector(prefix)
            return
        for d in range(bound, -1, -1):
            yield from rec(prefix + (d,), d, remaining - 1)

    yield from rec((), k, s)


def enumerate_admissible(g_max: int, k_max: int) -> Iterator[CoverSpec]:
    """Yield every admissible CoverSpec with g <= g_max and 2 <= k <= k_max.

    Both targets are scanned.  The stream is deterministic, sorted by
    (g, k, target, s, a, degrees); blocks are independent per genus, so a
    scan can be partitioned by g.
    """
    if g_max < 0 or k_max < 2:
        raise ValueError("need g_max >= 0 and k_max >= 2")
    for g in range(g_max + 1):
        yield from enumerate_admissible_genus(g, k_max)


def enumerate_admissible_genus(g: int, k_max: int) -> Iterator[CoverSpec]:
    """The genus-g block of :func:`enumerate_admissible`, in sorted order."""
    block: list[CoverSpec] = []
    for k in range(2, k_max + 1):
        for target in (CoverTarget.PROJ_LINE, CoverTarget.ANISOTROPIC_CONIC):
            if target is CoverTarget.ANISOTROPIC_CONIC:
                spec = CoverSpec(TopType(g, 0, 1), target, k, DegreeVector())
                if target_admissible(spec):
                    block.append(spec)
                continue
            for s in range(g + 2):
                for a in (0, 1):
                    if not weichold_admissible(g, s, a):
                        continue
                    for deg in _degree_vectors(s, k):
                        spec = CoverSpec(TopType(g, s, a), target, k, deg)
                        if target_admissible(spec):
                            block.append(spec)
    block.sort(key=CoverSpec.sort_key)
    yield from block


# ---------------------------------------------------------------------------
# JSON wire format, shared by every module and the CLI:
#   {"g": int, "s": int, "a": 0|1, "target": "P1"|"R0", "k": int, "deg": [int, ...]}


def spec_to_json(spec: CoverSpec) -> dict:
    return {
        "g": spec.top.g,
        "s": spec.top.s,
        "a": spec.top.a,
        "target": spec.target.value,
        "k": spec.k,
        "deg": list(spec.degrees.entries),
    }


def check_int_fields(obj: dict, where: str, fields: Iterable[str]) -> None:
    """Require each field to be present and an integer (JSON booleans excluded)."""
    for field_name in fields:
        if field_name not in obj:
            raise ValueError(f"{where}.{field_name}: missing")
        if not isinstance(obj[field_name], int) or isinstance(obj[field_name], bool):
            raise ValueError(f"{where}.{field_name}: expected an integer")


def check_deg_field(obj: dict, where: str) -> None:
    """Require a "deg" field holding a list of nonnegative integers."""
    if "deg" not in obj:
        raise ValueError(f"{where}.deg: missing")
    if not isinstance(obj["deg"], list):
        raise ValueError(f"{where}.deg: expected a list")
    for i, d in enumerate(obj["deg"]):
        if not isinstance(d, int) or isinstance(d, bool):
            raise ValueError(f"{where}.deg[{i}]: expected an integer")
        if d < 0:
            raise ValueError(f"{where}.deg[{i}]: negative entry")


def spec_from_json(obj: object) -> CoverSpec:
    """Parse the CoverSpec wire object, reporting the offending field on error."""
    if not isinstance(obj, dict):
        raise ValueError("spec: expected a JSON object")
    for field_name in ("g", "s", "a", "target", "k", "deg"):
        if field_name not in obj:
            raise ValueError(f"spec.{field_name}: missing")
    check_int_fields(obj, "spec", ("g", "s", "a", "k"))
    if obj["a"] not in (0, 1):
        raise ValueError("spec.a: expected 0 or 1")
    try:
        target = CoverTarget(obj["target"])
    except ValueError:
        raise ValueError('spec.target: expected "P1" or "R0"') from None
    check_deg_field(obj, "spec")
    deg = obj["deg"]
    vec = DegreeVector(tuple(deg))
    if not vec.is_canonical():
        raise ValueError("spec.deg: entries must be sorted non-increasing")
    if len(deg) != obj["s"]:
        raise ValueError("spec.deg: length must equal s")
    if obj["k"] < 2:
        raise ValueError("spec.k: covering degree must be >= 2")
    if obj["g"] < 0 or obj["s"] < 0:
        raise ValueError("spec.g/spec.s: must be nonnegative")
    return CoverSpec(TopType(obj["g"], obj["s"], obj["a"]), target, obj["k"], vec)
