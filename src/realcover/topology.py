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
from itertools import chain, combinations_with_replacement
from operator import ge
from typing import Iterable, Iterator, List, Optional, Tuple


class CoverTarget(str, Enum):
    PROJ_LINE = "P1"
    ANISOTROPIC_CONIC = "R0"


# Read through the Enum class, a member costs a descriptor call; the
# predicate and the enumeration read this one once per candidate.
_P1 = CoverTarget.PROJ_LINE


@dataclass(frozen=True, order=True, slots=True)
class TopType:
    """Topological type (g, s, a) of a smooth real curve."""

    g: int
    s: int
    a: int


def _is_canonical(e: tuple[int, ...]) -> bool:
    # Non-increasing with a nonnegative last entry, in one C-level pass.
    return not e or (e[-1] >= 0 and all(map(ge, e, e[1:])))


@dataclass(frozen=True, order=True, slots=True)
class DegreeVector:
    """Winding numbers of the real circles, canonically sorted non-increasing.

    The constructor stores entries verbatim; use :meth:`canonical` to sort,
    and :func:`admissibility_failure` to validate.  Enumeration checks each
    candidate as a bare tuple and wraps only the ones that pass.
    """

    entries: tuple[int, ...] = ()

    @classmethod
    def canonical(cls, values: Iterable[int]) -> "DegreeVector":
        return cls(tuple(sorted(values, reverse=True)))

    def is_canonical(self) -> bool:
        return _is_canonical(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True, slots=True)
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


def admissibility_failure(spec: CoverSpec) -> Optional[str]:
    """Name of the first violated admissibility predicate, or None if admissible.

    Check order: weichold, degree_length, then for the projective line
    sum, parity, zero_tail, separating; for the anisotropic conic
    r0_nonempty_real_locus, r0_parity.  Raises ValueError for structurally
    malformed input (a target other than "P1"/"R0", non-canonical degree
    vector, k < 2).  A target given by its string value is read as the
    CoverTarget member.
    """
    return _failure(spec.top, CoverTarget(spec.target), spec.k, spec.degrees.entries)


def _failure(top: TopType, target: CoverTarget, k: int, entries: tuple[int, ...]) -> Optional[str]:
    # The predicate on a spec's parts, the windings a bare tuple, so that
    # enumeration can check a candidate before it wraps it.  target must
    # be a CoverTarget member.
    if k < 2:
        raise ValueError(f"covering degree must be >= 2, got {k}")
    if not _is_canonical(entries):
        raise ValueError(f"degree vector not in canonical sorted form: {entries}")
    if not weichold_admissible(top.g, top.s, top.a):
        return "weichold"
    if len(entries) != top.s:
        return "degree_length"
    if target is _P1:
        total = sum(entries)
        if total > k:
            return "sum"
        if (k - total) % 2 != 0:
            return "parity"
        if entries and entries[-1] == 0 and total > k - 2:
            return "zero_tail"
        if top.a == 1 and total > k - 2:
            return "separating"
        return None
    # Anisotropic conic: only sources with empty real locus, and the degree
    # has the parity of g + 1.
    if top.s != 0:
        return "r0_nonempty_real_locus"
    if (k - (top.g + 1)) % 2 != 0:
        return "r0_parity"
    return None


def target_admissible(spec: CoverSpec) -> bool:
    """Whether the covering specification satisfies every known restriction."""
    return admissibility_failure(spec) is None


def _genera(g_max: int, k_max: int) -> range:
    """The genera of a scan up to g_max; bad bounds raise ValueError."""
    if g_max < 0 or k_max < 2:
        raise ValueError("enumerate: need g_max >= 0 and k_max >= 2")
    return range(g_max + 1)


def enumerate_admissible(g_max: int, k_max: int) -> Iterator[CoverSpec]:
    """Every admissible CoverSpec with g <= g_max and 2 <= k <= k_max, as
    an iterator; bad bounds raise ValueError at the call, before any spec.

    Both targets are scanned.  The stream is deterministic, sorted by
    (g, k, target, s, a, degrees); blocks are independent per genus, so a
    scan can be partitioned by g.
    """
    return chain.from_iterable(enumerate_admissible_genus(g, k_max) for g in _genera(g_max, k_max))


def enumerate_admissible_genus(g: int, k_max: int) -> Iterator[CoverSpec]:
    """The genus-g block of :func:`enumerate_admissible`, yielded in stream
    order as it is found: per k, the P1 types (s, a) in order, then R0."""
    for top, target, k, degs in _genus_parts(g, k_max):
        for deg in degs:
            yield CoverSpec(top, target, k, DegreeVector(deg))


_Part = Tuple[TopType, CoverTarget, int, List[Tuple[int, ...]]]


def admissible_parts(g_max: int, k_max: int) -> Iterator[_Part]:
    """The stream of :func:`enumerate_admissible` in parts, one per (g, k,
    type) block: (top, target, k, [deg, ...]) with every admissible winding
    tuple of the block in stream order, and no empty block.  Bad bounds
    raise ValueError at the call."""
    return chain.from_iterable(_genus_parts(g, k_max) for g in _genera(g_max, k_max))


def _genus_parts(g: int, k_max: int) -> Iterator[_Part]:
    # One TopType per (s, a), shared by every spec of that type.
    tops = [TopType(g, s, a) for s in range(g + 2) for a in (0, 1)
            if weichold_admissible(g, s, a)]
    for k in range(2, k_max + 1):
        for top in tops:
            # Every canonical vector of length s with entries in 0..k once,
            # in descending order; the stream ascends, so the type's
            # admissible vectors are kept and yielded in reverse.
            found = [deg for deg in combinations_with_replacement(range(k, -1, -1), top.s)
                     if _failure(top, _P1, k, deg) is None]
            if found:
                found.reverse()
                yield top, _P1, k, found
        r0 = CoverSpec(TopType(g, 0, 1), CoverTarget.ANISOTROPIC_CONIC, k, DegreeVector())
        if target_admissible(r0):
            yield r0.top, r0.target, k, [()]


# ---------------------------------------------------------------------------
# JSON wire format, shared by every module and the CLI:
#   {"g": int, "s": int, "a": 0|1, "target": "P1"|"R0", "k": int, "deg": [int, ...]}
# written as compact JSON text straight from the fields.  An integer past
# Python's digit limit for str() raises ValueError, as json does.


def _spec_head(top: TopType, target: CoverTarget, k: int) -> str:
    return f'{{"g":{top.g},"s":{top.s},"a":{top.a},"target":"{target.value}","k":{k},"deg":['


def spec_text(spec: CoverSpec) -> str:
    """The spec's wire object as compact JSON text.  A target given by its
    string value is read as the CoverTarget member, and any other value
    raises ValueError."""
    head = _spec_head(spec.top, CoverTarget(spec.target), spec.k)
    return head + ",".join(map(str, spec.degrees.entries)) + "]}"


def part_text(top: TopType, target: CoverTarget, k: int, degs: List[Tuple[int, ...]]) -> str:
    """The specs of one part of :func:`admissible_parts` as compact JSON
    text, comma-separated: one head for the block, then each winding
    tuple."""
    head = _spec_head(top, target, k)
    return head + ("]}," + head).join([",".join(map(str, deg)) for deg in degs]) + "]}"


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
    if obj["g"] < 0 or obj["s"] < 0:
        raise ValueError("spec.g/spec.s: must be nonnegative")
    if len(deg) != obj["s"]:
        raise ValueError("spec.deg: length must equal s")
    if obj["k"] < 2:
        raise ValueError("spec.k: covering degree must be >= 2")
    return CoverSpec(TopType(obj["g"], obj["s"], obj["a"]), target, obj["k"], vec)
