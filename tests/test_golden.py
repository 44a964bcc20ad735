"""One golden byte corpus: sha256 digests of the library's outputs, one per block.

The census corpus takes each genus block g = 0..9 of enumerate_admissible(9, 8)
and digests, per spec in stream order, its spec_text, then its plan_to_json or
its Infeasible reason, the verify_plan answer with its trail, and for a plan
over P1 the realized cover's cover_text, critical_values, fiber_csv and
fiber_budget_violations.  The covnum corpus takes each genus g <= 25 and
digests every target (g, s, a, kcov) with 0 <= s <= g + 2, a in {0, 1} and
0 <= kcov <= s + 1: for a target that builds, its cover_text, spec_text and
covering_number; for a refused one, the InfeasibleTarget text.  The text
writers' output is the compact JSON that the digests were computed from.

A mismatch names the first block that differs.  An output change that is
meant must replace the digests; print the new ones with

    PYTHONPATH=src python tests/test_golden.py

and name the old and the new digest of each changed block where the change
is recorded.
"""

import hashlib
import json

from realcover.covering4 import (
    CoveringNumberTarget,
    InfeasibleTarget,
    build_covnum,
    covering_number,
)
from realcover.planner import Infeasible, plan, plan_to_json, verify_plan
from realcover.plsim import (
    cover_text,
    critical_values,
    fiber_budget_violations,
    fiber_csv,
    realize,
)
from realcover.topology import (
    CoverTarget,
    TopType,
    enumerate_admissible_genus,
    spec_text,
)

CENSUS_G_MAX, CENSUS_K_MAX = 9, 8
COVNUM_G_MAX = 25

# Computed at e96a64b.
CENSUS_DIGESTS = (
    "cf73ba228fba9e37adf40350a8676a36b7374a8f398e1a89d2af58eb14009526",
    "9bf0622f4bd9b71476cefe3e4680ef0a372a335490f7fce20d22697fd1217847",
    "ed4d65adb8f2c525707df9e7e4ff86ef5c1033feeb198753263d28ba3be975a8",
    "811df99338ee9df1565767d7b9c7c0d7391c1b19c38dbd4739bdc93d6e0d8078",
    "c1a2662b716cc334238da0fe704bb77c1f28c9011c3a0d63adbfaca97bbfb23b",
    "ed9ffc3f191e9f00ef1bd2ea3c1f9c96ea330e89eb6f4fc3bfc7aed9296c0d07",
    "f50bf15478b6b5c5fed75cfacb7d18a53b93afca527150bfe48301b9676aaea6",
    "03c4938baea9ec69df1b1d93478169bbe1c7ecedc2aa31bf6574ba725d2a1eab",
    "72e688ec3d7ef209bb60bef3dfea15e4839177999728d7e9f5721a9ae1d54856",
    "3b71b748497faf6ad67ec74efb1ad2ec0bae8cd6388bf1a11a64744db9fd235e",
)

COVNUM_DIGESTS = (
    "37bcb7098e1753743503d98fa61ba60112c275e4ba0bb6a761e488cbd03f12b5",
    "8e7e4a3338580a8b142b410652f3fad94fdef0e57df9b044fea22b3864b3f919",
    "925b39737226158014db7c3ee6cfc451ddfdb0299116829a586ee8dfdd0fc7c1",
    "08ac24a01b6e80de2ffe8f606d11e3a5cf2f1369fcd7843b18a38f92582d2a3a",
    "20147d3a8b6032466e7e1707caf5763e4ace762fdb1f78e88dfd6ef4c95c29f6",
    "87a89b432355fc778e919ce02ba8ca24c561ffd5c636159729e0dbfdd7ae88ae",
    "899bfe2bc9ca743c9ffa1f734d4b9f4778f828133d0a04bbb6ed3a599cf6eef4",
    "b1dfc665c185f48f093815ca6898bec8ba02a573794dcff22899ae7f3d35b690",
    "af2e4929d810af2c616f9ee6b88260c5dc02b3858db49de58c88fa50301787b9",
    "9e351fe0936385b373e4c42f6dc03e2935dc80de78fa49a77d32becbc452a689",
    "0da6c16718007740560b32b6521f4e62686e6003f00dac0a2a33c17a4616607d",
    "14e2c3823714489ca0db4d6a0f34bc78a27a285bdc8d654bac593fb592a625e1",
    "af2ab537e55cfcd089e6824883890c01bcf64e0543585a9b4c18e72b2782294c",
    "cd417242dde13b456a2e8ce1c0690588004a928a9df155529c5e3af1d539aa8c",
    "e7351957b76e602d6123e7041402125db75814ecbeaab0ee5f4fd49f8388b637",
    "1afdff33f327a031829ed2e22f9c8d714f0b19cd0ad223ff7fbabeb6397b9794",
    "5133128b83bad58a27b8e4e8f6a528b38b77efac4015ab29ce957863645b1936",
    "35cca2e72044f0d3f9dd8c03dad3c5a06b7faa1708406b26bf4333a94ea6e40c",
    "0bb5212e90766f61f354c11e05906dca8e833b7a287d27c75d3f005aef2fbd01",
    "c8ea71eb556c1cbd4dc9499cf77b8fd31ff7e9fd4dd4e42c703b3f4ee8b6b309",
    "619fea5cb16746e0ffb253a4932a041a4baccd3fd8c2ca4d03f08249801e7d3e",
    "397bc397c07006762e0a9bb94e739e5e643cf7bee7ebfd387479300659814879",
    "186e962cd394704c682d6249e623f204bbd8c0c7d853d5cbf863d6bbf042c80f",
    "f5fc9d0d66b924a0694387fb50b3058e1321247b718646e6cff4a004077693a6",
    "12734acf33243b5961237f0ba5e211bc3e3f5eefbb93d34cb3a8642ba35ce6a9",
    "245f7562cb6374f7c45022ced52653797fb2ddc3304f53cffe60b4d022c266db",
)


def _feed(h, *parts):
    """Each part as one line: strings as they are, anything else as compact JSON."""
    for part in parts:
        text = part if isinstance(part, str) else json.dumps(part, separators=(",", ":"))
        h.update(text.encode())
        h.update(b"\n")


def census_digest(g):
    """The digest of the genus-g block of enumerate_admissible(9, 8)."""
    h = hashlib.sha256()
    for spec in enumerate_admissible_genus(g, CENSUS_K_MAX):
        _feed(h, spec_text(spec))
        result = plan(spec)
        if isinstance(result, Infeasible):
            _feed(h, "infeasible", result.reason)
            continue
        trail = []
        _feed(h, plan_to_json(result), verify_plan(result, spec, trail), trail)
        if spec.target is CoverTarget.PROJ_LINE:
            cover = realize(result.seed, result.steps)
            _feed(
                h,
                "".join(cover_text(cover)),
                " ".join(map(str, critical_values(cover))),
                fiber_csv(cover),
                fiber_budget_violations(cover),
            )
    return h.hexdigest()


def covnum_digest(g):
    """The digest of every covnum target of genus g."""
    h = hashlib.sha256()
    for s in range(g + 3):
        for a in (0, 1):
            for kcov in range(s + 2):
                _feed(h, [g, s, a, kcov])
                try:
                    target = CoveringNumberTarget(TopType(g, s, a), kcov)
                except InfeasibleTarget as exc:
                    _feed(h, "infeasible", str(exc))
                    continue
                cover, spec = build_covnum(target)
                _feed(h, "".join(cover_text(cover)), spec_text(spec), covering_number(cover))
    return h.hexdigest()


def _first_difference(name, digest, pinned):
    for g, want in enumerate(pinned):
        got = digest(g)
        assert got == want, f"{name} block g={g} differs: {got} != {want}"


def test_census_blocks_are_pinned():
    assert len(CENSUS_DIGESTS) == CENSUS_G_MAX + 1
    _first_difference("census", census_digest, CENSUS_DIGESTS)


def test_covnum_blocks_are_pinned():
    assert len(COVNUM_DIGESTS) == COVNUM_G_MAX + 1
    _first_difference("covnum", covnum_digest, COVNUM_DIGESTS)


if __name__ == "__main__":
    for name, digest, g_max in (
        ("CENSUS_DIGESTS", census_digest, CENSUS_G_MAX),
        ("COVNUM_DIGESTS", covnum_digest, COVNUM_G_MAX),
    ):
        print(f"{name} = (")
        for g in range(g_max + 1):
            print(f'    "{digest(g)}",')
        print(")")
