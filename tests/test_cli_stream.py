"""The CLI half of the golden byte corpus: sha256 digests of stdout and exit
codes over a fixed, seeded stream of 1,000 CLI requests, one per block of 100.

The stream holds every subcommand, realize in both formats, help asked at
several depths, and 50 malformed requests.  Plan files (planner plans and
hand-written step runs, some refused) and spec files are written under one
temporary directory.  Every request runs in process through cli.run with
stdout captured; its argv, exit code and stdout go into its block's digest,
with the directory's path replaced by "@DIR".  A request that raises is
digested as "uncaught" and its exception's type name.

A mismatch names the first block that differs.  An output change that is
meant must replace the digests; print the new ones with

    PYTHONPATH=src python tests/test_cli_stream.py

and name the old and the new digest of each changed block where the change
is recorded.  This module imports neither pytest nor anything outside the
standard library and realcover, so that it runs under every supported
interpreter (tools/golden.py).
"""

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

from realcover import cli
from realcover.planner import Infeasible, plan, plan_to_json
from realcover.topology import spec_from_json

STREAM_SEED = 1
BLOCK = 100

# Computed at 4b52daf.
STREAM_DIGESTS = (
    "34c675456881caadd4ea2a3fb6779c7e2a6e73f8b7e0f90ca638848a6e66ee99",
    "721859511080de48ed90fc17d6229f0bfb8946511ccbfe2efc0fa689445a1f43",
    "1c407cbd1fe29681ed840505ef8dc17be33e9bf0106570e20850250706f51773",
    "987fe7003564c6266c5cfd7a01fd10569199fe05a6793ec99d2e7b55dc82da94",
    "aa133525d91df7f0b1f20fd35f6583eae6db5078665d1585135ff27e57cc63f4",
    "51573e61356d8de1965410e8799891899f6c0681510fc34f4233a365d4d3c875",
    "a98282cfd7cd1c0216eab615c43ab7a09249349cf2f3d25179b0aa3defe5a0f9",
    "f4b64ef5ca696959b63f21674f3a39fbe24e63ad121895c91a42c65246f5fe0e",
    "48bc9421d92ef20c0a45577228e53f701504690d7ffcd8490a3a2f069664b0bb",
    "1c6a576f99e4f59095580d4dbc850eee6edd042fc8d856232a0c4b30a98a840e",
)

# Requests per kind; with the 50 MALFORMED_INPUTS they sum to 1,000.
ADMISSIBLE = PLAN = VERIFY = REALIZE = REALIZE_CSV = COVNUM = ENUMERATE = 100
RHO = DIMS = 90
FACTS = HELP = 35

HYPER_2 = {"kind": "Hyperelliptic", "g": 2, "s": 1, "a": 0, "deg": [2]}
SPEC_ARG = '{"g":4,"s":1,"a":0,"target":"P1","k":4,"deg":[2]}'

# Help asked at every depth a parser answers it.
HELP_ARGV = (
    ["-h"], ["--help"], ["admissible", "-h"], ["plan", "--help"], ["verify", "-h"],
    ["realize", "-h"], ["covnum", "-h"], ["enumerate", "-h"], ["rho", "--help"],
    ["dims", "-h"], ["facts", "-h"], ["realize", "x.json", "-h"], ["rho", "3", "-h"],
)



def _plan(seed, steps=(), provenance="Case1"):
    """A plan document; written as JSON, so a tuple of steps is a list."""
    return {"seed": seed, "steps": steps, "provenance": provenance}


# (argv, files to write by name); "@name" in argv is the path of that file.
MALFORMED_INPUTS = (
    ([], {}),
    (["bogus"], {}),
    (["admissible"], {}),
    (["admissible", "{"], {}),
    (["admissible", "[1,2]"], {}),
    (["admissible", '{"g":"2","s":0,"a":1,"target":"P1","k":4,"deg":[]}'], {}),
    (["plan", '{"g":true,"s":0,"a":1,"target":"P1","k":4,"deg":[]}'], {}),
    (["plan", '{"g":2,"s":0,"a":1,"target":"Q","k":4,"deg":[]}'], {}),
    (["admissible", '{"g":2,"s":2,"a":0,"target":"P1","k":4,"deg":[1,2]}'], {}),
    (["plan", '{"g":2,"s":2,"a":0,"target":"P1","k":4,"deg":[1]}'], {}),
    (["admissible", '{"g":2,"s":0,"a":1,"target":"P1","k":1,"deg":[]}'], {}),
    (["admissible", '{"g":2,"s":1,"a":0,"target":"P1","k":4,"deg":[-1]}'], {}),
    (["admissible", '{"g":2,"s":1,"a":2,"target":"P1","k":4,"deg":[1]}'], {}),
    (["plan", '{"g":-1,"s":0,"a":1,"target":"P1","k":4,"deg":[]}'], {}),
    (["admissible", '{"g":2,"s":0,"a":1,"target":"P1","k":4}'], {}),
    (["admissible", "@missing.json"], {}),
    (["plan", "@badspec.json"], {"badspec.json": "[1"}),
    (["admissible", "1e999999"], {}),
    (["verify"], {}),
    (["verify", "@missing.json", SPEC_ARG], {}),
    (["realize", "@badjson.json"], {"badjson.json": "{oops"}),
    (["realize", "@list.json"], {"list.json": []}),
    (["verify", "@nosteps.json", SPEC_ARG],
     {"nosteps.json": {"seed": HYPER_2, "provenance": "Case1"}}),
    (["realize", "@prov.json"], {"prov.json": _plan(HYPER_2, provenance="Nope")}),
    (["realize", "@stepsobj.json"], {"stepsobj.json": _plan(HYPER_2, {})}),
    (["verify", "@stepkind.json", SPEC_ARG], {"stepkind.json": _plan(HYPER_2, [{"kind": "VI"}])}),
    (["realize", "@stepfield.json"],
     {"stepfield.json": _plan(HYPER_2, [{"kind": "III", "at": 1}])}),
    (["realize", "@novariant.json"], {"novariant.json": _plan(HYPER_2, [{"kind": "II"}])}),
    (["verify", "@repeat0.json", SPEC_ARG],
     {"repeat0.json": _plan(HYPER_2, [{"kind": "III", "repeat": 0}])}),
    (["realize", "@seedkind.json"], {"seedkind.json": _plan({"kind": "Torus"})}),
    (["verify", "@seednog.json", SPEC_ARG],
     {"seednog.json": _plan({"kind": "Hyperelliptic", "s": 1, "a": 0, "deg": [2]})}),
    (["verify", "@gstr.json", SPEC_ARG], {"gstr.json": _plan({**HYPER_2, "g": "2"})}),
    (["realize", "@gstr.json"], {"gstr.json": _plan({**HYPER_2, "g": "2"})}),
    (["verify", "@degint.json", SPEC_ARG], {"degint.json": _plan({**HYPER_2, "deg": 5})}),
    (["realize", "@degint.json"], {"degint.json": _plan({**HYPER_2, "deg": 5})}),
    (["realize", "@plan0.json", "--format", "xml"], {}),
    (["realize", "@plan0.json", "--format"], {}),
    (["covnum", "[1]"], {}),
    (["covnum", '{"g":2,"s":3,"a":0}'], {}),
    (["covnum", '{"g":2,"s":3,"a":0,"kcov":"3"}'], {}),
    (["covnum", '{"g":105000,"s":1,"a":0,"kcov":1}'], {}),
    (["enumerate", "2", "1"], {}),
    (["enumerate", "-1", "3"], {}),
    (["enumerate", "x", "3"], {}),
    (["enumerate", "2"], {}),
    (["rho", "a", "3"], {}),
    (["rho", "3", "0"], {}),
    (["rho", "3", "4", "--r"], {}),
    (["dims", "1", "3"], {}),
    (["facts", "extra"], {}),
)


def _spec(g, s, a, target, k, deg):
    return {"g": g, "s": s, "a": a, "target": target, "k": k, "deg": deg}


def _random_spec(rng):
    """A spec with g <= 12 and k <= 10, about half of them admissible."""
    g, k = rng.randint(0, 12), rng.randint(2, 10)
    if rng.random() < 0.1:
        return _spec(g, 0, 1, "R0", k, [])
    s = rng.randint(0, min(g + 1, 6))
    top = k // max(s, 1) + 1
    deg = sorted((rng.randint(0, top) for _ in range(s)), reverse=True)
    return _spec(g, s, rng.randrange(2), "P1", k, deg)


def _random_steps(rng):
    """One to four records of random kinds on a seed of up to three circles;
    many are refused."""
    steps = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["I", "I", "I", "II", "III", "IV", "V"])
        step = {"kind": kind}
        if kind in ("I", "II"):
            step["variant"] = rng.choice(["ram", "noram"])
        if kind == "I":
            step["placement"] = rng.choice(["C1", "C1", "C2", "N1"])
        repeat = rng.choice([1, 1, 2, 3, 5])
        if repeat != 1:
            step["repeat"] = repeat
        steps.append(step)
    return steps


SEEDS = (
    HYPER_2,
    {"kind": "Hyperelliptic", "g": 1, "s": 2, "a": 0, "deg": [1, 1]},
    {"kind": "Hyperelliptic", "g": 3, "s": 2, "a": 0, "deg": [0, 0]},
    {"kind": "Hyperelliptic", "g": 0, "s": 1, "a": 0, "deg": [2]},
    {"kind": "Hyperelliptic", "g": 2, "s": 1, "a": 0, "deg": [3]},
    {"kind": "GenericPencil", "g": 1, "k": 4},
    {"kind": "GenericR0Pencil", "g": 2, "k": 3},
    {"kind": "HyperellipticToR0", "g": 3},
    {"kind": "HyperellipticToR0", "g": 2},
)


def stream(seed=STREAM_SEED):
    """The request stream: (requests, files).  A request is an argv whose
    "@name" words are file names; files maps a name to its document, a
    string written as it is or anything else written as JSON."""
    rng = random.Random(f"cli-stream:{seed}")
    reqs, files = [], {}

    # Planner plans of plannable specs, and hand-written step runs.
    plans = []
    while len(plans) < 30:
        spec = _random_spec(rng)
        if spec["k"] > 2 and not isinstance(result := plan(spec_from_json(spec)), Infeasible):
            name = f"plan{len(plans)}.json"
            files[name] = plan_to_json(result)
            plans.append((f"@{name}", spec))
    hand = []
    for i in range(30):
        name = f"hand{i}.json"
        files[name] = _plan(rng.choice(SEEDS), _random_steps(rng))
        hand.append(f"@{name}")
    for i in range(10):
        files[f"spec{i}.json"] = json.dumps(_random_spec(rng))

    def spec_arg():
        if rng.random() < 0.1:
            return f"@spec{rng.randrange(10)}.json"
        return json.dumps(_random_spec(rng), separators=(",", ":"))

    for _ in range(ADMISSIBLE):
        reqs.append(["admissible", spec_arg()])
    for _ in range(PLAN):
        reqs.append(["plan", spec_arg()])
    for _ in range(VERIFY):
        path, spec = rng.choice(plans)
        roll = rng.random()
        if roll < 0.5:
            claim = json.dumps(spec)
        elif roll < 0.8:
            claim = spec_arg()
        else:
            path, claim = rng.choice(hand), json.dumps(spec)
        reqs.append(["verify", path, claim])
    for fmt, count in (([], REALIZE), (["--format", "csv"], REALIZE_CSV)):
        for _ in range(count):
            path = rng.choice(plans)[0] if rng.random() < 0.6 else rng.choice(hand)
            explicit = [] if fmt or rng.random() < 0.8 else ["--format", "json"]
            reqs.append(["realize", path] + fmt + explicit)
    for _ in range(COVNUM):
        g = rng.randint(0, 30)
        s, a = rng.randint(0, g + 2), rng.randrange(2)
        target = {"g": g, "s": s, "a": a, "kcov": rng.randint(0, s + 1)}
        reqs.append(["covnum", json.dumps(target)])
    for _ in range(ENUMERATE):
        reqs.append(["enumerate", str(rng.randint(0, 5)), str(rng.randint(2, 6))])
    for _ in range(RHO):
        argv = ["rho", str(rng.randint(0, 40)), str(rng.randint(1, 12))]
        reqs.append(argv + (["--r", str(rng.randint(0, 4))] if rng.random() < 0.5 else []))
    for _ in range(DIMS):
        reqs.append(["dims", str(rng.randint(0, 40)), str(rng.randint(0, 12))])
    reqs += [["facts"]] * FACTS
    reqs += [list(rng.choice(HELP_ARGV)) for _ in range(HELP)]
    for argv, docs in MALFORMED_INPUTS:
        files.update(docs)
        reqs.append(list(argv))
    rng.shuffle(reqs)
    return reqs, files


def block_digests(seed=STREAM_SEED):
    """One sha256 per block of BLOCK requests of the stream, in order."""
    reqs, files = stream(seed)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, doc in files.items():
            (root / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
        digests = []
        for start in range(0, len(reqs), BLOCK):
            h = hashlib.sha256()
            for argv in reqs[start : start + BLOCK]:
                real = [str(root / a[1:]) if a.startswith("@") else a for a in argv]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    try:
                        code = cli.run(real)
                    except Exception as exc:  # pinned as the stream's answer, like any other
                        code = f"uncaught {type(exc).__name__}"
                text = out.getvalue().replace(tmp, "@DIR")
                h.update(json.dumps([argv, code]).encode())
                h.update(b"\n")
                h.update(text.encode())
            digests.append(h.hexdigest())
    return digests


def test_stream_blocks_are_pinned():
    reqs, _ = stream()
    assert len(reqs) == len(STREAM_DIGESTS) * BLOCK
    for i, (got, want) in enumerate(zip(block_digests(), STREAM_DIGESTS)):
        assert got == want, f"CLI stream block {i} differs: {got} != {want}"


if __name__ == "__main__":
    print("STREAM_DIGESTS = (")
    for digest in block_digests():
        print(f'    "{digest}",')
    print(")")
