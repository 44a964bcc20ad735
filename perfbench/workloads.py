"""The four benchmark workloads: input generation, one timed pass, and the
correctness checks run on a pass's kept outputs.

Every workload is a closed loop with one client.  A pass runs the
workload's whole input set once; `lib` is a namespace holding the layer
modules (the real ones, or the tracer's proxies), and `tracer` is None in an
untraced pass.  Checks always call the real modules and run outside the
timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import measure

clock = time.perf_counter_ns


@dataclass
class PassResult:
    """One pass: its time, each operation's latency and the outputs to check.
    The runner adds the check's verdict and, for traced passes, the spans."""

    wall_s: float
    latencies_s: List[float]
    outputs: Optional[list]
    labels: List[str] = field(default_factory=list)
    failures: List["Failure"] = field(default_factory=list)
    attempted: int = 0
    span_range: Optional[tuple] = None
    counters: dict = field(default_factory=dict)


@dataclass
class Failure:
    op: int
    cause: str
    known: bool = False


# ---------------------------------------------------------------------------
# Independent reference predicates, written from the admissibility clauses
# rather than taken from the package, so the checks are not circular.


def oracle_admissible(g: int, s: int, a: int, target: str, k: int, deg: List[int]) -> bool:
    if target == "R0":
        return s == 0 and a == 1 and (k - g - 1) % 2 == 0
    if a == 1:
        type_ok = 0 <= s <= g
    else:
        type_ok = 1 <= s <= g + 1 and (g + 1 - s) % 2 == 0
    if not type_ok or len(deg) != s:
        return False
    total = sum(deg)
    if total > k or (k - total) % 2:
        return False
    if (0 in deg or a == 1) and total > k - 2:
        return False
    return True


def oracle_plannable(spec: dict) -> bool:
    return oracle_admissible(**_fields(spec)) and not (spec["target"] == "P1" and spec["k"] == 2)


def oracle_enumeration(g_max: int, k_max: int) -> List[dict]:
    out = []
    for g in range(g_max + 1):
        for k in range(2, k_max + 1):
            if oracle_admissible(g, 0, 1, "R0", k, []):
                out.append(_spec(g, 0, 1, "R0", k, []))
            for s in range(g + 2):
                for a in (0, 1):
                    for deg in itertools.combinations_with_replacement(range(k, -1, -1), s):
                        if oracle_admissible(g, s, a, "P1", k, list(deg)):
                            out.append(_spec(g, s, a, "P1", k, list(deg)))
    out.sort(key=lambda d: (d["g"], d["k"], d["target"], d["s"], d["a"], d["deg"]))
    return out


def _spec(g, s, a, target, k, deg) -> dict:
    return {"g": g, "s": s, "a": a, "target": target, "k": k, "deg": deg}


def _fields(spec: dict) -> dict:
    return {key: spec[key] for key in ("g", "s", "a", "target", "k", "deg")}


def _cycle(rng: random.Random, values, n: int) -> list:
    """n values cycling through `values`, shuffled: the seed changes the
    order and pairing, not how often each size occurs."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# census: the exhaustive symbolic scan.

# g <= 9, k <= 8: about 3 s per pass at the seed, so a run holds several
# passes; the values below were recorded at the seed.
CENSUS_BOX = (9, 8)
CENSUS_SPECS = 3085
CENSUS_OUT_OF_SCOPE = 95
CENSUS_SHA256 = "cc53e4ca97c4a2ac5e5ff425d724759e66d7f32661bdc69d6693585e600ea240"


def spec_line(spec) -> str:
    """Canonical text of a CoverSpec, from its fields, one line per spec."""
    t = spec.top
    return f"{t.g},{t.s},{t.a},{spec.target.value},{spec.k},{list(spec.degrees.entries)}"


class Census:
    name = "census"
    why = ("which coverings exist and with which certificates, over a fixed box; "
           "enumeration dominates, then plan and verify")
    seeded = False

    def generate(self, seed: int) -> dict:
        return {"g_max": CENSUS_BOX[0], "k_max": CENSUS_BOX[1]}

    def setup(self, lib, seed: int, workdir) -> dict:
        return self.generate(seed)

    def run_pass(self, lib, inputs, tracer, pass_no) -> PassResult:
        Infeasible = lib.planner.Infeasible
        t0 = clock()
        if tracer:
            tracer.op = (pass_no, -1)
        specs = list(lib.topology.enumerate_admissible(inputs["g_max"], inputs["k_max"]))
        lat, outs = [], []
        for i, spec in enumerate(specs):
            if tracer:
                tracer.op = (pass_no, i)
            t = clock()
            p = lib.planner.plan(spec)
            ok = None if isinstance(p, Infeasible) else lib.planner.verify_plan(p, spec)
            lat.append((clock() - t) / 1e9)
            outs.append((p, ok))
        return PassResult((clock() - t0) / 1e9, lat, [specs, outs])

    def attempted(self, result: PassResult) -> int:
        return 1 + len(result.latencies_s)

    def trace_metrics(self, inputs, untraced, traced, op_time) -> dict:
        return {}

    def check(self, lib, inputs, result: PassResult) -> List[Failure]:
        specs, outs = result.outputs
        fails = []
        digest = hashlib.sha256("\n".join(spec_line(s) for s in specs).encode()).hexdigest()
        if len(specs) != CENSUS_SPECS or digest != CENSUS_SHA256:
            fails.append(Failure(-1, f"enumeration gave {len(specs)} specs, sha256 {digest}; "
                                     f"expected {CENSUS_SPECS}, {CENSUS_SHA256}"))
        out_of_scope = 0
        for i, (spec, (p, ok)) in enumerate(zip(specs, outs)):
            if isinstance(p, lib.planner.Infeasible):
                if spec.target.value == "P1" and spec.k == 2 and p.reason == "k=2 out of scope":
                    out_of_scope += 1
                else:
                    fails.append(Failure(i, f"{spec_line(spec)}: no plan ({p.reason})"))
            elif ok is not True:
                fails.append(Failure(i, f"{spec_line(spec)}: plan does not verify"))
        if out_of_scope != CENSUS_OUT_OF_SCOPE and not fails:
            fails.append(Failure(-1, f"{out_of_scope} k=2 specs, expected {CENSUS_OUT_OF_SCOPE}"))
        return fails


# ---------------------------------------------------------------------------
# requests: a stream of single CLI invocations through cli.run.

# Every subcommand gets the same number of requests: no measured mix of real
# use exists to weight them by.  Realize as CSV counts as its own command.
REQUESTS_COMMANDS = ("admissible", "plan", "verify", "realize", "realize_csv", "covnum",
                     "enumerate", "rho", "dims", "facts")
REQUESTS_EACH = 95
REQUESTS_BAD = 50  # malformed inputs, 5% of the 1000 requests
# Distinct plans behind the verify and realize requests, three per genus.
# Each is a file written at set-up; creating files on a shared disk is slow
# and uneven, so a few hundred of them would make setup_s mostly disk noise.
PLAN_FILES = 39
G_MAX, K_MAX = 12, 12

# Plan seeds the CLI mishandles at this point of the project, each with the
# cause its check reported at the seed commit.  Each one is in every stream
# exactly once; a failure on one of them with exactly that cause is counted
# and logged but does not make the run incorrect.  Any other failure does,
# including a different failure on the same input.
KNOWN_DEFECTS = {
    "bad_seed_g_str_verify": ("plan seed with \"g\":\"2\" given to verify",
                              "uncaught TypeError: '<' not supported between instances "
                              "of 'str' and 'int'"),
    "bad_seed_g_str_realize": ("plan seed with \"g\":\"2\" given to realize",
                               "exit 0, expected 1"),
    "bad_seed_deg_int_verify": ("plan seed with \"deg\":5 given to verify",
                                "uncaught TypeError: 'int' object is not iterable"),
    "bad_seed_deg_int_realize": ("plan seed with \"deg\":5 given to realize",
                                 "uncaught TypeError: 'int' object is not iterable"),
    "uncataloged_seed_realize": ("uncataloged seed deg:[3] given to realize",
                                 "exit 0, expected 2"),
}

_GOOD_SEED = {"kind": "Hyperelliptic", "g": 2, "s": 1, "a": 0, "deg": [2]}
_SPEC_ARG = json.dumps(_spec(4, 1, 0, "P1", 4, [2]))
# (kind, argv, plan-file documents by name, expected exit code)
_BAD_INPUTS = [
    ("no_command", [], {}, 1),
    ("unknown_command", ["bogus"], {}, 1),
    ("spec_bad_json", ["admissible", "{"], {}, 1),
    ("spec_missing_field", ["plan", '{"g":1}'], {}, 1),
    ("spec_not_object", ["admissible", "[1,2]"], {}, 1),
    ("spec_g_string", ["admissible", '{"g":"2","s":0,"a":1,"target":"P1","k":4,"deg":[]}'], {}, 1),
    ("spec_bool", ["plan", '{"g":true,"s":0,"a":1,"target":"P1","k":4,"deg":[]}'], {}, 1),
    ("spec_bad_target", ["plan", '{"g":2,"s":0,"a":1,"target":"Q","k":4,"deg":[]}'], {}, 1),
    ("spec_unsorted", ["admissible", '{"g":2,"s":2,"a":0,"target":"P1","k":4,"deg":[1,2]}'], {}, 1),
    ("spec_length", ["plan", '{"g":2,"s":2,"a":0,"target":"P1","k":4,"deg":[1]}'], {}, 1),
    ("spec_k1", ["admissible", '{"g":2,"s":0,"a":1,"target":"P1","k":1,"deg":[]}'], {}, 1),
    ("spec_negative", ["admissible", '{"g":2,"s":1,"a":0,"target":"P1","k":4,"deg":[-1]}'], {}, 1),
    ("spec_a2", ["admissible", '{"g":2,"s":1,"a":2,"target":"P1","k":4,"deg":[1]}'], {}, 1),
    ("missing_argument", ["verify"], {}, 1),
    ("plan_file_missing", ["verify", "@missing.json", _SPEC_ARG], {}, 1),
    ("plan_bad_json", ["realize", "@badjson.json"], {"badjson.json": "{oops"}, 1),
    ("plan_not_object", ["realize", "@list.json"], {"list.json": []}, 1),
    ("plan_missing_steps", ["verify", "@nosteps.json", _SPEC_ARG],
     {"nosteps.json": {"seed": _GOOD_SEED, "provenance": "Case1"}}, 1),
    ("plan_bad_provenance", ["realize", "@prov.json"],
     {"prov.json": {"seed": _GOOD_SEED, "steps": [], "provenance": "Nope"}}, 1),
    ("plan_steps_not_list", ["realize", "@stepsobj.json"],
     {"stepsobj.json": {"seed": _GOOD_SEED, "steps": {}, "provenance": "Case1"}}, 1),
    ("plan_bad_step_kind", ["verify", "@stepkind.json", _SPEC_ARG],
     {"stepkind.json": {"seed": _GOOD_SEED, "steps": [{"kind": "VI"}], "provenance": "Case1"}}, 1),
    ("plan_bad_seed_kind", ["realize", "@seedkind.json"],
     {"seedkind.json": {"seed": {"kind": "Torus"}, "steps": [], "provenance": "Case1"}}, 1),
    ("plan_seed_missing_g", ["verify", "@seednog.json", _SPEC_ARG],
     {"seednog.json": {"seed": {"kind": "Hyperelliptic", "s": 1, "a": 0, "deg": [2]},
                       "steps": [], "provenance": "Case1"}}, 1),
    ("uncataloged_seed_verify", ["verify", "@uncat.json", _SPEC_ARG],
     {"uncat.json": {"seed": {**_GOOD_SEED, "deg": [3]}, "steps": [], "provenance": "Case1"}}, 2),
    ("covnum_not_object", ["covnum", "[1]"], {}, 1),
    ("covnum_missing", ["covnum", '{"g":2,"s":3,"a":0}'], {}, 1),
    ("covnum_string", ["covnum", '{"g":2,"s":3,"a":0,"kcov":"3"}'], {}, 1),
    ("enumerate_k1", ["enumerate", "2", "1"], {}, 1),
    ("enumerate_not_int", ["enumerate", "x", "3"], {}, 1),
    ("rho_not_int", ["rho", "a", "3"], {}, 1),
    ("rho_k0", ["rho", "3", "0"], {}, 1),
    ("dims_g1", ["dims", "1", "3"], {}, 1),
    ("realize_bad_format", ["realize", "@prov.json", "--format", "xml"],
     {"prov.json": {"seed": _GOOD_SEED, "steps": [], "provenance": "Nope"}}, 1),
]
_DEFECT_INPUTS = [
    ("bad_seed_g_str_verify", ["verify", "@gstr.json", _SPEC_ARG],
     {"gstr.json": {"seed": {**_GOOD_SEED, "g": "2"}, "steps": [], "provenance": "Case1"}}, 1),
    ("bad_seed_g_str_realize", ["realize", "@gstr.json"],
     {"gstr.json": {"seed": {**_GOOD_SEED, "g": "2"}, "steps": [], "provenance": "Case1"}}, 1),
    ("bad_seed_deg_int_verify", ["verify", "@degint.json", _SPEC_ARG],
     {"degint.json": {"seed": {**_GOOD_SEED, "deg": 5}, "steps": [], "provenance": "Case1"}}, 1),
    ("bad_seed_deg_int_realize", ["realize", "@degint.json"],
     {"degint.json": {"seed": {**_GOOD_SEED, "deg": 5}, "steps": [], "provenance": "Case1"}}, 1),
    ("uncataloged_seed_realize", ["realize", "@uncat.json"],
     {"uncat.json": {"seed": {**_GOOD_SEED, "deg": [3]}, "steps": [], "provenance": "Case1"}}, 2),
]


def _random_spec(rng: random.Random, g: int, k: int) -> dict:
    if rng.random() < 0.1:
        return _spec(g, 0, 1, "R0", k, [])
    s = rng.randint(0, min(g + 1, 5))
    top = k // max(s, 1)
    deg = sorted((rng.randint(0, top) for _ in range(s)), reverse=True)
    return _spec(g, s, rng.randrange(2), "P1", k, deg)


def _plannable_spec(rng: random.Random, g: int, k: int, target: Optional[str] = None) -> dict:
    for _ in range(1000):
        spec = _random_spec(rng, g, k)
        if oracle_plannable(spec) and target in (None, spec["target"]):
            return spec
    raise RuntimeError(f"no plannable spec found for g={g}, k={k}")


def _covnum_target(rng: random.Random, g: int) -> dict:
    tops = [(s, a) for a in (0, 1) for s in range(1, g + 2)
            if (a == 1 and s <= g) or (a == 0 and (g + 1 - s) % 2 == 0)]
    s, a = rng.choice(tops)
    return {"g": g, "s": s, "a": a, "kcov": rng.randint(1, s)}


class Requests:
    name = "requests"
    why = ("per-query use: 1,000 single CLI requests, the same number per subcommand plus 5% "
           "malformed, every layer on small inputs behind the CLI's per-request overhead")
    seeded = True

    def generate(self, seed: int) -> dict:
        """The request stream: one dict per request, plan files named by '@'."""
        rng = random.Random(f"requests:{seed}")
        reqs: List[dict] = []
        files: Dict[str, object] = {}
        gs = list(range(G_MAX + 1))

        def add(label, argv, **extra):
            reqs.append({"label": label, "argv": argv, **extra})

        pool = []
        ks = _cycle(rng, list(range(3, K_MAX + 1)), PLAN_FILES)
        for j, (g, k) in enumerate(zip(_cycle(rng, gs, PLAN_FILES), ks)):
            spec = _plannable_spec(rng, g, k, None if j % 10 == 0 else "P1")
            files[f"plan{j}.json"] = ("plan_of", spec)
            pool.append((f"@plan{j}.json", spec))
        p1_pool = [entry for entry in pool if entry[1]["target"] == "P1"]

        n = REQUESTS_EACH
        for label in REQUESTS_COMMANDS:
            g_list = _cycle(rng, gs, n)
            if label in ("admissible", "plan"):
                for g, k in zip(g_list, _cycle(rng, list(range(2, K_MAX + 1)), n)):
                    plannable = k > 2 and rng.random() < 0.5
                    spec = _plannable_spec(rng, g, k) if plannable else _random_spec(rng, g, k)
                    if label == "admissible":
                        rc = 0 if oracle_admissible(**spec) else 2
                    else:
                        rc = 0 if oracle_plannable(spec) else 2
                    add(label, [label, json.dumps(spec)], spec=spec, rc=rc)
            elif label == "verify":
                for _ in range(n):
                    path, spec = rng.choice(pool)
                    claim, rc = spec, 0
                    if rng.random() < 0.15:  # a plan checked against another spec
                        other = _plannable_spec(rng, spec["g"], spec["k"])
                        if _fields(other) != _fields(spec):
                            claim, rc = other, 2
                    add(label, ["verify", path, json.dumps(claim)], spec=spec, rc=rc)
            elif label in ("realize", "realize_csv"):
                for _ in range(n):
                    p1 = label == "realize_csv" or rng.random() < 0.9
                    path, spec = rng.choice(p1_pool if p1 else pool)
                    csv = ["--format", "csv"] if label == "realize_csv" else []
                    add(label, ["realize", path] + csv, spec=spec, rc=0)
            elif label == "covnum":
                for g in g_list:
                    target = _covnum_target(rng, g)
                    add(label, ["covnum", json.dumps(target)], target=target, rc=0)
            elif label == "enumerate":
                for g, k in zip(_cycle(rng, [0, 1, 2, 3], n), _cycle(rng, [2, 3, 4, 5], n)):
                    add(label, ["enumerate", str(g), str(k)], box=(g, k), rc=0)
            elif label == "rho":
                for g in g_list:
                    k, r = rng.randint(1, K_MAX), rng.choice([None, 1, 2])
                    argv = ["rho", str(g), str(k)] + ([] if r is None else ["--r", str(r)])
                    add(label, argv, gkr=(g, k, r or 1), rc=0)
            elif label == "dims":
                for g in _cycle(rng, gs[2:], n):
                    add(label, ["dims", str(g), str(rng.randint(1, K_MAX))], rc=0)
            else:
                for _ in range(n):
                    add(label, ["facts"], rc=0)
        bad = _DEFECT_INPUTS + _cycle(rng, _BAD_INPUTS, REQUESTS_BAD - len(_DEFECT_INPUTS))
        for kind, argv, docs, rc in bad:
            files.update({name: ("raw", doc) for name, doc in docs.items()})
            add("bad:" + kind, list(argv), rc=rc)
        rng.shuffle(reqs)
        return {"requests": reqs, "files": files}

    def setup(self, lib, seed: int, workdir) -> dict:
        inputs = self.generate(seed)
        plan_dir = workdir / "plans"
        shutil.rmtree(plan_dir, ignore_errors=True)
        plan_dir.mkdir(parents=True)
        for name, (how, obj) in inputs["files"].items():
            if how == "plan_of":
                obj = lib.planner.plan_to_json(lib.planner.plan(lib.topology.spec_from_json(obj)))
            (plan_dir / name).write_text(obj if isinstance(obj, str) else json.dumps(obj))
        for req in inputs["requests"]:
            req["argv"] = [str(plan_dir / a[1:]) if a.startswith("@") else a for a in req["argv"]]
        return inputs

    def run_pass(self, lib, inputs, tracer, pass_no) -> PassResult:
        run = lib.cli.run
        lat, outs = [], []
        t0 = clock()
        for i, req in enumerate(inputs["requests"]):
            if tracer:
                tracer.op = (pass_no, i)
            buf = io.StringIO()
            t = clock()
            with contextlib.redirect_stdout(buf):
                try:
                    rc = run(req["argv"])
                    exc = None
                except Exception as e:  # counted as a failure, never skipped
                    rc, exc = None, e
            lat.append((clock() - t) / 1e9)
            outs.append((rc, buf.getvalue(), exc))
        return PassResult((clock() - t0) / 1e9, lat, outs,
                          [r["label"] for r in inputs["requests"]])

    def attempted(self, result: PassResult) -> int:
        return len(result.latencies_s)

    def trace_metrics(self, inputs, untraced, traced, op_time) -> dict:
        """Per-subcommand median latency from the untraced passes, and the
        exit codes and output size of the last traced pass."""
        by_cmd: Dict[str, List[float]] = {}
        for p in untraced:
            for label, lat in zip(p.labels, p.latencies_s):
                by_cmd.setdefault(label, []).append(lat * 1e3)
        out = {f"cli.run.{label}.p50_ms": statistics.median(by_cmd[label])
               for label in REQUESTS_COMMANDS}
        codes = Counter("uncaught" if exc is not None else f"exit{rc}"
                        for rc, _, exc in traced[-1].outputs)
        for key in ("exit0", "exit1", "exit2", "uncaught"):
            out[f"cli.run.{key}"] = float(codes[key])
        out["cli.run.stdout_bytes"] = float(sum(len(o.encode()) for _, o, _ in traced[-1].outputs))
        return out

    def check(self, lib, inputs, result: PassResult) -> List[Failure]:
        fails = []
        enumerations: Dict[tuple, List[dict]] = {}
        for i, (req, (rc, out, exc)) in enumerate(zip(inputs["requests"], result.outputs)):
            try:
                cause = _check_request(lib, req, rc, out, exc, enumerations)
            except (KeyError, TypeError, ValueError, IndexError, AttributeError) as e:
                cause = f"unexpected output ({type(e).__name__}: {e})"
            if cause:
                what, known_cause = KNOWN_DEFECTS.get(req["label"].split(":", 1)[-1],
                                                      (req["label"], None))
                fails.append(Failure(i, f"{what}: {cause}", cause == known_cause))
        return fails


def _one_document(out: str):
    if not out.endswith("\n") or out.count("\n") != 1:
        return None
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def _check_request(lib, req: dict, rc, out: str, exc, enumerations: dict) -> Optional[str]:
    if exc is not None:
        return f"uncaught {type(exc).__name__}: {exc}"
    if rc != req["rc"]:
        return f"exit {rc}, expected {req['rc']}"
    label = req["label"]
    if label == "realize_csv":
        # the fiber count is the last column, whatever columns locate the value
        lines = out.splitlines()
        if len(lines) < 2 or not lines[0].endswith(",fiber_count"):
            return "CSV without header or rows"
        k = req["spec"]["k"]
        for row in lines[1:]:
            n = int(row.rsplit(",", 1)[1])
            if n > k or (k - n) % 2:
                return f"CSV fiber count {n} breaks budget or parity of k={k}"
        return None
    doc = _one_document(out)
    if doc is None:
        return "stdout is not exactly one JSON document"
    if label.startswith("bad:"):
        return None if "error" in doc or rc == 2 else "no error field"
    if label == "admissible":
        ok = rc == 0
        if doc.get("admissible") is ok and (doc.get("reason") is None) is ok:
            return None
        return "wrong answer"
    if label == "plan":
        if rc == 2:
            return None if "infeasible" in doc else "no infeasible field"
        p = lib.planner.plan_from_json(doc)
        if lib.planner.verify_plan(p, lib.topology.spec_from_json(req["spec"])):
            return None
        return "plan does not verify"
    if label == "verify":
        return None if doc.get("verified") is (rc == 0) else "wrong verdict"
    if label == "realize":
        spec = req["spec"]
        winds = sorted(abs(c["winding"]) for c in doc["components"])
        if doc["k"] != spec["k"] or winds != sorted(spec["deg"]):
            return f"realized k={doc['k']} windings {winds}, spec {spec['k']} {spec['deg']}"
        return None
    if label == "covnum":
        t = req["target"]
        comps = doc["cover"]["components"]
        if doc["covering_number"] != t["kcov"]:
            return f"covering number {doc['covering_number']}, expected {t['kcov']}"
        if any(c["winding"] != 0 for c in comps) or doc["cover"]["k"] != 4 or doc["spec"]["k"] != 4:
            return "covnum build is not a degree-4 all-winding-0 cover"
        return None
    if label == "enumerate":
        if req["box"] not in enumerations:
            enumerations[req["box"]] = oracle_enumeration(*req["box"])
        return None if doc == enumerations[req["box"]] else "enumeration differs from the oracle"
    if label == "rho":
        g, k, r = req["gkr"]
        return None if doc.get("rho") == g - (r + 1) * (g - k + r) else "wrong rho"
    if label == "dims":
        return None if set(doc) == {"hurwitz", "moduli", "image_bound"} else "wrong dims fields"
    if label == "facts":
        if len(doc.get("facts", ())) == len(lib.brill_noether.facts()):
            return None
        return "wrong facts"
    return f"unknown label {label}"


# ---------------------------------------------------------------------------
# pl_deep: a few long plans through the whole symbolic and PL pipeline.

# (family, type, windings, provenance, rungs); each rung doubles k.  The top
# rungs keep one pass near 1 s at the seed, so a run holds many passes.
PL_FAMILIES = (
    ("case3", (6, 1, 0), (1,), "Case3", (25, 51, 101)),
    ("case5", (6, 3, 0), (0, 0, 0), "Case5", (16, 32, 64)),
    ("a1spos", (8, 3, 1), (5, 3, 0), "A1-sPos", (16, 32, 64)),
)


class PlDeep:
    name = "pl_deep"
    why = ("PL cost grows faster than linearly in k: breakpoints and denominators "
           "grow with every step, so exact realization and the fiber check dominate")
    seeded = True

    def generate(self, seed: int) -> List[dict]:
        rng = random.Random(f"pl_deep:{seed}")
        out = []
        for family, (g, s, a), deg, prov, rungs in PL_FAMILIES:
            for rung, k in enumerate(rungs):
                k += 2 * rng.randint(-1, 1)  # keeps the parity, so the spec stays admissible
                out.append({"family": family, "rung": rung, "provenance": prov,
                            "spec": _spec(g, s, a, "P1", k, list(deg))})
        return out

    def setup(self, lib, seed: int, workdir) -> List[dict]:
        inputs = self.generate(seed)
        for item in inputs:
            item["cover_spec"] = lib.topology.spec_from_json(item["spec"])
        return inputs

    def run_pass(self, lib, inputs, tracer, pass_no) -> PassResult:
        planner, plsim = lib.planner, lib.plsim
        lat, outs = [], []
        t0 = clock()
        for i, item in enumerate(inputs):
            if tracer:
                tracer.op = (pass_no, i)
            spec = item["cover_spec"]
            t = clock()
            p = planner.plan(spec)
            ok = planner.verify_plan(p, spec)
            cover = plsim.realize(p.seed, p.steps)
            bad = plsim.fiber_budget_violations(cover)
            arcs = plsim.image_arcs(cover)
            lat.append((clock() - t) / 1e9)
            outs.append((p, ok, cover, bad, arcs))
        return PassResult((clock() - t0) / 1e9, lat, outs)

    def attempted(self, result: PassResult) -> int:
        return len(result.latencies_s)

    def trace_metrics(self, inputs, untraced, traced, op_time) -> dict:
        """Realize and fiber-check time per rung, and their log-log growth
        exponent in k between the top two rungs of each family."""
        out = {}
        for what, span in (("realize", "plsim.realize"),
                           ("fiber", "plsim.fiber_budget_violations")):
            for family, *_ in PL_FAMILIES:
                ks, ts = [], []
                for i, item in enumerate(inputs):
                    if item["family"] == family:
                        ks.append(item["spec"]["k"])
                        ts.append(op_time(i, span))
                        out[f"pl_deep.{family}.rung{item['rung']}.{what}_s"] = ts[-1]
                out[f"plsim.{what}.k_exponent.{family}"] = measure.loglog_slope(
                    ks[-2], ts[-2], ks[-1], ts[-1])
        return out

    def check(self, lib, inputs, result: PassResult) -> List[Failure]:
        fails = []
        for i, (item, (p, ok, cover, bad, arcs)) in enumerate(zip(inputs, result.outputs)):
            spec = item["spec"]
            winds = sorted(abs(m.closure) for _, m in cover.components)
            if getattr(p, "provenance", None) != item["provenance"] or ok is not True:
                cause = "plan missing, unverified or from the wrong branch"
            elif winds != sorted(spec["deg"]) or cover.k != spec["k"]:
                cause = f"realized windings {winds} k={cover.k}, spec {spec['deg']} k={spec['k']}"
            elif bad:
                cause = f"{len(bad)} fiber violations, first: {bad[0]}"
            elif len(arcs) != len(cover.components):
                cause = "image_arcs misses a component"
            else:
                continue
            fails.append(Failure(i, f"{item['family']} k={spec['k']}: {cause}"))
        return fails


# ---------------------------------------------------------------------------
# covnum: degree-4 builds with a prescribed covering number.

# Genus of the maximal types, doubling; g=60 takes about 0.7 s at the seed,
# so a run holds many passes.
COVNUM_MAX_SIZES = (15, 30, 60)

class Covnum:
    name = "covnum"
    why = ("covering numbers of degree-4 builds up to g=60; covering_number spends "
           "its time in the circle-cover search, which grows about as g^3")
    seeded = True

    def generate(self, seed: int) -> List[dict]:
        """Maximal types (s = g + 1, kcov = s) at three sizes, then a split
        (kcov about s/2), a separating type with s < g + 1 and an a = 1 type."""
        rng = random.Random(f"covnum:{seed}")
        out = []
        for size in COVNUM_MAX_SIZES:
            g = size + rng.randint(-1, 1)
            out.append({"label": f"max{size}", "g": g, "s": g + 1, "a": 0, "kcov": g + 1})
        for label, g, s, a in (("split", 40, 41, 0), ("separating", 40, 21, 0), ("a1", 40, 20, 1)):
            kcov = s // 2 + rng.randint(-1, 1)
            out.append({"label": label, "g": g, "s": s, "a": a, "kcov": kcov})
        return out

    def setup(self, lib, seed: int, workdir) -> List[dict]:
        inputs = self.generate(seed)
        for t in inputs:
            t["target"] = lib.covering4.CoveringNumberTarget(
                lib.topology.TopType(t["g"], t["s"], t["a"]), t["kcov"])
        return inputs

    def run_pass(self, lib, inputs, tracer, pass_no) -> PassResult:
        c4 = lib.covering4
        lat, outs = [], []
        t0 = clock()
        for i, t in enumerate(inputs):
            if tracer:
                tracer.op = (pass_no, i)
            t1 = clock()
            cover, spec = c4.build_covnum(t["target"])
            n = c4.covering_number(cover)
            lat.append((clock() - t1) / 1e9)
            outs.append((cover, spec, n))
        return PassResult((clock() - t0) / 1e9, lat, outs)

    def attempted(self, result: PassResult) -> int:
        return len(result.latencies_s)

    def trace_metrics(self, inputs, untraced, traced, op_time) -> dict:
        """Log-log growth exponent in g of covering_number between the two
        largest maximal types."""
        span = "covering4.covering_number"
        lo, hi = (next(i for i, t in enumerate(inputs) if t["label"] == label)
                  for label in [f"max{size}" for size in COVNUM_MAX_SIZES[-2:]])
        return {"covering4.covering_number.g_exponent": measure.loglog_slope(
            inputs[lo]["g"], op_time(lo, span), inputs[hi]["g"], op_time(hi, span))}

    def check(self, lib, inputs, result: PassResult) -> List[Failure]:
        fails = []
        for i, (t, (cover, spec, n)) in enumerate(zip(inputs, result.outputs)):
            if n != t["kcov"]:
                cause = f"covering number {n}, expected {t['kcov']}"
            elif (any(m.closure != 0 for _, m in cover.components)
                  or len(cover.components) != t["s"]):
                cause = "circles with nonzero winding, or wrong circle count"
            elif cover.k != 4 or spec.k != 4 or spec.degrees.entries != (0,) * t["s"]:
                cause = f"degree {cover.k}/{spec.k}, windings {spec.degrees.entries}"
            else:
                continue
            where = f"{t['label']} g={t['g']} s={t['s']} kcov={t['kcov']}"
            fails.append(Failure(i, f"{where}: {cause}"))
        return fails


WORKLOADS: Dict[str, Callable[[], object]] = {
    "census": Census, "requests": Requests, "pl_deep": PlDeep, "covnum": Covnum,
}
