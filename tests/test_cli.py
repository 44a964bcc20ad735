import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcover import cli
from realcover.cli import run
from realcover.covering4 import (
    CoveringNumberTarget,
    InfeasibleTarget,
    build_covnum,
    covering_number,
)
from realcover.planner import Infeasible, plan, plan_from_json, plan_to_json
from realcover.plsim import PLCover, PLMap, cover_text, fiber_profile, realize
from realcover.topology import (
    CoverTarget,
    TopType,
    admissible_parts,
    enumerate_admissible,
    part_text,
    spec_from_json,
    spec_text,
)

from oracles import cover_to_json, spec_to_json


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


def write_plan(tmp_path, seed, steps=()):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(
        json.dumps({"seed": seed, "steps": list(steps), "provenance": "Case1"})
    )
    return str(plan_file)


SPEC_431 = '{"g":4,"s":0,"a":1,"target":"P1","k":3,"deg":[]}'
SPEC_6333 = '{"g":6,"s":3,"a":0,"target":"P1","k":3,"deg":[1,1,1]}'
HYPER_2 = {"kind": "Hyperelliptic", "g": 2, "s": 1, "a": 0, "deg": [2]}
WRAP_C1 = {"kind": "I", "variant": "noram", "placement": "C1"}


class TestAdmissible:
    def test_negative_answer_exits_two(self, capsys):
        code, doc = invoke_json(capsys, "admissible", SPEC_431)
        assert code == 2
        assert doc == {"admissible": False, "reason": "parity"}

    def test_positive_answer(self, capsys):
        code, doc = invoke_json(capsys, "admissible", SPEC_6333)
        assert code == 0
        assert doc == {"admissible": True, "reason": None}

    def test_malformed_input_exits_one(self, capsys):
        code, doc = invoke_json(capsys, "admissible", '{"g":4}')
        assert code == 1
        assert "error" in doc and "spec.s" in doc["error"]

    def test_bad_field_path_reported(self, capsys):
        code, doc = invoke_json(
            capsys, "admissible", '{"g":4,"s":1,"a":0,"target":"P1","k":3,"deg":[-2]}'
        )
        assert code == 1
        assert "deg[0]" in doc["error"]


class TestPlanVerifyRealize:
    def test_round_trip(self, capsys, tmp_path):
        code, plan_doc = invoke_json(capsys, "plan", SPEC_6333)
        assert code == 0
        assert plan_doc["provenance"] == "Case2-all1"
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan_doc))
        code, verdict = invoke_json(capsys, "verify", str(plan_file), SPEC_6333)
        assert code == 0
        assert verdict["verified"] is True

    def test_verify_against_wrong_spec_exits_two(self, capsys, tmp_path):
        _, plan_doc = invoke_json(capsys, "plan", SPEC_6333)
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan_doc))
        other = '{"g":6,"s":3,"a":0,"target":"P1","k":5,"deg":[1,1,1]}'
        code, verdict = invoke_json(capsys, "verify", str(plan_file), other)
        assert code == 2
        assert verdict["verified"] is False
        assert verdict["diagnostics"]

    def test_mismatch_names_the_outcome_by_its_wire_object(self, capsys, tmp_path):
        seed = {"kind": "GenericPencil", "g": 1, "k": 4}
        plan_file = write_plan(tmp_path, seed, [{"kind": "II", "variant": "ram", "repeat": 3}])
        spec = '{"g":4,"s":3,"a":0,"target":"P1","k":4,"deg":[0,0,0]}'
        outcome = '{"g":4,"s":3,"a":1,"target":"P1","k":4,"deg":[0,0,0]}'
        verdict = {"verified": False, "diagnostics": [f"plan executes to {outcome}, not the target"]}
        assert invoke_json(capsys, "verify", plan_file, spec) == (2, verdict)

    def test_infeasible_plan_exits_two(self, capsys):
        code, doc = invoke_json(capsys, "plan", SPEC_431)
        assert code == 2
        assert doc == {"infeasible": "parity"}

    def test_realize_json(self, capsys, tmp_path):
        _, plan_doc = invoke_json(capsys, "plan", SPEC_6333)
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan_doc))
        code, cover = invoke_json(capsys, "realize", str(plan_file))
        assert code == 0
        assert cover["k"] == 3
        assert [c["winding"] for c in cover["components"]] == [1, 1, 1]
        for comp in cover["components"]:
            for t, x in comp["breakpoints"]:
                assert "/" in t and "/" in x

    def test_realize_csv_of_r0_has_no_rows(self, capsys, tmp_path):
        # The anisotropic conic has no real points, so no target circle to
        # count fibers over.
        plan_file = write_plan(tmp_path, {"kind": "GenericR0Pencil", "g": 2, "k": 3})
        assert invoke(capsys, "realize", plan_file, "--format", "csv") == (0, "x,fiber_count\n")

    def test_realize_csv(self, capsys, tmp_path):
        _, plan_doc = invoke_json(capsys, "plan", SPEC_6333)
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan_doc))
        code, out = invoke(capsys, "realize", str(plan_file), "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,fiber_count"
        # one row per regular interval, at its midpoint, sorted by x
        p = plan_from_json(plan_doc)
        profile = fiber_profile(realize(p.seed, p.steps))
        xs = [Fraction(line.split(",")[0]) for line in lines[1:]]
        assert xs == sorted((a + length / 2) % 1 for a, length, _ in profile)
        assert all(line.endswith(",3") for line in lines[1:])

    @pytest.mark.parametrize("command", ["verify", "realize"])
    @pytest.mark.parametrize(
        "field, value, path",
        [
            ("g", "2", "seed.g"),
            ("deg", 5, "seed.deg"),
            ("deg", [True], "seed.deg[0]"),
            ("kind", [], "seed.kind"),
            ("kind", {}, "seed.kind"),
        ],
    )
    def test_mistyped_plan_seed_exits_one(self, capsys, tmp_path, command, field, value, path):
        seed = {**HYPER_2, field: value}
        extra = [SPEC_6333] if command == "verify" else []
        code, doc = invoke_json(capsys, command, write_plan(tmp_path, seed), *extra)
        assert code == 1
        assert doc["error"].startswith(path + ":")

    @pytest.mark.parametrize("command", ["verify", "realize"])
    def test_plan_seed_without_deg_exits_one(self, capsys, tmp_path, command):
        seed = {name: value for name, value in HYPER_2.items() if name != "deg"}
        extra = [SPEC_6333] if command == "verify" else []
        code, out = invoke(capsys, command, write_plan(tmp_path, seed), *extra)
        assert (code, out) == (1, '{"error":"seed.deg: missing"}\n')

    def test_realize_refuses_uncataloged_seed(self, capsys, tmp_path):
        seed = {**HYPER_2, "deg": [3]}
        code, doc = invoke_json(capsys, "realize", write_plan(tmp_path, seed))
        assert code == 2
        assert "catalog" in doc["rejected"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "seed, step",
        [
            (HYPER_2, {"kind": "I", "variant": "ram", "placement": "C9"}),
            (HYPER_2, {"kind": "II", "variant": "ram", "placement": None}),
            (
                {"kind": "GenericPencil", "g": 2, "k": 4},
                {"kind": "I", "variant": "noram", "placement": "C1"},
            ),
        ],
        ids=["missing_circle", "winding_sum_is_k", "pencil_has_no_circle"],
    )
    def test_realize_refuses_inapplicable_step(self, capsys, tmp_path, seed, step, fmt):
        plan_file = write_plan(tmp_path, seed, [step])
        code, doc = invoke_json(capsys, "realize", plan_file, "--format", fmt)
        assert code == 2
        assert doc["rejected"].startswith(f"construction {step['kind']} (step 0): ")
        code, verdict = invoke_json(capsys, "verify", plan_file, SPEC_6333)
        assert code == 2 and verdict["verified"] is False

    def test_missing_plan_file(self, capsys):
        code, doc = invoke_json(capsys, "verify", "/nonexistent/plan.json", SPEC_6333)
        assert code == 1
        assert "plan file" in doc["error"]


_SPEC_FIELDS = {"g": 4, "s": 2, "a": 0, "target": "P1", "k": 4}


class TestErrorMessages:
    """Each malformed input names its field in one JSON document."""

    @pytest.mark.parametrize("command", ["admissible", "plan"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1,2]", "spec: expected a JSON object"),
            (json.dumps(_SPEC_FIELDS), "spec.deg: missing"),
            (
                json.dumps({**_SPEC_FIELDS, "deg": [1, 2]}),
                "spec.deg: entries must be sorted non-increasing",
            ),
            (
                json.dumps({**_SPEC_FIELDS, "k": 1, "deg": [1, 0]}),
                "spec.k: covering degree must be >= 2",
            ),
            (
                json.dumps({**_SPEC_FIELDS, "g": -1, "deg": [1, 0]}),
                "spec.g/spec.s: must be nonnegative",
            ),
            (
                json.dumps({**_SPEC_FIELDS, "s": -1, "deg": []}),
                "spec.g/spec.s: must be nonnegative",
            ),
        ],
    )
    def test_malformed_spec(self, capsys, command, text, message):
        assert invoke_json(capsys, command, text) == (1, {"error": message})

    @pytest.mark.parametrize("command", ["admissible", "plan", "verify"])
    def test_spec_file_refusals(self, capsys, tmp_path, command):
        extra = [write_plan(tmp_path, HYPER_2)] if command == "verify" else []
        missing = tmp_path / "missing.json"
        message = f"spec file: [Errno 2] No such file or directory: '{missing}'"
        assert invoke_json(capsys, command, *extra, f"@{missing}") == (1, {"error": message})
        bad = tmp_path / "bad.json"
        bad.write_text('{"g": 4,')
        message = "spec: invalid JSON (Expecting property name enclosed in double quotes)"
        assert invoke_json(capsys, command, *extra, f"@{bad}") == (1, {"error": message})
        bad.write_bytes(b"\xff\xfe{}")
        code, doc = invoke_json(capsys, command, *extra, f"@{bad}")
        assert code == 1 and doc["error"].startswith("spec file: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("command", ["admissible", "plan", "verify"])
    @pytest.mark.parametrize("text", [SPEC_431, SPEC_6333, "[1,2]"])
    def test_spec_file_answers_as_the_inline_spec(self, capsys, tmp_path, command, text):
        extra = []
        if command == "verify":
            extra = [str(tmp_path / "plan.json")]
            run(["plan", SPEC_6333])
            Path(extra[0]).write_text(capsys.readouterr().out)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(text)
        inline = invoke(capsys, command, *extra, text)
        assert invoke(capsys, command, *extra, f"@{spec_file}") == inline

    @pytest.mark.parametrize("command", ["verify", "realize"])
    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1], "plan: expected a JSON object"),
            (
                {"seed": HYPER_2, "steps": {}, "provenance": "Case1"},
                "plan.steps: expected a list",
            ),
            (
                {"seed": HYPER_2, "steps": [], "provenance": "Case9"},
                "plan.provenance: unknown tag 'Case9'",
            ),
            (
                {"seed": 5, "steps": [], "provenance": "Case1"},
                "seed: expected an object with a 'kind' field",
            ),
            (
                {"seed": {"g": 2}, "steps": [], "provenance": "Case1"},
                "seed: expected an object with a 'kind' field",
            ),
            # a misspelt repeat, alone and after the same step without it
            (
                {"seed": HYPER_2, "steps": [{**WRAP_C1, "repat": 5}], "provenance": "Case1"},
                "steps[0]: unknown field 'repat'",
            ),
            (
                {
                    "seed": HYPER_2,
                    "steps": [WRAP_C1, {**WRAP_C1, "repat": 5}],
                    "provenance": "Case1",
                },
                "steps[1]: unknown field 'repat'",
            ),
        ],
    )
    def test_malformed_plan(self, capsys, tmp_path, command, doc, message):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(doc))
        extra = [SPEC_6333] if command == "verify" else []
        assert invoke_json(capsys, command, str(plan_file), *extra) == (1, {"error": message})

    @pytest.mark.parametrize("command", ["verify", "realize"])
    @pytest.mark.parametrize("repeat", [True, False, 2.0, "2", None, 0, -3])
    def test_malformed_repeat(self, capsys, tmp_path, command, repeat):
        iii = {"kind": "III", "variant": None, "placement": None}
        steps = [iii, {**iii, "repeat": 2}, {**iii, "repeat": repeat}]
        plan_file = write_plan(tmp_path, HYPER_2, steps)
        extra = [SPEC_6333] if command == "verify" else []
        message = "steps[2].repeat: expected a positive integer"
        assert invoke_json(capsys, command, plan_file, *extra) == (1, {"error": message})

    def test_json_python_cannot_read(self, capsys, tmp_path):
        # An integer past Python's digit limit, or arrays nested past its
        # recursion limit: the answer names the argument that held them.
        limit = sys.get_int_max_str_digits()
        digits = "9" * (limit + 1)
        plan_file = tmp_path / "plan.json"
        plan_file.write_text('{"seed": ' + digits + "}")
        for argv, what in (
            (["admissible", '{"g":' + digits + "}"], "spec"),
            (["verify", str(plan_file), SPEC_6333], "plan"),
            (["covnum", '{"kcov":' + digits + "}"], "target"),
        ):
            message = f"{what}: invalid JSON (integer over {limit} digits)"
            assert invoke_json(capsys, *argv) == (1, {"error": message})
        message = "spec: invalid JSON (nested too deeply)"
        assert invoke_json(capsys, "plan", "[" * 100000) == (1, {"error": message})

    def test_target_not_an_object(self, capsys):
        expected = (1, {"error": "target: expected a JSON object"})
        assert invoke_json(capsys, "covnum", "[1]") == expected

    @pytest.mark.parametrize(
        "seed, message",
        [
            ({**HYPER_2, "deg": [2, 0]}, "winding vector length differs from circle count"),
            ({**HYPER_2, "a": 1}, "winding (2) needs a separating curve with one circle"),
            (
                {**HYPER_2, "s": 2, "a": 1, "deg": [1, 1]},
                "winding (1,1) needs a separating curve with two circles",
            ),
        ],
    )
    def test_seed_outside_the_catalog(self, capsys, tmp_path, seed, message):
        plan_file = write_plan(tmp_path, seed)
        verdict = {"verified": False, "diagnostics": [f"seed rejected: {message}"]}
        assert invoke_json(capsys, "verify", plan_file, SPEC_6333) == (2, verdict)
        rejected = {"rejected": f"seed not in catalog: {message}"}
        assert invoke_json(capsys, "realize", plan_file) == (2, rejected)


class TestCovnum:
    def test_build_summary(self, capsys):
        code, doc = invoke_json(capsys, "covnum", '{"g":2,"s":3,"a":0,"kcov":3}')
        assert code == 0
        assert doc["covering_number"] == 3
        assert doc["spec"]["k"] == 4
        assert doc["cover"]["k"] == 4

    def test_infeasible_target(self, capsys):
        code, doc = invoke_json(capsys, "covnum", '{"g":2,"s":3,"a":0,"kcov":5}')
        assert code == 2
        assert "infeasible" in doc

    def test_impossible_type_is_named_by_its_numbers(self, capsys):
        # As the seed catalog names it, not by a Python repr of TopType.
        code, out = invoke(capsys, "covnum", '{"g":2,"s":2,"a":0,"kcov":1}')
        assert code == 2
        assert out == '{"infeasible":"type (2, 2, 0) fails the existence bounds"}\n'

    def test_malformed_target(self, capsys):
        for target, error in (
            ('{"g":2,"s":3,"a":0}', "target.kcov: missing"),
            ('{"s":3,"a":0,"kcov":3}', "target.g: missing"),
            ('{"g":2,"s":3,"a":0,"kcov":true}', "target.kcov: expected an integer"),
        ):
            assert invoke_json(capsys, "covnum", target) == (1, {"error": error})

    @pytest.mark.parametrize(
        "target",
        [
            '{"g":1000000000,"s":1000000001,"a":0,"kcov":1000000001}',
            '{"g":1000000000,"s":1,"a":0,"kcov":1}',
        ],
    )
    def test_huge_target_is_refused_at_once(self, target):
        # In a child process with 1 GiB of address space, so that a build the
        # cap fails to stop ends in a MemoryError rather than a full machine.
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "realcover", "covnum", target],
            capture_output=True, text=True, timeout=60, preexec_fn=limit,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (done.returncode, done.stderr) == (1, "")
        assert done.stdout.count("\n") == 1
        assert "too large" in json.loads(done.stdout)["error"]

    def test_caps_are_inclusive(self, capsys, monkeypatch):
        # One cap on g: 104,999 is the largest g that the earlier caps,
        # s <= 100,000 and g + 1 - s <= 5,000, admitted together.
        error = "target: too large to build; covnum takes g <= 104999"
        target = '{"g":105000,"s":1,"a":0,"kcov":1}'
        assert invoke_json(capsys, "covnum", target) == (1, {"error": error})
        monkeypatch.setattr(cli, "_COVNUM_MAX_G", 4)
        assert invoke_json(capsys, "covnum", '{"g":4,"s":5,"a":0,"kcov":3}')[0] == 0
        assert invoke_json(capsys, "covnum", '{"g":4,"s":1,"a":0,"kcov":1}')[0] == 0
        error = "target: too large to build; covnum takes g <= 4"
        for target in ('{"g":5,"s":2,"a":0,"kcov":1}', '{"g":5,"s":6,"a":0,"kcov":6}'):
            assert invoke_json(capsys, "covnum", target) == (1, {"error": error})


def run_child(*argv):
    """The command in a child process with 1 GiB of address space, so that a
    request a cap fails to stop ends in a MemoryError rather than a full
    machine: (exit code, stdout, stderr, seconds)."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(cli.__file__).resolve().parents[1]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "realcover", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return done.returncode, done.stdout, done.stderr, time.perf_counter() - start


class TestPlanCaps:
    """A record can ask for any number of steps; verify and realize refuse,
    before any replay, plans past their circle and breakpoint caps."""

    @pytest.mark.parametrize(
        "command, step, limit",
        [
            ("verify", {"kind": "III"}, "at most 100000 circles"),
            ("realize", {"kind": "II", "variant": "ram"}, "at most 100000 circles"),
            ("realize", {"kind": "I", "variant": "ram", "placement": "C1"}, "40000 breakpoints"),
        ],
    )
    def test_huge_repeat_is_refused_at_once(self, tmp_path, command, step, limit):
        plan_file = write_plan(tmp_path, HYPER_2, [{**step, "repeat": 10**12}])
        extra = [SPEC_6333] if command == "verify" else []
        code, out, err, seconds = run_child(command, plan_file, *extra)
        assert (code, err, out.count("\n")) == (1, "", 1)
        assert limit in json.loads(out)["error"]
        assert seconds < 1

    def test_huge_folds_verify_at_once(self, tmp_path):
        # verify applies a record in O(1) and has no fold cap
        fold = {"kind": "I", "variant": "ram", "placement": "C1"}
        plan_file = write_plan(tmp_path, HYPER_2, [{**fold, "repeat": 10**12 + 1}])
        # winding 2 -> 1 -> 0 -> 1 -> 0 ...: 1 after 10**12 + 1 folds
        spec = '{"g":2,"s":1,"a":0,"target":"P1","k":1000000000003,"deg":[1]}'
        code, out, err, seconds = run_child("verify", plan_file, spec)
        assert (code, err, json.loads(out)) == (0, "", {"verified": True, "diagnostics": []})
        assert seconds < 1

    def test_caps_are_inclusive(self, capsys, tmp_path):
        # HYPER_2 has one circle: 2 + 2 * 19999 breakpoints is the cap
        def request(command, steps):
            plan_file = write_plan(tmp_path, HYPER_2, steps)
            extra = [SPEC_6333] if command == "verify" else []
            return invoke_json(capsys, command, plan_file, *extra)

        iii = {"kind": "III"}
        assert request("verify", [{**iii, "repeat": 99_999}, iii])[0] == 2  # not the target
        assert request("verify", [{**iii, "repeat": 100_000}, iii])[0] == 1
        code, doc = request("realize", [{**iii, "repeat": 19_998}, iii])
        assert code == 0 and sum(len(c["breakpoints"]) for c in doc["components"]) == 40_000
        assert request("realize", [{**iii, "repeat": 19_999}, iii])[0] == 1


@pytest.fixture
def digit_limit():
    """Python's digit limit for int-to-str conversion, lowered to 640 for
    the test and restored after it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


class TestUnprintable:
    """An answer holding an integer past Python's digit limit is refused in
    words, not with Python's own message."""

    REFUSAL = "plan: too large to print; the realization has an integer over 640 digits"

    @pytest.mark.parametrize("fmt", [[], ["--format", "csv"]])
    def test_realize_refuses_to_print(self, capsys, tmp_path, digit_limit, fmt):
        # Each fold after a wrap adds 3 bits to the denominator: 720 pairs
        # make it 2,161 bits, 651 digits.
        fold = {"kind": "I", "variant": "ram", "placement": "C1"}
        wrap = {**fold, "variant": "noram"}
        seed = {"kind": "Hyperelliptic", "g": 0, "s": 1, "a": 0, "deg": [2]}
        plan_file = write_plan(tmp_path, seed, [fold] + [fold, wrap] * 720)
        code, out = invoke(capsys, "realize", plan_file, *fmt)
        assert out.count("\n") == 1
        assert (code, json.loads(out)) == (1, {"error": self.REFUSAL})

    @pytest.mark.parametrize("argv", [
        ["dims", "9" * 640, "3"],
        ["rho", "9" * 639, "3", "--r", "9" * 639],
    ], ids=["dims", "rho"])
    def test_calculators_refuse_to_print(self, capsys, digit_limit, argv):
        code, out = invoke(capsys, *argv)
        refusal = f"{argv[0]}: too large to print; the answer has an integer over 640 digits"
        assert out.count("\n") == 1
        assert (code, json.loads(out)) == (1, {"error": refusal})

    def test_k_past_the_limit(self, capsys, tmp_path, digit_limit):
        # Two IV records of 640-digit repeats give k a 641st digit.  No spec
        # the CLI can read names that k, so verify does not verify the plan.
        iv = {"kind": "IV", "repeat": int("9" * 640)}
        plan_file = write_plan(tmp_path, {"kind": "GenericPencil", "g": 0, "k": 2}, [iv] * 2)
        assert invoke_json(capsys, "realize", plan_file) == (1, {"error": self.REFUSAL})
        diagnostic = "plan executes to a spec with an integer over 640 digits, not the target"
        verdict = {"verified": False, "diagnostics": [diagnostic]}
        assert invoke_json(capsys, "verify", plan_file, SPEC_6333) == (2, verdict)


def dump(obj):
    return json.dumps(obj, separators=(",", ":"))


def cover_wire(cover):
    return "".join(cover_text(cover))


class TestTextWriters:
    """The library writes specs and covers as text straight from the
    records; each writer prints the compact JSON of the reference dict
    builder in tests/oracles.py, whose cover ratios come from Fraction."""

    def test_specs_and_realized_covers_of_a_box(self):
        specs = covers = 0
        for spec in enumerate_admissible(6, 6):
            assert spec_text(spec) == dump(spec_to_json(spec))
            specs += 1
            result = plan(spec)
            if isinstance(result, Infeasible):
                continue
            cover = realize(result.seed, result.steps)
            assert cover_wire(cover) == dump(cover_to_json(cover)), spec
            covers += 1
        assert (specs, covers) == (637, 586)

    def test_parts_join_to_the_specs(self):
        parts = ",".join(part_text(*part) for part in admissible_parts(6, 6))
        assert "[" + parts + "]" == dump([spec_to_json(s) for s in enumerate_admissible(6, 6)])

    def test_covnum_targets(self):
        built = 0
        for g in range(13):
            for s in range(g + 3):
                for a in (0, 1):
                    for kcov in range(s + 2):
                        try:
                            target = CoveringNumberTarget(TopType(g, s, a), kcov)
                        except InfeasibleTarget:
                            continue
                        cover, spec = build_covnum(target)
                        assert cover_wire(cover) == dump(cover_to_json(cover)), target
                        assert spec_text(spec) == dump(spec_to_json(spec)), target
                        built += 1
        assert built == 616

    def test_covnum_prints_one_document(self, capsys):
        target = CoveringNumberTarget(TopType(12, 7, 0), 4)
        cover, spec = build_covnum(target)
        doc = {"cover": cover_to_json(cover), "spec": spec_to_json(spec),
               "covering_number": covering_number(cover)}
        assert invoke(capsys, "covnum", '{"g":12,"s":7,"a":0,"kcov":4}') == (0, dump(doc) + "\n")

    def test_reduced_ratios_print_when_den_does_not(self, digit_limit):
        # den = p q has 801 digits, past the limit of 640, but the lifts p
        # and q over it are 1/q and 1/p, of 401 digits each.
        p, q = 10**400 + 1, 10**400 + 3
        m = PLMap(p * q, [p, q], 0)
        assert len(str(q)) == 401 and m.den == p * q
        cover = PLCover((("C1", m),), 2, CoverTarget.PROJ_LINE)
        text = cover_wire(cover)
        assert text == dump(cover_to_json(cover))
        points = [["0/1", f"1/{q}"], ["1/2", f"1/{p}"]]
        assert json.loads(text)["components"][0]["breakpoints"] == points

    def test_the_limit_is_exact(self, digit_limit):
        # A den of 640 digits has more bits than the pre-pass's bound, so its
        # ratios are reduced there, and print; one of 641 digits does not.
        for digits, printable in ((640, True), (641, False)):
            cover = PLCover((("C1", PLMap(10**digits - 1, [0, 1], 0)),), 2, CoverTarget.PROJ_LINE)
            if printable:
                assert cover_wire(cover) == dump(cover_to_json(cover))
            else:
                with pytest.raises(ValueError):
                    cover_text(cover)  # at the call, before any chunk

    @pytest.mark.parametrize("k, xs, closure", [
        (10**640, [1, 3], 0),
        (2, [1, 3], 10**640),
        (2, [1, 10**641], 0),
    ], ids=["k", "winding", "lift"])
    def test_long_integers_raise_at_the_call(self, digit_limit, k, xs, closure):
        cover = PLCover((("C1", PLMap(4, xs, closure)),), k, CoverTarget.PROJ_LINE)
        with pytest.raises(ValueError):
            cover_text(cover)
        with pytest.raises(ValueError):
            dump(cover_to_json(cover))

    @pytest.mark.parametrize("fmt", [[], ["--format", "csv"]], ids=["json", "csv"])
    def test_refused_realize_writes_only_its_error(self, monkeypatch, tmp_path, digit_limit, fmt):
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        fold = {"kind": "I", "variant": "ram", "placement": "C1"}
        wrap = {**fold, "variant": "noram"}
        seed = {"kind": "Hyperelliptic", "g": 0, "s": 1, "a": 0, "deg": [2]}
        plan_file = write_plan(tmp_path, seed, [fold] + [fold, wrap] * 720)
        monkeypatch.setattr(sys, "stdout", Recorder())
        assert run(["realize", plan_file, *fmt]) == 1
        assert writes == [dump({"error": TestUnprintable.REFUSAL}), "\n"]


class TestEnumerate:
    def test_deterministic_bytes(self, capsys):
        code, first = invoke(capsys, "enumerate", "3", "4")
        assert code == 0
        _, second = invoke(capsys, "enumerate", "3", "4")
        assert first == second

    def test_contains_known_spec(self, capsys):
        _, out = invoke(capsys, "enumerate", "1", "2")
        docs = json.loads(out)
        assert {"g": 1, "s": 2, "a": 0, "target": "P1", "k": 2, "deg": [1, 1]} in docs

    @pytest.mark.parametrize("box", [(0, 2), (3, 4), (5, 6)])
    def test_streamed_bytes_match_one_dump(self, capsys, box):
        whole = [spec_to_json(s) for s in enumerate_admissible(*box)]
        code, out = invoke(capsys, "enumerate", *map(str, box))
        assert code == 0
        assert out == json.dumps(whole, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("box", [(0, 2), (5, 6), (0, 40)])
    def test_writes_hold_one_block_and_join_to_one_dump(self, monkeypatch, box):
        # Memory stays bounded because no write holds more than one (k, type)
        # block of specs; the blocks still join into the bytes of one dump.
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert run(["enumerate", *map(str, box)]) == 0
        whole = [spec_to_json(s) for s in enumerate_admissible(*box)]
        assert sys.stdout.getvalue() == json.dumps(whole, separators=(",", ":")) + "\n"

        def block(doc):
            return doc["g"], doc["k"], doc["target"], doc["s"], doc["a"]

        assert (writes[0], writes[-1]) == ("[", "]\n")
        blocks = [json.loads("[" + text.removeprefix(",") + "]") for text in writes[1:-1]]
        assert [{block(doc) for doc in docs} for docs in blocks] == [
            {key} for key, _ in itertools.groupby(whole, block)
        ]

    def test_census_box_bytes_are_pinned(self, capsys):
        # The one-dump comparison above moves with the library's order; this
        # pins the bytes themselves, so a reordering of the stream fails here.
        code, out = invoke(capsys, "enumerate", "9", "8")
        assert code == 0 and len(out) == 174_464
        digest = "87a8697c2c0a5a2de623fb2b4bc30ffbd35f5e37908f4394ec9a356da2a76dbd"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("box", [("-1", "2"), ("0", "1")])
    def test_bad_bounds_are_one_error_document(self, capsys, box):
        code, out = invoke(capsys, "enumerate", *box)
        assert (code, out) == (1, '{"error":"enumerate: need g_max >= 0 and k_max >= 2"}\n')

    def test_reader_closing_early_gets_exit_one_and_no_traceback(self):
        # 174,464 bytes do not fit in a 64 KiB pipe buffer, so the writer is
        # still writing when the reader closes its end.
        src = Path(cli.__file__).resolve().parents[1]
        child = subprocess.Popen(
            [sys.executable, "-m", "realcover", "enumerate", "9", "8"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert child.stdout.read(40) == b'[{"g":0,"s":0,"a":1,"target":"P1","k":2,'
        child.stdout.close()
        _, stderr = child.communicate(timeout=60)
        assert (child.returncode, stderr) == (1, b"")


class TestCalculators:
    def test_rho(self, capsys):
        code, doc = invoke_json(capsys, "rho", "4", "3")
        assert code == 0
        assert doc == {"g": 4, "k": 3, "r": 1, "rho": 0}

    def test_dims(self, capsys):
        code, doc = invoke_json(capsys, "dims", "4", "3")
        assert doc == {"hurwitz": 12, "moduli": 9, "image_bound": 9}

    @pytest.mark.parametrize("argv, error", [
        (("2", "0"), "need k >= 1, got 0"),
        (("2", "-3"), "need k >= 1, got -3"),
        (("1", "0"), "need g >= 2, got 1"),
    ])
    def test_dims_refusals_name_their_own_arguments(self, capsys, argv, error):
        code, doc = invoke_json(capsys, "dims", *argv)
        assert (code, doc) == (1, {"error": error})

    def test_facts(self, capsys):
        code, doc = invoke_json(capsys, "facts")
        assert code == 0
        kinds = {f["kind"] for f in doc["facts"]}
        assert kinds == {"no_real_pencil", "two_pencils", "bpf_pencil_exists"}

    def test_usage_error_exits_one(self, capsys):
        code, doc = invoke_json(capsys, "rho", "four", "3")
        assert code == 1
        assert "error" in doc


class TestModuleEntry:
    def test_python_m_realcover(self, capsys):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "realcover", "facts"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.count("\n") == 1
        assert (0, done.stdout) == invoke(capsys, "facts")


class TestHelp:
    @pytest.mark.parametrize(
        "argv", [["--help"], ["-h"], ["plan", "-h"], ["enumerate", "--help"]]
    )
    def test_help_is_one_json_document(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "40")
        code, out = invoke(capsys, *argv)
        assert code == 0
        assert out.count("\n") == 1 and out.endswith("\n")
        doc = json.loads(out)
        assert list(doc) == ["help"] and "usage" in doc["help"]
        monkeypatch.setenv("COLUMNS", "200")
        assert invoke(capsys, *argv) == (code, out)


class TestSharedParser:
    def test_parser_built_at_most_once(self, capsys, monkeypatch):
        builds, build = [], cli.build_parser

        def counting_build():
            builds.append(1)
            return build()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting_build)
        try:
            for argv in (["rho", "4", "3"], ["bogus"], ["dims", "4", "3"]):
                run(argv)
        finally:
            cli._parser.cache_clear()
        assert builds == [1]


# The fuzz below draws argvs from these pieces: mostly a subcommand with an
# argument of the right kind in each slot, then options or noise.  "@name"
# stands for a plan file written once per module.
_SPECS = [
    SPEC_431,
    SPEC_6333,
    '{"g":6,"s":3,"a":0,"target":"P1","k":5,"deg":[1,1,1]}',
    '{"g":3,"s":0,"a":1,"target":"R0","k":2,"deg":[]}',
    SPEC_6333[:20],
    '{"g":4}',
    "[1,2]",
    '{"g":"4","s":0,"a":1,"target":"P1","k":3,"deg":[]}',
]
_TARGETS = [
    '{"g":2,"s":3,"a":0,"kcov":3}',
    '{"g":3,"s":2,"a":1,"kcov":1}',
    '{"g":2,"s":3,"a":0,"kcov":5}',
    '{"g":2,"s":3,"a":0,"kcov":"3"}',
    '{"g":2,"s":3',
]
_PLAN_FILES = ["@valid", "@malformed", "@uncataloged", "@missing"]
_small_int = st.integers(-3, 5).map(str)  # keeps every enumerate box within 5 x 5
_SLOTS = {
    "admissible": [st.sampled_from(_SPECS)],
    "plan": [st.sampled_from(_SPECS)],
    "verify": [st.sampled_from(_PLAN_FILES), st.sampled_from(_SPECS)],
    "realize": [st.sampled_from(_PLAN_FILES)],
    "covnum": [st.sampled_from(_TARGETS)],
    "enumerate": [_small_int, _small_int],
    "rho": [_small_int, _small_int],
    "dims": [_small_int, _small_int],
    "facts": [],
}
_OPTIONS = {"realize": [["--format", "csv"], ["--format", "json"], ["--format", "xml"]],
            "rho": [["--r", "2"], ["--r", "-1"]]}
_token = st.one_of(
    st.sampled_from([*_SLOTS, "--format", "csv", "--r", "-h", "--help", "x", "", "1.5",
                     "--bogus"]),
    _small_int,
    st.sampled_from(_SPECS + _TARGETS + _PLAN_FILES),
)


@st.composite
def _argv(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.lists(_token, max_size=4))
    command = draw(st.sampled_from(list(_SLOTS)))
    args = [draw(slot) for slot in _SLOTS[command]]
    if draw(st.integers(0, 4)) == 0:
        del args[draw(st.integers(0, len(args))):]
    options = st.sampled_from(_OPTIONS.get(command, []) + [["-h"], ["--help"]])
    extra = draw(st.one_of(st.just([]), options, st.lists(_token, max_size=2)))
    return [command, *args, *extra]


_CSV_ROW = re.compile(r"-?\d+/\d+,\d+")


@pytest.fixture(scope="module")
def plan_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("plans")
    docs = {
        "valid": json.dumps(plan_to_json(plan(spec_from_json(json.loads(SPEC_6333))))),
        "malformed": "{oops",
        "uncataloged": json.dumps({"seed": {**HYPER_2, "deg": [3]}, "steps": [],
                                   "provenance": "Case1"}),
    }
    for name, text in docs.items():
        (root / f"{name}.json").write_text(text)
    return root


def _call(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def _top_level_calls(batch):
    """_call of each argv with the command lookup finding nothing, so that
    the top-level parser parses every argv whole."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_command_parser", lambda name: None)
        return [_call(argv) for argv in batch]


# Argvs at the edge between the top-level parser and a subcommand's: no
# command, options and "--" before or after it, abbreviated and misplaced
# help, and words that are not commands.
_EDGE_ARGVS = [
    [], ["-h"], ["--help"], ["--", "plan", SPEC_6333], ["plan", "--", SPEC_6333], ["bogus"],
    ["facts", "x"], ["facts", "--he"], ["rho", "-1", "3"], ["rho", "3", "4", "--r"],
    ["rho", "3", "--", "4"], ["plan", "-h"], ["dims", "-h", "3"], ["-", "plan"], ["help"],
]


class TestFuzz:
    @pytest.mark.parametrize("argv", _EDGE_ARGVS, ids=repr)
    def test_edge_argv_answers_as_the_top_level_parse(self, argv):
        assert [_call(argv)] == _top_level_calls([argv])

    @settings(deadline=None)
    @given(batch=st.lists(_argv(), min_size=1, max_size=6))
    def test_any_argv_one_document_and_shared_parser_agrees(self, plan_dir, batch):
        batch = [[str(plan_dir / f"{a[1:]}.json") if a in _PLAN_FILES else a for a in argv]
                 for argv in batch]
        shared = [_call(argv) for argv in batch]
        for argv, (code, out) in zip(batch, shared):
            assert code in (0, 1, 2)
            if out.startswith("x,fiber_count\n"):
                assert code == 0 and argv[0] == "realize"
                assert all(_CSV_ROW.fullmatch(row) for row in out.splitlines()[1:])
            else:
                assert out.count("\n") == 1 and out.endswith("\n")
                json.loads(out)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_parser", cli.build_parser)
            fresh = [_call(argv) for argv in batch]
        assert shared == fresh
        # Handing argv to its command's parser answers as the top-level parse.
        assert shared == _top_level_calls(batch)
