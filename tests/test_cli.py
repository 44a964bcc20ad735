import json

import pytest

from realcover.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


def write_plan(tmp_path, seed):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({"seed": seed, "steps": [], "provenance": "Case1"}))
    return str(plan_file)


SPEC_431 = '{"g":4,"s":0,"a":1,"target":"P1","k":3,"deg":[]}'
SPEC_6333 = '{"g":6,"s":3,"a":0,"target":"P1","k":3,"deg":[1,1,1]}'


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

    def test_realize_csv(self, capsys, tmp_path):
        _, plan_doc = invoke_json(capsys, "plan", SPEC_6333)
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan_doc))
        code, out = invoke(capsys, "realize", str(plan_file), "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,fiber_count"
        assert len(lines) >= 101
        assert all(line.endswith(",3") for line in lines[1:])

    @pytest.mark.parametrize("command", ["verify", "realize"])
    @pytest.mark.parametrize(
        "field, value, path",
        [("g", "2", "seed.g"), ("deg", 5, "seed.deg"), ("deg", [True], "seed.deg[0]")],
    )
    def test_mistyped_plan_seed_exits_one(self, capsys, tmp_path, command, field, value, path):
        seed = {"kind": "Hyperelliptic", "g": 2, "s": 1, "a": 0, "deg": [2], field: value}
        extra = [SPEC_6333] if command == "verify" else []
        code, doc = invoke_json(capsys, command, write_plan(tmp_path, seed), *extra)
        assert code == 1
        assert doc["error"].startswith(path + ":")

    def test_realize_refuses_uncataloged_seed(self, capsys, tmp_path):
        seed = {"kind": "Hyperelliptic", "g": 2, "s": 1, "a": 0, "deg": [3]}
        code, doc = invoke_json(capsys, "realize", write_plan(tmp_path, seed))
        assert code == 2
        assert "catalog" in doc["rejected"]

    def test_missing_plan_file(self, capsys):
        code, doc = invoke_json(capsys, "verify", "/nonexistent/plan.json", SPEC_6333)
        assert code == 1
        assert "plan file" in doc["error"]


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

    def test_malformed_target(self, capsys):
        code, doc = invoke_json(capsys, "covnum", '{"g":2,"s":3,"a":0}')
        assert code == 1
        assert "kcov" in doc["error"]


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

    def test_worker_fanout_matches_serial(self, capsys, monkeypatch):
        _, serial = invoke(capsys, "enumerate", "3", "4")
        monkeypatch.setenv("REALCOVER_SCAN_WORKERS", "3")
        _, fanned = invoke(capsys, "enumerate", "3", "4")
        assert serial == fanned


class TestCalculators:
    def test_rho(self, capsys):
        code, doc = invoke_json(capsys, "rho", "4", "3")
        assert code == 0
        assert doc == {"g": 4, "k": 3, "r": 1, "rho": 0}

    def test_dims(self, capsys):
        code, doc = invoke_json(capsys, "dims", "4", "3")
        assert doc == {"hurwitz": 12, "moduli": 9, "image_bound": 9}

    def test_facts(self, capsys):
        code, doc = invoke_json(capsys, "facts")
        assert code == 0
        kinds = {f["kind"] for f in doc["facts"]}
        assert kinds == {"no_real_pencil", "two_pencils", "bpf_pencil_exists"}

    def test_usage_error_exits_one(self, capsys):
        code, doc = invoke_json(capsys, "rho", "four", "3")
        assert code == 1
        assert "error" in doc
