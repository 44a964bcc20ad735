"""tools/alternate.py's per-metric verdicts and its stop on a failed run,
on made-up runs.

The tool is loaded by path; no benchmark runs and no subprocess starts:
the runs of main replace run_once with made-up results, and run_once's own
test replaces subprocess.run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "alternate.py"
_SPEC = importlib.util.spec_from_file_location("alternate", _PATH)
alternate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(alternate)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RSS = {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1}
RATE = {"name": "ops", "unit": "count", "better": "higher", "bound": 0.1}


def test_clear_gain_and_no_regression():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    change = [0.80] * 9 + [1.05]
    s = alternate.summarize(WALL, parent, change, None)
    assert s["wins"] == 9 and s["pairs"] == 10
    assert s["gain"] and s["why_not"] is None
    assert s["regression"] == "no"
    assert s["parent"]["median"] == 1.00 and s["change"]["median"] == 0.80
    assert s["ratio"] == pytest.approx(0.8)


def test_gain_refusals_name_the_first_failed_condition():
    parent = [1.0] * 10
    assert alternate.summarize(WALL, parent, [0.5] * 10, "a change run was not correct")[
        "why_not"] == "a change run was not correct"
    assert alternate.summarize(WALL, parent[:9], [0.5] * 9, None)["why_not"] == (
        "fewer than 10 pairs")
    assert alternate.summarize(WALL, parent, [0.5] * 8 + [1.5] * 2, None)["why_not"] == (
        "change won fewer than 9 in 10 pairs")
    wide = [1.0, 1.2] * 5
    assert alternate.summarize(WALL, wide, [0.95] * 10, None)["why_not"] == (
        "median gap within the parent's interquartile range")


def test_regression_past_the_bound():
    # +12% against a 10% bound, on a tight parent.
    s = alternate.summarize(RSS, [28.0] * 10, [31.36] * 10, None)
    assert s["regression"] == "yes" and not s["gain"]
    # +5% stays inside it.
    assert alternate.summarize(RSS, [28.0] * 10, [29.4] * 10, None)["regression"] == "no"


def test_regression_for_a_higher_is_better_metric():
    assert alternate.summarize(RATE, [100] * 4, [85] * 4, None)["regression"] == "yes"
    assert alternate.summarize(RATE, [100] * 4, [95] * 4, None)["regression"] == "no"
    assert alternate.summarize(RATE, [100] * 4, [120] * 4, None)["regression"] == "no"


def test_a_wide_parent_leaves_the_regression_unresolved():
    # The parent's interquartile range (0.5 of a median of 1.0) is wider than
    # the 0.25 bound, so a change inside the bound cannot be called unchanged...
    parent = [0.5, 1.0, 1.5, 0.6, 1.4, 1.0]
    assert alternate.summarize(WALL, parent, [1.1] * 6, None)["regression"] == "unresolved"
    # ...unless every change run beats every parent run.
    assert alternate.summarize(WALL, parent, [0.4] * 6, None)["regression"] == "no"
    # A median past the bound is a regression whatever the spread.
    assert alternate.summarize(WALL, parent, [1.4] * 6, None)["regression"] == "yes"


def test_one_pair():
    s = alternate.summarize(WALL, [1.0], [0.9], None)
    assert s["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
    assert s["wins"] == 1 and s["regression"] == "no"
    assert s["why_not"] == "fewer than 10 pairs"


def test_several_workloads_in_one_run(tmp_path, monkeypatch, capsys):
    # Each pair runs every workload on both sides, the parent first in even
    # pairs; the last line holds one summary per workload.
    bench = {"command": ["bench"], "run_seconds": 3, "end_to_end": [WALL, RSS]}
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(bench))
    calls = []

    def fake_run(checkout, command, workload, seed, seconds):
        calls.append((checkout.name, workload, seed))
        assert (command, seconds) == (["bench"], 3)
        slow = 2.0 if workload == "covnum" else 1.0
        wall = slow * (0.9 if checkout == change else 1.0) + 0.01 * len(calls)
        return {"correct": True, "failed": int(workload == "census"),
                "attempted": 10 * len(calls),
                "metrics": {"wall_s": {"value": wall}, "peak_rss_mb": {"value": 30.0}}}

    monkeypatch.setattr(alternate, "run_once", fake_run)
    argv = [str(parent), str(change), "--workload", "census", "covnum", "census",
            "--seeds", "4", "5", "--pairs", "3"]
    assert alternate.main(argv) == 0
    assert calls == [
        ("parent", "census", 4), ("change", "census", 4),
        ("parent", "covnum", 4), ("change", "covnum", 4),
        ("change", "census", 5), ("parent", "census", 5),
        ("change", "covnum", 5), ("parent", "covnum", 5),
        ("parent", "census", 4), ("change", "census", 4),
        ("parent", "covnum", 4), ("change", "covnum", 4),
    ]
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("== ")] == ["== census", "== covnum"]
    assert sum(line.startswith("pair ") for line in lines) == 6
    doc = json.loads(lines[-1])
    assert list(doc) == ["census", "covnum"]
    for workload, got in doc.items():
        assert got["workload"] == workload and got["seeds"] == [4, 5] and got["seconds"] == 3
        assert got["failed"] == {"parent": [int(workload == "census")] * 3,
                                 "change": [int(workload == "census")] * 3}
        walls = got["values"]["parent"]["wall_s"], got["values"]["change"]["wall_s"]
        assert got["summary"]["wall_s"] == alternate.summarize(WALL, *walls, None)
        assert got["summary"]["wall_s"]["wins"] == 3
        assert set(got["summary"]) == {"wall_s", "peak_rss_mb"}
    assert doc["covnum"]["values"]["parent"]["wall_s"][0] == pytest.approx(2.03)
    assert doc["census"]["median_attempted"] == {"parent": 60, "change": 50}


def test_a_failed_run_stops_the_pairs(tmp_path, monkeypatch, capsys):
    # The change's covnum run fails in pair 2, after pair 2's census ran:
    # no later run starts, the summaries and the JSON line cover pair 1
    # alone, the failed run is named, and the tool exits 1.
    bench = {"command": ["bench"], "run_seconds": 3, "end_to_end": [WALL]}
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(bench))
    calls = []

    def fake_run(checkout, command, workload, seed, seconds):
        calls.append((checkout.name, workload, seed))
        if len(calls) == 7:
            raise alternate.RunFailed(3, "Traceback: boom\n")
        return {"correct": True, "failed": 0, "attempted": 10,
                "metrics": {"wall_s": {"value": float(len(calls))}}}

    monkeypatch.setattr(alternate, "run_once", fake_run)
    argv = [str(parent), str(change), "--workload", "census", "covnum",
            "--seeds", "4", "5", "--pairs", "3"]
    assert alternate.main(argv) == 1
    assert calls[4:] == [("change", "census", 5), ("parent", "census", 5),
                         ("change", "covnum", 5)]
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("== ")] == ["== census", "== covnum"]
    doc = json.loads(lines[-1])
    assert list(doc) == ["census", "covnum"]
    assert doc["census"]["values"] == {"parent": {"wall_s": [1.0]}, "change": {"wall_s": [2.0]}}
    assert doc["covnum"]["values"] == {"parent": {"wall_s": [3.0]}, "change": {"wall_s": [4.0]}}
    assert all(got["summary"]["wall_s"]["pairs"] == 1 for got in doc.values())
    assert "the change run of covnum at seed 5 in pair 2 exited 3" in err
    assert "Traceback: boom" in err


def test_a_failure_in_the_first_pair_summarizes_nothing(tmp_path, monkeypatch, capsys):
    bench = {"command": ["bench"], "run_seconds": 3, "end_to_end": [WALL]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))

    def fake_run(checkout, command, workload, seed, seconds):
        raise alternate.RunFailed(1, "")

    monkeypatch.setattr(alternate, "run_once", fake_run)
    argv = [str(tmp_path), str(tmp_path), "--workload", "census", "--seeds", "1",
            "--pairs", "10"]
    assert alternate.main(argv) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == ["{}"]
    assert "the parent run of census at seed 1 in pair 1 exited 1" in err


def test_run_once_raises_on_a_nonzero_exit(monkeypatch):
    # run_once reports a failed run to its caller instead of exiting; the
    # process it would start is replaced here.
    class Done:
        returncode, stdout, stderr = 2, "", "usage: run.py\n"

    monkeypatch.setattr(alternate.subprocess, "run", lambda *args, **kwargs: Done())
    with pytest.raises(alternate.RunFailed) as caught:
        alternate.run_once(Path("."), ["bench"], "census", 1, 25)
    assert (caught.value.returncode, caught.value.stderr) == (2, "usage: run.py\n")
