"""tools/alternate.py's per-metric verdicts, on made-up runs.

The tool is loaded by path; no benchmark runs and no subprocess starts.
"""

import importlib.util
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
