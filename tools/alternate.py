"""Alternated benchmark pairs: a parent checkout against a change checkout.

    python3 tools/alternate.py PARENT_DIR CHANGE_DIR --workload census requests --seeds 4 5 --pairs 10

Runs the benchmark command that CHANGE_DIR/BENCHMARK.json declares (its
`command`, for its `run_seconds`) in each checkout by turns, one process at
a time: pair i runs at seed seeds[i % len(seeds)] every listed workload, in
the order given, on both sides, the parent first in even pairs and the
change first in odd ones.  So one command checks every workload, and a
drift of the host's speed reaches them all alike.  It reads only the last
line of each run's standard output, the benchmark's JSON result, and writes
nothing into either checkout beyond what the benchmark itself writes there.

For each pair and workload it prints every end-to-end metric that
BENCHMARK.json lists, with the run's correct/failed counts and the
operations it attempted (a run that fits more passes attempts more, and its
`peak_rss_mb` grows with them).  Then one block per workload: each side's
median attempted count and, per metric, its median and quartiles, the
change's median against the parent's as a ratio, the pairs the change won
(a tie counts for neither side), and whether a gain may be claimed: every
change run answered correctly, the change failed no more operations in
total than the parent, at least ten pairs ran, the change won at least nine
tenths of them, and the medians differ by more than the parent's
interquartile range.  A verdict of "no" names the first of these that does
not hold.  Each metric also gets a regression verdict: "yes" when the
change's median is worse than the parent's by more than the metric's
`bound` in BENCHMARK.json (a share of the parent's median), "no" otherwise,
and "unresolved" where the parent's interquartile range is wider than the
bound, unless every change run beats every parent run.  The last line of
output is one JSON object keyed by workload; each value is that workload's
summary, with the median attempted counts under `median_attempted`.

A run that exits nonzero stops the pairs.  The summary blocks and the JSON
line then cover the pairs that completed before it, the failed run is named
on standard error (side, workload, seed, pair, exit code, and its standard
error), and the tool exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


class RunFailed(Exception):
    """A benchmark run exited nonzero."""

    def __init__(self, returncode: int, stderr: str):
        super().__init__(returncode, stderr)
        self.returncode, self.stderr = returncode, stderr


def run_once(checkout: Path, command: list, workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RunFailed(done.returncode, done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(metric: dict, parent: list, change: list, unsound: str | None) -> dict:
    """Medians, quartiles, wins, the gain verdict and the regression
    verdict for one metric.

    ``unsound`` names why the change's runs cannot carry a gain (a wrong
    answer or more failed operations than the parent), or is None.  The
    regression verdict is "yes" when the change's median is worse than the
    parent's by more than the metric's ``bound`` (a share of the parent's
    median); otherwise "no", unless the parent's interquartile range is
    wider than the bound and some change run does not beat every parent
    run, which is "unresolved".
    """
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gap = (pm - cm) if lower else (cm - pm)
    allowed = metric["bound"] * abs(pm)
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if -gap > allowed:
        regression = "yes"
    elif p3 - p1 > allowed and not beats_all:
        regression = "unresolved"
    else:
        regression = "no"
    if unsound:
        why = unsound
    elif len(parent) < 10:
        why = "fewer than 10 pairs"
    elif wins < 0.9 * len(parent):
        why = "change won fewer than 9 in 10 pairs"
    elif gap <= p3 - p1:
        why = "median gap within the parent's interquartile range"
    else:
        why = None
    return {
        "parent": {"q1": p1, "median": pm, "q3": p3},
        "change": {"q1": c1, "median": cm, "q3": c3},
        "ratio": cm / pm if pm else None,
        "wins": wins,
        "pairs": len(parent),
        "gain": why is None,
        "why_not": why,
        "regression": regression,
    }


_COUNTS = ("correct", "failed", "attempted")


def collect(sides: dict, bench: dict, workloads: list, seeds: list, pairs: int) -> tuple:
    """Run the pairs and gather, per workload, each side's metric values,
    correct and failed counts and attempted operations, printing a line per
    workload per pair.  Pair i runs every workload, in the order given, on
    both sides, the parent first in even pairs.

    Returns the gathered runs of the completed pairs and None, or, when a
    run fails, those of the pairs completed before it and the failed run's
    description; no later run starts."""
    metrics = bench["end_to_end"]
    runs = {}
    for w in workloads:
        runs[w] = {"values": {side: {m["name"]: [] for m in metrics} for side in sides}}
        runs[w].update({key: {side: [] for side in sides} for key in _COUNTS})
    for i in range(pairs):
        seed = seeds[i % len(seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}  # gathered only once every workload of the pair has run
        for w in workloads:
            results = pair[w] = {}
            for side in order:
                try:
                    results[side] = run_once(
                        sides[side], bench["command"], w, seed, bench["run_seconds"])
                except RunFailed as exc:
                    return runs, (f"the {side} run of {w} at seed {seed} in pair {i + 1} "
                                  f"exited {exc.returncode}:\n{exc.stderr}")
            shown = "  ".join(
                f"{m['name']} {results['parent']['metrics'][m['name']]['value']:.6g} -> "
                f"{results['change']['metrics'][m['name']]['value']:.6g}" for m in metrics)
            row = "; ".join(
                f"{side} correct={results[side]['correct']} failed={results[side]['failed']} "
                f"attempted={results[side]['attempted']}" for side in order)
            print(f"pair {i + 1} {w} seed {seed} ({order[0]} first): {shown}  [{row}]",
                  flush=True)
        for w, results in pair.items():
            got = runs[w]
            for side, result in results.items():
                for m in metrics:
                    got["values"][side][m["name"]].append(result["metrics"][m["name"]]["value"])
                for key in _COUNTS:
                    got[key][side].append(result[key])
    return runs, None


def report(workload: str, got: dict, bench: dict, seeds: list) -> dict:
    """Print the summary block of one workload and return its summary object."""
    values, correct, failed, attempted = (got[key] for key in ("values", *_COUNTS))
    if not all(correct["change"]):
        unsound = "a change run was not correct"
    elif sum(failed["change"]) > sum(failed["parent"]):
        unsound = "change failed more operations than the parent"
    else:
        unsound = None
    median_attempted = {side: statistics.median(attempted[side]) for side in attempted}
    print(f"== {workload}")
    print(f"attempted operations: parent {median_attempted['parent']:g}  "
          f"change {median_attempted['change']:g} (medians)")
    summary = {}
    for m in bench["end_to_end"]:
        name = m["name"]
        s = summary[name] = summarize(
            m, values["parent"][name], values["change"][name], unsound)
        p, c = s["parent"], s["change"]
        ratio = f"{s['ratio'] - 1:+.1%}" if s["ratio"] is not None else "n/a"
        print(f"{name} ({m['unit']}, {m['better']} is better): "
              f"parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
              f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  {ratio}  "
              f"change won {s['wins']}/{s['pairs']}  "
              f"gain {'yes' if s['gain'] else 'no (' + s['why_not'] + ')'}  "
              f"regression {s['regression']} (bound {m['bound']:+.0%})")
    return {"workload": workload, "seeds": seeds, "seconds": bench["run_seconds"],
            "values": values, "correct": correct, "failed": failed,
            "summary": summary, "median_attempted": median_attempted}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = list(dict.fromkeys(args.workload))
    sides = {"parent": args.parent, "change": args.change}
    runs, failure = collect(sides, bench, workloads, args.seeds, args.pairs)
    done = [w for w in workloads if runs[w]["correct"]["parent"]]
    print(json.dumps({w: report(w, runs[w], bench, args.seeds) for w in done}))
    if failure:
        print(f"stopped: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
