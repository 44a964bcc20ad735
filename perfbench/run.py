"""realcover benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src.  The
passes run in one process with no threads and no REALCOVER_* settings.  It
sets up the workload's seeded inputs, then runs passes over the whole input
set until --seconds is used up, checking every pass's outputs outside the
timed region.  Human-readable lines come first; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics; it times a reference loop around
every pass, then times SETUP_PROBES set-ups in fresh child processes, one
after another, to rescale both to a host of fixed speed (measure.host_scaled).
--trace 1 alternates untraced
passes with passes in which every layer's public functions are wrapped in
spans (see spans.py), and reports the per-layer metrics; the spans are
written to .perfbench_out/<workload>-seed<n>/spans.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

import measure
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 11  # fresh-process set-ups; setup_s is their median at fixed host speed

# wall_s is the median pass rescaled to a host of fixed speed (measure.host_scaled):
# on a shared host other tenants slow whole passes by up to 2.3x for minutes
# at a time, longer than a run, and a reference loop timed around each pass
# slows with them.
END_TO_END = (
    ("wall_s", "s", "time for one pass over the workload's fixed input set, at fixed host speed"),
    ("setup_s", "s", "import realcover in a fresh process, generate inputs, write plan files"),
    ("peak_rss_mb", "MiB", "peak resident memory of the run's process"),
)

BUSY = (
    ("topology.enumerate_admissible",
     ("topology.enumerate_admissible", "topology.enumerate_admissible_genus")),
    ("planner.plan", ("planner.plan",)),
    ("planner.verify_plan", ("planner.verify_plan",)),
    ("plsim.realize", ("plsim.realize",)),
    ("plsim.fiber_budget_violations", ("plsim.fiber_budget_violations",)),
    ("plsim.image_arcs", ("plsim.image_arcs",)),
    ("covering4.build_covnum", ("covering4.build_covnum",)),
    ("covering4.covering_number", ("covering4.covering_number",)),
    ("arcs.min_circle_cover", ("arcs.min_circle_cover",)),
)
COUNTS = (
    ("topology.enumerate_admissible.specs", "higher"),
    ("constructions.steps_replayed", "lower"),
    ("plsim.realize.breakpoints", "lower"),
    ("plsim.realize.max_den_bits", "lower"),
    ("plsim.fiber.intervals", "higher"),
    ("plsim.fiber.samples", "lower"),
    ("arcs.min_circle_cover.arcs", "higher"),
)
CLI_COMMANDS = workloads.REQUESTS_COMMANDS


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{layer}.self_s", "s", "lower") for layer in spans.LAYERS]
    out += [(f"{name}.busy_s", "s", "lower") for name, _ in BUSY]
    out += [(name, "count", better) for name, better in COUNTS]
    out.append(("plsim.fiber.useful_share", "ratio", "higher"))
    for family, *_ in workloads.PL_FAMILIES:
        for rung in range(3):
            out += [(f"pl_deep.{family}.rung{rung}.{what}_s", "s", "lower")
                    for what in ("realize", "fiber")]
    for what in ("realize", "fiber"):
        out += [(f"plsim.{what}.k_exponent.{family}", "slope", "lower")
                for family, *_ in workloads.PL_FAMILIES]
    out.append(("covering4.covering_number.g_exponent", "slope", "lower"))
    out += [(f"cli.run.{cmd}.p50_ms", "ms", "lower") for cmd in CLI_COMMANDS]
    out.append(("cli.run.stdout_bytes", "bytes", "lower"))
    out += [("cli.run.exit0", "count", "higher"), ("cli.run.exit1", "count", "lower"),
            ("cli.run.exit2", "count", "lower"), ("cli.run.uncaught", "count", "lower")]
    out += [("op_p50_ms", "ms", "lower"), ("op_tail_ms", "ms", "lower"),
            ("failed_ratio", "ratio", "lower"), ("trace.overhead_ratio", "ratio", "lower")]
    return out


# ---------------------------------------------------------------------------


def load_library() -> types.SimpleNamespace:
    """Import realcover from this checkout's src/, never from elsewhere."""
    if not (SRC / "realcover" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no realcover package under {SRC}")
    sys.path.insert(0, str(SRC))
    import realcover
    from realcover import (arcs, brill_noether, cli, constructions, covering4, planner,
                           plsim, topology)

    if Path(realcover.__file__).resolve().parent != (SRC / "realcover").resolve():
        raise SystemExit(f"benchmark: realcover imported from {realcover.__file__}, not {SRC}")
    return types.SimpleNamespace(topology=topology, planner=planner, constructions=constructions,
                                 plsim=plsim, arcs=arcs, covering4=covering4, cli=cli,
                                 brill_noether=brill_noether)


def count_hooks(lib):
    """Counts taken at layer boundaries in the traced passes, outside spans."""

    def realize(args, cover, counts):
        pts = [x for _, m in cover.components for pt in m.breakpoints for x in pt]
        counts["plsim.realize.breakpoints"] += len(pts) // 2
        counts["plsim.realize.max_den_bits"] = max(
            [counts["plsim.realize.max_den_bits"]] + [x.denominator.bit_length() for x in pts])

    def fiber(args, result, counts):
        counts["plsim.fiber.intervals"] += len(lib.plsim.critical_values(args[0]))
        counts["plsim.fiber.samples"] += len(lib.plsim.regular_samples(*args))

    def min_cover(args, result, counts):
        counts["arcs.min_circle_cover.arcs"] += len(args[0])

    return {"plsim.realize": realize, "plsim.fiber_budget_violations": fiber,
            "arcs.min_circle_cover": min_cover}


def one_pass(wl, real, inputs, pass_no, tracer=None) -> workloads.PassResult:
    """One timed pass, checked right after it outside its timing.  With a
    tracer the layers are wrapped for this pass only, and the pass keeps its
    outputs, span range and counters for the per-layer metrics."""
    if tracer is None:
        result = wl.run_pass(real, inputs, None, pass_no)
    else:
        span_start = len(tracer.spans)
        tracer.yields, tracer.calls, tracer.counts = Counter(), Counter(), Counter()
        tracer.hook_ns = 0
        lib = tracer.install()
        try:
            result = wl.run_pass(lib, inputs, tracer, pass_no)
        finally:
            tracer.uninstall()
    result.failures = wl.check(real, inputs, result)
    result.attempted = wl.attempted(result)
    if tracer is None:
        result.outputs = None
    else:
        result.span_range = (span_start, len(tracer.spans))
        result.counters = {"yields": tracer.yields, "calls": tracer.calls, "counts": tracer.counts}
        result.wall_s -= tracer.hook_ns / 1e9
    print(f"pass {pass_no}{' traced' if tracer else ''}: {result.wall_s:.4f} s, "
          f"{len(result.failures)} failed", file=sys.stderr)
    return result


def run_passes(wl, real, inputs, budget_s, tracer=None):
    """Passes over the input set until the next would overrun the budget (at
    least one).  With a tracer, untraced and traced passes alternate, so
    both kinds see the same conditions on the host.  The reference loop is
    timed before the first pass and after each pass, in the order run."""
    untraced, traced, refs = [], [], []
    start = time.perf_counter()
    refs.append(measure.time_reference())
    while True:
        untraced.append(one_pass(wl, real, inputs, len(untraced) + len(traced)))
        refs.append(measure.time_reference())
        cycle = statistics.median([p.wall_s for p in untraced]) + refs[-1]
        if tracer is not None:
            traced.append(one_pass(wl, real, inputs, len(untraced) + len(traced), tracer))
            refs.append(measure.time_reference())
            cycle += statistics.median([p.wall_s for p in traced]) + refs[-1]
        if time.perf_counter() - start + cycle > budget_s:
            return untraced, traced, refs


def setup_probe(workload: str, seed: int, workdir: Path) -> None:
    """Child-process entry: time one set-up from a fresh interpreter."""
    t0 = time.perf_counter()
    lib = load_library()
    workloads.WORKLOADS[workload]().setup(lib, seed, workdir)
    print(repr(time.perf_counter() - t0))


def probe_setups(workload: str, seed: int) -> tuple[list, list]:
    """Set-up times of fresh processes, and the reference loop's time before
    the first and after each, for measure.host_scaled."""
    times, refs = [], [measure.time_reference()]
    for i in range(SETUP_PROBES):
        workdir = OUT / f"{workload}-seed{seed}-probe{i}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--setup-probe", "--workload", workload,
                 "--seed", str(seed), "--workdir", str(workdir)],
                capture_output=True, text=True, timeout=120, check=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        refs.append(measure.time_reference())
    return times, refs


def report_failures(name: str, passes) -> tuple[int, int, bool]:
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    causes = Counter((f.known, f.cause) for p in passes for f in p.failures)
    for (known, cause), n in sorted(causes.items()):
        tag = "known defect" if known else "FAILURE"
        print(f"{name}: {tag} x{n}: {cause}", file=sys.stderr)
    correct = all(f.known for p in passes for f in p.failures)
    return attempted, failed, correct


def operations(passes) -> tuple[dict, dict]:
    """Latency of one operation and the failure share, with how each was taken."""
    lat_ms = [[x * 1e3 for x in p.latencies_s] for p in passes]
    p50, tail, level = measure.op_latencies(lat_ms)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    values = {"op_p50_ms": p50, "op_tail_ms": tail, "failed_ratio": failed / attempted}
    notes = {
        "op_p50_ms": f"across {len(lat_ms[0])} operations, each its median over "
                     f"{len(passes)} passes",
        "op_tail_ms": level + (" across the operations" if level != "max"
                               else ": slowest operation"),
        "failed_ratio": f"{failed} of {attempted} operations",
    }
    return values, notes


def end_to_end(passes, refs, setups, setup_refs) -> tuple[dict, dict]:
    walls = [p.wall_s for p in passes]
    values = {
        "wall_s": measure.host_scaled(walls, refs),
        "setup_s": measure.host_scaled(setups, setup_refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "wall_s": f"median of {len(passes)} passes at fixed host speed; as timed: fastest "
                  f"{min(walls):.6g} s, median {statistics.median(walls):.6g} s; reference loop "
                  f"{min(refs) * 1e3:.4g} to {max(refs) * 1e3:.4g} ms against "
                  f"{measure.REFERENCE_S * 1e3:.4g} ms",
        "setup_s": f"median of {len(setups)} fresh-process set-ups at fixed host speed; "
                   f"as timed: median {statistics.median(setups):.6g} s",
        "peak_rss_mb": "ru_maxrss",
    }
    return values, notes


def per_layer(wl, inputs, untraced, traced, refs, tracer) -> dict:
    values = {name: 0.0 for name, _, _ in per_layer_metrics()}
    all_spans = tracer.spans
    selfs = spans.self_times(all_spans)
    outer = spans.outermost(all_spans)
    per_pass_self, per_pass_busy, per_op = [], [], []
    for p in traced:
        lo, hi = p.span_range
        layer_self = Counter()
        busy = Counter()
        op_busy = Counter()
        for i in range(lo, hi):
            s = all_spans[i]
            layer_self[spans.layer_of(s)] += selfs[i]
            if outer[i]:
                d = (s[spans.END] - s[spans.START]) / 1e9
                busy[s[spans.NAME]] += d
                op_busy[(s[spans.OP][1], s[spans.NAME])] += d
        per_pass_self.append(layer_self)
        per_pass_busy.append(busy)
        per_op.append(op_busy)

    def med(dicts, key):
        return statistics.median([d.get(key, 0.0) for d in dicts])

    for layer in spans.LAYERS:
        values[f"{layer}.self_s"] = med(per_pass_self, layer)
    for metric, names in BUSY:
        values[f"{metric}.busy_s"] = statistics.median([sum(b.get(n, 0.0) for n in names)
                                                     for b in per_pass_busy])
    last = traced[-1].counters
    yields, calls, counts = last["yields"], last["calls"], last["counts"]
    values["topology.enumerate_admissible.specs"] = float(
        yields["topology.enumerate_admissible"] + yields["topology.enumerate_admissible_genus"])
    values["constructions.steps_replayed"] = float(
        yields["constructions.execute_states"] - calls["constructions.execute_states"])
    for name, _ in COUNTS[2:]:
        values[name] = float(counts[name])
    if counts["plsim.fiber.samples"]:
        values["plsim.fiber.useful_share"] = (counts["plsim.fiber.intervals"]
                                              / counts["plsim.fiber.samples"])

    def op_time(i, span):
        return med(per_op, (i, span))

    values.update(wl.trace_metrics(inputs, untraced, traced, op_time))
    untraced_ops = operations(untraced)[0]
    for name in ("op_p50_ms", "op_tail_ms"):
        values[name] = untraced_ops[name]
    values["failed_ratio"] = operations(untraced + traced)[0]["failed_ratio"]
    # both kinds of pass rescaled to a host of fixed speed, as for wall_s
    ratios = measure.host_ratios([p.wall_s for pair in zip(untraced, traced) for p in pair], refs)
    values["trace.overhead_ratio"] = (statistics.median(ratios[1::2])
                                      / statistics.median(ratios[0::2]) - 1)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    for key in [k for k in os.environ if k.startswith("REALCOVER_")]:
        del os.environ[key]
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.workdir)
        return 0

    wl = workloads.WORKLOADS[args.workload]()
    workdir = OUT / f"{wl.name}-seed{args.seed}"
    load_avg = os.getloadavg()
    lib = load_library()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = wl.setup(lib, args.seed, workdir)

    print(f"workload {wl.name}: {wl.why}")
    print(f"seed {args.seed}{'' if wl.seeded else ' (not used: fixed input set)'}, "
          f"{args.seconds:g} s, closed loop with 1 client, python {platform.python_version()}, "
          f"nproc {os.cpu_count()}, load average {load_avg[0]:.2f}")

    if args.trace == 0:
        passes, _, refs = run_passes(wl, lib, inputs, args.seconds)
        setups, setup_refs = probe_setups(wl.name, args.seed)
        attempted, failed, correct = report_failures(wl.name, passes)
        values, notes = end_to_end(passes, refs, setups, setup_refs)
        units = {name: unit for name, unit, _ in END_TO_END}
        info, info_notes = operations(passes)
        for name, unit in (("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("failed_ratio", "ratio")):
            print(f"{name} {info[name]:.6g} {unit}  ({info_notes[name]}; not gated)")
    else:
        tracer = spans.Tracer()
        tracer.hooks = count_hooks(lib)
        untraced, traced, refs = run_passes(wl, lib, inputs, args.seconds, tracer)
        attempted, failed, correct = report_failures(wl.name, untraced + traced)
        values = per_layer(wl, inputs, untraced, traced, refs, tracer)
        notes = {}
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        tracer.write(workdir / "spans.jsonl")
        print(f"{len(tracer.spans)} spans written to {workdir / 'spans.jsonl'}")
    shutil.rmtree(workdir / "plans", ignore_errors=True)

    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    print(f"correct {'yes' if correct else 'no'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
