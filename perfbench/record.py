"""Record one point of the perf trajectory as BENCH_<n>.json.

    python3 perfbench/record.py --out perfbench/BENCH_1.json

Runs every workload once untraced and once traced with run.py, one fresh
process each, at seed 1 and BENCHMARK.json's run_seconds, and writes their
results together with the commit (git rev-parse HEAD), machine and
interpreter they were measured on.  Run from the root of a git checkout
with no uncommitted changes under src/, so the commit names the code run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SEED = 1


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    doc = {
        "commit": commit(),
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "load_average_at_start": os.getloadavg()[0],
        "seed": SEED,
        "run_seconds": seconds,
        "workloads": {},
    }
    for name, cls in workloads.WORKLOADS.items():
        entry = {"why": cls.why}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            entry["end_to_end" if trace == 0 else "per_layer"] = result
            print(f"{name} trace {trace}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        doc["workloads"][name] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
