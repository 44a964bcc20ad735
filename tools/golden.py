"""The golden byte corpus under each interpreter named on the command line.

    python3 tools/golden.py /usr/bin/python3.10 /usr/bin/python3.13 ...

Each interpreter runs, in a child process from the root of this checkout
with src/ and tests/ on its path, the library digests of
tests/test_golden.py (census and covnum blocks) and the CLI stream digests
of tests/test_cli_stream.py, and compares every block with the pinned
digest.  With no interpreter named, the one running this script is used.

Prints one line per interpreter: its version, per corpus "ok" or the
blocks that differ, and the wall time of its child; then a verdict.  Exits
1 when any block differs or a child fails, 0 otherwise.  Standard library
only; neither digest module imports pytest, which not every interpreter
has.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, platform
import test_cli_stream, test_golden

corpora = (
    ("census", test_golden.census_digest, test_golden.CENSUS_DIGESTS),
    ("covnum", test_golden.covnum_digest, test_golden.COVNUM_DIGESTS),
)
out = {"version": platform.python_version()}
for name, digest, pinned in corpora:
    out[name] = [g for g, want in enumerate(pinned) if digest(g) != want]
got = test_cli_stream.block_digests()
out["cli"] = [i for i, want in enumerate(test_cli_stream.STREAM_DIGESTS)
              if i >= len(got) or got[i] != want]
print(json.dumps(out))
"""

CORPORA = ("census", "covnum", "cli")


def run(interpreter: str) -> tuple[bool, str]:
    """(whether every block matched, the report line) for one interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    start = time.perf_counter()
    try:
        done = subprocess.run([interpreter, "-c", CHILD], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError as exc:
        return False, f"{interpreter}: cannot run ({exc})"
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        last = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return False, f"{interpreter}: exit {done.returncode} ({last})"
    result = json.loads(done.stdout.splitlines()[-1])
    parts = []
    for name in CORPORA:
        bad = result[name]
        verdict = "ok" if not bad else "blocks " + ",".join(map(str, bad)) + " differ"
        parts.append(f"{name} {verdict}")
    ok = not any(result[name] for name in CORPORA)
    return ok, f"{result['version']:<8} {'  '.join(parts)}  {seconds:.1f} s  ({interpreter})"


def main(argv: list[str]) -> int:
    interpreters = argv or [sys.executable]
    all_ok = True
    for interpreter in interpreters:
        ok, line = run(interpreter)
        all_ok &= ok
        print(line, flush=True)
    print("verdict: " + ("every digest matches" if all_ok else "MISMATCH"))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
