"""Which lines of src/realcover a run reaches: a line map for the test suite
and for the benchmark workloads.

    python3 tests/linemap.py [pytest args ...]
    python3 tests/linemap.py --workloads

Run from the root of a checkout.  The first form runs pytest.main with the
given arguments (tier-1's "-q --continue-on-collection-errors" when none
are given) under a sys.settrace tracer; the second runs one pass of each
benchmark workload at seed 1, with its set-up and its check, through
perfbench/run.py's own loader and pass, changing nothing under perfbench/.

The tracer follows only frames whose code lives in src/realcover, and only
lines inside functions count: module-level and class-body lines run at
import, which may happen before tracing starts.  A function's lines are
those its code objects map instructions to (co_lines), without the def
line itself, and with the lines of every function, lambda and
comprehension nested inside it.  Child processes, such as the CLI runs of
tests/test_cli.py, are not followed.

Prints every unreached line as "file:line text", then how many of the
function lines were not reached; exits with pytest's exit code, or 0.  Standard library only, besides pytest in
the first form; the file name keeps pytest from collecting it.
"""

from __future__ import annotations

import inspect
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "realcover"


def function_lines(path: Path) -> set:
    """The lines of path's functions, as described in the module docstring."""
    lines = set()

    def walk(code, inside: bool) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            # A class body, and before 3.12 a comprehension outside any
            # function, has a code object of its own that runs at import.
            named = not const.co_name.startswith("<")  # a def or a class body
            counted = inside or const.co_name == "<lambda>" or named and bool(
                const.co_flags & inspect.CO_NEWLOCALS)  # not set for a class body
            if counted:
                # From 3.11 a def's first instruction sits on its def (or
                # first decorator) line and fires no line event; a lambda or
                # a comprehension runs on its first line.
                first = const.co_firstlineno if named else None
                lines.update(line for _, _, line in const.co_lines()
                             if line is not None and line != first)
            walk(const, counted)

    walk(compile(path.read_text(), str(path), "exec"), False)
    return lines


class LineTracer:
    """sys.settrace hook recording (filename, line) for frames of src/."""

    def __init__(self):
        self.prefix = str(PACKAGE) + "/"
        self.reached = set()

    def __enter__(self):
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)

    def _call(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            return self._line
        return None

    def _line(self, frame, event, arg):
        if event == "line":
            self.reached.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line


def run_tier1(args) -> int:
    import pytest

    return pytest.main(args or ["-q", "--continue-on-collection-errors"])


def run_workloads() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    lib = run.load_library()
    for name, workload in run.workloads.WORKLOADS.items():
        print(name, file=sys.stderr)
        wl = workload()
        with tempfile.TemporaryDirectory() as workdir:
            run.one_pass(wl, lib, wl.setup(lib, 1, Path(workdir)), 0)
    return 0


def main(argv) -> int:
    start = time.perf_counter()
    with LineTracer() as tracer:
        code = run_workloads() if argv == ["--workloads"] else run_tier1(argv)
    elapsed = time.perf_counter() - start
    total = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        lines = function_lines(path)
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) not in tracer.reached:
                unreached += 1
                print(f"{path.relative_to(ROOT)}:{line} {text[line - 1].strip()}")
    print(f"{unreached} of {total} function lines unreached ({elapsed:.1f} s traced)")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
