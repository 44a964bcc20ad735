"""Command-line front end: admissibility queries, plan synthesis and
verification, PL realization, covering-number builds, dimension formulas
and batch enumeration.

Every invocation writes a single JSON document to standard output (the
CSV form of realize aside); -h/--help answers {"help": <usage text>}.  Exit
codes: 0 for success and help, 2 for a definitive negative answer (not
admissible, no plan, verification failed, plan seed outside the catalog, a
plan step that cannot be applied), 1 for malformed input and for a reader
that closes standard output before the document is written (with nothing
on standard error).  Output is deterministic: identical invocations
produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from typing import Iterable, List, Optional

from . import brill_noether, covering4, planner, plsim, topology
from .constructions import (
    Hyperelliptic,
    PreconditionViolated,
    SeedNotInCatalog,
    StepKind,
    Variant,
)
from .topology import CoverSpec


_I, _III, _RAM = StepKind.I, StepKind.III, Variant.WITH_REAL_RAM

# Help text is wrapped at this width whatever the terminal, so that stdout
# does not depend on COLUMNS.
_HELP_WIDTH = 80

# covnum's time, memory and output are linear in g (see the README): a target
# at the cap builds and prints in about 1.1 s and 100 MiB.  The cap is the
# largest g that the earlier caps on s and on g + 1 - s admitted together, so
# it refuses no target they accepted.
_COVNUM_MAX_G = 104_999

# A plan record can ask for any number of steps.  verify and realize take
# time and memory linear in the records and the circles a plan creates, and
# realize O(B log B) in the B breakpoints a planner plan emits: a planner
# plan at the circle cap verifies in about 1 s, one at the breakpoint cap
# realizes and prints in under 1 s.  The breakpoint cap stays at 40,000 for
# hand-written plans: one that alternates folds and wraps grows its
# denominator by up to 3 bits per fold and takes minutes at the cap; past
# about 4,760 fold/wrap pairs its lifts pass Python's digit limit for
# str(), and realize refuses to print it (see the README).
_PLAN_MAX_CIRCLES, _REALIZE_MAX_BREAKPOINTS = 100_000, 40_000

# realize and covnum write their documents in pieces of about this many
# characters, so that no whole document is held as one string.
_PIECE = 1 << 16


class _HelpRequested(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; that code means "definitive
    # negative" here, so route usage problems to exit 1 instead, as every
    # other malformed input is.  argparse catches no ValueError around it.
    def error(self, message):
        raise ValueError(message)

    # -h/--help prints and exits inside parse_args; hand the text to run()
    # instead, which emits it as JSON.  Subparsers are _Parser too.
    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())

    def _get_formatter(self):
        return self.formatter_class(prog=self.prog, width=_HELP_WIDTH)


# Every document is written compactly through this one encoder.
_JSON = json.JSONEncoder(separators=(",", ":"))


def _emit(doc: dict) -> None:
    sys.stdout.write(_JSON.encode(doc))
    sys.stdout.write("\n")


def _write_pieces(chunks: Iterable[str]) -> None:
    """Write the text chunks to stdout, joined into pieces of about _PIECE
    characters."""
    write = sys.stdout.write
    piece, size = [], 0
    for chunk in chunks:
        piece.append(chunk)
        size += len(chunk)
        if size >= _PIECE:
            write("".join(piece))
            piece, size = [], 0
    write("".join(piece))


def _too_large_to_print(what: str, holder: str) -> ValueError:
    digits = f"integer over {sys.get_int_max_str_digits()} digits"
    return ValueError(f"{what}: too large to print; {holder} has an {digits}")


def _load_json(text: str, what: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        reason = exc.msg
    except ValueError:  # the only other one: an integer past Python's digit limit
        reason = f"integer over {sys.get_int_max_str_digits()} digits"
    except RecursionError:
        reason = "nested too deeply"
    raise ValueError(f"{what}: invalid JSON ({reason})")


def _read_file(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{what}: {exc}") from None


def _load_spec(text: str) -> CoverSpec:
    """The spec given inline, or read from the file named after a leading
    @: Linux refuses one command-line argument over 128 KiB, and a spec at
    the circle cap is longer."""
    if text.startswith("@"):
        text = _read_file(text[1:], "spec file")
    return topology.spec_from_json(_load_json(text, "spec"))


def _cmd_admissible(args) -> int:
    spec = _load_spec(args.spec)
    reason = topology.admissibility_failure(spec)
    _emit({"admissible": reason is None, "reason": reason})
    return 0 if reason is None else 2


def _cmd_plan(args) -> int:
    spec = _load_spec(args.spec)
    result = planner.plan(spec)
    if isinstance(result, planner.Infeasible):
        _emit({"infeasible": result.reason})
        return 2
    _emit(planner.plan_to_json(result))
    return 0


def _read_plan_file(path: str, realizing: bool = False) -> planner.Plan:
    """The plan in the file, refused before any replay when it creates more
    circles than _PLAN_MAX_CIRCLES or, when realizing, emits more
    breakpoints than _REALIZE_MAX_BREAKPOINTS: two per seed circle, per
    fold and per new circle, counted from the records."""
    plan_ = planner.plan_from_json(_load_json(_read_file(path, "plan file"), "plan"))
    circles = folds = 0
    for step in plan_.steps:
        if step.variant is _RAM:
            if step.kind is _I:
                folds += step.repeat
            else:
                circles += step.repeat
        elif step.kind is _III:
            circles += step.repeat
    if circles > _PLAN_MAX_CIRCLES:
        raise ValueError(f"plan: too large; a plan creates at most {_PLAN_MAX_CIRCLES} circles")
    if realizing:
        seed = plan_.seed
        seed_circles = len(seed.degrees) if isinstance(seed, Hyperelliptic) else 0
        if 2 * (seed_circles + folds + circles) > _REALIZE_MAX_BREAKPOINTS:
            limit = f"at most {_REALIZE_MAX_BREAKPOINTS} breakpoints"
            raise ValueError(f"plan: too large to realize; realize emits {limit}")
    return plan_


def _cmd_verify(args) -> int:
    plan_ = _read_plan_file(args.plan_file)
    spec = _load_spec(args.spec)
    trail: List[str] = []
    ok = planner.verify_plan(plan_, spec, trail)
    _emit({"verified": ok, "diagnostics": trail})
    return 0 if ok else 2


def _cmd_realize(args) -> int:
    plan_ = _read_plan_file(args.plan_file, realizing=True)
    try:
        cover = plsim.realize(plan_.seed, plan_.steps)
    except SeedNotInCatalog as exc:
        _emit({"rejected": f"seed not in catalog: {exc}"})
        return 2
    except (PreconditionViolated, plsim.BudgetExceeded) as exc:
        _emit({"rejected": str(exc)})
        return 2
    # Nothing is written before fiber_csv or cover_text returns, and their
    # one ValueError is an integer past Python's digit limit for str().
    try:
        if args.format == "csv":
            chunks = [plsim.fiber_csv(cover)]
        else:
            chunks = itertools.chain(plsim.cover_text(cover), ["\n"])
    except ValueError:
        raise _too_large_to_print("plan", "the realization") from None
    _write_pieces(chunks)
    return 0


def _cmd_covnum(args) -> int:
    obj = _load_json(args.target, "target")
    if not isinstance(obj, dict):
        raise ValueError("target: expected a JSON object")
    topology.check_int_fields(obj, "target", ("g", "s", "a", "kcov"))
    try:
        target = covering4.CoveringNumberTarget(
            topology.TopType(obj["g"], obj["s"], obj["a"]), obj["kcov"]
        )
    except covering4.InfeasibleTarget as exc:
        _emit({"infeasible": str(exc)})
        return 2
    if obj["g"] > _COVNUM_MAX_G:
        raise ValueError(f"target: too large to build; covnum takes g <= {_COVNUM_MAX_G}")
    cover, spec = covering4.build_covnum(target)
    number = covering4.covering_number(cover)
    tail = f',"spec":{topology.spec_text(spec)},"covering_number":{number}}}\n'
    _write_pieces(itertools.chain(['{"cover":'], plsim.cover_text(cover), [tail]))
    return 0


def _cmd_enumerate(args) -> int:
    # One array, the same bytes as dumping the whole list at once, written
    # one (k, type) block per write, straight from the walk's parts: no spec
    # becomes a CoverSpec or a dict.  Bad bounds raise at the call, before
    # the "[" is written.
    parts = topology.admissible_parts(args.g_max, args.k_max)
    write = sys.stdout.write
    write("[")
    sep = ""
    for part in parts:
        write(sep + topology.part_text(*part))
        sep = ","
    write("]\n")
    return 0


def _emit_answer(command: str, doc: dict) -> None:
    """_emit for the calculators: their arguments are integers of up to
    Python's digit limit for str(), and their answers can pass it, which is
    the one ValueError that encoding raises."""
    try:
        _emit(doc)
    except ValueError:
        raise _too_large_to_print(command, "the answer") from None


def _cmd_rho(args) -> int:
    value = brill_noether.rho(args.g, args.k, args.r)
    _emit_answer("rho", {"g": args.g, "k": args.k, "r": args.r, "rho": value})
    return 0


def _cmd_dims(args) -> int:
    d = brill_noether.dims(args.g, args.k)
    _emit_answer("dims", {"hurwitz": d.hurwitz, "moduli": d.moduli, "image_bound": d.image_bound})
    return 0


def _cmd_facts(args) -> int:
    _emit({"facts": [brill_noether.fact_to_json(f) for f in brill_noether.facts()]})
    return 0


_SPEC_HELP = "CoverSpec JSON, or @path of a file holding it"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="realcover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each subcommand's own parser, by name

    p = sub.add_parser("admissible", help="decide whether a covering spec is admissible")
    p.add_argument("spec", help=_SPEC_HELP)
    p.set_defaults(func=_cmd_admissible)

    p = sub.add_parser("plan", help="synthesize a construction plan for a spec")
    p.add_argument("spec", help=_SPEC_HELP)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("verify", help="verify a plan file against a spec")
    p.add_argument("plan_file", help="path to a plan JSON file")
    p.add_argument("spec", help=_SPEC_HELP)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("realize", help="realize a plan file as a PL covering")
    p.add_argument("plan_file", help="path to a plan JSON file")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("covnum", help="build a degree-4 covering with given covering number")
    p.add_argument("target", help='JSON {"g":..,"s":..,"a":..,"kcov":..}')
    p.set_defaults(func=_cmd_covnum)

    p = sub.add_parser("enumerate", help="enumerate admissible specs up to bounds")
    p.add_argument("g_max", type=int)
    p.add_argument("k_max", type=int)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("rho", help="expected pencil-space dimension")
    p.add_argument("g", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--r", type=int, default=1)
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("dims", help="morphism-space dimension counts")
    p.add_argument("g", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("facts", help="recorded pencil facts")
    p.set_defaults(func=_cmd_facts)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first request, not at import; parse_args leaves it as it
    # was, so every later request in the process reuses it.
    return build_parser()


def _command_parser(name: str) -> Optional[argparse.ArgumentParser]:
    """The parser of the subcommand called name; None for any other word."""
    return _parser().commands.get(name)


def run(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        # The top-level parser would match argv[0] against the same choices
        # and hand the rest to that subcommand's parser, so parse it there
        # directly.  Only argv that name no command reach the top-level
        # parser: help and usage errors.
        command = _command_parser(argv[0]) if argv else None
        if command is None:
            args = _parser().parse_args(argv)
        else:
            args = command.parse_args(argv[1:])
        return args.func(args)
    except _HelpRequested as exc:
        _emit({"help": str(exc)})
        return 0
    except ValueError as exc:
        _emit({"error": str(exc)})
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does).  Point stdout
        # at devnull, so that the flush at exit does not fail again, and
        # exit 1 with nothing on stderr.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
