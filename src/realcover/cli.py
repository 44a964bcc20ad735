"""Command-line front end: admissibility queries, plan synthesis and
verification, PL realization, covering-number builds, dimension formulas
and batch enumeration.

Every invocation writes a single JSON document to standard output.  Exit
codes: 0 for success, 2 for a definitive negative answer (not admissible,
no plan, verification failed, plan seed outside the catalog), 1 for
malformed input.  Output is deterministic: identical invocations produce
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import brill_noether, covering4, planner, plsim, topology
from .constructions import SeedNotInCatalog
from .topology import CoverSpec


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; that code means "definitive
    # negative" here, so route usage problems to exit 1 instead.
    def error(self, message):
        raise _UsageError(message)


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, separators=(",", ":")))
    sys.stdout.write("\n")


def _load_json(text: str, what: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what}: invalid JSON ({exc.msg})") from None


def _load_spec(text: str) -> CoverSpec:
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


def _read_plan_file(path: str) -> planner.Plan:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"plan file: {exc}") from None
    return planner.plan_from_json(_load_json(text, "plan"))


def _cmd_verify(args) -> int:
    plan_ = _read_plan_file(args.plan_file)
    spec = _load_spec(args.spec)
    trail: List[str] = []
    ok = planner.verify_plan(plan_, spec, trail)
    _emit({"verified": ok, "diagnostics": trail})
    return 0 if ok else 2


def _cmd_realize(args) -> int:
    plan_ = _read_plan_file(args.plan_file)
    try:
        cover = plsim.realize(plan_.seed, plan_.steps)
    except SeedNotInCatalog as exc:
        _emit({"rejected": f"seed not in catalog: {exc}"})
        return 2
    if args.format == "csv":
        sys.stdout.write("x,fiber_count\n")
        for x in plsim.regular_samples(cover):
            sys.stdout.write(
                f"{x.numerator}/{x.denominator},{plsim.fiber_count(cover, x)}\n"
            )
        return 0
    _emit(plsim.cover_to_json(cover))
    return 0


def _cmd_covnum(args) -> int:
    obj = _load_json(args.target, "target")
    if not isinstance(obj, dict):
        raise ValueError("target: expected a JSON object")
    for field in ("g", "s", "a", "kcov"):
        if field not in obj:
            raise ValueError(f"target.{field}: missing")
        if not isinstance(obj[field], int) or isinstance(obj[field], bool):
            raise ValueError(f"target.{field}: expected an integer")
    try:
        target = covering4.CoveringNumberTarget(
            topology.TopType(obj["g"], obj["s"], obj["a"]), obj["kcov"]
        )
    except covering4.InfeasibleTarget as exc:
        _emit({"infeasible": str(exc)})
        return 2
    cover, spec = covering4.build_covnum(target)
    _emit(
        {
            "cover": plsim.cover_to_json(cover),
            "spec": topology.spec_to_json(spec),
            "covering_number": covering4.covering_number(cover),
        }
    )
    return 0


def _enum_block(args_tuple) -> List[dict]:
    g, k_max = args_tuple
    return [topology.spec_to_json(s) for s in topology.enumerate_admissible_genus(g, k_max)]


def _cmd_enumerate(args) -> int:
    if args.g_max < 0 or args.k_max < 2:
        raise ValueError("enumerate: need g_max >= 0 and k_max >= 2")
    workers = int(os.environ.get("REALCOVER_SCAN_WORKERS", "1"))
    gs = list(range(args.g_max + 1))
    if workers > 1 and len(gs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_enum_block, [(g, args.k_max) for g in gs]))
    else:
        blocks = [_enum_block((g, args.k_max)) for g in gs]
    out: List[dict] = []
    for block in blocks:
        out.extend(block)
    sys.stdout.write(json.dumps(out, separators=(",", ":")))
    sys.stdout.write("\n")
    return 0


def _cmd_rho(args) -> int:
    value = brill_noether.rho(args.g, args.k, args.r)
    _emit({"g": args.g, "k": args.k, "r": args.r, "rho": value})
    return 0


def _cmd_dims(args) -> int:
    d = brill_noether.dims(args.g, args.k)
    _emit({"hurwitz": d.hurwitz, "moduli": d.moduli, "image_bound": d.image_bound})
    return 0


def _cmd_facts(args) -> int:
    _emit({"facts": [brill_noether.fact_to_json(f) for f in brill_noether.facts()]})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="realcover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("admissible", help="decide whether a covering spec is admissible")
    p.add_argument("spec", help="CoverSpec JSON")
    p.set_defaults(func=_cmd_admissible)

    p = sub.add_parser("plan", help="synthesize a construction plan for a spec")
    p.add_argument("spec", help="CoverSpec JSON")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("verify", help="verify a plan file against a spec")
    p.add_argument("plan_file", help="path to a plan JSON file")
    p.add_argument("spec", help="CoverSpec JSON")
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


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        _emit({"error": str(exc)})
        return 1
    except ValueError as exc:
        _emit({"error": str(exc)})
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
