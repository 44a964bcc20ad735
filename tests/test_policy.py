"""The package runs on the standard library alone and never on floats."""

import ast
import sys
from pathlib import Path

import pytest

import realcover

SOURCES = sorted(Path(realcover.__file__).parent.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"plsim.py", "arcs.py", "cli.py", "__init__.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    imported = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    outside = {name for name in imported if name.split(".")[0] not in sys.stdlib_module_names}
    assert outside == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float(path):
    floats = [
        node.lineno
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float"
    ]
    assert floats == []


def environment_reads(tree):
    """Names of the environment variables a module reads through
    os.environ[...], os.environ.get(...), "..." in os.environ or
    os.getenv(...); "?" stands for a name that is not a string literal."""

    def is_environ(node):
        return isinstance(node, ast.Attribute) and node.attr == "environ" or (
            isinstance(node, ast.Name) and node.id == "environ"
        )

    def name(node):
        return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else "?"

    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_environ(node.value):
            reads.add(name(node.slice))
        elif isinstance(node, ast.Compare) and any(map(is_environ, node.comparators)):
            reads.add(name(node.left))
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            if getattr(func, "attr", getattr(func, "id", None)) == "getenv" or (
                isinstance(func, ast.Attribute) and is_environ(func.value)
            ):
                reads.add(name(node.args[0]))
    return reads


def test_environment_knobs_are_pinned():
    # Each environment variable is a setting every test and benchmark run must
    # cover; a change that adds one names it here.
    reads = set().union(*(environment_reads(parse(path)) for path in SOURCES))
    assert reads == set()


def test_environment_reads_are_found():
    tree = ast.parse(
        "import os\nfrom os import environ, getenv\n"
        "os.environ['A']; os.environ.get('B', '1'); 'C' in os.environ\n"
        "os.getenv('D'); getenv('E'); environ.get(name)\n"
    )
    assert environment_reads(tree) == {"A", "B", "C", "D", "E", "?"}


def constructions_of(tree, name):
    """(enclosing function, line) of every call name(...) or x.name(...) in
    the module; the function is None at module or class level."""

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = child.func
                if getattr(callee, "id", getattr(callee, "attr", None)) == name:
                    yield func, child.lineno
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from walk(child, child.name if is_def else func)

    return list(walk(tree, None))


def test_step_refusals_come_from_the_step_table():
    # The symbolic and the PL interpreter share one step table: a refusal
    # raised anywhere else would be a rule only one of them knows.
    sites = {
        (path.name, func)
        for path in SOURCES
        for func, _ in constructions_of(parse(path), "PreconditionViolated")
    }
    assert sites == {("constructions.py", "_check_step")}


def test_constructions_are_found():
    tree = ast.parse(
        "E(1)\nclass C:\n    def m(self):\n        raise mod.E('a')\n"
        "def f():\n    def g():\n        return E(2)\n    return [E(3) for _ in ()]\n"
    )
    assert constructions_of(tree, "E") == [(None, 1), ("m", 4), ("g", 7), ("f", 8)]


def imported_names(tree, module):
    """{local name: name} of the names the tree imports from the package
    module, as .module or realcover.module."""
    names = {}
    sources = {(1, module), (0, f"realcover.{module}")}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in sources:
            names.update({alias.asname or alias.name: alias.name for alias in node.names})
    return names


def uses(tree, module):
    """Names of the package module that the tree imports from it, as
    .module or realcover.module, or reads as module.name."""
    names = set(imported_names(tree, module).values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == module:
            names.add(node.attr)
    return names


def private_uses(tree, module):
    """The underscore names among uses(tree, module), and as "name._attr"
    every underscore attribute that the tree reads on a name imported from
    the module or on module.name."""
    found = {name for name in uses(tree, module) if name.startswith("_")}
    local = imported_names(tree, module)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in local:
            found.add(f"{local[owner.id]}.{node.attr}")
        elif isinstance(owner, ast.Attribute) and getattr(owner.value, "id", None) == module:
            found.add(f"{owner.attr}.{node.attr}")
    return found


def test_covering4_builds_on_public_plsim_names():
    # The covnum builds write their layouts and hand them to
    # PLMap._unchecked, the one plsim internal they use: their closed forms
    # pass PLMap's refusals by construction.  covering_number hands the
    # maps' image ends to the cover search.  No other plsim or arcs
    # internal is reached.
    tree = parse(next(p for p in SOURCES if p.name == "covering4.py"))
    assert private_uses(tree, "plsim") == {"PLMap._unchecked"}
    assert private_uses(tree, "arcs") == set()


def test_private_uses_are_found():
    tree = ast.parse(
        "from .plsim import PLMap, _Spans\nfrom .arcs import _x\nfrom plsim import _y\n"
        "from realcover.plsim import _z, fiber_csv\n"
        "from . import plsim\nplsim._merge(plsim.PLMap)\n"
    )
    assert private_uses(tree, "plsim") == {"_Spans", "_z", "_merge"}
    assert private_uses(tree, "arcs") == {"_x"}
    assert uses(tree, "plsim") == {"PLMap", "_Spans", "_z", "fiber_csv", "_merge"}
    # Underscore attributes read on imported names, aliased or not, or on
    # module.name, count for the module the name comes from.
    tree = ast.parse(
        "from .plsim import PLMap, cover_to_json as dump\nfrom realcover.arcs import Arc as A\n"
        "from . import plsim\nfrom .topology import TopType\n"
        "PLMap._unchecked(4, [0, 2], 0); dump._cache; A._half; plsim.PLCover._x\n"
        "TopType._y; PLMap.den; plsim._merge\n"
    )
    assert private_uses(tree, "plsim") == {
        "PLMap._unchecked", "cover_to_json._cache", "PLCover._x", "_merge"}
    assert private_uses(tree, "arcs") == {"Arc._half"}
    assert private_uses(tree, "topology") == {"TopType._y"}


def test_oracles_count_fibers_themselves():
    # The Fraction oracles are what the fiber code is checked against; one
    # that called that code, or its internals, would check it against itself.
    tree = parse(Path(__file__).parent / "oracles.py")
    fiber = {
        "critical_values",
        "fiber_profile",
        "fiber_budget_violations",
        "fiber_csv",
        "regular_samples",
    }
    assert uses(tree, "plsim") & fiber == set()
    assert private_uses(tree, "plsim") == set()


VALUE_METHODS = {"__eq__", "__hash__", "__setattr__", "__delattr__"}


def value_methods(tree):
    """(class, name) of every __eq__, __hash__, __setattr__ or __delattr__
    that a class body defines or assigns itself."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [stmt.name]
                elif isinstance(stmt, ast.Assign):
                    names = [getattr(t, "id", None) for t in stmt.targets]
                else:
                    names = []
                found += [(node.name, name) for name in names if name in VALUE_METHODS]
    return found


def test_value_methods_come_from_dataclass():
    # A frozen dataclass writes equality, hashing and immutability from its
    # fields; a class that writes them by hand can drift from its fields.
    found = [(path.name, *hit) for path in SOURCES for hit in value_methods(parse(path))]
    assert found == []


def test_value_methods_are_found():
    tree = ast.parse(
        "class A:\n    def __eq__(self, o): pass\n    __hash__ = None\n"
        "class B:\n    def __setattr__(self, n, v): pass\n    __delattr__ = __setattr__\n"
        "    def __repr__(self): pass\n    x = __eq__ = 1\n"
    )
    assert value_methods(tree) == [
        ("A", "__eq__"),
        ("A", "__hash__"),
        ("B", "__setattr__"),
        ("B", "__delattr__"),
        ("B", "__eq__"),
    ]


def test_planner_reads_no_constructions_internals():
    # The plan reader parses each step with step_from_json, the one place
    # that knows the step fields.
    path = next(p for p in SOURCES if p.name == "planner.py")
    assert private_uses(parse(path), "constructions") == set()


# Public names no CLI command, covnum or benchmark reaches, kept as API: the
# single-step PL interpreter and the symbolic one, the expected pencil
# dimension and the facts lookup.
KEPT_API = {"surgery", "apply_step", "expected_pencil_dim", "lookup_fact"}
BENCHMARK = sorted(
    p for p in (Path(__file__).parent.parent / "perfbench").glob("*.py")
    if p.name != "test_perfbench.py"
)


def public_defs(tree):
    """Names of the module-level public functions and classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {n.name for n in tree.body if isinstance(n, defs) and not n.name.startswith("_")}


def referenced_names(tree):
    """Every name the tree reads as a name or an attribute, or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.rpartition(".")[2] for alias in node.names}
    return names


def uncalled_public_names(modules, callers):
    """The public defs of modules (trees) that no module and no caller
    tree references.  A def is not a reference to itself, so a name that
    only its own module uses is reached through the entry that uses it."""
    seen = set().union(*map(referenced_names, modules + callers))
    return set().union(*map(public_defs, modules)) - seen


def test_benchmark_sources_found():
    assert {p.name for p in BENCHMARK} >= {"run.py", "workloads.py", "spans.py"}


def test_public_names_have_a_caller():
    # Code that only tests, or nothing, reach belongs under tests/.  The
    # exemptions are named in KEPT_API, and the equality keeps that list
    # from going stale.
    modules = [parse(p) for p in SOURCES if p.name != "__init__.py"]
    assert uncalled_public_names(modules, [parse(p) for p in BENCHMARK]) == KEPT_API


def test_uncalled_public_names_are_found():
    modules = [
        ast.parse("def f(): pass\ndef g(): pass\nclass C: pass\ndef _h(): pass\n"
                  "def m(): return E\nclass E: pass\n"),
        ast.parse("from .a import g\ndef unused(): pass\ndef used(): pass\n"),
        ast.parse("import b\nb.used()\n"),
    ]
    callers = [ast.parse("import pkg.C\nm()\n")]
    assert uncalled_public_names(modules, callers) == {"f", "unused"}


def imports_from(tree, module):
    """Whether the tree imports module or names from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == module for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == module:
            return True
    return False


def test_arcs_builds_no_fraction():
    # Arcs keep integer ends; their Fraction views are test helpers.
    assert not imports_from(parse(next(p for p in SOURCES if p.name == "arcs.py")), "fractions")


def test_fraction_imports_are_found():
    assert imports_from(ast.parse("from fractions import Fraction\n"), "fractions")
    assert imports_from(ast.parse("import os, fractions\n"), "fractions")
    tree = ast.parse("from .fractions import x\nimport fractional\n")
    assert not imports_from(tree, "fractions")


ARGPARSE_INTERNALS = {"_subparsers", "_actions", "_group_actions", "_option_string_actions"}


def argparse_internals(tree):
    """(line, name) of every read of an argparse-private attribute, as
    x.name or getattr(x, "name")."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            name = node.args[1].value
        else:
            continue
        if name in ARGPARSE_INTERNALS:
            found.append((node.lineno, name))
    return found


def test_cli_reads_no_argparse_internals():
    # The CLI finds each subcommand's parser through the add_subparsers
    # action it keeps itself; argparse's private state can change between
    # Python versions.
    found = [(path.name, *hit) for path in SOURCES for hit in argparse_internals(parse(path))]
    assert found == []


def test_argparse_internals_are_found():
    tree = ast.parse(
        "p._subparsers._group_actions[0].choices\nfor a in p._actions: pass\n"
        "getattr(p, '_option_string_actions')\np.actions; getattr(p, 'choices')\n"
    )
    assert sorted(argparse_internals(tree)) == [
        (1, "_group_actions"), (1, "_subparsers"), (2, "_actions"), (3, "_option_string_actions")
    ]
