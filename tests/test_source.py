"""Rules that every line of the package source keeps.

It never depends on Python's -O flag.  -O strips `assert` statements
and the code under `if __debug__:`.  The package raises explicit errors
instead of asserting, so with neither in its source, -O cannot change
what it does.

It turns a value into a Fraction through one parser.  Fraction(x) of
a decimal string builds its power of ten in full, so a one-value
Fraction call anywhere but cartan._breakpoint, which bounds that power,
could bring the unbounded parse back.

Its engines stay independent.  The piecewise-linear engine in paths.py
is the semantics the closed forms in explicit.py are checked against, so
neither may compute with the other, and the modules both build on may
use neither.  The oracle's definitions, the ground truth both engines
are checked against, compute with neither engine.

These tests read every line of every module, including the lines no
test happens to run.
"""

import ast
from pathlib import Path

import lscrystal

MODULES = sorted(Path(lscrystal.__file__).parent.glob("*.py"))


def test_package_has_no_assert_and_no_debug_flag():
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert "oracle.py" in {path.name for path in MODULES}
    assert found == []


def _is_literal(node: ast.expr) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def _bare_fractions(node: ast.AST) -> list[int]:
    """Lines of the one-argument Fraction calls under node whose
    argument is not a literal."""
    lines = []
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            arguments = [*call.args, *[k.value for k in call.keywords]]
            if name == "Fraction" and len(arguments) == 1 and not _is_literal(arguments[0]):
                lines.append(call.lineno)
    return lines


def test_only_the_breakpoint_parser_calls_fraction_on_one_value():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = _bare_fractions(tree)
        if path.name == "cartan.py":
            (parser,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_breakpoint"]
            inside = _bare_fractions(parser)
            assert inside != []  # the scan sees the parser's own call
            lines = [n for n in lines if n not in inside]
        found += [f"{path.name}:{n}" for n in lines]
    assert found == []


def _package_imports(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every name path imports from a module of the
    package, at any depth of its code; a whole module is (module, "*")."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found |= {(a.name.split(".", 1)[1], "*") for a in node.names if a.name.startswith("lscrystal.")}
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "lscrystal"):
            module = (node.module or "").removeprefix("lscrystal").lstrip(".")
            # `from . import explicit` names modules
            found |= {(module, a.name) if module else (a.name, "*") for a in node.names}
    return found


def test_the_engines_import_each_other_only_as_value_classes():
    imports = {path.stem: _package_imports(path) for path in MODULES}
    sources = {module: {m for m, _ in found} for module, found in imports.items()}
    assert not sources["paths"] & {"explicit", "oracle"}
    # the closed forms hand their results across as LSPath and read no
    # weight off the orbit
    assert {name for m, name in imports["explicit"] if m == "paths"} == {"LSPath"}
    assert "oracle" not in sources["explicit"]
    assert ("weyl", "orbit_weight") not in imports["explicit"]
    for base in ("cartan", "weyl"):
        assert not sources[base] & {"paths", "explicit", "oracle"}
    # the scan sees the imports the modules do make
    assert ("weyl", "orbit_weight") in imports["paths"]
    assert ("explicit", "fe_explicit") in imports["oracle"]


ORACLE_DEFINITIONS = ("dist", "sigma_chain_lengths", "sigma_chain_exists", "is_ls_path_oracle", "enumerate_ls_paths")


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_the_oracle_definitions_compute_with_neither_engine():
    path = Path(lscrystal.__file__).parent / "oracle.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    # LSPath is the value class the enumeration hands its paths back in
    engines = {name for m, name in _package_imports(path) if m in ("explicit", "paths")} - {"LSPath"}
    reached, todo = set(), list(ORACLE_DEFINITIONS)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += _names(functions[name]) & functions.keys()
    found = sorted(f"{name}: {n}" for name in reached for n in _names(functions[name]) & engines)
    assert found == []
    # the walk follows the calls and sees the engine names oracle.py imports
    assert {"_down_steps", "_sigma_chain_cached", "_numerators"} <= reached
    assert {"fe_explicit", "fe_generic", "to_ls_path"} <= engines
