"""Source policy of the package.

No runtime check is written as an `assert`: `python -O` strips assert
statements, so a check written that way silently stops guarding anything.
Checks raise a PaleyRipError subclass instead.

numpy is imported, at any level, by exactly three modules: `experiments`,
the home of every numpy routine a command runs, `rng`, whose seeded
`random_subsets` draws many supports at once, and `spectra`, the dense
oracles only the benchmark's oracle job imports.

A module that runs without numpy does not import `dataclasses`, which loads
`inspect` and with it `ast`, `dis` and `tokenize` on every start-up; its
records are NamedTuples.  Of the modules that import numpy, which loads
`inspect` anyway, only `spectra` keeps dataclasses, for `BorderedBlock`;
`experiments` returns plain arrays and needs none.

No module imports `decimal`: every exact question is decided in integers,
and no routine reads or sets the process-wide decimal context.

Every public name has a user: a reference in the package or in the
benchmark's scripts, not only in the tests, unless it is on the short list
of test oracles below.
"""

import ast
from pathlib import Path

import paleyrip

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "paleyrip"

# Public names kept only as oracles of the tests, each with its reason.
TEST_ORACLES = {
    "one_sided_ratio": "the pair search's scalar oracle; acceptance criterion 10 reads it",
}


def test_no_assert_statements_in_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def _imports(nodes) -> set[str]:
    """Top-level package names the import statements among nodes import."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_numpy_free_modules_do_not_import_dataclasses():
    imports = {path.stem: _imports(ast.parse(path.read_text(), filename=str(path)).body)
               for path in sorted(PACKAGE.glob("*.py"))}
    numpy_free = sorted(name for name, found in imports.items() if "numpy" not in found)
    # the split as it stands: the array layers import numpy, the rest do not
    assert {"bounds", "cli", "fit", "frame", "numtheory", "pairs", "rng", "verify"} <= set(numpy_free)
    assert {"experiments", "spectra"}.isdisjoint(numpy_free)
    users = sorted(name for name, found in imports.items() if "dataclasses" in found)
    assert users == ["spectra"], f"modules importing dataclasses: {users}"


def _importers(name: str) -> list[str]:
    """The modules with an import of name anywhere, function bodies included."""
    return sorted(path.stem for path in PACKAGE.rglob("*.py")
                  if name in _imports(ast.walk(ast.parse(path.read_text(), filename=str(path)))))


def test_numpy_is_imported_by_exactly_the_array_modules():
    users = _importers("numpy")
    assert users == ["experiments", "rng", "spectra"], f"modules importing numpy: {users}"


def test_no_module_imports_decimal():
    # exact questions are decided in integers, never under the process-wide decimal context
    users = _importers("decimal")
    assert not users, f"modules importing decimal: {users}"


def _referenced_names(path: Path) -> set[str]:
    """Names a module loads, reads as an attribute or imports, outside a definition of the same name."""
    found = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {alias.name.rpartition(".")[2] for alias in node.names}
        else:
            names = set()
        found.update(names - defining)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return found


def test_every_export_has_a_user_outside_the_tests():
    sources = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "benchmarks").rglob("*.py"))
    used = set().union(*map(_referenced_names, sources))
    exported = {name for names in paleyrip._EXPORTS.values() for name in names}
    assert set(TEST_ORACLES) <= exported, "an allowlisted oracle is no longer exported"
    unused = sorted(exported - used - set(TEST_ORACLES))
    assert not unused, f"exports that no module or benchmark script references: {unused}"
