"""Checks on the package source itself, made with `ast` alone, and on the
CLI's flag and command tables."""

import ast
from pathlib import Path

from hilbcount import cli

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hilbcount"


def _parse(directory):
    """{file name: module tree} of the Python files in directory."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in directory.glob("*.py")}


def _names_used(top):
    """Names a top-level statement reads, as a variable, an attribute or an
    import, leaving out a function's or a class's references to itself."""
    own = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
    for node in ast.walk(top):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name != own:
            yield name


def test_every_private_helper_is_used():
    """Every top-level `def _name` in the package is used somewhere else in
    the package, so helpers that nothing calls do not pile up."""
    trees = _parse(SRC)
    used = {name for tree in trees.values() for top in tree.body for name in _names_used(top)}
    private = [
        f"{module}:{top.name}"
        for module, tree in sorted(trees.items())
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
        and top.name.startswith("_")
        and not top.name.startswith("__")
    ]
    assert private
    assert [entry for entry in private if entry.split(":")[1] not in used] == []


def _statements(tree):
    """Top-level statements, with each class body opened up so that every
    method counts as a statement of its own."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            yield from top.body
        else:
            yield top


def _public_callables(tree):
    """(label, name) of each public top-level function and each non-dunder
    method of a top-level class."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for top in tree.body:
        if isinstance(top, funcs) and not top.name.startswith("_"):
            yield top.name, top.name
        elif isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, funcs) and not item.name.startswith("__"):
                    yield f"{top.name}.{item.name}", item.name


def test_every_public_callable_is_used():
    """Every public top-level function and non-dunder method in the package
    is referenced somewhere in the package or the tests, other than by
    itself, so public code that nothing calls does not pile up either."""
    package = _parse(SRC)
    tests = list(_parse(TESTS).values())
    used = {
        name
        for tree in [*package.values(), *tests]
        for top in _statements(tree)
        for name in _names_used(top)
    }
    callables = [
        (f"{module}:{label}", name)
        for module, tree in sorted(package.items())
        for label, name in _public_callables(tree)
    ]
    assert callables
    assert [entry for entry, name in callables if name not in used] == []



# Public callables that only the tests read: the debt left to pay by giving
# each a reader in the package, moving it into the test that reads it, or
# deleting it.  Shorten this list as each goes; never lengthen it.
TEST_ONLY_EXPORTS = [
    "asympt.py:manin_main_term",
    "asympt.py:symm_main_terms",
    "fqarith.py:Poly.serialize",
    "fqarith.py:poly_xgcd",
    "fqarith.py:squarefree_decompose",
    "quadfield.py:canonicalize_quadratic",  # oracle: the explicit-orbit route
    "quadfield.py:height_degree2",
    "quadfield.py:hilb2_split_counts",
    "quadfield.py:product_formula_defect",
    "ratpoints.py:ProjPointFqt.serialize",
    "ratpoints.py:enumerate_exact_height",  # oracle: the points count_exact_height counts
]


def test_test_only_exports_are_listed():
    """The public callables with no reader in the package, other than
    themselves, are exactly TEST_ONLY_EXPORTS, so a new export that only the
    tests call fails here, and so does a listed one that gains a reader or
    goes without its entry going too."""
    package = _parse(SRC)
    used = {name for tree in package.values() for top in _statements(tree) for name in _names_used(top)}
    test_only = [
        f"{module}:{label}"
        for module, tree in sorted(package.items())
        for label, name in _public_callables(tree)
        if name not in used
    ]
    assert sorted(test_only) == TEST_ONLY_EXPORTS


def test_every_class_is_used():
    """Every top-level class in the package is referenced somewhere in the
    package or the tests outside its own definition, so a record whose last
    reader is gone does not linger."""
    package = _parse(SRC)
    tests = list(_parse(TESTS).values())
    used = {
        name
        for tree in [*package.values(), *tests]
        for top in tree.body
        for name in _names_used(top)
    }
    classes = [
        f"{module}:{top.name}"
        for module, tree in sorted(package.items())
        for top in tree.body
        if isinstance(top, ast.ClassDef)
    ]
    assert classes
    assert [entry for entry in classes if entry.split(":")[1] not in used] == []


def test_every_import_is_used():
    """Every name a package module imports at top level, other than a
    `__future__` feature, is read somewhere in that module, so an import
    whose last reader is gone does not linger."""
    imported, unused = [], []
    for module, tree in sorted(_parse(SRC).items()):
        names = [
            alias.asname or alias.name.split(".")[0]
            for top in tree.body
            if isinstance(top, ast.Import) or (isinstance(top, ast.ImportFrom) and top.module != "__future__")
            for alias in top.names
        ]
        read = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        imported += names
        unused += [f"{module}:{name}" for name in names if name not in read]
    assert imported
    assert unused == []


def test_every_flag_is_used_by_a_command():
    """Every `cli._FLAGS` entry is a common flag or a flag of some command in
    `cli._COMMANDS`, so a flag that no command parses cannot linger."""
    used = set(cli._COMMON).union(*(flags for _run, flags, _defaults, _plot in cli._COMMANDS.values()))
    assert sorted(set(cli._FLAGS) - used) == []
