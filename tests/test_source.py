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



# Public callables that only the tests read, each with the oracle or pinned
# test it serves.  Anything else with no reader in the package is deleted or
# moved into the test that reads it, so never add an entry without a reason.
TEST_ONLY_EXPORTS = {
    "fqarith.py:Poly.serialize": "the SHA-256 pin of the (3,1) orbit coordinates",
    "fqarith.py:poly_xgcd": "the _line_basis oracle of the line walk behind T(d_P, d_Q)",
    "fqarith.py:squarefree_decompose": "degree2_orbits, the explicit-orbit route to the degree-2 count",
    "quadfield.py:canonicalize_quadratic": "degree2_orbits, the explicit-orbit route to the degree-2 count",
    "quadfield.py:height_degree2": "the key height, the check on each explicit orbit's height",
    "ratpoints.py:ProjPointFqt.serialize": "the point-order oracle of enumerate_exact_height",
    "ratpoints.py:enumerate_exact_height": "the points count_exact_height counts, the second route to it",
}


def test_test_only_exports_have_reasons():
    assert len(TEST_ONLY_EXPORTS) == 7
    assert all(reason.strip() for reason in TEST_ONLY_EXPORTS.values())


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
    assert sorted(test_only) == sorted(TEST_ONLY_EXPORTS)


# Defaulted parameters that no call in the package passes, each with the
# reason it stays.  Any other such parameter is an option that only the
# tests set: delete it, or give it a caller in the package.
UNPASSED_DEFAULTS = {
    "cli.py:dispatch(out)": "tests substitute a StringIO for sys.stdout to read a table",
}


def _defaulted_params(tree):
    """(label, callee, index, name) of each defaulted parameter of a
    top-level function or of a method of a top-level class: the name a call
    spells (the class's, for __init__) and the parameter's positional index
    at such a call, self or cls left out (None for keyword-only)."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for top in tree.body:
        if isinstance(top, funcs):
            defs = [(top.name, top.name, top, 0)]
        elif isinstance(top, ast.ClassDef):
            defs = [
                (
                    f"{top.name}.{item.name}",
                    top.name if item.name == "__init__" else item.name,
                    item,
                    0 if any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list) else 1,
                )
                for item in top.body
                if isinstance(item, funcs)
            ]
        else:
            continue
        for label, callee, func, bound in defs:
            args = func.args
            positional = args.posonlyargs + args.args
            for index in range(len(positional) - len(args.defaults), len(positional)):
                yield label, callee, index - bound, positional[index].arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield label, callee, None, arg.arg


def _passes(call, index, name) -> bool:
    """Whether call passes the parameter at positional index (None for
    keyword-only) named name, by position, keyword, *args or **kwargs."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return index is not None and (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_passed():
    """Every parameter with a default, of a package function or method, is
    passed at some call in the package, calls matched by the name they
    spell, so an option that only the tests set does not linger."""
    package = _parse(SRC)
    calls = {}
    for tree in package.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    params = [
        (f"{module}:{label}({name})", callee, index, name)
        for module, tree in sorted(package.items())
        for label, callee, index, name in _defaulted_params(tree)
    ]
    assert params
    unpassed = [
        entry
        for entry, callee, index, name in params
        if not any(_passes(call, index, name) for call in calls.get(callee, ()))
    ]
    assert sorted(unpassed) == sorted(UNPASSED_DEFAULTS)
    assert all(reason.strip() for reason in UNPASSED_DEFAULTS.values())


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
