"""Checks on the package source itself, made with `ast` alone, and on the
CLI's flag and command tables and the README's account of them."""

import ast
import re
from pathlib import Path

from hilbcount import cli

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hilbcount"


def _parse(directory):
    """{file name: module tree} of the Python files in directory."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in directory.glob("*.py")}


FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
# where the walk over the package starts, besides the runners in cli._COMMANDS
ROOTS = ("dispatch", "main")


def _is_dunder(name) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(trees):
    """(by_name, by_attr, labels) of the modules in trees: by_name maps a name
    to the top-level functions, classes and assignments that bind it,
    by_attr to those and to the named (non-dunder) methods of the top-level
    classes, and labels maps each function, class and named method to
    "module:name" or "module:Class.name"."""
    by_name, by_attr, labels = {}, {}, {}
    for module, tree in sorted(trees.items()):
        for top in tree.body:
            if isinstance(top, (*FUNCS, ast.ClassDef)):
                by_name.setdefault(top.name, []).append(top)
                labels[top] = f"{module}:{top.name}"
                for item in top.body if isinstance(top, ast.ClassDef) else ():
                    if isinstance(item, FUNCS) and not _is_dunder(item.name):
                        by_attr.setdefault(item.name, []).append(item)
                        labels[item] = f"{module}:{top.name}.{item.name}"
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                for target in top.targets if isinstance(top, ast.Assign) else [top.target]:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            by_name.setdefault(node.id, []).append(top)
    for name, tops in by_name.items():
        by_attr.setdefault(name, []).extend(tops)
    return by_name, by_attr, labels


def _reads(node):
    """(is_attribute, name) for each name node reads: False for a variable
    or an imported name, True for an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield False, sub.id
        elif isinstance(sub, ast.alias):
            yield False, sub.name
        elif isinstance(sub, ast.Attribute):
            yield True, sub.attr


def _parts(node):
    """What a reached definition reads: all of a function or an assignment;
    of a class its bases, decorators, fields and dunder methods, which come
    with the class, but not its named methods, each reached on its own.
    Dunder methods are not checked one by one: one that nothing calls is
    still counted as reached with its class."""
    if not isinstance(node, ast.ClassDef):
        yield node
        return
    yield from node.bases
    yield from node.keywords
    yield from node.decorator_list
    for item in node.body:
        if not isinstance(item, FUNCS) or _is_dunder(item.name):
            yield item


def _walk(trees, roots):
    """(reached, defined): the labels (see _definitions) of the functions,
    classes and named methods of trees that a walk over name references
    reaches from the names roots, and of all of them.  A name is read as
    every definition that spells it: a variable or an import reaches the
    top-level definitions of that name, an attribute those and the named
    methods of that name too."""
    by_name, by_attr, labels = _definitions(trees)
    todo = [top for name in roots for top in by_name.get(name, ())]
    seen = set()
    while todo:
        node = todo.pop()
        if node in seen:
            continue
        seen.add(node)
        for part in _parts(node):
            for attr, name in _reads(part):
                todo += (by_attr if attr else by_name).get(name, ())
    return {labels[node] for node in seen if node in labels}, set(labels.values())


def _read_by_tests():
    """Every name the test modules read, as a variable, an import or an
    attribute."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in TESTS.glob("test_*.py")]
    return {name for tree in trees for _attr, name in _reads(tree)}


# Functions, classes and methods of the package that only the tests read,
# each with the oracle or pinned test it serves.  Anything else the CLI
# never reaches is deleted or moved into tests/oracles.py, so never add an
# entry without a reason.
TEST_ONLY_EXPORTS = {}


def test_test_only_exports_have_reasons():
    assert len(TEST_ONLY_EXPORTS) <= 3
    assert all(reason.strip() for reason in TEST_ONLY_EXPORTS.values())


def test_test_only_exports_are_listed():
    """Every function, class and named method of the package is reached by
    a walk over its name references from the command runners, dispatch and
    main, or is listed in TEST_ONLY_EXPORTS and read by a test;
    so code that only the tests or other unreached code read fails here,
    and so does a listed entry that gains a reader or loses its last one."""
    roots = ROOTS + tuple(command[0].__name__ for command in cli._COMMANDS.values())
    reached, defined = _walk(_parse(SRC), roots)
    assert reached
    assert sorted(defined - reached) == sorted(TEST_ONLY_EXPORTS)
    read = _read_by_tests()
    assert [label for label in TEST_ONLY_EXPORTS if label.split(":")[1].split(".")[-1] not in read] == []


def _names_used(top):
    """Names a top-level statement reads, as a variable, an attribute or an
    import, leaving out a function's or a class's references to itself."""
    own = top.name if isinstance(top, (*FUNCS, ast.ClassDef)) else None
    return (name for _attr, name in _reads(top) if name != own)


def _statements(tree):
    """Top-level statements, with each class body opened up so that every
    method counts as a statement of its own."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            yield from top.body
        else:
            yield top


def test_every_private_helper_is_used():
    """Every top-level `def _name` in the package is used somewhere else in
    the package, so helpers that nothing calls do not pile up."""
    trees = _parse(SRC)
    used = {name for tree in trees.values() for top in tree.body for name in _names_used(top)}
    private = [
        f"{module}:{top.name}"
        for module, tree in sorted(trees.items())
        for top in tree.body
        if isinstance(top, FUNCS) and top.name.startswith("_") and not top.name.startswith("__")
    ]
    assert private
    assert [entry for entry in private if entry.split(":")[1] not in used] == []


def test_every_public_callable_is_used():
    """Every public top-level function and non-dunder method in the package
    is referenced somewhere in the package or the tests, other than by
    itself, so public code that nothing calls does not pile up either."""
    package = _parse(SRC)
    used = {
        name
        for tree in [*package.values(), *_parse(TESTS).values()]
        for top in _statements(tree)
        for name in _names_used(top)
    }
    callables = [
        (f"{module}:{top.name}", top.name)
        for module, tree in sorted(package.items())
        for top in tree.body
        if isinstance(top, FUNCS) and not top.name.startswith("_")
    ] + [
        (f"{module}:{top.name}.{item.name}", item.name)
        for module, tree in sorted(package.items())
        for top in tree.body
        if isinstance(top, ast.ClassDef)
        for item in top.body
        if isinstance(item, FUNCS) and not item.name.startswith("__")
    ]
    assert callables
    assert [entry for entry, name in callables if name not in used] == []


def test_every_class_is_used():
    """Every top-level class in the package is referenced somewhere in the
    package or the tests outside its own definition, so a record whose last
    reader is gone does not linger."""
    package = _parse(SRC)
    used = {
        name
        for tree in [*package.values(), *_parse(TESTS).values()]
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


def test_every_oracle_is_read_by_a_test():
    """Every top-level function and class of tests/oracles.py is reached by
    the same walk from the names the test modules read, so code moved out of
    the package does not turn into dead test code."""
    tree = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    reached, _defined = _walk({"oracles.py": tree}, _read_by_tests())
    tops = [f"oracles.py:{top.name}" for top in tree.body if isinstance(top, (*FUNCS, ast.ClassDef))]
    assert tops
    assert [label for label in tops if label not in reached] == []


def test_no_package_module_imports_from_the_tests():
    """The package runs without the tests: no module of it imports tests or
    one of the modules in it, oracles included."""
    test_side = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    imported = [
        f"{module}:{name}"
        for module, tree in sorted(_parse(SRC).items())
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names]
            if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else []
        )
        if name.split(".")[0] in test_side
    ]
    assert imported == []


def _importing(package) -> list:
    """The package modules that import package, at top level or inside a
    function."""
    return sorted(
        module
        for module, tree in _parse(SRC).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == package for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == package
    )


def test_no_package_module_imports_argparse():
    """cli._parse reads, explains and refuses every argv from the command
    and flag tables, so no module of the package imports argparse;
    tests/oracles.py builds the argparse parser that the table parser is
    checked against."""
    assert _importing("argparse") == []


def test_no_package_module_imports_json():
    """Every table is printed and cached as CSV text, so no module of the
    package imports json; and no flag spec has `choices`, since the table
    parser checks only a value's type."""
    assert _importing("json") == []
    assert [dest for dest, spec in cli._FLAGS.items() if "choices" in spec] == []


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
    `cli._COMMANDS`, so a flag that no command parses cannot linger, and
    every flag takes a value: no entry has an `action`, which is what lets
    the table parser read each value one way."""
    used = set(cli._COMMON).union(*(flags for _run, flags, _defaults in cli._COMMANDS.values()))
    assert sorted(set(cli._FLAGS) - used) == []
    assert [dest for dest, spec in cli._FLAGS.items() if "action" in spec] == []


# The only code outside fqarith that names F_q itself: the count that does
# arithmetic in F_q[t] and builds its field past its own guard, and the
# sieve it passes that field to.  Everything else reads q alone and takes it
# as an int.
FIELD_USERS = ("ratpoints.py:count_exact_height", "ratpoints.py:divisor_masks")


def test_only_the_rational_count_names_a_field():
    """Outside fqarith, only FIELD_USERS name FqField or field_from_order,
    imports aside (test_every_import_is_used keeps each import read), so a
    function that reads only q does not take a field again."""
    naming = [
        f"{module}:{getattr(top, 'name', top.lineno)}"
        for module, tree in sorted(_parse(SRC).items())
        if module != "fqarith.py"
        for top in tree.body
        if not isinstance(top, (ast.Import, ast.ImportFrom))
        and {"FqField", "field_from_order"} & {name for _attr, name in _reads(top)}
    ]
    assert sorted(naming) == sorted(FIELD_USERS)


# The polynomial type, the irreducible listing and the field inverse and
# power that live in tests/oracles.py, where the package is checked
# against them.
ORACLE_ONLY = {"Poly", "all_polys", "irreducibles_of_degree", "is_irreducible", "_IRRED_CACHE", "field_inv", "field_pow"}


def test_the_count_builds_no_poly():
    """No package module defines or names ORACLE_ONLY: polynomials are the
    coefficient lists that fqarith.convolve and fqarith.poly_rem take, in
    the divisor sieve and in F_{p^k} alike, and only the tests build a Poly."""
    naming = sorted(
        f"{module}:{name}"
        for module, tree in _parse(SRC).items()
        for name in {node.name for node in ast.walk(tree) if isinstance(node, (*FUNCS, ast.ClassDef))}
        | {name for _attr, name in _reads(tree)}
        if name in ORACLE_ONLY
    )
    assert naming == []


# a flag in backticks, then its default in parentheses if it has one
_README_FLAG = r"`--([\w-]+)[^`]*`(?: \((?:default )?`?([^`)]*)`?\))?"


def _table_flags(dests, defaults):
    """(name, default or "") of each flag of dests, as _README_FLAG reads it."""
    out = []
    for dest in dests:
        default = defaults.get(dest, cli._FLAGS[dest].get("default"))
        out.append((dest.replace("_", "-"), "" if default is None else str(default)))
    return out


def test_readme_names_the_flag_tables():
    """The README's common-flags sentence names `cli._COMMON`, and its
    command table each `cli._COMMANDS` entry's own flags, in table order
    with their defaults, so the docs cannot drift from the tables."""
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    common = readme.split("Flags common to all commands:", 1)[1].split(".", 1)[0]
    assert re.findall(_README_FLAG, common) == _table_flags(cli._COMMON, {})
    rows = dict(re.findall(r"^\| `([^`]+)` \| (.*) \|$", readme, flags=re.M))
    assert list(rows) == [" ".join(key) for key in cli._COMMANDS]
    for (command, cell), (_run, flags, defaults) in zip(rows.items(), cli._COMMANDS.values()):
        assert re.findall(_README_FLAG, cell) == _table_flags(flags, defaults), command
