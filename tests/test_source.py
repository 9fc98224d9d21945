"""Checks on the package source itself, made with `ast` alone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hilbcount"


def _names_used(top):
    """Names a top-level statement reads, as a variable, an attribute or an
    import, leaving out a function's references to itself."""
    own = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
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
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
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
