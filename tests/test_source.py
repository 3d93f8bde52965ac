"""Checks on the package's source text: no private name is left behind
unused."""

import ast
from pathlib import Path

import zvsearch

PACKAGE = Path(zvsearch.__file__).resolve().parent


def private(name):
    return name.startswith("_") and not name.startswith("__")


def definitions(tree):
    """(name, is a method, node) of every private top-level function and
    class, of every private method of a top-level class and of every
    method of a private class, dunder methods aside."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and private(top.name):
            yield top.name, False, top
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, ast.FunctionDef) and (
                    private(item.name)
                    or private(top.name) and not item.name.startswith("__")
                ):
                    yield item.name, True, item


def references(tree):
    """(name, is an attribute, line) of every use of a name: a bare name,
    an attribute or an imported name. A docstring is a string, so it
    names nothing."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id, False, n.lineno
        elif isinstance(n, ast.Attribute):
            yield n.attr, True, n.lineno
        elif isinstance(n, ast.alias):
            yield n.name, False, n.lineno


def test_every_private_definition_is_used():
    # A method is used through an attribute, so a local variable of the
    # same name does not count for it; nor does a use inside the
    # definition itself, a recursion.
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = {}  # name -> (is an attribute, file, line) of each use
    for path, tree in trees.items():
        for name, attr, line in references(tree):
            used.setdefault(name, []).append((attr, path, line))
    defined = [
        (name, method, path, node)
        for path, tree in trees.items()
        for name, method, node in definitions(tree)
    ]
    assert len(defined) > 50
    unused = [
        f"{path.name}:{node.lineno} {name}"
        for name, method, path, node in defined
        if not any(
            (attr or not method)
            and (p != path or not node.lineno <= line <= node.end_lineno)
            for attr, p, line in used.get(name, ())
        )
    ]
    assert not unused, unused
