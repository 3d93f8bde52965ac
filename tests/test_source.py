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


def defaults(node, method):
    """(name, positional index or None) of each parameter of the function
    node that has a default; a method's index leaves out its first
    parameter, which a call through an attribute does not pass."""
    args = node.args
    positional = [*args.posonlyargs, *args.args][1 if method else 0:]
    for i, arg in enumerate(positional):
        if i >= len(positional) - len(args.defaults):
            yield arg.arg, i
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def omitted(call):
    """The test a call makes of a parameter (name, positional index or
    None): true when the call leaves it to its default. A call with
    *args passes only its plain positionals; a keyword passes its
    parameter."""
    plain = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                 len(call.args))
    named = {k.arg for k in call.keywords}
    return lambda name, i: name not in named and (i is None or i >= plain)


def test_every_private_default_is_used():
    # A default that every call overrides is a dead option: the code
    # reads as if some caller relied on it. Calls match by name, through
    # a bare name or an attribute.
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    calls = {}  # name -> the omitted test of each call
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                f = n.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(omitted(n))
    checked, dead = 0, []
    for tree in trees:
        for name, method, node in definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for param, i in defaults(node, method):
                checked += 1
                if not any(leaves(param, i) for leaves in calls.get(name, ())):
                    dead.append(f"{name}({param}) at line {node.lineno}")
    assert checked > 5, checked
    assert not dead, dead
