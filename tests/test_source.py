"""Checks on the package's source text: no private name or default is
left behind unused, no parameter goes unread, and no function recurses
but where its depth is bounded."""

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


def functions(tree):
    """(qualified name, is a method, node) of every function in tree,
    nested ones too; a class's name qualifies its methods."""
    stack = [(tree, "", False)]
    while stack:
        parent, prefix, in_class = stack.pop()
        for n in ast.iter_child_nodes(parent):
            if isinstance(n, ast.FunctionDef):
                yield prefix + n.name, in_class, n
                stack.append((n, f"{prefix}{n.name}.", False))
            elif isinstance(n, ast.ClassDef):
                stack.append((n, f"{prefix}{n.name}.", True))
            else:
                stack.append((n, prefix, in_class))


# Functions and classes whose methods may call themselves, as recursion
# that a valid input cannot drive past the interpreter's limit.
BOUNDED_RECURSION = {
    "solver.inspection_number": "one level per connected component",
    "synth._Walk": "the plan stops at the host cap before it descends: "
                   "a parallel core's first demand is 2^(d-1) r on each of its d edges",
}


def test_no_function_calls_itself():
    # Decomposition trees nest as deep as a graph is long or wide, so
    # walks over them keep explicit stacks. A module-level function
    # calls itself by its bare name, a method through its first
    # parameter; nested helpers are left out (_brute_f1's `place` nests
    # six levels, one per edge of a K_4).
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, method, node in functions(ast.parse(path.read_text())):
            if name.count(".") > int(method):
                continue
            me = node.args.args[0].arg if method else None
            for n in ast.walk(node):
                f = getattr(n, "func", None)
                if (isinstance(f, ast.Name) and not method and f.id == node.name
                        or isinstance(f, ast.Attribute) and f.attr == node.name
                        and isinstance(f.value, ast.Name) and f.value.id == me):
                    found.add(f"{path.stem}.{name}")
    owner = {q: next((e for e in BOUNDED_RECURSION if q == e or q.startswith(e + ".")), None)
             for q in found}
    assert all(owner.values()), sorted(q for q, e in owner.items() if e is None)
    # an exemption that nothing uses any more is stale
    assert set(owner.values()) == set(BOUNDED_RECURSION), owner


def test_every_parameter_is_read():
    # A parameter the body never reads is a dead input that every
    # caller still has to pass. A method's first parameter, its instance
    # or class, is left out.
    checked, unread = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, method, node in functions(ast.parse(path.read_text())):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            read = {
                n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            for p in params[int(method and not static):]:
                if p is not None:
                    checked += 1
                    if p.arg not in read:
                        unread.append(f"{path.name}:{node.lineno} {name}({p.arg})")
    assert checked > 500, checked
    assert not unread, unread
