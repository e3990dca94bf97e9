"""No unused knobs: every defaulted parameter of a private function in
src/degree_lab is passed, by position or by keyword, by some call inside
the package.

A private function (one leading underscore) has no callers outside the
package, so a default that no call overrides is a constant written as a
parameter.  Calls are matched by the function's name, as a plain name or
an attribute, over the scope of test_dead_code.py: references from tests
do not count.  A call that unpacks *args or **kwargs may pass anything.
"""
import ast

from test_dead_code import PACKAGE, parse


def private_functions(tree: ast.Module):
    """(function, whether it is a method) for every def named _x, not
    __x, at any depth."""
    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if (child.name.startswith("_")
                        and not child.name.startswith("__")):
                    yield child, in_class
                yield from visit(child, False)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, True)
            else:
                yield from visit(child, in_class)

    yield from visit(tree, False)


def defaulted(func: ast.FunctionDef, method: bool):
    """(name, position) of each parameter with a default; the position
    counts from a call's first argument, None for keyword-only ones."""
    args = func.args
    positional = args.posonlyargs + args.args
    skip = 1 if method else 0
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def passes(call: ast.Call, name: str, position) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if position is not None and len(call.args) > position:
        return True
    return any(k.arg is None or k.arg == name for k in call.keywords)


def called_name(call: ast.Call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def test_every_private_default_is_passed_somewhere():
    trees = {path.name: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(called_name(node), []).append(node)
    unused = [f"{file}:{func.lineno} {func.name}({name}=)"
              for file, tree in trees.items()
              for func, method in private_functions(tree)
              for name, position in defaulted(func, method)
              if not any(passes(call, name, position)
                         for call in calls.get(func.name, []))]
    assert not unused, ("defaults no call in the package passes: "
                        + ", ".join(unused))
