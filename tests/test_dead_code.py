"""Dead code in src/degree_lab, found with the standard-library ast module.

Seven checks stand in for a linter:

- every name a module imports is used in it, or listed in its __all__
  (the package __init__ only re-exports, so it is exempt);
- every private module-level name (one leading underscore) defined in
  src/degree_lab is referenced somewhere in src/degree_lab itself: a
  helper that only tests still call is dead code;
- every name a module lists in its __all__ is defined in it, not merely
  imported (again the package __init__ is exempt);
- each refusal is written once: no message template is raised from more
  than one function;
- the vertex limit is kept in one module: no module but graphs.py reads
  MAX_VERTICES, so every other count is refused through graphs._order;
- scipy is kept in one function: no module but graphs.py imports it, and
  no function but graphs._components reads a name imported from it, so
  where and when scipy is imported is a change to that one function;
- threads are kept in one module: no module but experiments.py imports
  concurrent.futures or threading, so the trial pool is the one place
  the package runs threads, and no other module shares state across them.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "degree_lab"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def exported(tree: ast.Module) -> set[str]:
    """The strings listed in a module-level __all__."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def loaded(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, as plain names or attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and assignments, by name."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            names[name] = node.lineno
    return names


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and assignments named _x, not __x."""
    return {name: line for name, line in definitions(tree).items()
            if name.startswith("_") and not name.startswith("__")}


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        used = loaded(tree) | exported(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported(tree).items()
                   if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_every_private_name_is_referenced():
    referenced = set().union(*(loaded(parse(p))
                               for p in PACKAGE.glob("*.py")))
    dead = [f"{path.name}:{line} {name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for name, line in private_definitions(parse(path)).items()
            if name not in referenced]
    assert not dead, "private names referenced nowhere: " + ", ".join(dead)


def test_every_exported_name_is_defined():
    undefined = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        undefined += [f"{path.name} {name}" for name in sorted(exported(tree))
                      if name not in definitions(tree)]
    assert not undefined, ("__all__ names not defined in their module: "
                           + ", ".join(undefined))


def template(node: ast.expr) -> str | None:
    """A message as written: a string literal, or an f-string with each
    of its fields replaced by {}; None for any other expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    return None


def by_function(tree: ast.Module) -> list[tuple[ast.AST, str]]:
    """(node, function) for each node that is not a function definition,
    by the innermost function that holds it ("<module>" outside any)."""
    found = []

    def visit(node: ast.AST, func: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            found.append((child, func))
            visit(child, func)

    visit(tree, "<module>")
    return found


def raised_templates(tree: ast.Module) -> set[tuple[str, str]]:
    """(template, function) for each raise of an exception built from a
    message, by the innermost function that holds the raise."""
    found = set()
    for node, func in by_function(tree):
        if (isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call) and node.exc.args):
            text = template(node.exc.args[0])
            if text is not None:
                found.add((text, func))
    return found


def test_each_refusal_is_written_once():
    raisers: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for text, func in raised_templates(parse(path)):
            raisers.setdefault(text, set()).add(f"{path.stem}.{func}")
    repeated = [f"{text!r} in {', '.join(sorted(funcs))}"
                for text, funcs in sorted(raisers.items()) if len(funcs) > 1]
    assert not repeated, ("messages raised from more than one function: "
                          + "; ".join(repeated))


def test_only_graphs_reads_the_vertex_limit():
    readers = [path.name for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "graphs.py"
               and "MAX_VERTICES" in loaded(parse(path))]
    assert not readers, ("MAX_VERTICES read outside graphs.py: "
                         + ", ".join(readers))


def scipy_names(tree: ast.Module) -> set[str]:
    """Names the module binds by importing scipy or from it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names
                         if alias.name.split(".")[0] == "scipy")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "scipy"):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_only_components_calls_scipy():
    users = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        names = scipy_names(tree)
        if names:
            users[path.name] = {func for node, func in by_function(tree)
                                if isinstance(node, ast.Name)
                                and node.id in names}
    assert users == {"graphs.py": {"_components"}}, (
        "scipy imported or read outside graphs._components: " + repr(users))


THREAD_MODULES = {"concurrent.futures", "threading"}


def imported_modules(tree: ast.Module) -> set[str]:
    """Dotted names of the modules the module imports; `from a import b`
    gives both a and a.b, since b may be a submodule."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_only_experiments_uses_threads():
    users = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "experiments.py"
             and imported_modules(parse(path)) & THREAD_MODULES]
    assert not users, ("concurrent.futures or threading imported outside "
                       "experiments.py: " + ", ".join(users))
