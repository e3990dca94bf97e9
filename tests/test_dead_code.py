"""Dead code in src/degree_lab, found with the standard-library ast module.

Three checks stand in for a linter:

- every name a module imports is used in it, or listed in its __all__
  (the package __init__ only re-exports, so it is exempt);
- every private module-level name (one leading underscore) defined in
  src/degree_lab is referenced somewhere in src/ or tests/;
- every name a module lists in its __all__ is defined in it, not merely
  imported (again the package __init__ is exempt).
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
    sources = sorted(PACKAGE.glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py"))
    referenced = set().union(*(loaded(parse(p)) for p in sources))
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
