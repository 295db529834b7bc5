"""Static checks on the library's source, parsed with ``ast``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "plovlab"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of that import; imports from
    ``__future__`` bind nothing the module uses."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the module never reads."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported_names(tree).items()
                  if name not in used)


def test_library_has_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the package's public names
        unused += [f"{path.name}:{line} {name}"
                   for line, name in unused_imports(parse(path))]
    assert unused == []


def test_unused_import_is_reported():
    # a name bound by an import and never read is found, a name that is read
    # is not, and __future__ imports are skipped
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom math import gcd, lcm, prod\n"
                     "print(gcd)\n")
    assert unused_imports(tree) == [(2, "os"), (3, "lcm"), (3, "prod")]


def used_names(trees) -> set[str]:
    """Every name read as a ``Name`` or an ``Attribute`` in the trees."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(node: ast.AST, prefix: str):
    """(qualified name, node, enclosing node) of each function, class or
    method defined under node, at any depth."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            name = f"{prefix}.{child.name}"
            yield name, child, node
            yield from definitions(child, name)
        else:
            yield from definitions(child, prefix)


def uncalled_definitions(modules: dict[str, ast.Module],
                         used: set[str]) -> list[str]:
    """The qualified name of each definition in the modules whose name is
    never used.  Dunders are exempt, and so are the methods of a class with
    a base from outside the modules: such a method may be a hook that the
    base calls, as ``error`` is for an ``argparse.ArgumentParser``."""
    found = [d for module, tree in modules.items()
             for d in definitions(tree, module)]
    local = {node.name for _, node, _ in found if isinstance(node, ast.ClassDef)}

    def hooked(owner):
        return isinstance(owner, ast.ClassDef) and any(
            not (isinstance(base, ast.Name) and base.id in local)
            for base in owner.bases)

    return sorted(name for name, node, owner in found
                  if node.name not in used and not hooked(owner)
                  and not (node.name.startswith("__")
                           and node.name.endswith("__")))


def test_library_defines_nothing_uncalled():
    modules = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    tests = [parse(path) for path in sorted(Path(__file__).parent.glob("*.py"))]
    used = used_names([*modules.values(), *tests])
    assert uncalled_definitions(modules, used) == []


def test_uncalled_definition_is_reported():
    # an unused function and method are found; a used one, a dunder and the
    # method of a class with an outside base are not, while that class
    # itself is still checked
    tree = ast.parse("import argparse\n"
                     "class Base:\n"
                     "    def __init__(self): pass\n"
                     "    def used(self): pass\n"
                     "    def unused(self): pass\n"
                     "class Hooked(argparse.ArgumentParser):\n"
                     "    def error(self, message): pass\n"
                     "class Child(Base):\n"
                     "    def also_unused(self): pass\n"
                     "def helper(): pass\n"
                     "Base().used()\nChild()\n")
    assert uncalled_definitions({"m": tree}, used_names([tree])) == [
        "m.Base.unused", "m.Child.also_unused", "m.Hooked", "m.helper"]
