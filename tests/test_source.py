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
