"""Checks on the library's source: static ones, parsed with ``ast``, and
one on the module-level memos that a CLI call fills."""

import ast
import json
import os
import subprocess
import sys
import types
from collections import Counter
from functools import lru_cache
from pathlib import Path

from test_bench_hooks import load_layers, small_ops

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


def name_uses(node: ast.AST) -> Counter:
    """How often each name is read as a ``Name`` or an ``Attribute`` under
    node."""
    uses = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            uses[child.id] += 1
        elif isinstance(child, ast.Attribute):
            uses[child.attr] += 1
    return uses


def used_names(trees) -> set[str]:
    """Every name read as a ``Name`` or an ``Attribute`` in the trees."""
    return {name for tree in trees for name in name_uses(tree)}


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


def record_classes(modules: dict[str, ast.Module]) -> dict[str, ast.ClassDef]:
    """Each subclass of ``Record``, directly or through another class of the
    modules, by its qualified name ``module.Class``."""
    classes = [(f"{module}.{node.name}", node) for module, tree in modules.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for _, node in classes}

    def is_record(name):
        return any(base == "Record" or is_record(base)
                   for base in bases.get(name, ()))

    return {name: node for name, node in classes if is_record(node.name)}


def store_only_inits(modules: dict[str, ast.Module]) -> list[str]:
    """The qualified name of each record class (``record_classes``) that
    defines ``__init__`` with no ``raise`` in its body: such an ``__init__``
    only stores its arguments, which ``Record``'s own constructor does."""
    return sorted(
        name for name, node in record_classes(modules).items()
        if any(isinstance(item, ast.FunctionDef) and item.name == "__init__"
               and not any(isinstance(n, ast.Raise) for n in ast.walk(item))
               for item in node.body))


def test_records_define_init_only_to_check():
    # Record's constructor stores the fields; a subclass's __init__ exists
    # only to reject bad values before calling it
    modules = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert store_only_inits(modules) == []


def test_store_only_init_is_reported():
    # a store-only __init__ is found, on a direct or an indirect subclass; a
    # checking __init__, a record without one and another class are not
    tree = ast.parse("class Record:\n"
                     "    def __init__(self, *values): pass\n"
                     "class Stored(Record):\n"
                     "    def __init__(self, a, b):\n"
                     "        super().__init__(a, b)\n"
                     "class Checked(Record):\n"
                     "    def __init__(self, a):\n"
                     "        if a < 0:\n"
                     "            raise ValueError('negative')\n"
                     "        super().__init__(a)\n"
                     "class Plain(Record):\n"
                     "    _fields = ('a',)\n"
                     "class Deeper(Checked):\n"
                     "    def __init__(self, a):\n"
                     "        super().__init__(a)\n"
                     "class Other:\n"
                     "    def __init__(self, a):\n"
                     "        self.a = a\n")
    assert store_only_inits({"m": tree}) == ["m.Deeper", "m.Stored"]
    assert sorted(record_classes({"m": tree})) == [
        "m.Checked", "m.Deeper", "m.Plain", "m.Stored"]


# Each record class of the library, and what its fields earn over a plain
# tuple.  A vector over a partition set is a plain tuple in the order of
# partition_set(k, d, n), and a function returning several values returns
# them as a tuple: a new record names its reason here.
RECORDS = {
    "exactmat.ExactMatrix": "it owns methods",
    "exactmat.SparseMultiPoly":
        "its .terms is read by the symfun.vandermonde span counter",
    "incidence.IncidenceMatrix":
        "its .data is read by the incidence.build span counter",
}


def test_every_record_names_its_reason():
    modules = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert sorted(record_classes(modules)) == sorted(RECORDS)


VALUE_METHODS = {"__eq__", "__hash__", "__setattr__", "__delattr__"}


def value_methods(modules: dict[str, ast.Module]) -> list[str]:
    """``module.Class.name`` of each equality, hash or attribute-guard
    method that a class other than ``Record`` defines or assigns in its
    body, at any depth."""
    found = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or node.name == "Record":
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                elif isinstance(item, ast.Assign):
                    names = [t.id for t in item.targets
                             if isinstance(t, ast.Name)]
                else:
                    names = []
                found += [f"{module}.{node.name}.{name}" for name in names
                          if name in VALUE_METHODS]
    return sorted(found)


def test_only_record_defines_value_semantics():
    # a value class subclasses Record, which alone defines equality,
    # hashing and immutability
    modules = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert value_methods(modules) == []


def test_value_method_is_reported():
    # a defined or assigned method on a class, nested or not, is found;
    # Record's own, another dunder and a module-level function are not
    tree = ast.parse("class Record:\n"
                     "    def __eq__(self, other): pass\n"
                     "    def __hash__(self): pass\n"
                     "class Point:\n"
                     "    def __init__(self): pass\n"
                     "    def __eq__(self, other): pass\n"
                     "    __hash__ = None\n"
                     "    class Frozen:\n"
                     "        def __setattr__(self, name, value): pass\n"
                     "        def __delattr__(self, name): pass\n"
                     "        def __repr__(self): pass\n"
                     "def __eq__(a, b): pass\n")
    assert value_methods({"m": tree}) == [
        "m.Frozen.__delattr__", "m.Frozen.__setattr__", "m.Point.__eq__",
        "m.Point.__hash__"]


def assertion_error_uses(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, "raise" or "except") of each raise of AssertionError, bare or
    called, and of each handler that catches it, alone or in a tuple."""
    def names(node):
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.Tuple):
            return [name for elt in node.elts for name in names(elt)]
        return [node.id] if isinstance(node, ast.Name) else []

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            kind, exc = "raise", node.exc
        elif isinstance(node, ast.ExceptHandler):
            kind, exc = "except", node.type
        else:
            continue
        if exc is not None and "AssertionError" in names(exc):
            found.append((node.lineno, kind))
    return sorted(found)


def test_library_neither_raises_nor_catches_assertion_error():
    # a failed check raises CheckFailed, the one exception the CLI turns
    # into exit 1
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        uses += [f"{path.name}:{line} {kind}"
                 for line, kind in assertion_error_uses(parse(path))]
    assert uses == []


def test_assertion_error_use_is_reported():
    # bare and called raises and a handler alone or in a tuple are found;
    # another exception, a bare raise and a bare except are not
    tree = ast.parse("try:\n"
                     "    raise AssertionError('x')\n"
                     "except (ValueError, AssertionError):\n"
                     "    raise AssertionError\n"
                     "except AssertionError as exc:\n"
                     "    raise ValueError(exc)\n"
                     "except KeyError:\n"
                     "    raise\n"
                     "except:\n"
                     "    pass\n")
    assert assertion_error_uses(tree) == [
        (2, "raise"), (3, "except"), (4, "raise"), (5, "except")]


def pass_key_uses(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, "key", "subscript" or "get") of each use of the string "pass"
    as a dict display key, a subscript, or the key of a ``get`` call."""
    def is_pass(node):
        return isinstance(node, ast.Constant) and node.value == "pass"

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            found += [(key.lineno, "key") for key in node.keys if is_pass(key)]
        elif isinstance(node, ast.Subscript) and is_pass(node.slice):
            found.append((node.lineno, "subscript"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and node.args
              and is_pass(node.args[0])):
            found.append((node.lineno, "get"))
    return sorted(found)


def test_only_the_cli_reads_or_writes_pass():
    # a library function returns what it computed or raises CheckFailed;
    # whether a report passes is decided once, by cli._report
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "cli.py":
            uses += [f"{path.name}:{line} {kind}"
                     for line, kind in pass_key_uses(parse(path))]
    assert uses == []


def test_pass_key_use_is_reported():
    # a display key, a subscript read or write and a get are found; another
    # key, the pass statement and "pass" as a plain value are not
    tree = ast.parse("report = {'pass': True, 'ok': 'pass'}\n"
                     "report['pass'] = False\n"
                     "if report['pass'] or row.get('pass'):\n"
                     "    pass\n"
                     "print('pass', report['ok'], row.get('ok'))\n")
    assert pass_key_uses(tree) == [
        (1, "key"), (2, "subscript"), (3, "get"), (3, "subscript")]


# Public library definitions that no library code references, each with the
# reason it stays
UNREFERENCED_ALLOWED = {
    "symfun.mhat_poly": "a memo cache that perfbench/layers.py COLD_CACHES "
                        "names, and tests/test_bench_hooks.py checks",
    "dynamics.power_sum_polynomial": "the only caller of _bernoulli, a memo "
                                     "cache that COLD_CACHES names",
    "dynamics.AbelianSurrogate.to_json": "writes the plov --model format",
}

# The allowed names that stay only for a memo cache the benchmark's
# cold-process check reads, each with that (module, cache) entry of
# perfbench/layers.py COLD_CACHES
CACHE_ALLOWANCES = {
    "symfun.mhat_poly": ("plovlab.symfun", "mhat_poly"),
    "dynamics.power_sum_polynomial": ("plovlab.dynamics", "_bernoulli"),
}


def unreferenced_public(modules: dict[str, ast.Module],
                        allowed) -> list[str]:
    """Each public function, class or method of the modules, one with no
    leading underscore on any part of its qualified name, that no module
    reads by name outside its own definition and that allowed does not
    name; then "stale: " and each name in allowed that is not such a
    definition."""
    uses = sum((name_uses(tree) for tree in modules.values()), Counter())
    found = {name for module, tree in modules.items()
             for name, node, _ in definitions(tree, module)
             if not any(part.startswith("_") for part in name.split("."))
             and uses[node.name] == name_uses(node)[node.name]}
    return (sorted(found - set(allowed))
            + [f"stale: {name}" for name in sorted(set(allowed) - found)])


def test_library_has_no_unreferenced_public_names():
    # a public name that only tests reach is surface no command uses
    modules = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_public(modules, UNREFERENCED_ALLOWED) == []


def test_unreferenced_public_name_is_reported():
    # a public function read by no one or only by itself, and a method no
    # one calls, are found; a function another definition calls, private
    # names and an allowed name are not, and an allowed name that is
    # referenced, or defined nowhere, is stale
    tree = ast.parse("def unused(): pass\n"
                     "def recursive(n): return recursive(n - 1)\n"
                     "def used(): pass\n"
                     "def caller(): return used()\n"
                     "def _private(): pass\n"
                     "def kept(): pass\n"
                     "class _Hidden:\n"
                     "    def method(self): pass\n"
                     "class Shown:\n"
                     "    def method(self): pass\n"
                     "    def other(self): pass\n"
                     "Shown().other()\n")
    assert unreferenced_public({"m": tree}, {"m.kept", "m.used", "m.gone"}) == [
        "m.Shown.method", "m.caller", "m.recursive", "m.unused",
        "stale: m.gone", "stale: m.used"]


def test_cache_allowances_follow_the_benchmark():
    # an allowance lasts only as long as COLD_CACHES names its cache: when
    # the benchmark drops the cache, the name moves to tests/oracles.py
    caches = set(load_layers().COLD_CACHES)
    assert {name: cache for name, cache in CACHE_ALLOWANCES.items()
            if cache not in caches} == {}
    assert set(UNREFERENCED_ALLOWED) - set(CACHE_ALLOWANCES) == {
        "dynamics.AbelianSurrogate.to_json"}


# Modules that only the test suite provides
TEST_MODULES = {"tests", "oracles"}


def absolute_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, top-level module) of each absolute import; a relative import
    stays inside the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return sorted(found)


def test_library_imports_nothing_from_tests():
    # test-only code moves from the library to tests/oracles.py, never
    # back: no library module imports the test suite
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += [f"{path.name}:{line} {module}"
                  for line, module in absolute_imports(parse(path))
                  if module in TEST_MODULES]
    assert found == []


def test_test_import_is_reported():
    # plain and from-imports of tests or oracles, dotted or not, are found;
    # a relative import and another module are not
    tree = ast.parse("import os, oracles\n"
                     "import tests.oracles as o\n"
                     "from oracles import bump\n"
                     "from tests import oracles\n"
                     "from . import golden\n"
                     "from .oracles import bump\n")
    assert [(line, m) for line, m in absolute_imports(tree)
            if m in TEST_MODULES] == [
        (1, "oracles"), (2, "tests"), (3, "oracles"), (4, "tests")]


def non_stdlib_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, top-level module) of each absolute import from outside the
    standard library."""
    return [(line, module) for line, module in absolute_imports(tree)
            if module not in sys.stdlib_module_names]


def test_library_imports_only_the_standard_library():
    # the runtime is stdlib-only: pyproject.toml declares no dependency,
    # and no library module imports one
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += [f"{path.name}:{line} {module}"
                  for line, module in non_stdlib_imports(parse(path))]
    assert found == []


def test_third_party_import_is_reported():
    # plain, dotted, aliased and from-imports of a third-party module are
    # found; the standard library, __future__ and a relative import are not
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path, numpy as np\n"
                     "from sympy.matrices import Matrix\n"
                     "from fractions import Fraction\n"
                     "def f():\n"
                     "    import gmpy2\n"
                     "from . import exactmat\n")
    assert non_stdlib_imports(tree) == [
        (2, "numpy"), (3, "sympy"), (6, "gmpy2")]


def package_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, module) of each import from the ``plovlab`` package: every
    relative import, and each absolute one of ``plovlab``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.append((node.lineno, "." * node.level + (node.module or "")))
    return sorted(found + [(line, module)
                           for line, module in absolute_imports(tree)
                           if module == "plovlab"])


def test_partitions_is_a_leaf_module():
    # partition enumeration depends on no other module of the package
    assert package_imports(parse(PACKAGE / "partitions.py")) == []


def test_package_import_is_reported():
    # relative imports at any level and absolute imports of plovlab are
    # found; the standard library and __future__ are not
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, plovlab.exactmat\n"
                     "from .exactmat import Record\n"
                     "from functools import lru_cache\n"
                     "from . import golden\n"
                     "def f():\n"
                     "    from plovlab import symfun\n"
                     "    from ..plovlab import cli\n")
    assert package_imports(tree) == [
        (2, "plovlab"), (3, ".exactmat"), (5, "."), (7, "plovlab"),
        (8, "..plovlab")]


def owned_nodes(modules: dict[str, ast.Module]):
    """(owner, node) of each node of the modules below its module: the
    owner is the innermost function around the node (``module.function``,
    a method as ``module.Class.method``), or the module for a node outside
    every function, which runs on loading."""
    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                name = f"{prefix}.{child.name}"
                yield from visit(child, name, owner
                                 if isinstance(child, ast.ClassDef) else name)
                continue
            yield owner, child
            yield from visit(child, prefix, owner)

    for module, tree in modules.items():
        yield from visit(tree, module, module)


def fraction_importers(modules: dict[str, ast.Module]) -> list[str]:
    """Where ``fractions`` is imported, plainly or from it: the owner of
    each import, as ``owned_nodes`` names it."""
    return sorted({owner for owner, node in owned_nodes(modules)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and any(module == "fractions"
                           for _, module in absolute_imports(node))})


def test_only_true_ratios_import_fractions():
    # every matrix is an integer matrix, and the model pipeline keeps log V
    # and the w-table in ints: Fraction is built only for a ratio that a
    # command prints or compares, the volume polynomial (and the power sums
    # of its test oracle) and the symmetric-function coefficients
    modules = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert fraction_importers(modules) == [
        "dynamics._bernoulli", "dynamics.delta_polynomial",
        "dynamics.power_sum_polynomial", "symfun.hilbert_product",
        "symfun.mhat_poly"]


def load_time_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, top-level module) of each absolute import that runs when the
    module is loaded: every one outside a function body."""
    deferred = {node.lineno
                for func in ast.walk(tree)
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(func)
                if isinstance(node, (ast.Import, ast.ImportFrom))}
    return [(line, module) for line, module in absolute_imports(tree)
            if line not in deferred]


def test_no_module_loads_fractions_at_import():
    # fractions (which imports decimal and numbers) is loaded by the
    # functions that build a Fraction, so the matrix commands never load it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += [f"{path.name}:{line}"
                  for line, module in load_time_imports(parse(path))
                  if module == "fractions"]
    assert found == []


def test_load_time_import_is_reported():
    # an import at module level or in a class body runs on loading; one in
    # a function body runs on the first call
    tree = ast.parse("from math import gcd\n"
                     "from fractions import Fraction\n"
                     "def f():\n"
                     "    from fractions import Fraction\n"
                     "    return Fraction(1)\n"
                     "class C:\n"
                     "    import fractions\n")
    assert load_time_imports(tree) == [
        (1, "math"), (2, "fractions"), (7, "fractions")]


def test_fraction_importer_is_reported():
    # a plain and a from-import of fractions are found, dotted or aliased,
    # and named by the innermost function around them, a method by its
    # class, or by the module outside every function; another module, a
    # relative import and a name merely called Fraction are not
    trees = {"plain": "import fractions as f\n",
             "from": "from fractions import Fraction\n",
             "other": "from math import gcd\nFraction = int\n",
             "relative": "from .fractions import Fraction\n",
             "funcs": "def f():\n"
                      "    from fractions import Fraction\n"
                      "    def inner():\n"
                      "        import fractions.numbers\n"
                      "def g():\n"
                      "    return Fraction(1)\n"
                      "class C:\n"
                      "    def m(self):\n"
                      "        if self:\n"
                      "            from fractions import Fraction\n"
                      "    import fractions\n"}
    assert fraction_importers({name: ast.parse(text)
                               for name, text in trees.items()}) == [
        "from", "funcs", "funcs.C.m", "funcs.f", "funcs.f.inner", "plain"]


# The functions that change when the cyclic collector runs
COLLECTOR_SWITCHES = {"disable", "enable", "freeze", "set_threshold"}


def collector_policy(modules: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """(owner, "gc") of each import of ``gc``, and (owner, switch) of each
    read of a collector switch, as an attribute or as a plain name, whether
    called or passed on: ``atexit.register(gc.freeze)`` sets the policy as
    surely as ``gc.freeze()``.  Owners as ``owned_nodes`` names them."""
    found = []
    for owner, node in owned_nodes(modules):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(owner, "gc") for _, module in absolute_imports(node)
                      if module == "gc"]
            continue
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        if name in COLLECTOR_SWITCHES and isinstance(node.ctx, ast.Load):
            found.append((owner, name))
    return sorted(found)


def test_collector_policy_is_set_at_two_sites():
    # the collector is paused only around the Vandermonde expansion, whose
    # tuples form no cycles; and main registers the freeze that runs at
    # exit, before the interpreter's finalization collections, which would
    # otherwise spend about 6 ms of every CLI process on a heap that dies
    # with it.  Nothing else moves the collector.
    modules = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert collector_policy(modules) == [
        ("cli", "gc"), ("cli.main", "freeze"), ("cli.main", "freeze"),
        ("symfun", "gc"), ("symfun.vandermonde_coeff_vector", "disable"),
        ("symfun.vandermonde_coeff_vector", "enable")]


def test_collector_policy_is_reported():
    # plain, aliased and from-imports of gc are found, and each switch
    # called or passed on, on any object or by its bare name, named by the
    # innermost function around it; gc.collect, another module and a
    # switch's name being bound are not
    tree = ast.parse("import os, gc as g\n"
                     "from gc import freeze\n"
                     "g.disable()\n"
                     "freeze()\n"
                     "parser.enable()\n"
                     "def f():\n"
                     "    set_threshold(1)\n"
                     "    def inner():\n"
                     "        g.enable()\n"
                     "g.collect()\n"
                     "isenabled = g.enable\n"
                     "atexit.register(g.freeze)\n"
                     "enable = parser.disable = None\n"
                     "class C:\n"
                     "    def m(self):\n"
                     "        import gc\n")
    assert collector_policy({"m": tree}) == [
        ("m", "disable"), ("m", "enable"), ("m", "enable"), ("m", "freeze"),
        ("m", "freeze"), ("m", "gc"), ("m", "gc"), ("m.C.m", "gc"),
        ("m.f", "set_threshold"), ("m.f.inner", "enable")]


def finalizer_hazards(modules: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """(owner, "__del__") of each class that defines ``__del__``, named
    ``module.Class``, and (owner, "open") of each ``open`` call that is
    neither the item of a ``with`` nor closed in the same expression, as
    ``open(path).close()``; owners as ``owned_nodes`` names them."""
    nodes = list(owned_nodes(modules))
    managed = {id(node.context_expr) for _, node in nodes
               if isinstance(node, ast.withitem)}
    managed |= {id(node.func.value) for _, node in nodes
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "close"}
    found = [(owner, "open") for owner, node in nodes
             if isinstance(node, ast.Call) and id(node) not in managed
             and (node.func.id if isinstance(node.func, ast.Name)
                  else getattr(node.func, "attr", None)) == "open"]
    for module, tree in modules.items():
        found += [(name, "__del__")
                  for name, node, _ in definitions(tree, module)
                  if isinstance(node, ast.ClassDef)
                  and any(isinstance(item, ast.FunctionDef)
                          and item.name == "__del__" for item in node.body)]
    return sorted(found)


def test_no_output_waits_for_a_finalizer():
    # main freezes the heap at exit, so the interpreter's last collections
    # neither free nor finalize the cyclic garbage that a command leaves:
    # no output may depend on a finalizer.  No class defines __del__, and
    # every file is closed by a with, or at once, before main returns.
    modules = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert finalizer_hazards(modules) == []


def test_finalizer_hazard_is_reported():
    # a bare open, on its own or as a method, one whose close is read but
    # not called, and a class with __del__, at any depth, are found; a with
    # item, each of several, an open closed in the same expression, and a
    # __del__ that is not a class's method are not
    tree = ast.parse("fh = open(p)\n"
                     "with open(p) as a, path.open('w') as b:\n"
                     "    pass\n"
                     "open(p, 'a').close()\n"
                     "open(p).close\n"
                     "def f():\n"
                     "    return path.open()\n"
                     "class Handle:\n"
                     "    def __del__(self): pass\n"
                     "def g():\n"
                     "    class Inner:\n"
                     "        def __del__(self): pass\n"
                     "    def __del__(x): pass\n")
    assert finalizer_hazards({"m": tree}) == [
        ("m", "open"), ("m", "open"), ("m.Handle", "__del__"), ("m.f", "open"),
        ("m.g.Inner", "__del__")]


def int_reads(modules: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """(owner, how) of each read of the name ``int`` outside annotations:
    "type=int" as a keyword's value, "int()" as the function called, and
    "int" passed on in any other way, as in ``map(int, parts)``; owners as
    ``owned_nodes`` names them."""
    annotations = {id(n) for tree in modules.values() for node in ast.walk(tree)
                   for part in (getattr(node, "returns", None),
                                getattr(node, "annotation", None))
                   if part is not None for n in ast.walk(part)}
    nodes = list(owned_nodes(modules))
    how = {}
    for _, node in nodes:
        if isinstance(node, ast.keyword) and node.arg == "type":
            how[id(node.value)] = "type=int"
        elif isinstance(node, ast.Call):
            how[id(node.func)] = "int()"
    return sorted((owner, how.get(id(node), "int")) for owner, node in nodes
                  if isinstance(node, ast.Name) and node.id == "int"
                  and isinstance(node.ctx, ast.Load)
                  and id(node) not in annotations)


def test_cli_reads_ints_only_through_its_strict_parser():
    # int() also reads "1_3", " 2", "+3", "03" and non-ASCII digits, so a
    # report would echo a flag as typed and run another value: every int
    # the command line reads goes through the one parser that takes a text
    # only as the int prints itself
    assert int_reads({"cli": parse(PACKAGE / "cli.py")}) == [
        ("cli._parse_int", "int()")]


def test_int_read_is_reported():
    # an argparse type, a call and a name passed on are found, at any depth
    # and named by the innermost function; an annotation, another type, a
    # binding of the name and an attribute called int are not
    tree = ast.parse("p.add_argument('--d', type=int)\n"
                     "def f(text: int) -> int:\n"
                     "    x: int = 0\n"
                     "    return int(text)\n"
                     "def g(parts):\n"
                     "    def inner():\n"
                     "        return tuple(map(int, parts))\n"
                     "    p.add_argument('--s', type=str)\n"
                     "    int = None\n"
                     "    return numbers.int(1)\n")
    assert int_reads({"m": tree}) == [
        ("m", "type=int"), ("m.f", "int()"), ("m.g.inner", "int")]


def container_sizes(modules: dict[str, types.ModuleType]) -> dict[str, int]:
    """The size of each module-level container of the modules, keyed
    "module.name": an ``lru_cache``'s ``currsize``, or the ``len`` of a
    dict, list or set.  Dunder names are skipped, and so is a cached
    function that another module defines."""
    sizes = {}
    for modname, module in modules.items():
        for name, value in vars(module).items():
            if (name.startswith("__")
                    or getattr(value, "__module__", modname) != modname):
                continue
            if hasattr(value, "cache_info"):
                sizes[f"{modname}.{name}"] = value.cache_info().currsize
            elif isinstance(value, (dict, list, set)):
                sizes[f"{modname}.{name}"] = len(value)
    return sizes


def resized(before: dict[str, int], after: dict[str, int]) -> list[str]:
    """The containers whose size differs between two ``container_sizes``."""
    return sorted(name for name, size in after.items()
                  if before.get(name) != size)


# Run in a fresh interpreter: load every plovlab module, run one CLI call
# and print the containers it resized, as a JSON list
RESIZED_BY_ONE_CALL = """
import importlib, io, json, pkgutil, sys
from contextlib import redirect_stdout
import plovlab
from test_source import container_sizes, resized
modules = {info.name: importlib.import_module(info.name)
           for info in pkgutil.iter_modules(plovlab.__path__, "plovlab.")}
before = container_sizes(modules)
with redirect_stdout(io.StringIO()):
    code = modules["plovlab.cli"].main(sys.argv[1:])
print(json.dumps([code, resized(before, container_sizes(modules))]))
"""


def test_cli_calls_resize_only_the_benchmarks_cold_caches(tmp_path):
    # the benchmark's cold-process check reads only the caches that
    # perfbench/layers.py COLD_CACHES names, so a memo that an op on a
    # workload's path leaves resized and that the list does not name could
    # carry over between ops unseen
    cold = {f"{module}.{attr}" for module, attr in load_layers().COLD_CACHES}
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), str(tests), os.environ.get("PYTHONPATH", "")])}
    unnamed = {}
    for workload in ("table2", "plov", "kernel"):
        for argv in small_ops(workload, tmp_path):
            out = subprocess.run(
                [sys.executable, "-c", RESIZED_BY_ONE_CALL, *argv,
                 "--deterministic"],
                capture_output=True, text=True, env=env, check=True).stdout
            code, names = json.loads(out.splitlines()[-1])
            assert code == 0, argv
            assert names, argv  # each call fills some cache
            if set(names) - cold:
                unnamed[" ".join(argv)] = sorted(set(names) - cold)
    assert unnamed == {}


def test_resized_container_is_reported():
    # a dict, list, set or lru_cache whose size changes is found; an
    # unchanged one, a tuple, a dunder and a cached function that another
    # module defines are not
    @lru_cache(maxsize=None)
    def cached(x):
        return x

    @lru_cache(maxsize=None)
    def foreign(x):
        return x

    foreign.__module__ = "elsewhere"
    module = types.ModuleType("m")
    module.__dict__.update(table={}, items=[], seen={1}, cached=cached,
                           same={}, parts=(), __extra__={}, foreign=foreign)
    cached.__module__ = "m"
    before = container_sizes({"m": module})
    assert set(before) == {"m.table", "m.items", "m.seen", "m.cached",
                           "m.same"}
    module.table[1] = 2
    module.items.append(1)
    module.seen.clear()
    cached(3)
    module.__extra__[1] = 2
    foreign(3)
    assert resized(before, container_sizes({"m": module})) == [
        "m.cached", "m.items", "m.seen", "m.table"]
