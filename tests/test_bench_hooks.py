"""The benchmark's hooks into the package still point at real objects.

``perfbench/layers.py`` names the functions the traced run wraps and the
memo caches a fresh CLI process must start with empty.  A renamed function
or cache would otherwise be caught only by a benchmark run, or, for a
cache, not at all: the cold-process check skips names it cannot find.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_resolve():
    for name, modname, attr, _ in load_layers().SPANS:
        assert modname.startswith("plovlab."), name
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), (name, attr)
        else:
            assert callable(getattr(owner, attr, None)), (name, attr)


def test_cold_caches_exist():
    for modname, attr in load_layers().COLD_CACHES:
        cache = getattr(importlib.import_module(modname), attr, None)
        assert cache is not None, (modname, attr)
        assert hasattr(cache, "cache_info") or hasattr(cache, "__len__"), (
            modname, attr)


def count_calls(monkeypatch, attr):
    """Count calls of ``plovlab.exactmat.<attr>`` under every name the
    package binds it to, as the traced run patches it."""
    original = getattr(importlib.import_module("plovlab.exactmat"), attr)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "plovlab" or name.startswith("plovlab."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_exactmat_spans_are_called(monkeypatch):
    # layers.MOVES requires exactmat.rank_* on table2 and
    # exactmat.nullspace_s on kernel
    from plovlab.incidence import nullity_truncated, verify_kernel_dim_one

    ranks = count_calls(monkeypatch, "matrix_rank")
    kernels = count_calls(monkeypatch, "nullspace_basis")
    assert nullity_truncated(5, 3, (2, 1, 1, 1), 0) == 3
    assert (len(ranks), len(kernels)) == (1, 0)
    assert verify_kernel_dim_one(4)["nullity"] == 1
    assert (len(ranks), len(kernels)) == (1, 1)
