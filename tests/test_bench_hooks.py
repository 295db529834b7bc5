"""The benchmark's hooks into the package still point at real objects.

``perfbench/layers.py`` names the functions the traced run wraps and the
memo caches a fresh CLI process must start with empty.  A renamed function
or cache would otherwise be caught only by a benchmark run, or, for a
cache, not at all: the cold-process check skips names it cannot find.  A
function that still exists but has left a workload's path fails the traced
run too, so small CLI calls on each workload's path must reach every layer
metric ``layers.MOVES`` requires of it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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
    assert nullity_truncated((2, 1, 1, 1), 0) == 3
    assert (len(ranks), len(kernels)) == (1, 0)
    assert verify_kernel_dim_one(4)["nullity"] == 1
    assert (len(ranks), len(kernels)) == (1, 1)


def record_spans(monkeypatch, layers):
    """Count the calls and counters of every span in ``layers.SPANS``,
    patching each function as the traced run does."""
    seen: dict[str, int] = {}
    for _, modname, _, _ in layers.SPANS:
        importlib.import_module(modname)
    modules = [m for n, m in sys.modules.items()
               if n == "plovlab" or n.startswith("plovlab.")]

    def wrap(name, fn, count):
        def traced(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen[name + "_calls"] = seen.get(name + "_calls", 0) + 1
            for key, inc in (count(args, result) if count else {}).items():
                seen[key] = seen.get(key, 0) + inc
            return result
        return traced

    for name, modname, attr, count in layers.SPANS:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            monkeypatch.setattr(cls, meth, wrap(name, vars(cls)[meth], count))
            continue
        original = getattr(owner, attr)
        wrapped = wrap(name, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapped)
    return seen


def small_ops(workload, tmp_path):
    """CLI calls on the code paths of a workload's ops, at a small size."""
    if workload == "table2":
        return [("reproduce", "table2", "--truncate", "2,1,1,1", "--n", "13")]
    if workload == "kernel":
        return [("reproduce", "kernel", "--d", "4")]
    from random import Random

    from plovlab.dynamics import random_conjugate

    ops = []
    # (3, 1) has k < 2d - 2; (3,) has k = 2d - 2 and runs the Hilbert check
    for blocks in ((3, 1), (3,)):
        path = tmp_path / f"{len(ops)}.json"
        path.write_text(random_conjugate(blocks, Random(7)).to_json())
        ops.append(("plov", "--model", str(path)))
    return ops


@pytest.mark.parametrize("workload", ["table2", "plov", "kernel"])
def test_moves_metrics_are_reached(monkeypatch, capsys, tmp_path, workload):
    # the traced run fails when a layer metric that layers.MOVES assigns to
    # a workload records no call or a zero count; small ops on the same
    # paths must record every one of them
    layers = load_layers()
    seen = record_spans(monkeypatch, layers)
    from plovlab import cli

    for argv in small_ops(workload, tmp_path):
        assert cli.main([*argv, "--deterministic"]) == 0
    seen["cli.report_bytes"] = len(capsys.readouterr().out)
    missing = []
    for metric, (owners, _) in layers.MOVES.items():
        probe = metric[:-2] + "_calls" if metric.endswith("_s") else metric
        if workload in owners and not seen.get(probe):
            missing.append(metric)
    assert missing == []
