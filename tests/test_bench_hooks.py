"""The benchmark's hooks into the package still point at real objects.

``perfbench/layers.py`` names the functions the traced run wraps and the
memo caches a fresh CLI process must start with empty.  A renamed function
or cache would otherwise be caught only by a benchmark run, or, for a
cache, not at all: the cold-process check skips names it cannot find.
"""

import importlib
import importlib.util
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
