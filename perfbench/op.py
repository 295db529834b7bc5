"""One benchmark op: a fresh interpreter that runs a single ``plovlab`` CLI call.

    PYTHONPATH=SRC python3 perfbench/op.py --src SRC --meta META [--trace] -- ARGS...

runs ``plovlab ARGS...`` exactly as the console script does (same
``sys.argv``, exit code and stdout) and checks that ``plovlab`` came from
SRC.  It writes META, a JSON file with a per-process token, the pid and the
memo caches that were already filled when the op started (none in a fresh
process).  With
``--trace`` it first wraps the functions in ``layers.SPANS``, keeps one span
(name, start, end, parent) per outermost call in memory, and adds the spans
and counters to META when the op ends.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time

import layers

# Unique per process: two ops reporting the same token shared a process.
TOKEN = os.urandom(8).hex()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def wrap(self, name, fn, count):
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)  # nested call of the same span
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                for key, inc in count(args, result).items():
                    counters[key] = counters.get(key, 0) + inc
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of each traced function in the loaded package."""
        modules = [m for n, m in sys.modules.items()
                   if n == "plovlab" or n.startswith("plovlab.")]
        for name, modname, attr, count in layers.SPANS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or meth not in vars(cls):
                    raise RuntimeError(f"traced function {modname}.{attr} not found")
                setattr(cls, meth, self.wrap(name, vars(cls)[meth], count))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                raise RuntimeError(f"traced function {modname}.{attr} not found")
            wrapped = self.wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def filled_caches() -> list[str]:
    """Names of the memo caches in ``layers.COLD_CACHES`` that hold entries."""
    out = []
    for modname, attr in layers.COLD_CACHES:
        obj = getattr(sys.modules.get(modname), attr, None)
        if obj is None:
            continue
        size = obj.cache_info().currsize if hasattr(obj, "cache_info") else len(obj)
        if size:
            out.append(f"{modname}.{attr}")
    return out


def run(src: str, meta_path: str, trace: bool, cli_args: list[str]) -> int:
    import plovlab.cli

    where = os.path.dirname(os.path.dirname(os.path.abspath(plovlab.cli.__file__)))
    if where != os.path.abspath(src):
        print(f"op: imported plovlab from {where}, not {src}", file=sys.stderr)
        return 3
    meta = {"token": TOKEN, "pid": os.getpid(), "filled_caches": filled_caches()}
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    sys.argv = ["plovlab"] + cli_args
    try:
        code = plovlab.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        if tracer is not None:
            meta["spans"] = tracer.spans
            meta["counters"] = tracer.counters
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--meta", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    try:
        return run(args.src, args.meta, args.trace, cli_args)
    except RuntimeError as exc:
        print(f"op: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
