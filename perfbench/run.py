"""plovlab benchmark: cold CLI calls on a fixed workload, outputs checked.

    python3 perfbench/run.py --workload {table2,plov,kernel} --seed N \
        --seconds S --trace {0,1}

Load model: a closed loop with one client.  This process runs one op at a
time, and every op is a fresh ``plovlab`` CLI process (``perfbench/op.py``),
so the package's memo caches start empty as in a user's call.  Ops are run in
passes; a pass is one seeded list of the workload's ops (``workloads.py``),
and the same pass repeats until ``--seconds`` have gone by.  Op times are
scaled to the machine's nominal speed by a reference computation timed
around every op (``op_times``).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates traced and
untraced passes over the same ops and prints the per-layer metrics: self time
and counts per pass of the functions in ``layers.SPANS``, the median over the
traced passes, and the tracing overhead (traced minus untraced pass time).
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when every op gave the right output
and every check of the run held, 1 otherwise, and 2 when the package cannot
be found or compiled.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads
from reference import reference_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = "src"
WORK = Path(".bench_build") / "perfbench"  # relative to ROOT, where ops run
SETUP_FIRST = 3  # set-up samples before the first op
SETUP_EVERY_S = 2.0  # then one after any op that ends this long after the last
# Op times are scaled to the machine speed at which the reference computation
# takes this long (about its median on the machine the bounds were set on).
REFERENCE_NOMINAL_S = 0.07
OP_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0  # no op may run past this point of a run
LOAD_MODEL = "closed loop, 1 client, 1 op at a time, each op a fresh CLI process"


@dataclass
class OpResult:
    op: workloads.Op
    traced: bool
    wall: float
    cpu: float
    stdout: bytes
    error: str | None
    meta: dict | None
    reference: float  # mean reference time just before and just after the op

    @property
    def scale(self) -> float:
        return REFERENCE_NOMINAL_S / self.reference


class Runner:
    """Spawns ops one at a time and checks each one's output and process."""

    def __init__(self, run_dir: Path, env: dict, started: float):
        self.run_dir = run_dir
        self.env = env
        self.started = started
        self.count = 0
        self.tokens: set[str] = set()
        self.setup: list[float] = []
        self.last_setup = 0.0
        self.last_reference: float | None = None

    def sample_setup(self) -> None:
        """Time a fresh interpreter that imports plovlab.cli and exits, scaled."""
        if self.last_reference is None:
            self.last_reference = reference_seconds()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import plovlab.cli"], env=self.env,
                       cwd=ROOT, check=True)
        self.last_setup = time.perf_counter()
        scale = REFERENCE_NOMINAL_S / self.last_reference
        self.setup.append((self.last_setup - t0) * scale)

    def run(self, op: workloads.Op, trace: bool) -> OpResult:
        idx = self.count
        self.count += 1
        budget = min(OP_TIMEOUT_S, RUN_LIMIT_S - (time.perf_counter() - self.started))
        if budget <= 0:
            return OpResult(op, trace, 0.0, 0.0, b"", "run time limit reached", None,
                            REFERENCE_NOMINAL_S)
        if self.last_reference is None:
            self.last_reference = reference_seconds()
        base = ROOT / self.run_dir / f"op{idx}"
        meta_path = base.with_suffix(".meta.json")
        argv = [sys.executable, str(BENCH / "op.py"), "--src", SRC,
                "--meta", str(meta_path)] + (["--trace"] if trace else [])
        argv += ["--", *op.args]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(base.with_suffix(".out"), "wb") as out, \
                open(base.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            # A blocking wait sees the exit at once; wait(timeout=...) polls
            # with sleeps of up to 50 ms, which would round every op time.
            timed_out = threading.Event()
            killer = threading.Timer(budget, lambda: (timed_out.set(), proc.kill()))
            killer.start()
            code = proc.wait()
            wall = time.perf_counter() - t0
            killer.cancel()
            killer.join()
            if timed_out.is_set():
                code = None
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        stdout = base.with_suffix(".out").read_bytes()
        before_ref, self.last_reference = self.last_reference, reference_seconds()
        reference = (before_ref + self.last_reference) / 2
        if time.perf_counter() - self.last_setup >= SETUP_EVERY_S:
            self.sample_setup()  # spread over the run, as the machine's speed drifts
        if code is None:
            return OpResult(op, trace, wall, cpu, stdout,
                            f"timed out after {budget:.0f} s", None, reference)
        error = workloads.check(op, code, stdout)
        meta = json.loads(meta_path.read_text()) if meta_path.is_file() else None
        if error is None:
            error = self.process_error(meta)
        return OpResult(op, trace, wall, cpu, stdout, error, meta, reference)

    def process_error(self, meta: dict | None) -> str | None:
        """Whether the op ran cold, in a process no other op used."""
        error = shared_process_error(meta, self.tokens)
        if meta is not None:
            self.tokens.add(meta["token"])
        return error


def shared_process_error(meta: dict | None, tokens: set[str]) -> str | None:
    if meta is None:
        return "op process wrote no meta file"
    if meta["token"] in tokens:
        return f"op shared process {meta['pid']} with an earlier op"
    if meta["filled_caches"]:
        return f"op started with filled caches: {', '.join(meta['filled_caches'])}"
    return None


# ---------------------------------------------------------------------------
# set-up

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    return env


def build(env: dict) -> bool:
    """Byte-compile the package, as an install would."""
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q", f"{SRC}/plovlab"],
                          env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    return proc.returncode == 0


def environment() -> dict:
    nproc = shutil.which("nproc")
    return {
        "python": platform.python_version(),
        "nproc": int(subprocess.run([nproc], capture_output=True, text=True).stdout)
        if nproc else None,
        "os.cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load_model": LOAD_MODEL,
    }


# ---------------------------------------------------------------------------
# the two kinds of run

def op_times(results: list[OpResult]) -> list[tuple[float, float]]:
    """(wall, cpu) of each op of the pass: the median over its repeats, scaled.

    The machine's speed swings by up to 1.7x for seconds to minutes at a
    time, as other load on the host comes and goes, and a fixed computation
    slows with it.  So each op's times are scaled by ``REFERENCE_NOMINAL_S``
    over the reference time measured just before and just after it: the time
    the op would take on the machine at its nominal speed.  The reference
    does not touch the package, so a slower program still reads slower.
    """
    repeats: dict[tuple, list[OpResult]] = {}
    for r in results:
        repeats.setdefault(r.op.args, []).append(r)
    return [(statistics.median(r.wall * r.scale for r in rs),
             statistics.median(r.cpu * r.scale for r in rs)) for rs in repeats.values()]


def end_to_end(results: list[OpResult], setup: list[float]) -> dict:
    times = op_times(results)
    walls = [wall for wall, _ in times]
    ok = sum(1 for r in results if r.error is None) / len(results)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ok * len(walls) / sum(walls), "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (max(walls), "s"),
        "cpu_per_op_s": (statistics.median(cpu for _, cpu in times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }


def untraced_run(args, golden, runner: Runner, run_dir: str):
    """The same pass over and over, while a further pass ends by about --seconds."""
    ops = workloads.make_ops(args.workload, golden, args.seed, run_dir)
    results: list[OpResult] = []
    passes, spent = 0, 0.0
    t0 = time.perf_counter()
    while passes == 0 or spent + spent / passes / 2 < args.seconds:
        results.extend(runner.run(op, trace=False) for op in ops)
        passes += 1
        spent = time.perf_counter() - t0
    return results, passes


def pass_layers(results: list[OpResult]) -> dict:
    """Per-layer metrics of one traced pass: self time, calls and counters."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    for r in results:
        if r.meta is None or "spans" not in r.meta:
            continue
        spans = r.meta["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
            calls[name] = calls.get(name, 0) + 1
        for key, value in r.meta["counters"].items():
            counters[key] = counters.get(key, 0) + value
    out: dict[str, float] = {}
    for name, _, _, _ in layers.SPANS:
        out[f"{name}_s"] = self_s.get(name, 0.0)
        out[f"{name}_calls"] = calls.get(name, 0)
    for module in layers.MODULE_TOTALS:
        out[f"{module}.self_s"] = sum((v for k, v in self_s.items()
                                       if k.startswith(module + ".")), 0.0)
    out.update(counters)
    out["cli.report_bytes"] = sum(len(r.stdout) for r in results)
    return out


def traced_run(args, golden, runner: Runner, run_dir: str):
    """Traced and untraced passes over the same ops, alternating which goes first."""
    ops = workloads.make_ops(args.workload, golden, args.seed, run_dir)
    results: list[OpResult] = []
    pairs = []
    spent = 0.0
    t0 = time.perf_counter()
    while not pairs or spent + spent / len(pairs) / 2 < args.seconds:
        walls, outs = {}, {}
        for traced in (True, False) if len(pairs) % 2 == 0 else (False, True):
            outs[traced] = [runner.run(op, trace=traced) for op in ops]
            walls[traced] = sum(r.wall for r in outs[traced])
            results.extend(outs[traced])
        pairs.append((walls, outs))
        spent = time.perf_counter() - t0
    problems = []
    for _, outs in pairs:
        for t, u in zip(outs[True], outs[False]):
            if t.error is None and u.error is None and t.stdout != u.stdout:
                problems.append(f"{t.op.label}: traced output differs from untraced")
    per_pass = [pass_layers(outs[True]) for _, outs in pairs]
    counts = [{k: v for k, v in p.items() if not k.endswith("_s")} for p in per_pass]
    if any(c != counts[0] for c in counts):
        problems.append("counters differ between traced passes over the same ops")
    layer = {k: statistics.median(p.get(k, 0) for p in per_pass) for k in per_pass[0]}
    layer["trace.overhead_s"] = statistics.median(
        w[True] - w[False] for w, _ in pairs)
    for metric, (owners, _) in layers.MOVES.items():
        if args.workload not in owners:
            continue
        probe = metric[:-2] + "_calls" if metric.endswith("_s") else metric
        if not layer.get(probe):
            problems.append(f"{metric}: no call recorded on {args.workload}")
    return results, len(pairs), problems, layer


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=layers.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / SRC / "plovlab" / "cli.py").is_file():
        print(f"perfbench: no package at {SRC}/plovlab in {ROOT}", file=sys.stderr)
        return 2
    env = child_env()
    if not build(env):
        print("perfbench: src/plovlab does not compile", file=sys.stderr)
        return 2
    golden = workloads.load_golden(str(ROOT / SRC))
    started = time.perf_counter()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(ROOT / run_dir, ignore_errors=True)
    (ROOT / run_dir).mkdir(parents=True)
    runner = Runner(run_dir, env, started)
    for _ in range(1 + SETUP_FIRST):
        runner.sample_setup()
    del runner.setup[0]  # the first one warms the file cache

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment()))
    if args.trace:
        results, passes, problems, layer = traced_run(
            args, golden, runner, str(run_dir))
        write_spans(results, args)
    else:
        results, passes = untraced_run(args, golden, runner, str(run_dir))
        problems = []
    failed = [r for r in results if r.error is not None]
    for r in failed:
        print(f"FAIL {r.op.label}: {r.error}", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)

    print(f"ops={len(results)} passes={passes} failed={len(failed)} "
          f"fail_ratio={len(failed) / len(results):.4f} "
          f"reference median {statistics.median(r.reference for r in results):.4f} s "
          f"(nominal {REFERENCE_NOMINAL_S} s)")
    by_label: dict[str, list[OpResult]] = {}
    for r in results:
        by_label.setdefault(r.op.label, []).append(r)
    for label, rs in sorted(by_label.items()):
        print(f"  op {label:<24} n={len(rs):<3} median {statistics.median(r.wall for r in rs):.4f} s"
              f", scaled {statistics.median(r.wall * r.scale for r in rs):.4f} s")
    if args.trace:
        untraced = [r for r in results if not r.traced]
        for name, (value, unit) in end_to_end(untraced, runner.setup).items():
            print(f"  untraced {name:<14} {value:.6g} {unit}")
        for name in sorted(layer):
            print(f"  {name:<30} {layer[name]:.6g}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec}
    else:
        e2e = end_to_end(results, runner.setup)
        for name, (value, unit) in e2e.items():
            print(f"  {name:<14} {value:.6g} {unit}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in e2e.items()}
    correct = not failed and not problems
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


def write_spans(results: list[OpResult], args) -> None:
    """All spans of the run, one JSON line each: op, name, start, end, parent."""
    path = ROOT / WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for op_id, r in enumerate(results):
            for name, start, end, parent in (r.meta or {}).get("spans", ()):
                fh.write(json.dumps({"op": op_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
