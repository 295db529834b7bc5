"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [WORKLOAD ...]

Checks that a shared op process is caught, that a wrong output is counted as
a failure, that an op over its time budget is killed, that seeded inputs are reproducible, that the benchmark refuses
to run without the package, and that two traced runs with the same seed give
identical counters on each WORKLOAD (default: all).  Exits 1 on the first
failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import layers
import run
import workloads

WORK = run.ROOT / run.WORK / "selftest"


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        sys.exit(1)


def test_shared_process_is_caught() -> None:
    args = ["reproduce", "table2", "--truncate", "1,1,1", "--n", "6", "--deterministic"]
    metas = [WORK / "shared-0.json", WORK / "shared-1.json"]
    code = (f"import sys; sys.path.insert(0, {str(run.BENCH)!r}); import op; "
            + "; ".join(f"op.run('src', {str(m)!r}, False, {args!r})" for m in metas))
    subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, env=run.child_env(),
                   stdout=subprocess.DEVNULL, check=True)
    tokens: set[str] = set()
    errors = []
    for path in metas:
        meta = json.loads(path.read_text())
        errors.append(run.shared_process_error(meta, tokens))
        tokens.add(meta["token"])
    check(errors[0] is None and errors[1] is not None,
          f"two ops in one process are caught: {errors[1]}")

    runner = run.Runner(run.WORK / "selftest", run.child_env(), time.perf_counter())
    op = workloads.Op("tiny", tuple(args), {"kind": "table2", "d": 3, "n": 6, "nullity": 1})
    results = [runner.run(op, trace=False) for _ in range(2)]
    check(all(r.error is None for r in results),
          f"two ops in two processes pass: {[r.error for r in results]}")


def test_wrong_value_is_counted(golden) -> None:
    runner = run.Runner(run.WORK / "selftest", run.child_env(), time.perf_counter())
    right = workloads.make_ops("table2", golden, 0, "")[0]
    wrong = workloads.Op(right.label, right.args,
                         dict(right.expected, nullity=right.expected["nullity"] + 1))
    results = [runner.run(right, trace=False), runner.run(wrong, trace=False)]
    failed = [r for r in results if r.error is not None]
    check([r.op for r in failed] == [wrong],
          f"a wrong expected value counts as 1 failed of 2: {failed[0].error if failed else None}")


def test_overrun_is_killed(golden) -> None:
    # a run that has 1 s left gives the next op a budget of 1 s
    runner = run.Runner(run.WORK / "selftest", run.child_env(),
                        time.perf_counter() - run.RUN_LIMIT_S + 1)
    result = runner.run(workloads.make_ops("kernel", golden, 0, "")[0], trace=False)
    check(result.error is not None and result.error.startswith("timed out")
          and result.wall < 5, f"an op over its time budget is killed: {result.error}")


def test_seeded_inputs(golden) -> None:
    first = workloads.plov_models(7)
    again = workloads.plov_models(7)
    other = workloads.plov_models(8)
    check(first == again, "the same seed gives byte-identical model files")
    other_texts = {text for _, text in other}
    same = [b for b, text in first if text in other_texts and any(x > 1 for x in b)]
    check(not same and sorted(b for b, _ in first) == sorted(b for b, _ in other),
          "another seed gives other matrices of the same types for every non-identity type")
    runner = run.Runner(run.WORK / "selftest", run.child_env(), time.perf_counter())
    for seed in (7, 8):
        ops = [op for op in workloads.make_ops("plov", golden, seed, str(run.WORK / "selftest"))
               if op.label in ("plov (3, 1)", "plov (2, 2)")]
        errors = [runner.run(op, trace=False).error for op in ops]
        check(errors == [None, None], f"seed {seed}: cheap models give the expected k and plov")


def test_refuses_without_package() -> None:
    bare = WORK / "bare"
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{run.BENCH.name}/run.py", "--workload", "table2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout,
          f"without the package: exit {proc.returncode}, no result printed")


def test_traced_counters_repeat(workload: str) -> None:
    counts = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                               "--seed", "5", "--seconds", "1", "--trace", "1"],
                              cwd=run.ROOT, capture_output=True, text=True, timeout=180)
        check(proc.returncode == 0, f"{workload}: traced run passes its own checks")
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] != "s"})
    check(counts[0] == counts[1], f"{workload}: two traced runs give identical counters")


def main(argv: list[str]) -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    golden = workloads.load_golden(str(run.ROOT / run.SRC))
    test_shared_process_is_caught()
    test_wrong_value_is_counted(golden)
    test_overrun_is_killed(golden)
    test_seeded_inputs(golden)
    test_refuses_without_package()
    for workload in argv or layers.WORKLOADS:
        test_traced_counters_repeat(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
