"""Command-line surface: each reproduction target is one subcommand.

Exit codes: 0 = all asserted checks pass, 1 = verification mismatch,
2 = usage error.  Reports are JSON by default (CSV for matrix payloads);
with --deterministic the wall-clock duration is omitted so identical flags
give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from random import Random

from . import golden
from .dynamics import (
    MAX_MODEL_DIM,
    AbelianSurrogate,
    ModelError,
    jordan_matrix,
    model_from_json,
    random_conjugate,
    run_pipeline,
)
from .incidence import (
    block_form,
    build_incidence,
    matrix_to_csv,
    nullity_truncated,
    table2_tuple,
    verify_full_rank,
    verify_kernel_dim_one,
)
from .partitions import count, enumerate_partitions, format_partition

USAGE_ERROR = 2
MISMATCH = 1
# largest k and d of reproduce fullrank, one instance or the sweep
FULLRANK_MAX = 6


def _out_error(path: str, exc: OSError) -> int:
    print(f"error: cannot write --out {path}: {exc.strerror}", file=sys.stderr)
    return USAGE_ERROR


def _check_out(path: str) -> int:
    """Open --out for appending before any work starts, so that an
    unwritable path exits 2 at once; a file the check creates is removed."""
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        return _out_error(path, exc)
    if not existed:
        os.remove(path)
    return 0


def _emit(report: dict, args) -> int:
    if getattr(args, "deterministic", False):
        report.pop("duration_seconds", None)
    if getattr(args, "format", "json") == "csv" and "csv" in report:
        text = report["csv"]
    else:
        report.pop("csv", None)
        text = json.dumps(report, indent=2, default=str) + "\n"
    out = getattr(args, "out", None)
    if not out:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        return _out_error(out, exc)
    return 0


def _report(args, results: dict, ok: bool, started: float) -> int:
    report = {
        "command": args.command,
        "parameters": {
            k: v
            for k, v in vars(args).items()
            if k not in ("func", "command") and v is not None
        },
        "results": results,
        "pass": ok,
        "duration_seconds": round(time.monotonic() - started, 3),
    }
    if "csv" in results:
        report["csv"] = results.pop("csv")
    if _emit(report, args):
        return USAGE_ERROR
    return 0 if ok else MISMATCH


# ---------------------------------------------------------------------------
# reproduce targets

def _reproduce_matrix_examples(args, started):
    results = {}
    ok = True
    cases = {(5, 3, 6): golden.MATRIX_5_3_6, (5, 3, 7): golden.MATRIX_5_3_7}
    csv_chunks = []
    for (k, d, n), expected in cases.items():
        m = build_incidence(k, d, n)
        got = m.data.to_dense()
        match = got == expected
        ok = ok and match
        results[f"A_{k}_{d}_{n}"] = {"match": match, "entries": got}
        csv_chunks.append(matrix_to_csv(m))
    results["csv"] = "".join(csv_chunks)
    return _report(args, results, ok, started)


def _reproduce_table1(args, started):
    bf = block_form(6, 4, 12)
    full = build_incidence(6, 4, 12)
    rows_ok = [tuple(p) for p in full.row_set] == golden.TABLE1_ROWS
    cols_ok = [tuple(p) for p in full.col_set] == golden.TABLE1_COLS
    entries_ok = True
    dense = full.data.to_dense()
    for i, mu in enumerate(full.row_set):
        for j, lam in enumerate(full.col_set):
            expected = golden.TABLE1_ENTRIES.get((tuple(mu), tuple(lam)), 0)
            if dense[i][j] != expected:
                entries_ok = False
    sub_536 = build_incidence(5, 3, 6)
    sub_537 = build_incidence(5, 3, 7)
    # dashed sub-blocks: bottom-right of the purple A_{6,3,6}, top-left of teal A_{5,4,12}
    purple = bf.top_left.data.to_dense()
    dashed1 = [row[1:] for row in purple]
    teal = bf.bottom_right.data.to_dense()
    dashed2 = [row[:6] for row in teal[:6]]
    sub1_ok = dashed1 == sub_536.data.to_dense()
    sub2_ok = dashed2 == sub_537.data.to_dense()
    ok = (
        rows_ok and cols_ok and entries_ok and bf.top_right_is_zero
        and bf.reassembles and sub1_ok and sub2_ok
        and full.data.nrows == 16 and full.data.ncols == 18
    )
    results = {
        "shape": [full.data.nrows, full.data.ncols],
        "row_labels_match": rows_ok,
        "col_labels_match": cols_ok,
        "entries_match": entries_ok,
        "top_right_zero": bf.top_right_is_zero,
        "diagonal_blocks_match": bf.reassembles,
        "sub_block_A536": sub1_ok,
        "sub_block_A537": sub2_ok,
        "csv": matrix_to_csv(full),
    }
    return _report(args, results, ok, started)


def _reproduce_table2(args, started):
    if args.truncate:
        # custom cell: nullity of the truncated matrix for a given tuple t
        try:
            t = tuple(int(x) for x in args.truncate.split(","))
            if any(x <= 0 for x in t):
                raise ValueError("t entries must be positive")
            # r = len(t) - 1 must be positive: the cell's k = 2r
            if len(t) < 2:
                raise ValueError("t needs at least two entries")
        except ValueError as exc:
            print(f"error: bad --truncate tuple: {exc}", file=sys.stderr)
            return USAGE_ERROR
        d = sum(t)
        what = f"--truncate sums to d = {d}"
    else:
        if args.n is not None:
            print("error: --n applies only with --truncate", file=sys.stderr)
            return USAGE_ERROR
        d = args.dmax if args.dmax is not None else 7
        if d < 4:
            print("error: --dmax must be between 4 and 9", file=sys.stderr)
            return USAGE_ERROR
        what = f"--dmax {d}"
    # d = 8, 9 are long runs behind --extended; d > 9 does not finish
    if d > 9:
        print(f"error: {what}, above the cap of 9", file=sys.stderr)
        return USAGE_ERROR
    if d > (9 if args.extended else 7):
        print(f"error: {what} requires --extended (d = 8, 9 are long runs)",
              file=sys.stderr)
        return USAGE_ERROR
    if args.truncate:
        r = len(t) - 1
        e = (args.n - r * (r + 1)) if args.n is not None else 0
        if e < 0:
            print(f"error: --n must be at least r(r+1) = {r * (r + 1)}",
                  file=sys.stderr)
            return USAGE_ERROR
        got = nullity_truncated(d, r, t, e)
        results = {"d": d, "r": r, "t": list(t), "n": r * (r + 1) + e,
                   "nullity": got}
        return _report(args, results, True, started)
    dmax = d
    cells = {}
    csv_lines = ["d,e,nullity,expected,match"]
    ok = True
    for d in range(4, dmax + 1):
        for e in range(0, 6):
            got = nullity_truncated(d, d - 2, table2_tuple(d, 0), e)
            expected = golden.TABLE2[(d, e)]
            match = got == expected
            ok = ok and match
            cells[f"{d},{e}"] = {"nullity": got, "expected": expected, "match": match}
            csv_lines.append(f"{d},{e},{got},{expected},{match}")
    results = {"cells": cells, "csv": "\n".join(csv_lines) + "\n"}
    return _report(args, results, ok, started)


def _reproduce_kernel(args, started):
    d = args.d if args.d is not None else 2
    if not 2 <= d <= 7:
        print("error: --d must be between 2 and 7", file=sys.stderr)
        return USAGE_ERROR
    try:
        rep = verify_kernel_dim_one(d)
        ok = rep["pass"]
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return MISMATCH
    results = {
        "d": d,
        "nullity": rep["nullity"],
        "kappa": format_partition(rep["kappa"]),
        "kernel": [str(v) for v in rep["kernel"]],
        "kappa_entry": str(rep["kappa_entry"]),
    }
    return _report(args, results, ok, started)


def _reproduce_fullrank(args, started):
    cases = []
    if args.k is not None or args.n is not None:
        if args.k is None or args.d is None or args.n is None:
            print("error: fullrank needs all of --k --d --n (or none)",
                  file=sys.stderr)
            return USAGE_ERROR
        if not (args.k >= 1 and args.d >= 1 and 1 <= args.n <= args.d * args.k):
            print("error: need 1 <= n <= d*k", file=sys.stderr)
            return USAGE_ERROR
        for flag, v in (("--k", args.k), ("--d", args.d)):
            if v > FULLRANK_MAX:
                print(f"error: {flag} {v}, above the cap of {FULLRANK_MAX}",
                      file=sys.stderr)
                return USAGE_ERROR
        cases.append((args.k, args.d, args.n))
    else:
        dmax = args.d if args.d is not None else 5
        if not 2 <= dmax <= FULLRANK_MAX:
            print(f"error: --d must be between 2 and {FULLRANK_MAX}",
                  file=sys.stderr)
            return USAGE_ERROR
        for k in range(1, FULLRANK_MAX + 1):
            for d in range(2, dmax + 1):
                for n in range(1, d * k + 1):
                    cases.append((k, d, n))
    ok = True
    failures = []
    for k, d, n in cases:
        rep = verify_full_rank(k, d, n)
        if not rep["pass"]:
            ok = False
            failures.append(rep)
    results = {"instances": len(cases), "failures": failures}
    return _report(args, results, ok, started)


def cmd_reproduce(args):
    started = time.monotonic()
    target = args.target
    if target == "matrix-examples":
        return _reproduce_matrix_examples(args, started)
    if target == "table1":
        return _reproduce_table1(args, started)
    if target == "table2":
        return _reproduce_table2(args, started)
    if target == "kernel":
        return _reproduce_kernel(args, started)
    if target == "fullrank":
        return _reproduce_fullrank(args, started)
    print(f"error: unknown target {target!r}", file=sys.stderr)
    return USAGE_ERROR


# ---------------------------------------------------------------------------
# plov and scan

def _parse_blocks(text: str) -> tuple[int, ...]:
    blocks = tuple(int(x) for x in text.split(","))
    if not blocks or any(b < 1 for b in blocks):
        raise ValueError("block sizes must be positive integers")
    if sum(blocks) > MAX_MODEL_DIM:
        raise ValueError(
            f"block sizes sum to {sum(blocks)}, above the cap of {MAX_MODEL_DIM}")
    return blocks


def cmd_plov(args):
    started = time.monotonic()
    if (args.model is None) == (args.abelian_blocks is None):
        print("error: give exactly one of --model or --abelian-blocks",
              file=sys.stderr)
        return USAGE_ERROR
    try:
        if args.model:
            with open(args.model) as fh:
                model = model_from_json(fh.read())
        else:
            blocks = _parse_blocks(args.abelian_blocks)
            model = AbelianSurrogate(jordan_matrix(blocks), jordan=blocks)
        if model.g < 2:
            raise ValueError(f"model has g = {model.g}; the pipeline needs g >= 2")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        report = run_pipeline(model)
    except ModelError as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return MISMATCH
    return _report(args, report, report["pass"], started)


def _jordan_types(d: int) -> list[tuple[int, ...]]:
    """All weakly decreasing block-size tuples summing to d, in decreasing
    lex order."""
    return [tuple(p for p in lam if p)
            for lam in enumerate_partitions(d, d, d)]


def _scan_one(blocks, seed):
    rng = Random(seed)
    model = random_conjugate(blocks, rng)
    try:
        report = run_pipeline(model)
        return {"jordan": list(blocks), "seed": seed, "plov": report["plov"],
                "k": report["k"], "pass": report["pass"],
                "conjecture_lb": report["checks"]["conjecture_lb"]}
    except ModelError as exc:
        return {"jordan": list(blocks), "seed": seed, "error": str(exc),
                "pass": False}


def cmd_scan(args):
    started = time.monotonic()
    if args.d is None or not 2 <= args.d <= MAX_MODEL_DIM:
        print(f"error: --d must be between 2 and {MAX_MODEL_DIM}", file=sys.stderr)
        return USAGE_ERROR
    if args.count < 1:
        print("error: --count must be at least 1", file=sys.stderr)
        return USAGE_ERROR
    seed = args.seed if args.seed is not None else 0
    types = _jordan_types(args.d)
    rows = [_scan_one(types[i % len(types)], seed + i) for i in range(args.count)]
    passed = sum(1 for r in rows if r.get("pass"))
    plov_values = sorted({r["plov"] for r in rows if "plov" in r})
    conjecture_holds = all(r.get("conjecture_lb", False) for r in rows)
    ok = passed == len(rows)
    results = {
        "models": len(rows),
        "passed": passed,
        "observed_plov": plov_values,
        "conjecture_lb_holds": conjecture_holds,  # reported, never asserted
        "rows": rows,
    }
    return _report(args, results, ok, started)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plovlab",
        description="Reproduce the restricted-partition tables and run the "
                    "polynomial-volume-growth pipeline with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", metavar="PATH")
        p.add_argument("--deterministic", action="store_true",
                       help="omit wall-clock timings for byte-identical output")

    rep = sub.add_parser("reproduce", help="rebuild a published table or matrix")
    rep.add_argument("target", choices=(
        "matrix-examples", "table1", "table2", "kernel", "fullrank"))
    rep.add_argument("--k", type=int)
    rep.add_argument("--d", type=int)
    rep.add_argument("--n", type=int)
    rep.add_argument("--dmax", type=int)
    rep.add_argument("--truncate", metavar="t0,t1,...",
                     help="custom tuple t for a single truncated-nullity cell")
    rep.add_argument("--extended", action="store_true",
                     help="allow the long-running d = 8, 9 table cells")
    common(rep)
    rep.set_defaults(func=cmd_reproduce)

    plov = sub.add_parser("plov", help="full dynamics pipeline for one model")
    plov.add_argument("--model", metavar="PATH", help="model JSON file")
    plov.add_argument("--abelian-blocks", metavar="n1,n2,...",
                      help="Jordan block sizes of an abelian surrogate")
    common(plov)
    plov.set_defaults(func=cmd_plov)

    scan = sub.add_parser("scan", help="seeded sweep over random surrogates")
    scan.add_argument("--d", type=int, required=True)
    scan.add_argument("--count", type=int, default=10)
    scan.add_argument("--seed", type=int, default=0)
    common(scan)
    scan.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    args.command = " ".join(argv)
    if args.out and _check_out(args.out):
        return USAGE_ERROR
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
