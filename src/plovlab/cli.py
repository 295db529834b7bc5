"""Command-line surface: each reproduction target is one subcommand.

Every command and every ``reproduce`` target has its own parser, which holds
only the flags that command reads: ``--out`` and ``--deterministic`` are on
all of them, ``--format`` only on the targets with a CSV payload
(``matrix-examples``, ``table1`` and ``table2``, whose ``--truncate`` cell
has none: ``--format csv`` with it is a usage error).

Exit codes: 0 = all asserted checks pass, 1 = verification mismatch,
2 = usage error.  Every usage error, from the parser or from a range check,
is one ``error: <message>`` line on stderr, and ``main`` returns 2 rather
than raising ``SystemExit``.  Every exit 1 prints one ``check failed:
<message>`` line on stderr, naming the check and its instance.  The library
returns computed values or raises ``CheckFailed``, and only this module
decides what failed: a claim that fails on an instance reaches ``main``,
which prints the line with nothing on stdout; a golden-table mismatch, or a
``scan`` model whose pipeline failed, is the first mismatch that
``_report`` prints after the report, which then holds ``"pass": false``.
Every stderr line is cut at the same length.  Reports are JSON (the CSV
payload under ``--format csv``); with --deterministic the wall-clock
duration is omitted so identical flags give byte-identical output.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
import time
from random import Random

from . import golden
from .dynamics import (
    MAX_MODEL_DIM,
    AbelianSurrogate,
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
from .exactmat import CheckFailed
from .partitions import enumerate_partitions, format_partition

USAGE_ERROR = 2
MISMATCH = 1
# largest k and d of reproduce fullrank, one instance or the sweep
FULLRANK_MAX = 6
# largest scan --count; a larger sweep is several calls with other seeds
SCAN_MAX_COUNT = 1000
# longest error message printed in full; a longer one, which comes from
# echoed input or from a large number, is cut there and marked
USAGE_MAX_CHARS = 200


def _usage(message: str, code: int = USAGE_ERROR) -> int:
    """Print a usage error, or a failed check under code MISMATCH, as one
    line of bounded length on stderr and return the exit code."""
    message = message.replace("\n", "\\n")
    if len(message) > USAGE_MAX_CHARS:
        cut = len(message) - USAGE_MAX_CHARS
        message = f"{message[:USAGE_MAX_CHARS]}... [{cut} more characters]"
    label = "error:" if code == USAGE_ERROR else "check failed:"
    print(label, message, file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes each flag only as spelled in full, and
    whose errors are one line and exit code 2."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(_usage(message))


def _parse_int(text: str) -> int:
    """text as an int, only in the spelling the int prints, so a report
    echoes what was typed: int() also reads " 2", "+2", "02" and "2_0"."""
    try:
        if str(value := int(text)) == text:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _check_out(path: str) -> int:
    """Open --out for appending before any work starts, so that an
    unwritable path exits 2 at once; a file the check creates is removed."""
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        return _usage(f"cannot write --out {path}: {exc.strerror}")
    if not existed:
        os.remove(path)
    return 0


def _report(args, results: dict, started: float,
            csv: str | None = None, mismatch: str | None = None) -> int:
    """Write the JSON report, or the CSV payload under --format csv, to
    stdout or --out, and return the exit code.  A mismatch, the first
    instance that failed, is then printed as a failed check, and the report
    passes exactly when there is none."""
    if csv is not None and args.format == "csv":
        text = csv
    else:
        report = {
            "command": args.command,
            "parameters": {
                k: v
                for k, v in vars(args).items()
                if k not in ("func", "command") and v is not None
            },
            "results": results,
            "pass": mismatch is None,
        }
        if not args.deterministic:
            report["duration_seconds"] = round(time.monotonic() - started, 3)
        text = json.dumps(report, indent=2, default=str) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return _usage(f"cannot write --out {args.out}: {exc.strerror}")
    if mismatch is not None:
        return _usage(mismatch, MISMATCH)
    return 0


def _first_label(what: str, got, expected: list) -> str | None:
    """Name the first position where two label lists differ, a missing
    label shown as "none", or None when they are equal."""
    got, expected = ([format_partition(p) for p in labels] + ["none"]
                     for labels in (got, expected))
    i = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), None)
    return None if i is None else f"{what} {i}: {got[i]}, expected {expected[i]}"


def _first_cell(what: str, m, expected: list[list[int]]) -> str | None:
    """Name the first entry of the incidence matrix m that differs from the
    dense matrix expected, by its row and column partitions, or None."""
    got = m.data.to_dense()
    if got == expected:
        return None
    if [len(r) for r in expected] != [m.data.ncols] * m.data.nrows:
        return f"{what}: shape {m.data.nrows}x{m.data.ncols} differs from golden"
    i, j = next((i, j) for i, (a, b) in enumerate(zip(got, expected))
                for j, (x, y) in enumerate(zip(a, b)) if x != y)
    return (f"{what} cell mu={format_partition(m.row_set[i])}, "
            f"lambda={format_partition(m.col_set[j])}: "
            f"entry {got[i][j]}, expected {expected[i][j]}")


# ---------------------------------------------------------------------------
# reproduce targets

def _reproduce_matrix_examples(args, started):
    results = {}
    mismatch = None
    cases = {(5, 3, 6): golden.MATRIX_5_3_6, (5, 3, 7): golden.MATRIX_5_3_7}
    csv_chunks = []
    for (k, d, n), expected in cases.items():
        m = build_incidence(k, d, n)
        cell = _first_cell(f"matrix-examples A_{{{k},{d},{n}}}", m, expected)
        mismatch = mismatch or cell
        results[f"A_{k}_{d}_{n}"] = {"match": cell is None,
                                     "entries": m.data.to_dense()}
        csv_chunks.append(matrix_to_csv(m))
    return _report(args, results, started, "".join(csv_chunks), mismatch)


def _reproduce_table1(args, started):
    full, top_left, bottom_right = block_form(6, 4, 12)
    entries = [[golden.TABLE1_ENTRIES.get((mu, lam), 0) for lam in full.col_set]
               for mu in full.row_set]
    sub_536 = build_incidence(5, 3, 6)
    sub_537 = build_incidence(5, 3, 7)
    # dashed sub-blocks: bottom-right of the purple A_{6,3,6}, top-left of teal A_{5,4,12}
    dashed1 = [row[1:] for row in top_left.data.to_dense()]
    dashed2 = [row[:6] for row in bottom_right.data.to_dense()[:6]]
    # each check's first mismatch, None when it passes
    checks = {
        "row_labels_match": _first_label("table1 row", full.row_set,
                                         golden.TABLE1_ROWS),
        "col_labels_match": _first_label("table1 column", full.col_set,
                                         golden.TABLE1_COLS),
        "entries_match": _first_cell("table1", full, entries),
        "sub_block_A536": _first_cell("table1 dashed A_{5,3,6}", sub_536, dashed1),
        "sub_block_A537": _first_cell("table1 dashed A_{5,3,7}", sub_537, dashed2),
    }
    # the label checks fix the shape at the golden 16 x 18
    mismatch = next(filter(None, checks.values()), None)
    results = {"shape": list(full.shape),
               **{name: found is None for name, found in checks.items()}}
    return _report(args, results, started, matrix_to_csv(full), mismatch)


def _reproduce_table2(args, started):
    if args.truncate is not None:
        # custom cell: nullity of the truncated matrix for a given tuple t
        if args.format == "csv":
            return _usage("--format csv has no payload for a --truncate cell")
        try:
            t = tuple(map(_parse_int, args.truncate.split(",")))
            if any(x <= 0 for x in t):
                raise ValueError("t entries must be positive")
            # r = len(t) - 1 must be positive: the cell's k = 2r
            if len(t) < 2:
                raise ValueError("t needs at least two entries")
        except (ValueError, argparse.ArgumentTypeError) as exc:
            return _usage(f"bad --truncate tuple: {exc}")
        d = sum(t)
        what = f"--truncate sums to d = {d}"
    else:
        if args.n is not None:
            return _usage("--n applies only with --truncate")
        d = args.dmax if args.dmax is not None else 7
        if d < 4:
            return _usage("--dmax must be between 4 and 9")
        what = f"--dmax {d}"
    # d = 8, 9 are long runs behind --extended; d > 9 does not finish
    if d > 9:
        return _usage(f"{what}, above the cap of 9")
    if d > (9 if args.extended else 7):
        return _usage(f"{what} requires --extended (d = 8, 9 are long runs)")
    if args.truncate is not None:
        r = len(t) - 1
        # n runs from r(r+1), Table 2's column e = 0, to d*k for k = 2r:
        # above d*k, P(k, d, n) is empty
        lo, hi = r * (r + 1), d * 2 * r
        n = lo if args.n is None else args.n
        if not lo <= n <= hi:
            return _usage(f"--n must be between r(r+1) = {lo} and d*k = {hi}")
        got = nullity_truncated(t, n - lo)
        results = {"d": d, "r": r, "t": list(t), "n": n, "nullity": got}
        return _report(args, results, started)
    dmax = d
    cells = {}
    csv_lines = ["d,e,nullity,expected,match"]
    mismatch = None
    for d in range(4, dmax + 1):
        for e in range(0, 6):
            got = nullity_truncated(table2_tuple(d, 0), e)
            expected = golden.TABLE2[(d, e)]
            match = got == expected
            if mismatch is None and not match:
                mismatch = (f"table2 cell d={d}, e={e}: nullity {got}, "
                            f"expected {expected}")
            cells[f"{d},{e}"] = {"nullity": got, "expected": expected, "match": match}
            csv_lines.append(f"{d},{e},{got},{expected},{match}")
    return _report(args, {"cells": cells}, started,
                   "\n".join(csv_lines) + "\n", mismatch)


def _reproduce_kernel(args, started):
    d = args.d if args.d is not None else 2
    if not 2 <= d <= 7:
        return _usage("--d must be between 2 and 7")
    kernel, kappa, kappa_entry = verify_kernel_dim_one(d)
    results = {
        "d": d,
        # the check returns only when the Vandermonde vector spans the
        # kernel, so the nullity is one; perfbench's check reads this field
        "nullity": 1,
        "kappa": format_partition(kappa),
        "kernel": [str(v) for v in kernel],
        "kappa_entry": str(kappa_entry),
    }
    return _report(args, results, started)


def _reproduce_fullrank(args, started):
    cases = []
    if args.k is not None or args.n is not None:
        if args.k is None or args.d is None or args.n is None:
            return _usage("fullrank needs all of --k --d --n (or none)")
        if not (args.k >= 1 and args.d >= 1 and 1 <= args.n <= args.d * args.k):
            return _usage("need 1 <= n <= d*k")
        for flag, v in (("--k", args.k), ("--d", args.d)):
            if v > FULLRANK_MAX:
                return _usage(f"{flag} {v}, above the cap of {FULLRANK_MAX}")
        cases.append((args.k, args.d, args.n))
    else:
        dmax = args.d if args.d is not None else 5
        if not 2 <= dmax <= FULLRANK_MAX:
            return _usage(f"--d must be between 2 and {FULLRANK_MAX}")
        for k in range(1, FULLRANK_MAX + 1):
            for d in range(2, dmax + 1):
                for n in range(1, d * k + 1):
                    cases.append((k, d, n))
    for k, d, n in cases:
        verify_full_rank(k, d, n)
    return _report(args, {"instances": len(cases)}, started)


# ---------------------------------------------------------------------------
# plov and scan

def _parse_blocks(text: str) -> tuple[int, ...]:
    try:
        blocks = tuple(map(_parse_int, text.split(",")))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"bad --abelian-blocks list: {exc}") from None
    if not blocks or any(b < 1 for b in blocks):
        raise ValueError("block sizes must be positive integers")
    if sum(blocks) > MAX_MODEL_DIM:
        raise ValueError(
            f"block sizes sum to {sum(blocks)}, above the cap of {MAX_MODEL_DIM}")
    return blocks


def _read_model(path: str) -> AbelianSurrogate:
    """The model in the JSON file at path.  A file that cannot be read, or
    that is not UTF-8 JSON, raises ValueError naming --model and the path;
    a missing file keeps the OS's message, which names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ValueError(f"cannot read --model {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"--model {path} is not UTF-8: {exc.reason} "
                         f"at byte {exc.start}") from None
    try:
        return model_from_json(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--model {path} is not JSON: {exc.msg} at line "
                         f"{exc.lineno} column {exc.colno}") from None


def cmd_plov(args, started):
    try:
        if args.model is not None:
            model = _read_model(args.model)
        else:
            blocks = _parse_blocks(args.abelian_blocks)
            model = AbelianSurrogate(jordan_matrix(blocks), jordan=blocks)
        if model.g < 2:
            raise ValueError(f"model has g = {model.g}; the pipeline needs g >= 2")
    except (ValueError, OSError) as exc:
        return _usage(str(exc))
    return _report(args, run_pipeline(model), started)


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
                "k": report["k"],
                "conjecture_lb": report["checks"]["conjecture_lb"]}
    except CheckFailed as exc:
        return {"jordan": list(blocks), "seed": seed, "error": str(exc)}


def cmd_scan(args, started):
    if not 2 <= args.d <= MAX_MODEL_DIM:
        return _usage(f"--d must be between 2 and {MAX_MODEL_DIM}")
    if not 1 <= args.count <= SCAN_MAX_COUNT:
        return _usage(f"--count must be between 1 and {SCAN_MAX_COUNT}")
    types = _jordan_types(args.d)
    rows = [_scan_one(types[i % len(types)], args.seed + i)
            for i in range(args.count)]
    failed = [r for r in rows if "error" in r]
    plov_values = sorted({r["plov"] for r in rows if "plov" in r})
    conjecture_holds = all(r.get("conjecture_lb", False) for r in rows)
    results = {
        "models": len(rows),
        "passed": len(rows) - len(failed),
        "observed_plov": plov_values,
        "conjecture_lb_holds": conjecture_holds,  # reported, never asserted
        "rows": rows,
    }
    mismatch = next((f"scan model jordan={format_partition(r['jordan'])}, "
                     f"seed={r['seed']}: {r['error']}" for r in failed), None)
    return _report(args, results, started, mismatch=mismatch)


# ---------------------------------------------------------------------------

def _common(p, func, csv=False):
    """After a command's own flags: --format on a target with a CSV payload,
    then --out and --deterministic."""
    if csv:
        p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--deterministic", action="store_true",
                   help="omit wall-clock timings for byte-identical output")
    p.set_defaults(func=func)


# Each builder adds its command's parser to a subparsers action; a builder
# with subcommands of its own builds those that the rest of argv names.

def _add_matrix_examples(sub, rest):
    _common(sub.add_parser("matrix-examples",
                           help="the two printed 5x6 and 6x6 matrices"),
            _reproduce_matrix_examples, csv=True)


def _add_table1(sub, rest):
    _common(sub.add_parser("table1", help="block form of A_{6,4,12}"),
            _reproduce_table1, csv=True)


def _add_table2(sub, rest):
    table2 = sub.add_parser("table2", help="truncated nullity table")
    table2.add_argument("--n", type=_parse_int, help="n of a --truncate cell")
    size = table2.add_mutually_exclusive_group()
    size.add_argument("--dmax", type=_parse_int)
    size.add_argument("--truncate", metavar="t0,t1,...",
                      help="custom tuple t for a single truncated-nullity cell")
    table2.add_argument("--extended", action="store_true",
                        help="allow the long-running d = 8, 9 table cells")
    _common(table2, _reproduce_table2, csv=True)


def _add_kernel(sub, rest):
    kernel = sub.add_parser("kernel", help="one-dimensional truncated kernel")
    kernel.add_argument("--d", type=_parse_int)
    _common(kernel, _reproduce_kernel)


def _add_fullrank(sub, rest):
    fullrank = sub.add_parser(
        "fullrank", help="full rank of A_{k,d,n}: one instance, or a sweep")
    for flag in ("--k", "--d", "--n"):
        fullrank.add_argument(flag, type=_parse_int)
    _common(fullrank, _reproduce_fullrank)


def _add_reproduce(sub, rest):
    rep = sub.add_parser("reproduce", help="rebuild a published table or matrix")
    _add_branch(rep.add_subparsers(dest="target", required=True),
                REPRODUCE_TARGETS, rest)


def _add_plov(sub, rest):
    plov = sub.add_parser("plov", help="full dynamics pipeline for one model")
    source = plov.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", metavar="PATH", help="model JSON file")
    source.add_argument("--abelian-blocks", metavar="n1,n2,...",
                        help="Jordan block sizes of an abelian surrogate")
    _common(plov, cmd_plov)


def _add_scan(sub, rest):
    scan = sub.add_parser("scan", help="seeded sweep over random surrogates")
    scan.add_argument("--d", type=_parse_int, required=True)
    scan.add_argument("--count", type=_parse_int, default=10)
    scan.add_argument("--seed", type=_parse_int, default=0)
    _common(scan, cmd_scan)


REPRODUCE_TARGETS = {
    "matrix-examples": _add_matrix_examples,
    "table1": _add_table1,
    "table2": _add_table2,
    "kernel": _add_kernel,
    "fullrank": _add_fullrank,
}
COMMANDS = {"reproduce": _add_reproduce, "plov": _add_plov, "scan": _add_scan}


def _add_branch(sub, builders: dict, rest) -> None:
    """Add the parser that rest's first word names, given the words after
    it; when rest is None or names none of the builders, add every parser
    with all of its subcommands, so the choices an error lists are all
    there."""
    if rest and rest[0] in builders:
        builders[rest[0]](sub, rest[1:])
    else:
        for build in builders.values():
            build(sub, None)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """One parser per command and per reproduce target, holding only the
    flags that its handler, the parser's ``func`` default, reads.

    Given argv, only the branch it names is built: the parsers on its path
    from the top.  Every other branch would only add choices to an error
    about an unknown name, and that error, like any help text, comes from
    the full tree: without argv, for a name that no parser holds, and
    whenever argv asks for help.
    """
    parser = _Parser(
        prog="plovlab",
        description="Reproduce the restricted-partition tables and run the "
                    "polynomial-volume-growth pipeline with exact arithmetic.",
    )
    if argv is not None and ("-h" in argv or "--help" in argv):
        argv = None
    _add_branch(parser.add_subparsers(dest="cmd", required=True),
                COMMANDS, argv)
    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    # At exit, before the interpreter's finalization collections, freeze
    # the heap: they then skip the objects that startup, the imports and
    # the command left, which only die with the process.  Registered once
    # per process, however often main is called; nothing changes while
    # the command runs.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:  # a usage error (2), or --help (0)
        return exc.code
    args.command = " ".join(argv)
    if args.out is not None and _check_out(args.out):
        return USAGE_ERROR
    try:
        return args.func(args, started)
    except CheckFailed as exc:
        return _usage(str(exc), MISMATCH)


if __name__ == "__main__":
    sys.exit(main())
