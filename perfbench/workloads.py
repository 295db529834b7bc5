"""The benchmark's workloads: seeded op lists and the check of each op's output.

An op is one ``plovlab`` CLI call.  Every op runs with ``--deterministic`` so
the same op always prints the same bytes, traced or not.
"""

from __future__ import annotations

import importlib.util
import json
import os
from dataclasses import dataclass
from random import Random

# Table 2 row d = 7: t = table2_tuple(7, 0), r = 5, n = r(r+1) + e.
TABLE2_T = (2, 1, 1, 1, 1, 1)
TABLE2_D = 7

KERNEL_D = 6

# (5,) is left out: its conjugates take 10-12 s, two thirds of a pass, which
# left two repeats of each op in a run and spread its times twice as wide.
PLOV_TYPES = ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,), (4, 1), (3, 2))
# Ops per pass: a second (4,) and (3,2) (0.9-1.0 s each), so the median falls
# among those four, whose cost varies little with the seed, and not on the
# (3,1) conjugate, which takes 0.26-0.43 s depending on the seed.
PLOV_PASS = PLOV_TYPES + ((4,), (3, 2))
# (k, plov) of the Jordan forms of the g = 5 types, from `plovlab plov
# --abelian-blocks`; conjugation changes neither.
G5_VALUES = {(4, 1): (6, 17), (3, 2): (4, 13)}
# A conjugate is accepted only if A - I has no zero entry (unless A = I), as
# sparse inputs cost about half as much, and no entry of A exceeds MAX_ENTRY.
MAX_ENTRY = 30
SHEARS_PER_DIM = 4


@dataclass(frozen=True)
class Op:
    label: str
    args: tuple[str, ...]  # CLI arguments after "plovlab"
    expected: dict


def load_golden(src: str):
    """``plovlab/golden.py`` as a standalone module, without the package."""
    path = os.path.join(src, "plovlab", "golden.py")
    spec = importlib.util.spec_from_file_location("plovlab_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def jordan(blocks: tuple[int, ...]) -> list[list[int]]:
    g = sum(blocks)
    a = [[int(i == j) for j in range(g)] for i in range(g)]
    pos = 0
    for b in blocks:
        for i in range(b - 1):
            a[pos + i][pos + i + 1] = 1
        pos += b
    return a


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def unimodular_pair(g: int, rng: Random):
    """(P, P^-1): a product of SHEARS_PER_DIM * g shears with coefficient +-1."""
    p = [[int(i == j) for j in range(g)] for i in range(g)]
    q = [row[:] for row in p]
    for _ in range(SHEARS_PER_DIM * g):
        i, j = rng.sample(range(g), 2)
        c = rng.choice((-1, 1))
        for col in range(g):
            p[i][col] += c * p[j][col]  # P <- (I + c e_ij) P
        for row in range(g):
            q[row][j] -= c * q[row][i]  # P^-1 <- P^-1 (I - c e_ij)
    return p, q


def conjugate(blocks: tuple[int, ...], rng: Random) -> list[list[int]]:
    """A seeded dense unimodular conjugate P^-1 J P of the Jordan matrix J."""
    j = jordan(blocks)
    g = len(j)
    if all(b == 1 for b in blocks):
        return j  # the identity is its own only conjugate
    for _ in range(10000):
        p, q = unimodular_pair(g, rng)
        a = matmul(q, matmul(j, p))
        dense = all(a[r][c] != int(r == c) for r in range(g) for c in range(g))
        if dense and max(abs(x) for row in a for x in row) <= MAX_ENTRY:
            return a
    raise RuntimeError(f"no dense conjugate of {blocks} found")


def model_text(a: list[list[int]]) -> str:
    return json.dumps({"type": "abelian", "g": len(a), "A": a}) + "\n"


def table2_ops(golden, seed: int) -> list[Op]:
    r = len(TABLE2_T) - 1
    t = ",".join(map(str, TABLE2_T))
    ops = [
        Op(f"table2 d={TABLE2_D} e={e}",
           ("reproduce", "table2", "--truncate", t, "--n", str(r * (r + 1) + e)),
           {"kind": "table2", "d": TABLE2_D, "n": r * (r + 1) + e,
            "nullity": golden.TABLE2[(TABLE2_D, e)]})
        for e in range(6)
    ]
    Random(f"table2/{seed}").shuffle(ops)
    return ops


def plov_models(seed: int) -> list[tuple[tuple[int, ...], str]]:
    """(Jordan type, model JSON) for each op of a plov pass, in a seeded order."""
    rng = Random(f"plov/{seed}")
    models = [(blocks, model_text(conjugate(blocks, rng))) for blocks in PLOV_PASS]
    rng.shuffle(models)
    return models


def plov_ops(golden, seed: int, model_dir: str) -> list[Op]:
    ops = []
    for i, (blocks, text) in enumerate(plov_models(seed)):
        name = "x".join(map(str, blocks))
        path = os.path.join(model_dir, f"model-{i}-{name}.json")
        with open(path, "w") as fh:
            fh.write(text)
        k, plov = golden.DIM4_VALUES.get(blocks) or G5_VALUES[blocks]
        ops.append(Op(f"plov {blocks}", ("plov", "--model", path),
                      {"kind": "plov", "k": k, "plov": plov}))
    return ops


def make_ops(workload: str, golden, seed: int, work_dir: str) -> list[Op]:
    if workload == "table2":
        ops = table2_ops(golden, seed)
    elif workload == "kernel":
        ops = [Op(f"kernel d={KERNEL_D}", ("reproduce", "kernel", "--d", str(KERNEL_D)),
                  {"kind": "kernel", "d": KERNEL_D})]
    else:
        ops = plov_ops(golden, seed, work_dir)
    return [Op(op.label, op.args + ("--deterministic",), op.expected) for op in ops]


def check(op: Op, code: int, stdout: bytes) -> str | None:
    """None if the op's output is right, else what is wrong with it."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
        results = report["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"
    if report.get("pass") is not True:
        return "report says pass = false"
    want = op.expected
    if want["kind"] == "table2":
        got = {"d": results.get("d"), "n": results.get("n"),
               "nullity": results.get("nullity")}
        expected = {key: want[key] for key in got}
    elif want["kind"] == "kernel":
        got = {"d": results.get("d"), "nullity": results.get("nullity")}
        expected = {"d": want["d"], "nullity": 1}
    else:
        got = {"k": results.get("k"), "plov": results.get("plov")}
        expected = {"k": want["k"], "plov": want["plov"]}
    if got != expected:
        return f"got {got}, expected {expected}"
    return None
