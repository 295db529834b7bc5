"""A fixed computation that measures how fast the machine runs right now.

The benchmark times ``reference_seconds()`` in its own process before and
after every op, and scales the op's times by it (``run.py``), because the
shared host it was built on runs the same code up to 1.7x slower for
seconds to minutes at a time.  The computation is the kind of work
``plovlab`` spends its time on: exact ``Fraction`` arithmetic on sparse
polynomials held in dicts keyed by exponent tuples.  It lives here, not in
the package, so no change to the package changes it.
"""

from __future__ import annotations

import time
from fractions import Fraction

VARIABLES = 5
POWER = 8
TERMS = 1287  # monomials of degree <= 8 in 5 variables


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(key, Fraction(0)) + ca * cb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def reference_seconds() -> float:
    """Wall time of (sum of x_i (i+1)/(i+3) - 7/5) ** POWER, expanded."""
    t0 = time.perf_counter()
    p = {tuple(int(i == j) for j in range(VARIABLES)): Fraction(i + 1, i + 3)
         for i in range(VARIABLES)}
    p[(0,) * VARIABLES] = Fraction(-7, 5)
    q = dict(p)
    for _ in range(POWER - 1):
        q = _mul(q, p)
    elapsed = time.perf_counter() - t0
    if len(q) != TERMS:
        raise RuntimeError(f"reference computation gave {len(q)} terms, not {TERMS}")
    return elapsed
