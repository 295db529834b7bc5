"""Restricted partitions: enumeration, counting and ordering.

A restricted partition is a weakly decreasing d-tuple of integers in [0, k]
(trailing zeros explicit).  Partition sets are always listed in decreasing
lexicographic order, which is Python's tuple comparison on d-tuples.
"""

from __future__ import annotations

from functools import lru_cache

Partition = tuple[int, ...]


def format_partition(p: Partition) -> str:
    """Serialize as comma-joined parts, e.g. "6,4,2,0"."""
    return ",".join(str(x) for x in p)


@lru_cache(maxsize=None)
def enumerate_partitions(k: int, d: int, n: int) -> tuple[Partition, ...]:
    """All weakly decreasing d-tuples in [0, k] summing to n, in decreasing lex order.

    Recursive descent on the first part (largest first) emits decreasing-lex
    order natively.  Empty for n < 0 or n > d*k.
    """
    if k < 0 or d < 0 or n < 0 or n > d * k:
        return ()
    if d == 0:
        return ((),) if n == 0 else ()
    out = []
    # first part a needs n - a to fit into d-1 parts each <= a
    for a in range(min(k, n), -1, -1):
        if n - a > (d - 1) * a:
            break
        for rest in enumerate_partitions(a, d - 1, n - a):
            out.append((a,) + rest)
    return tuple(out)


def partition_set(k: int, d: int, n: int) -> tuple[Partition, ...]:
    """P(k, d, n); P(0, d, n) is {0^d} at n = 0 and empty otherwise."""
    if k < 0 or d < 1:
        raise ValueError("k must be nonnegative and d positive")
    return enumerate_partitions(k, d, n)


_count_cache: dict[tuple[int, int, int], int] = {}


def count(k: int, d: int, n: int) -> int:
    """p(k, d, n) via the recurrence p(k,d,n) = p(k,d-1,n) + p(k-1,d,n-d).

    Independent of enumerate_partitions, so the two cross-check each other.
    """
    if k < 1 or d < 1:
        raise ValueError("k and d must be positive")
    return _count(k, d, n)


def _count(k: int, d: int, n: int) -> int:
    if n < 0 or n > d * k:
        return 0
    if n == 0:
        return 1
    if d == 0 or k == 0:
        return 0  # n > 0 at this point
    key = (k, d, n)
    val = _count_cache.get(key)
    if val is None:
        val = _count(k, d - 1, n) + _count(k - 1, d, n - d)
        _count_cache[key] = val
    return val

