"""Restricted partitions: enumeration, counting and ordering.

A restricted partition is a weakly decreasing d-tuple of integers in [0, k]
(trailing zeros explicit).  Partition sets are always listed in decreasing
lexicographic order, which is Python's tuple comparison on d-tuples.
"""

from __future__ import annotations

from functools import lru_cache

from .exactmat import Record

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


class PartitionSet(Record):
    """P(k, d, n) with members in decreasing lexicographic order."""

    _fields = ("k", "d", "n", "members")
    __slots__ = _fields + ("_idx",)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> Partition:
        return self.members[i]

    def index_of(self, p: Partition) -> int:
        return self._index()[p]

    def __contains__(self, p: Partition) -> bool:
        return p in self._index()

    def _index(self) -> dict[Partition, int]:
        # lazy lookup table; tuples hash cheaply so a dict beats binary search
        idx = getattr(self, "_idx", None)
        if idx is None:
            idx = {p: i for i, p in enumerate(self.members)}
            object.__setattr__(self, "_idx", idx)
        return idx


class CoeffVector(Record):
    """Exact coefficients indexed by a partition set, in its decreasing
    lex order: a symmetric polynomial's rational expansion in the normalized
    monomial basis (`symfun`), or a model's integer w-vector (`dynamics`)."""

    __slots__ = _fields = ("index", "entries")

    def __init__(self, index: PartitionSet, entries: tuple):
        if len(entries) != len(index):
            raise ValueError("entry count must match the index set")
        super().__init__(index, entries)

    def __getitem__(self, lam: Partition):
        return self.entries[self.index.index_of(lam)]


def partition_set(k: int, d: int, n: int) -> PartitionSet:
    """P(k, d, n); P(0, d, n) is {0^d} at n = 0 and empty otherwise."""
    if k < 0 or d < 1:
        raise ValueError("k must be nonnegative and d positive")
    return PartitionSet(k, d, n, enumerate_partitions(k, d, n))


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

