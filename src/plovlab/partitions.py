"""Restricted partitions: enumeration, counting, ordering, and the bump calculus.

A restricted partition is a weakly decreasing d-tuple of integers in [0, k]
(trailing zeros explicit).  Partition sets are always listed in decreasing
lexicographic order, which is Python's tuple comparison on d-tuples.
"""

from __future__ import annotations

from functools import lru_cache

from .exactmat import Record

__all__ = [
    "Partition",
    "PartitionSet",
    "enumerate_partitions",
    "partition_set",
    "count",
    "bump",
    "decompose",
    "multiplicities",
    "format_partition",
    "parse_partition",
]

Partition = tuple[int, ...]


def format_partition(p: Partition) -> str:
    """Serialize as comma-joined parts, e.g. "6,4,2,0"."""
    return ",".join(str(x) for x in p)


def parse_partition(s: str) -> Partition:
    parts = tuple(int(x) for x in s.split(","))
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {s!r}")
    if parts and parts[-1] < 0:
        raise ValueError(f"parts must be nonnegative: {s!r}")
    return parts


def multiplicities(p: Partition, k: int) -> list[int]:
    """Multiplicity vector e with e[i] = number of parts equal to i, for 0 <= i <= k."""
    e = [0] * (k + 1)
    for part in p:
        e[part] += 1
    return e


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

    def __init__(self, k: int, d: int, n: int, members: tuple[Partition, ...]):
        self._set(k, d, n, members)

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


def bump(mu: Partition, i: int, k: int) -> tuple[Partition, int] | None:
    """Replace one part equal to i with i+1.

    Returns (mu(i), weight e_i), or None when mu has no part equal to i
    (which maps to a zero matrix entry).  Requires 0 <= i <= k-1.  The
    first part equal to i is raised: every part before it is at least
    i+1, so mu(i) is weakly decreasing as mu is.
    """
    if not 0 <= i <= k - 1:
        raise ValueError(f"bump index {i} outside [0, {k - 1}]")
    e_i = mu.count(i)
    if e_i == 0:
        return None
    p = mu.index(i)
    return mu[:p] + (i + 1,) + mu[p + 1:], e_i


def decompose(k: int, d: int, n: int) -> tuple[tuple[Partition, ...], PartitionSet]:
    """Split P(k,d,n) as {first part = k} (prepend-k embedding) plus P(k-1,d,n)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    embedded = tuple((k,) + nu for nu in enumerate_partitions(k, d - 1, n - k))
    rest = PartitionSet(k - 1, d, n, enumerate_partitions(k - 1, d, n))
    return embedded, rest
