"""Exact sparse integer matrices with a deterministic rank over Q.

Every entry is a Python int by construction: ``incidence.build_incidence``,
``incidence.truncate_columns`` and ``ExactMatrix.blocks`` are the only
producers, and none checks its entries again.  The validating constructors,
which reject a Fraction or a float with TypeError, live in
``tests/oracles.py``.

The rank is the one elimination.  It eliminates the transpose (rank A =
rank A^T): the columns of A become the rows, with one column per nonzero
row of A.  Rows are reduced mod a prime p and eliminated one at a time, in
decreasing leading column: each is cancelled against the pivots already
held, in increasing column order, and becomes the pivot of the first
column that has none.  The pivot columns, and so the rank, do not depend on
that order; it sets only the fill and the time.  The r pivots mod p never
exceed the rank over Q, so r is certified at once when it is the number of
nonzero rows or of nonzero columns of A.  Otherwise, for each free column
f, the left kernel vector with x_f = 1 and every other free entry 0 is
solved mod p, lifted to integers over one common denominator by Wang's
rational reconstruction, and checked exactly against every column of A.
These vectors are independent, so they certify r.  A failed certificate
escalates through the primes of ``_PRIMES``; after the last one, the same
elimination runs once more mod a Mersenne prime above the Hadamard bound of
the rows, where the pivot count is the rank with no certificate.

The rank starts at the word-size prime 2^30 - 35, where residues are
one-digit ints and their products two-digit ints; a lifted vector there has
entries and a common denominator of at most about 2^14.5.  The choice of
prime changes only the speed: every certificate is exact.  On the
truncated Table 2 matrices the transpose is 1.3 to 4 times as fast as
eliminating the rows at d = 7 and about 3 times at d = 8, e = 0; at e = 1,
where only the left kernel lifts mod 2^30 - 35, it is 8 to 10 times
(d = 7) and 45 times (d = 8) as fast.

The kernel theorem needs no basis: ``nullspace_basis`` certifies that a
given int vector x spans the kernel.  It does when x is nonzero, m x is
exactly zero and the transposed echelon mod the word-size prime has
ncols - 1 pivots, with no lift at all; when that bound falls short, the
exact rank decides, starting from that echelon.  Everything is exact; no
floating point anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush
from math import gcd, isqrt
from operator import index

Entry = tuple[int, int]


class Record:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``_fields`` and lists them in
    ``__slots__``; the constructor takes one value per field, in that order,
    and raises TypeError naming the fields on any other count.  A subclass
    defines ``__init__`` only to check its values before calling this one.
    Two records of the same class are equal, and hash alike, when their
    fields are equal.  Assigning or deleting an attribute raises
    AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"({', '.join(self._fields)}), got {len(values)} "
                            f"values")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CheckFailed(ValueError):
    """A claim of the paper failed on an instance; the message names the
    check and the instance in one line."""


class ExactMatrix(Record):
    """Sparse integer matrix; rows hold (col, value) pairs with strictly
    increasing column indices and no explicit zeros.  The row count is
    len(rows); ncols is stored, since trailing zero columns appear in no
    row.  Degenerate 0 x m and m x 0 shapes are legal."""

    __slots__ = _fields = ("ncols", "rows")

    def __init__(self, ncols: int, rows: tuple[tuple[Entry, ...], ...]):
        if ncols < 0:
            raise ValueError("negative column count")
        super().__init__(ncols, rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for i, row in enumerate(self.rows):
            for c, v in row:
                out[i][c] = v
        return out

    def matvec(self, x) -> list:
        """A x; an int x gives ints."""
        if len(x) != self.ncols:
            raise ValueError("dimension mismatch")
        return [sum(v * x[c] for c, v in row) for row in self.rows]

    def blocks(self, i: int, j: int) -> tuple["ExactMatrix", ...]:
        """Cut above row i and left of column j into the blocks (top left,
        top right, bottom left, bottom right), each renumbered from 0.  Each
        row splits at one bisection; a cut outside the matrix raises
        ValueError."""
        if not (0 <= i <= self.nrows and 0 <= j <= self.ncols):
            raise ValueError(f"cut ({i}, {j}) outside the matrix")
        left, right = [], []
        for row in self.rows:
            s = bisect_left(row, (j,))
            left.append(row[:s])
            right.append(tuple([(c - j, v) for c, v in row[s:]]))
        w = self.ncols - j
        return (ExactMatrix(j, tuple(left[:i])),
                ExactMatrix(w, tuple(right[:i])),
                ExactMatrix(j, tuple(left[i:])),
                ExactMatrix(w, tuple(right[i:])))


# Primes of the modular path.  A kernel vector lifts when its entries and
# their common denominator are at most isqrt(p // 2): about 2^14.5 for the
# word-size prime 2^30 - 35, 2^63 for 2^127 - 1 and 2^260 for 2^521 - 1.
# The rank starts at the word-size prime, and so does a kernel candidate's
# rank bound.
_PRIMES = (2**30 - 35, 2**127 - 1, 2**521 - 1)

# The exponents e of the Mersenne primes 2^e - 1 above the last of
# ``_PRIMES`` (OEIS A000043), from which the rank's last step takes its prime.
_MERSENNE_EXPONENTS = (607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941,
                       11213, 19937, 21701, 23209, 44497, 86243, 110503,
                       132049, 216091)


def _hadamard_prime(rows: list[dict[int, int]]) -> int:
    """The least Mersenne prime of ``_MERSENNE_EXPONENTS`` above the
    Hadamard bound H = prod |row| of the integer rows.

    Each row has sum v^2 < 2^b, b the bit length of that sum, so
    H < 2^(B/2) for B the sum of the b; every e > ceil(B / 2) gives
    2^e - 1 > H.  A bound above the table raises ValueError."""
    half = (sum(sum(v * v for v in row.values()).bit_length()
                for row in rows) + 1) // 2
    for e in _MERSENNE_EXPONENTS:
        if e > half:
            return 2**e - 1
    raise ValueError(f"Hadamard bound 2^{half} above every Mersenne prime "
                     f"of the rank's table")


def _modular_echelon(rows: list[dict[int, int]], ncols: int, p: int):
    """Echelon form mod p of integer rows, one row at a time.

    The rows are taken in decreasing leading column, ties in input order.
    Each is scattered into one reused dense accumulator, and its columns are
    popped from a heap in increasing order: a column that already has a
    pivot is cancelled against it, and the first one that has none makes the
    row the pivot of that column.  A row that cancels to zero is dropped.
    Stops once every column has a pivot.  Returns pivots as (col, row_dict)
    in increasing column order; each pivot row is scaled so its pivot entry
    is -1 and stored without it."""
    todo = []
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        if row:
            todo.append((min(row), row))
    todo.sort(key=lambda t: -t[0])  # stable, so ties keep input order
    held: dict[int, dict[int, int]] = {}
    acc = [0] * ncols  # zero between rows
    for _, row in todo:
        for c, v in row.items():
            acc[c] = v
        heap = list(row)
        heapify(heap)
        while heap:
            c = heappop(heap)
            q = acc[c]
            if not q:  # cancelled, or pushed twice
                continue
            acc[c] = 0
            piv = held.get(c)
            if piv is None:
                neg_inv = p - pow(q, -1, p)
                new = {}
                for j in heap:
                    if acc[j]:
                        new[j] = acc[j] * neg_inv % p
                        acc[j] = 0
                held[c] = new
                break
            for j, v in piv.items():
                a = acc[j]
                if not a:  # j > c is not queued, or only as a stale copy
                    heappush(heap, j)
                acc[j] = (a + q * v) % p
        if len(held) == ncols:
            break
    return sorted(held.items())


def _wang_denominator(a: int, p: int, bound: int) -> int | None:
    """Denominator d of the fraction n/d = a mod p with |n|, d <= bound
    (Wang's rational reconstruction), or None if there is none."""
    r0, r1, t0, t1 = p, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or gcd(r1, t1) != 1:
        return None
    return abs(t1)


def _lift_kernel(
    rows: list[dict[int, int]],
    pivots: list[tuple[int, dict[int, int]]],
    ncols: int,
    p: int,
) -> list[list[int]] | None:
    """One integer kernel vector per free column mod p, or None.

    The vector for free column f is solved mod p with x_f = 1 and every other
    free entry 0, lifted over one common denominator, and checked exactly
    against every row.  None as soon as a vector fails to lift or to check.
    """
    bound = isqrt(p // 2)
    pivot_cols = [c for c, _ in pivots]
    pivot_set = set(pivot_cols)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        x = [0] * ncols
        x[f] = 1
        # pivots right of f solve to 0
        for c, row in reversed(pivots[:bisect_left(pivot_cols, f)]):
            x[c] = sum(v * x[j] for j, v in row.items()) % p
        den = 1
        for v in x:
            a = den * v % p
            if bound < a < p - bound:
                d = _wang_denominator(a, p, bound)
                if d is None or den * d > bound:
                    return None
                den *= d
        y = []
        for v in x:
            a = den * v % p
            if bound < a < p - bound:
                return None
            y.append(a if a <= bound else a - p)
        if any(sum(v * y[c] for c, v in row.items()) for row in rows):
            return None
        basis.append(_primitive(y))
    return basis


def _transposed(m: ExactMatrix) -> tuple[list[dict[int, int]], int]:
    """The transpose of m as integer rows and its column count: one
    {position: value} row per nonzero column of m, positions counting the
    nonzero rows of m, and the number of those rows.  Built straight from
    the tuple rows of m."""
    nonzero = [row for row in m.rows if row]
    cols: list[dict[int, int]] = [{} for _ in range(m.ncols)]
    for i, row in enumerate(nonzero):
        for c, v in row:
            cols[c][i] = v
    return [col for col in cols if col], len(nonzero)


def _rank(
    cols: list[dict[int, int]],
    ncols: int,
    pivots: list[tuple[int, dict[int, int]]] | None = None,
) -> int:
    """``matrix_rank`` of the matrix whose transpose has the integer rows
    cols, over ncols columns.  ``pivots``, when given, is the echelon of
    cols mod the first prime of ``_PRIMES``, and is used in place of
    eliminating them again there."""
    for p in _PRIMES:
        if pivots is None:
            pivots = _modular_echelon(cols, ncols, p)
        if (len(pivots) in (ncols, len(cols))
                or _lift_kernel(cols, pivots, ncols, p) is not None):
            return len(pivots)
        pivots = None
    return len(_modular_echelon(cols, ncols, _hadamard_prime(cols)))


def matrix_rank(m: ExactMatrix) -> int:
    """Exact rank over the rationals; deterministic.

    Eliminates the transpose mod each prime p of ``_PRIMES`` in turn: r
    pivots mod p, r <= rank.  r = the number of nonzero rows or of nonzero
    columns of m certifies r at once; otherwise exactly checked left kernel
    vectors of m do.  When no p certifies, the transpose is eliminated once
    more, mod ``_hadamard_prime``.  That prime exceeds every minor of m, by
    Hadamard's inequality |det M| <= prod |row of M|, so no nonzero minor
    vanishes mod it and its pivot count is the rank.  The certificate makes
    a ladder prime's count exact; the bound makes the last prime's exact.
    """
    return _rank(*_transposed(m))


def nullspace_basis(m: ExactMatrix, candidate) -> list[list[int]]:
    """[x made primitive] if the int vector x = ``candidate`` spans the
    kernel of m, else [].

    It does when x is nonzero, m x is exactly zero and the rank is
    ncols - 1: nullity at least one because of x and at most one because
    of the rank.  The rank bound is the transposed echelon mod the
    word-size prime, whose pivot count never exceeds the rank over Q; when
    it falls short, the exact rank decides, starting from that echelon.  A
    wrong length raises ValueError and a non-int entry TypeError.
    """
    x = [index(v) for v in candidate]
    if any(m.matvec(x)) or not any(x):
        return []
    cols, ncols = _transposed(m)
    pivots = _modular_echelon(cols, ncols, _PRIMES[0])
    if (len(pivots) == m.ncols - 1
            or _rank(cols, ncols, pivots) == m.ncols - 1):
        return [_primitive(x)]
    return []


def _primitive(ints: list[int]) -> list[int]:
    """Divide by the gcd of the entries and make the first nonzero positive."""
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    if next((v for v in ints if v), 0) < 0:
        return [-v for v in ints]
    return ints


class SparseMultiPoly(Record):
    """Multivariate polynomial with fixed arity, kept as its terms
    {exponent tuple: coefficient}.  A term container: `symfun` fills it and
    reads its terms; it carries no arithmetic."""

    __slots__ = _fields = ("arity", "terms")
