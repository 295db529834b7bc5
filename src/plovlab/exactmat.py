"""Exact sparse rational matrices with deterministic rank and nullspace.

Integral entries are kept as Python ints and other entries as Fractions.
The rank and the nullspace each come from one modular elimination.  Rows are
cleared to integers, reduced mod a prime p and eliminated column by column
(the pivot of a column is the row with the fewest nonzeros, ties by arrival
order).  The r pivots mod p never exceed the rank over Q, so the result is
certified at once when r is the number of nonzero rows or of columns.
Otherwise, for each free column f, the kernel vector with x_f = 1 and every
other free entry 0 is solved mod p, lifted to integers over one common
denominator by Wang's rational reconstruction, and checked exactly against
every row.  These vectors are independent, so the nullity over Q is the
number of free columns and the pivot columns are the exact ones; the lifted
vectors are the exact basis.  A failed certificate escalates through the
primes of ``_PRIMES`` and then falls back to the fraction-free
``_row_reduce``, which divides every updated row by the gcd of its entries.

The nullspace eliminates the rows in increasing column order, because its
basis is defined by that order.  The rank eliminates the transpose instead
(rank A = rank A^T): the columns of A become the rows, with one column per
nonzero row of A, so its certificate is an exactly checked left kernel.  On
the truncated Table 2 matrices at d = 7, 8 this is two to three times as
fast as eliminating the rows.  Everything is exact; no floating point
anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, isqrt, lcm

__all__ = ["ExactMatrix", "SparseMultiPoly", "matrix_rank", "nullspace_basis"]

Entry = tuple[int, int | Fraction]


class Record:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``_fields``, lists them in ``__slots__``
    and stores them with ``_set`` from its ``__init__``.  Two records of the
    same class are equal, and hash alike, when their fields are equal.
    Assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
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


class ExactMatrix(Record):
    """Sparse matrix of rationals; rows hold (col, value) pairs with strictly
    increasing column indices and no explicit zeros.  An integral value is an
    int, any other a Fraction.  Degenerate 0 x m and m x 0 shapes are
    legal."""

    __slots__ = _fields = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int,
                 rows: tuple[tuple[Entry, ...], ...]):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative shape")
        if len(rows) != nrows:
            raise ValueError("row count mismatch")
        self._set(nrows, ncols, rows)

    @staticmethod
    def from_rows(nrows: int, ncols: int, row_dicts) -> "ExactMatrix":
        """Build from an iterable of {col: value} dicts (zeros dropped)."""
        rows = []
        for rd in row_dicts:
            row = tuple(
                (c, _exact(v)) for c, v in sorted(rd.items()) if v != 0
            )
            if row and (row[0][0] < 0 or row[-1][0] >= ncols):
                raise ValueError("column index out of range")
            rows.append(row)
        return ExactMatrix(nrows, ncols, tuple(rows))

    @staticmethod
    def from_dense(data) -> "ExactMatrix":
        data = [list(r) for r in data]
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        return ExactMatrix.from_rows(
            nrows, ncols, ({j: v for j, v in enumerate(r)} for r in data)
        )

    def entry(self, i: int, j: int) -> Fraction:
        for c, v in self.rows[i]:
            if c == j:
                return v
            if c > j:
                break
        return Fraction(0)

    def to_dense(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.ncols for _ in range(self.nrows)]
        for i, row in enumerate(self.rows):
            for c, v in row:
                out[i][c] = v
        return out

    def matvec(self, x) -> list:
        """A x; integral entries and an int x give ints."""
        if len(x) != self.ncols:
            raise ValueError("dimension mismatch")
        return [sum(v * x[c] for c, v in row) for row in self.rows]

    def submatrix_columns(self, cols: list[int]) -> "ExactMatrix":
        """Keep the given columns (in the given order), renumbering from 0."""
        remap = {c: j for j, c in enumerate(cols)}
        rows = []
        for row in self.rows:
            rows.append({remap[c]: v for c, v in row if c in remap})
        return ExactMatrix.from_rows(self.nrows, len(cols), rows)


def _exact(v) -> int | Fraction:
    """v as an exact rational: an int when it is integral, else a Fraction."""
    if type(v) is int:
        return v
    q = Fraction(v)
    return q.numerator if q.denominator == 1 else q


def assemble_block_lower(a: ExactMatrix, b: ExactMatrix, c: ExactMatrix) -> ExactMatrix:
    """M = [[A, 0], [B, C]]; shapes must compose."""
    if a.ncols != b.ncols or b.nrows != c.nrows:
        raise ValueError("block shapes do not compose")
    n1 = a.ncols
    rows = []
    for row in a.rows:
        rows.append(dict(row))
    for rb, rc in zip(b.rows, c.rows):
        d = dict(rb)
        for col, v in rc:
            d[col + n1] = v
        rows.append(d)
    return ExactMatrix.from_rows(a.nrows + b.nrows, n1 + c.ncols, rows)


def hstack(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch")
    rows = []
    for ra, rb in zip(a.rows, b.rows):
        d = dict(ra)
        for col, v in rb:
            d[col + a.ncols] = v
        rows.append(d)
    return ExactMatrix.from_rows(a.nrows, a.ncols + b.ncols, rows)


def _integer_rows(m: ExactMatrix) -> list[dict[int, int]]:
    """Clear denominators row by row (row scaling preserves rank and kernel),
    in int arithmetic.  Empty rows are dropped."""
    out = []
    for row in m.rows:
        if not row:
            continue
        mult = lcm(*(v.denominator for _, v in row))
        out.append({c: v.numerator * (mult // v.denominator) for c, v in row})
    return out


def _transpose(rows: list[dict[int, int]], ncols: int) -> list[dict[int, int]]:
    """The nonzero columns of the given rows, as rows indexed by row position."""
    cols: list[dict[int, int]] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            cols[c][i] = v
    return [col for col in cols if col]


def _row_reduce(m: ExactMatrix) -> list[tuple[int, dict[int, int]]]:
    """Fraction-free elimination on integer-cleared rows.

    Rows are bucketed by leading column; at each column the pivot is the row
    with the fewest nonzeros (ties by arrival order), and every other row
    with that leading column is eliminated and re-bucketed.  Updated rows are
    divided by their entry gcd.  Returns pivots as (col, row_dict) in
    increasing column order.
    """
    buckets: dict[int, list[tuple[int, int, dict[int, int]]]] = {}
    seq = 0

    def insert(row: dict[int, int]):
        nonlocal seq
        lead = min(row)
        buckets.setdefault(lead, []).append((len(row), seq, row))
        seq += 1

    for row in _integer_rows(m):
        insert(row)

    pivots: list[tuple[int, dict[int, int]]] = []
    for col in range(m.ncols):
        group = buckets.pop(col, None)
        if not group:
            continue
        group.sort(key=lambda t: (t[0], t[1]))
        piv = group[0][2]
        p = piv[col]
        pivots.append((col, piv))
        for _, _, r in group[1:]:
            q = r[col]
            new: dict[int, int] = {}
            for c, v in r.items():
                if c != col:
                    new[c] = p * v
            for c, v in piv.items():
                if c == col:
                    continue
                w = new.get(c, 0) - q * v
                if w:
                    new[c] = w
                else:
                    new.pop(c, None)
            if new:
                g = 0
                for v in new.values():
                    g = gcd(g, v)
                if g > 1:
                    new = {c: v // g for c, v in new.items()}
                insert(new)
    return pivots


# Mersenne primes for the modular path.  Kernel entries lift when they and
# their common denominator are at most sqrt(p/2): about 2^63, then 2^260.
_PRIMES = (2**127 - 1, 2**521 - 1)


def _modular_echelon(rows: list[dict[int, int]], ncols: int, p: int):
    """Echelon form mod p of integer rows, by the bucket scheme of
    ``_row_reduce``.  Returns pivots as (col, row_dict) in increasing column
    order; each pivot row is scaled so its pivot entry is 1 and stored
    without it."""
    buckets: dict[int, list[tuple[int, int, dict[int, int]]]] = {}
    seq = 0

    def insert(row: dict[int, int]):
        nonlocal seq
        buckets.setdefault(min(row), []).append((len(row), seq, row))
        seq += 1

    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        if row:
            insert(row)

    pivots: list[tuple[int, dict[int, int]]] = []
    for col in range(ncols):
        group = buckets.pop(col, None)
        if not group:
            continue
        group.sort(key=lambda t: (t[0], t[1]))
        piv = group[0][2]
        inv = pow(piv.pop(col), -1, p)
        piv = {c: v * inv % p for c, v in piv.items()}
        pivots.append((col, piv))
        for _, _, r in group[1:]:
            q = r.pop(col)
            for c, v in piv.items():
                w = (r.get(c, 0) - q * v) % p
                if w:
                    r[c] = w
                else:
                    r.pop(c, None)
            if r:
                insert(r)
    return pivots


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
) -> list[list[Fraction]] | None:
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
            x[c] = -sum(v * x[j] for j, v in row.items()) % p
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


def _eliminate(m: ExactMatrix, kernel: bool) -> tuple[int, list[list[Fraction]]]:
    """Rank over Q and, when ``kernel`` is set, the nullspace basis.

    The nullspace eliminates the integer rows of m; the rank alone eliminates
    their transpose.  Modular elimination gives r pivots with r <= rank.
    r = the number of columns eliminated, or, for the rank alone, of rows,
    certifies r at once; otherwise exactly checked kernel vectors do (of the
    transpose: left kernel vectors of m).  A failed certificate tries the
    next prime, and after the last one the fraction-free path on m.
    """
    rows = _integer_rows(m)
    ncols = m.ncols
    if not kernel:
        rows, ncols = _transpose(rows, ncols), len(rows)
    for p in _PRIMES:
        pivots = _modular_echelon(rows, ncols, p)
        if len(pivots) == ncols or (not kernel and len(pivots) == len(rows)):
            return len(pivots), []
        basis = _lift_kernel(rows, pivots, ncols, p)
        if basis is not None:
            return len(pivots), basis if kernel else []
    pivots = _row_reduce(m)
    return len(pivots), _exact_kernel(pivots, m.ncols) if kernel else []


def matrix_rank(m: ExactMatrix) -> int:
    """Exact rank over the rationals; deterministic."""
    return _eliminate(m, kernel=False)[0]


def nullspace_basis(m: ExactMatrix) -> list[list[Fraction]]:
    """Deterministic kernel basis.

    One vector per free column, free columns in increasing order; each vector
    is scaled to coprime integer entries with first nonzero entry positive.
    Degenerate shapes: an m x 0 matrix has an empty nullspace; a 0 x m matrix
    has the full space (identity-style basis).
    """
    return _eliminate(m, kernel=True)[1]


def _exact_kernel(pivots, ncols: int) -> list[list[Fraction]]:
    """Kernel basis from the pivots of ``_row_reduce``, by back-substitution
    over Q."""
    pivot_set = {c for c, _ in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        # back-substitute pivot variables in reverse pivot order
        for c, row in reversed(pivots):
            s = sum((Fraction(v) * x[j] for j, v in row.items() if j != c), Fraction(0))
            x[c] = -s / row[c]
        basis.append(_normalize(x))
    return basis


def _normalize(x: list[Fraction]) -> list[Fraction]:
    mult = lcm(*(v.denominator for v in x)) if x else 1
    return _primitive([int(v * mult) for v in x])


def _primitive(ints: list[int]) -> list[Fraction]:
    """Divide by the gcd of the entries and make the first nonzero positive."""
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    first = next((v for v in ints if v), 0)
    if first < 0:
        ints = [-v for v in ints]
    return [Fraction(v) for v in ints]


class SparseMultiPoly(Record):
    """Multivariate polynomial with fixed arity: {exponent tuple: coefficient}."""

    __slots__ = _fields = ("arity", "terms")

    def __init__(self, arity: int, terms: dict[tuple[int, ...], Fraction]):
        self._set(arity, terms)

    @staticmethod
    def from_terms(arity: int, terms) -> "SparseMultiPoly":
        clean = {}
        for expo, coef in dict(terms).items():
            coef = Fraction(coef)
            if coef == 0:
                continue
            if len(expo) != arity or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent vector {expo} for arity {arity}")
            clean[tuple(expo)] = coef
        return SparseMultiPoly(arity, clean)

    @staticmethod
    def zero(arity: int) -> "SparseMultiPoly":
        return SparseMultiPoly(arity, {})

    @staticmethod
    def constant(arity: int, c) -> "SparseMultiPoly":
        return SparseMultiPoly.from_terms(arity, {(0,) * arity: c})

    @staticmethod
    def variable(arity: int, i: int) -> "SparseMultiPoly":
        expo = [0] * arity
        expo[i] = 1
        return SparseMultiPoly.from_terms(arity, {tuple(expo): 1})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMultiPoly)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __add__(self, other: "SparseMultiPoly") -> "SparseMultiPoly":
        self._check(other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            s = out.get(expo, Fraction(0)) + c
            if s:
                out[expo] = s
            else:
                out.pop(expo, None)
        return SparseMultiPoly(self.arity, out)

    def __sub__(self, other: "SparseMultiPoly") -> "SparseMultiPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "SparseMultiPoly":
        c = Fraction(c)
        if c == 0:
            return SparseMultiPoly.zero(self.arity)
        return SparseMultiPoly(self.arity, {e: v * c for e, v in self.terms.items()})

    def __mul__(self, other: "SparseMultiPoly") -> "SparseMultiPoly":
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return SparseMultiPoly(self.arity, out)

    def differentiate(self, i: int) -> "SparseMultiPoly":
        out: dict[tuple[int, ...], Fraction] = {}
        for expo, c in self.terms.items():
            if expo[i] == 0:
                continue
            e = list(expo)
            coef = c * e[i]
            e[i] -= 1
            out[tuple(e)] = out.get(tuple(e), Fraction(0)) + coef
        return SparseMultiPoly(self.arity, {e: v for e, v in out.items() if v})

    def coefficient(self, expo: tuple[int, ...]) -> Fraction:
        return self.terms.get(tuple(expo), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "SparseMultiPoly"):
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")
