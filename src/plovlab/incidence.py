"""Weighted incidence matrices on restricted partitions.

Rows are indexed by P(k,d,n-1) and columns by P(k,d,n), both in decreasing
lexicographic order.  The (mu, lambda) entry counts the weighted ways of
raising a single part of mu by one to reach lambda.  This module also builds
the block decomposition, column truncations below a distinguished partition,
and the rank and nullity checks; a Table 2 cell is named by its tuple t and
its offset e alone.  The block form, full rank and the kernel theorem raise
CheckFailed when the claim fails on an instance.
"""

from __future__ import annotations

import io
from bisect import bisect_left
from math import factorial, prod

from .exactmat import (CheckFailed, ExactMatrix, Record, matrix_rank,
                       nullspace_basis)
from .partitions import Partition, count, format_partition, partition_set
from .symfun import vandermonde_coeff_vector


class IncidenceMatrix(Record):
    """A_{k,d,n} with its row set P(k,d,n-1) and column set P(k,d,n), which
    hold k, d and n."""

    __slots__ = _fields = ("row_set", "col_set", "data")

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.nrows, self.data.ncols


def build_incidence(k: int, d: int, n: int) -> IncidenceMatrix:
    """Shape p(k,d,n-1) x p(k,d,n); degenerate shapes for n out of range.
    Row mu raises the first part equal to each distinct part i < k, with
    weight the multiplicity of i; an earlier part gives a lex-larger column,
    so each row comes out sorted.  At k = 0 the matrix is zero."""
    row_set = partition_set(k, d, n - 1)
    col_set = partition_set(k, d, n)
    col = {lam: j for j, lam in enumerate(col_set)}
    rows = tuple([
        tuple([(col[mu[:p] + (i + 1,) + mu[p + 1:]], mu.count(i))
               for p, i in enumerate(mu)
               if i < k and (p == 0 or mu[p - 1] != i)])
        for mu in row_set])
    data = ExactMatrix(len(col_set), rows)
    return IncidenceMatrix(row_set, col_set, data)


def truncate_columns(
    m: IncidenceMatrix, kappa: Partition
) -> tuple[ExactMatrix, list[Partition]]:
    """Keep exactly the columns lambda with lambda <= kappa in lex order.
    The columns decrease, so these are the suffix from the first such lambda;
    each row keeps its entries from one bisection on, renumbered from 0."""
    if len(kappa) != m.col_set.d:
        raise ValueError("kappa must have d parts")
    if any(part > m.col_set.k for part in kappa):
        raise ValueError("kappa parts must be at most k")
    cols = m.col_set.members
    start = next((j for j, lam in enumerate(cols) if lam <= kappa), len(cols))
    rows = tuple([
        tuple([(c - start, v) for c, v in row[bisect_left(row, (start,)):]])
        for row in m.data.rows])
    return ExactMatrix(len(cols) - start, rows), list(cols[start:])


def block_form(k: int, d: int, n: int) -> tuple:
    """Group rows/columns of A_{k,d,n} by first part = k versus first part < k.

    In decreasing lex order the prepend-k partitions come first, and they
    are P(k,d-1,n-1-k) and P(k,d-1,n-k) with k prepended, so the grouping is
    one cut of A_{k,d,n} at the shape of A_{k,d-1,n-k}.  Returns the three
    matrices (full, top_left, bottom_right) and raises CheckFailed unless the
    top-right block is zero and the diagonal blocks are the other two.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    full = build_incidence(k, d, n)
    top_left = build_incidence(k, d - 1, n - k)
    bottom_right = build_incidence(k - 1, d, n)
    tl, tr, _, br = full.data.blocks(*top_left.shape)
    if any(tr.rows):
        raise CheckFailed(f"block form: nonzero top-right block in "
                          f"A_{{{k},{d},{n}}}")
    if tl != top_left.data or br != bottom_right.data:
        raise CheckFailed(
            f"block form: diagonal blocks of A_{{{k},{d},{n}}} differ from "
            f"A_{{{k},{d - 1},{n - k}}} and A_{{{k - 1},{d},{n}}}")
    return full, top_left, bottom_right


def verify_full_rank(k: int, d: int, n: int) -> None:
    """rank(A_{k,d,n}) = min{p(k,d,n-1), p(k,d,n)}; raises CheckFailed
    otherwise."""
    if not 1 <= n <= d * k:
        raise ValueError(f"n={n} outside [1, {d * k}]")
    rank = matrix_rank(build_incidence(k, d, n).data)
    expected = min(count(k, d, n - 1), count(k, d, n))
    if rank != expected:
        raise CheckFailed(f"full rank of A_{{{k},{d},{n}}}: rank {rank}, "
                          f"expected {expected}")


def kappa_of(t: tuple[int, ...]) -> Partition:
    """Distinguished partition ((2r)^{t_r}, ..., 2^{t_1}, 0^{t_0})."""
    if any(x <= 0 for x in t):
        raise ValueError("t entries must be positive")
    r = len(t) - 1
    parts: list[int] = []
    for j in range(r, -1, -1):
        parts.extend([2 * j] * t[j])
    return tuple(parts)


def table2_tuple(d: int, ell: int) -> tuple[int, ...]:
    """All-ones (r+1)-tuple with the entry at index ell raised to 2, r = d-2."""
    r = d - 2
    if not 0 <= ell <= r:
        raise ValueError(f"ell={ell} outside [0, {r}]")
    t = [1] * (r + 1)
    t[ell] += 1
    return tuple(t)


def nullity_truncated(t: tuple[int, ...], e: int) -> int:
    """Nullity of the truncated matrix A_{2r,d,r(r+1)+e} below kappa(t),
    for d = sum(t) and r = len(t) - 1."""
    r = len(t) - 1
    m = build_incidence(2 * r, sum(t), r * (r + 1) + e)
    sub, kept = truncate_columns(m, kappa_of(t))
    return len(kept) - matrix_rank(sub)


def verify_kernel_dim_one(d: int) -> tuple[list[int], Partition, int]:
    """Truncated staircase kernel: nullity one, spanned by the Vandermonde
    vector, as ``nullspace_basis`` certifies; raises CheckFailed otherwise,
    naming the exact nullity.  Returns (kernel, kappa, kappa_entry)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    t = tuple([1] * d)
    kappa = kappa_of(t)
    m = build_incidence(2 * d - 2, d, d * (d - 1))
    sub, kept = truncate_columns(m, kappa)
    # v and the columns are both indexed by P(2d-2, d, d(d-1)), so the kept
    # columns are the suffix of v, and kappa is the first of them
    v = vandermonde_coeff_vector(d - 1, d)
    candidate = v[len(v) - len(kept):]
    # a rank bound mod the word prime and the exact product sub v = 0
    # certify that v spans the kernel; no basis is eliminated
    basis = nullspace_basis(sub, candidate)
    if not basis:
        raise CheckFailed(
            f"kernel theorem at d={d}: the truncated kernel has dimension "
            f"{len(kept) - matrix_rank(sub)} and is not spanned by the "
            f"Vandermonde vector")
    kappa_entry = candidate[0]
    expected_entry = prod(factorial(2 * j) for j in range(1, d))
    if kappa_entry != expected_entry:
        raise CheckFailed(
            f"kernel theorem at d={d}: Vandermonde entry {kappa_entry} at "
            f"kappa = {format_partition(kappa)}, expected {expected_entry}")
    return basis[0], kappa, kappa_entry


def matrix_to_csv(m: IncidenceMatrix) -> str:
    """Integer CSV, header "k,d,n,rows,cols", rows in decreasing-lex order."""
    buf = io.StringIO()
    cols = m.col_set
    buf.write(f"{cols.k},{cols.d},{cols.n},{m.data.nrows},{m.data.ncols}\n")
    for row in m.data.to_dense():
        buf.write(",".join(map(str, row)) + "\n")
    return buf.getvalue()
