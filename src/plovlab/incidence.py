"""Weighted incidence matrices on restricted partitions.

Rows are indexed by P(k,d,n-1) and columns by P(k,d,n), both in decreasing
lexicographic order.  The (mu, lambda) entry counts the weighted ways of
raising a single part of mu by one to reach lambda.  This module also builds
the block decomposition, column truncations below a distinguished partition,
and the rank/nullity verification reports.
"""

from __future__ import annotations

import io
from math import factorial, prod

from .exactmat import (
    ExactMatrix,
    Record,
    assemble_block_lower,
    hstack,
    matrix_rank,
    nullspace_basis,
)
from .partitions import Partition, PartitionSet, bump, count, partition_set

__all__ = [
    "IncidenceMatrix",
    "BlockForm",
    "build_incidence",
    "truncate_columns",
    "block_form",
    "verify_full_rank",
    "block_nullity_formula",
    "kappa_of",
    "table2_tuple",
    "nullity_truncated",
    "verify_kernel_dim_one",
    "matrix_to_csv",
]


class IncidenceMatrix(Record):
    __slots__ = _fields = ("k", "d", "n", "row_set", "col_set", "data")

    def __init__(self, k: int, d: int, n: int, row_set: PartitionSet,
                 col_set: PartitionSet, data: ExactMatrix):
        self._set(k, d, n, row_set, col_set, data)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.nrows, self.data.ncols


def build_incidence(k: int, d: int, n: int) -> IncidenceMatrix:
    """Shape p(k,d,n-1) x p(k,d,n); degenerate shapes for n out of range.
    At k = 0 no part can be raised, so the matrix is zero."""
    if k < 0 or d < 1:
        raise ValueError("k must be nonnegative and d positive")
    row_set = partition_set(k, d, n - 1)
    col_set = partition_set(k, d, n)
    rows = []
    for mu in row_set:
        row: dict[int, int] = {}
        for i in range(k):
            hit = bump(mu, i, k)
            if hit is None:
                continue
            lam, weight = hit
            row[col_set.index_of(lam)] = weight
        rows.append(row)
    data = ExactMatrix.from_rows(len(row_set), len(col_set), rows)
    return IncidenceMatrix(k, d, n, row_set, col_set, data)


def truncate_columns(
    m: IncidenceMatrix, kappa: Partition
) -> tuple[ExactMatrix, list[Partition]]:
    """Keep exactly the columns lambda with lambda <= kappa in lex order.
    The columns decrease, so these are the suffix from the first such lambda."""
    if len(kappa) != m.d:
        raise ValueError("kappa must have d parts")
    if any(part > m.k for part in kappa):
        raise ValueError("kappa parts must be at most k")
    cols = m.col_set.members
    start = next((j for j, lam in enumerate(cols) if lam <= kappa), len(cols))
    return m.data.blocks(0, start)[3], list(cols[start:])


class BlockForm(Record):
    __slots__ = _fields = ("top_left", "bottom_right", "bottom_left",
                           "top_right_is_zero", "reassembles")

    def __init__(self, top_left: IncidenceMatrix, bottom_right: IncidenceMatrix,
                 bottom_left: ExactMatrix, top_right_is_zero: bool,
                 reassembles: bool):
        # top_left is A_{k, d-1, n-k}, bottom_right is A_{k-1, d, n}
        self._set(top_left, bottom_right, bottom_left, top_right_is_zero,
                  reassembles)


def block_form(k: int, d: int, n: int) -> BlockForm:
    """Group rows/columns of A_{k,d,n} by first part = k versus first part < k.

    In decreasing lex order the prepend-k partitions come first, and they
    are P(k,d-1,n-1-k) and P(k,d-1,n-k) with k prepended, so the grouping is
    one cut of A_{k,d,n} at the shape of A_{k,d-1,n-k}.  Verifies the
    top-right block is identically zero and that the diagonal blocks equal
    A_{k,d-1,n-k} and A_{k-1,d,n}.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    top_left = build_incidence(k, d - 1, n - k)
    bottom_right = build_incidence(k - 1, d, n)
    tl, tr, bl, br = build_incidence(k, d, n).data.blocks(*top_left.shape)
    if any(tr.rows):
        raise AssertionError(f"nonzero top-right block in A_{{{k},{d},{n}}}")
    return BlockForm(
        top_left=top_left,
        bottom_right=bottom_right,
        bottom_left=bl,
        top_right_is_zero=True,
        reassembles=tl == top_left.data and br == bottom_right.data,
    )


def verify_full_rank(k: int, d: int, n: int) -> dict:
    """rank(A_{k,d,n}) against min{p(k,d,n-1), p(k,d,n)}."""
    if not 1 <= n <= d * k:
        raise ValueError(f"n={n} outside [1, {d * k}]")
    m = build_incidence(k, d, n)
    rank = matrix_rank(m.data)
    expected = min(count(k, d, n - 1), count(k, d, n))
    return {"k": k, "d": d, "n": n, "rank": rank, "expected": expected,
            "pass": rank == expected}


def block_nullity_formula(a: ExactMatrix, b: ExactMatrix, c: ExactMatrix) -> dict:
    """Check nullity([[A,0],[B,C]]) = dim{x in ker A : Bx in range C} + nullity(C)."""
    m = assemble_block_lower(a, b, c)
    lhs = m.ncols - matrix_rank(m)
    nullity_c = c.ncols - matrix_rank(c)
    ker_a = nullspace_basis(a)
    if ker_a:
        bk = ExactMatrix.from_dense(
            [[sum(v * x[col] for col, v in row) for x in ker_a]
             for row in b.rows]
        ) if b.nrows else ExactMatrix.from_rows(0, len(ker_a), [])
        joint = hstack(bk, c)
        # fibers over attainable x are affine translates of ker C
        dim_compat = (joint.ncols - matrix_rank(joint)) - nullity_c
    else:
        dim_compat = 0
    rhs = dim_compat + nullity_c
    return {"lhs": lhs, "rhs": rhs, "pass": lhs == rhs}


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


def nullity_truncated(d: int, r: int, t: tuple[int, ...], e: int) -> int:
    """Nullity of the truncated matrix A_{2r,d,r(r+1)+e} below kappa(t)."""
    if len(t) != r + 1 or sum(t) != d:
        raise ValueError("t must be a positive (r+1)-tuple summing to d")
    n = r * (r + 1) + e
    m = build_incidence(2 * r, d, n)
    sub, kept = truncate_columns(m, kappa_of(t))
    return len(kept) - matrix_rank(sub)


def verify_kernel_dim_one(d: int) -> dict:
    """Truncated staircase kernel: nullity one, spanned by the Vandermonde vector."""
    from . import symfun  # local import: symfun depends on this module's peers only

    if d < 2:
        raise ValueError("d must be at least 2")
    t = tuple([1] * d)
    kappa = kappa_of(t)
    m = build_incidence(2 * d - 2, d, d * (d - 1))
    sub, kept = truncate_columns(m, kappa)
    basis = nullspace_basis(sub)
    nullity = len(basis)

    v = symfun.vandermonde_coeff_vector(d - 1, d)
    v_trunc = [v.entries[v.index.index_of(lam)] for lam in kept]
    proportional = False
    kernel = basis[0] if nullity == 1 else None
    if kernel is not None:
        # compare via cross-ratios against the first nonzero coordinate
        i0 = next((i for i, x in enumerate(v_trunc) if x), None)
        proportional = (
            i0 is not None
            and kernel[i0] != 0
            and all(kernel[i0] * v_trunc[i] == v_trunc[i0] * kernel[i]
                    for i in range(len(kept)))
        )
    kappa_entry = v.entries[v.index.index_of(kappa)]
    expected_entry = prod(factorial(2 * j) for j in range(1, d))
    result = {
        "d": d,
        "nullity": nullity,
        "kernel": kernel,
        "kappa": kappa,
        "kappa_entry": kappa_entry,
        "kappa_entry_expected": expected_entry,
        "pass": nullity == 1 and proportional and kappa_entry == expected_entry,
    }
    if not result["pass"]:
        raise AssertionError(f"kernel verification failed at d={d}: {result}")
    return result


def matrix_to_csv(m: IncidenceMatrix) -> str:
    """Integer CSV, header "k,d,n,rows,cols", rows in decreasing-lex order."""
    buf = io.StringIO()
    buf.write(f"{m.k},{m.d},{m.n},{m.data.nrows},{m.data.ncols}\n")
    for row in m.data.to_dense():
        buf.write(",".join(map(str, row)) + "\n")
    return buf.getvalue()
