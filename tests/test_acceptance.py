"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact (rational arithmetic throughout); there are no
tolerances anywhere in this file.
"""

import time
from fractions import Fraction
from math import factorial
from random import Random

import pytest

from plovlab import golden
from plovlab.dynamics import (
    AbelianSurrogate,
    check_principles,
    degree_growth_exponent,
    delta_polynomial,
    find_distinguished_kappa,
    hilbert_top_coefficient_check,
    jordan_matrix,
    random_conjugate,
    w_vector,
)
from plovlab.incidence import (
    block_form,
    build_incidence,
    nullity_truncated,
    table2_tuple,
    truncate_columns,
    verify_full_rank,
    verify_kernel_dim_one,
)
from plovlab.partitions import count, partition_set
from plovlab.symfun import hilbert_product, vandermonde_coeff_vector

from oracles import apply_derivation, dense_rank, integrate_unit_cube


def report(num, label, ok):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"acceptance criterion {num} failed: {label}"


def test_acceptance_01_printed_matrices():
    t0 = time.monotonic()
    m6 = build_incidence(5, 3, 6)
    m7 = build_incidence(5, 3, 7)
    ok = (
        [[int(v) for v in r] for r in m6.data.to_dense()] == golden.MATRIX_5_3_6
        and [[int(v) for v in r] for r in m7.data.to_dense()] == golden.MATRIX_5_3_7
        and time.monotonic() - t0 < 1.0
    )
    report(1, "printed matrices A_{5,3,6} and A_{5,3,7} match entry-for-entry", ok)


def test_acceptance_02_table1_block_form():
    t0 = time.monotonic()
    # returns without raising: CheckFailed on a nonzero top-right block or
    # a diagonal block other than A_{6,3,6} and A_{5,4,12}
    _, top_left, bottom_right = block_form(6, 4, 12)
    full = build_incidence(6, 4, 12)
    dense = full.data.to_dense()
    rows_ok = [tuple(p) for p in full.row_set] == golden.TABLE1_ROWS
    cols_ok = [tuple(p) for p in full.col_set] == golden.TABLE1_COLS
    entries_ok = all(
        dense[i][j] == golden.TABLE1_ENTRIES.get((tuple(mu), tuple(lam)), 0)
        for i, mu in enumerate(full.row_set)
        for j, lam in enumerate(full.col_set)
    )
    dashed1 = [row[1:] for row in top_left.data.to_dense()]
    dashed2 = [row[:6] for row in bottom_right.data.to_dense()[:6]]
    ok = (
        full.shape == (16, 18)
        and rows_ok and cols_ok and entries_ok
        and top_left.shape == (5, 7)        # A_{6,3,6}
        and bottom_right.shape == (11, 11)  # A_{5,4,12}
        and dashed1 == build_incidence(5, 3, 6).data.to_dense()
        and dashed2 == build_incidence(5, 3, 7).data.to_dense()
        and time.monotonic() - t0 < 1.0
    )
    report(2, "Table 1 block lower-triangular form of A_{6,4,12}", ok)


def test_acceptance_03_table2():
    ok = all(
        nullity_truncated(table2_tuple(d, 0), e) == golden.TABLE2[(d, e)]
        for d in range(4, 8)
        for e in range(6)
    )
    report(3, "Table 2 truncated nullities, 24 cells for d in 4..7", ok)


@pytest.mark.extended
@pytest.mark.parametrize("d,e", [(d, e) for d in (8, 9) for e in range(6)])
def test_acceptance_03_table2_extended(d, e):
    got = nullity_truncated(table2_tuple(d, 0), e)
    report(3, f"Table 2 extended cell (d={d}, e={e})", got == golden.TABLE2[(d, e)])


def test_acceptance_04_full_rank():
    # raises CheckFailed at a rank below min{p(k,d,n-1), p(k,d,n)}
    for k in range(1, 7):
        for d in range(2, 6):
            for n in range(1, d * k + 1):
                verify_full_rank(k, d, n)
    report(4, "full-rank theorem over 294 instances (k<=6, 2<=d<=5)", True)


def test_acceptance_05_kernel_theorem():
    # verify_kernel_dim_one raises CheckFailed unless the Vandermonde vector
    # spans the kernel; the nullity is also counted from a dense exact rank,
    # up to d = 5 (71 x 62)
    ok = True
    for d in range(2, 7):
        _, kappa, kappa_entry = verify_kernel_dim_one(d)
        expected = 1
        for j in range(1, d):
            expected *= factorial(2 * j)
        ok = ok and kappa_entry == expected
        if d <= 5:
            sub, kept = truncate_columns(
                build_incidence(2 * d - 2, d, d * (d - 1)), kappa)
            ok = ok and len(kept) - dense_rank(sub.to_dense()) == 1
    report(5, "kernel theorem: nullity 1 with Vandermonde kernel, d in 2..6", ok)


def test_acceptance_06_derivation_correspondence():
    rng = Random(101)
    ok = True
    for d in range(2, 5):
        for k in range(1, 2 * d - 1):
            for n in range(1, d * k + 1):
                index = partition_set(k, d, n)
                mat = build_incidence(k, d, n)
                for _ in range(20):
                    entries = tuple(
                        Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                        for _ in index)
                    lhs = apply_derivation(k, d, n, entries)
                    rhs = tuple(mat.data.matvec(list(entries)))
                    ok = ok and lhs == rhs
    report(6, "derivation equals incidence action, 20 random vectors per shape", ok)


def test_acceptance_07_partition_identities():
    ok = True
    for k in range(1, 9):
        for d in range(1, 9):
            seq = [count(k, d, n) for n in range(0, d * k + 1)]
            # symmetry in (k, d) and reflection in n
            ok = ok and all(
                count(k, d, n) == count(d, k, n) == count(k, d, d * k - n)
                for n in range(0, d * k + 1))
            # recurrence
            ok = ok and all(
                count(k, d, n)
                == (count(k, d - 1, n) if d > 1 else (1 if n == 0 else 0))
                + (count(k - 1, d, n - d) if k > 1 else (1 if n == d else 0))
                for n in range(1, d * k + 1))
            # unimodality
            mid = d * k // 2
            ok = ok and all(seq[i] <= seq[i + 1] for i in range(mid))
            ok = ok and all(seq[i] >= seq[i + 1] for i in range(mid, len(seq) - 1))
    report(7, "partition symmetry, recurrence, unimodality for k,d <= 8", ok)


def test_acceptance_08_dim4_values():
    ok = True
    for blocks, (k, plov) in golden.DIM4_VALUES.items():
        m = AbelianSurrogate(jordan_matrix(blocks), jordan=blocks)
        got_k = degree_growth_exponent(m)
        got_plov = len(delta_polynomial(m)) - 1
        ok = ok and (got_k, got_plov) == (k, plov)
        check_principles(4, got_k, got_plov)  # raises ModelError on failure
    report(8, "dimension-4 value set (0,4),(2,6),(2,8),(4,10),(6,16)", ok)


def test_acceptance_09_maximality_equivalence():
    ok = True
    for d in range(2, 6):
        m = AbelianSurrogate(jordan_matrix((d,)), jordan=(d,))
        ok = ok and degree_growth_exponent(m) == 2 * d - 2
        ok = ok and len(delta_polynomial(m)) - 1 == d * d
    for d in range(3, 6):
        m = AbelianSurrogate(jordan_matrix((d - 1, 1)), jordan=(d - 1, 1))
        plov = len(delta_polynomial(m)) - 1
        ok = ok and degree_growth_exponent(m) == 2 * d - 4
        ok = ok and plov == (d - 1) ** 2 + 1
        ok = ok and plov <= d * (d - 2) + 2 * max(1, d // 4)
    report(9, "maximality equivalence and near-maximal bound, d in 2..5", ok)


def test_acceptance_10_hilbert_closed_form():
    # raises ModelError when the closed form fails
    for d in (2, 3, 4):
        hilbert_top_coefficient_check(
            AbelianSurrogate(jordan_matrix((d,)), jordan=(d,)))
    ok = True
    for d in range(2, 6):
        index = partition_set(2 * d - 2, d, d * (d - 1))
        v = vandermonde_coeff_vector(d - 1, d)
        norm = 1
        for j in range(1, d):
            norm *= factorial(2 * j)
        total = sum(
            (integrate_unit_cube(lam) * c for lam, c in zip(index, v, strict=True)),
            Fraction(0)) / norm
        ok = ok and total == hilbert_product(d)
    report(10, "Hilbert top coefficient and integral closed form", ok)


def test_acceptance_11_vanishing_suite():
    rng = Random(7)
    ok = True
    for i in range(50):
        d = 2 + i % 3
        types = [(d,), (d - 1, 1)] if d > 2 else [(d,), (1, 1)]
        m = random_conjugate(types[i % len(types)], rng)
        k = degree_growth_exponent(m)
        if k == 0:
            continue
        all_w = []
        for n in range(1, d * k + 1):
            all_w.extend(zip(partition_set(k, d, n), w_vector(m, n),
                             strict=True))
        # combinatorial vanishing
        ok = ok and all(v == 0 for lam, v in all_w if sum(lam) > d * k // 2)
        # geometric vanishing and positivity around the distinguished partition
        _, kappa = find_distinguished_kappa(m)
        w_kappa = next(v for lam, v in all_w if lam == kappa)
        ok = ok and w_kappa > 0
        ok = ok and all(
            v == 0 for lam, v in all_w if lam > kappa)
    report(11, "combinatorial and geometric vanishing on 50 seeded models", ok)
