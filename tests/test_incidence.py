from math import factorial
from random import Random

import pytest

from plovlab import golden, incidence
from plovlab.exactmat import (CheckFailed, ExactMatrix, matrix_rank,
                               nullspace_basis)
from plovlab.incidence import (
    IncidenceMatrix,
    block_form,
    build_incidence,
    kappa_of,
    matrix_to_csv,
    nullity_truncated,
    table2_tuple,
    truncate_columns,
    verify_full_rank,
    verify_kernel_dim_one,
)
from plovlab.partitions import count, enumerate_partitions, partition_set

from oracles import (
    block_nullity_formula,
    cleared,
    dense_nullity,
    dense_nullspace,
    dense_rank,
    from_dense,
    from_rows,
    incidence_by_bump,
)


def test_printed_matrices():
    for (k, d, n), expected in (
        ((5, 3, 6), golden.MATRIX_5_3_6),
        ((5, 3, 7), golden.MATRIX_5_3_7),
    ):
        m = build_incidence(k, d, n)
        assert [[int(v) for v in row] for row in m.data.to_dense()] == expected


def test_column_sums_weight():
    # each column sums to the number of parts of lambda that can be lowered,
    # weighted: sum over removable steps of the multiplicity above
    m = build_incidence(4, 3, 6)
    assert m.shape == (count(4, 3, 5), count(4, 3, 6))


def test_incidence_matrix_is_a_value():
    # Record's contract: equal fields give equal records that hash alike,
    # fields cannot be assigned, and the constructor takes one value per
    # field, naming them; a checking __init__ such as ExactMatrix's has the
    # fields as parameters
    a, b = build_incidence(5, 3, 6), build_incidence(5, 3, 6)
    assert a == b and hash(a) == hash(b)
    assert a != build_incidence(5, 3, 7)
    with pytest.raises(AttributeError):
        a.data = None
    with pytest.raises(TypeError, match=r"\(row_set, col_set, data\), got 1"):
        IncidenceMatrix(a)
    with pytest.raises(TypeError):
        ExactMatrix(2, (), ())


def test_table1_nullity():
    # nullity 2, so no kernel vector spans the kernel
    m = build_incidence(6, 4, 12)
    dense = m.data.to_dense()
    assert m.data.ncols - matrix_rank(m.data) == dense_nullity(dense) == 2
    for x in dense_nullspace(dense, m.data.ncols):
        assert nullspace_basis(m.data, cleared(x)) == []


def test_block_form_table1():
    # returns without raising: the top-right block is zero and the diagonal
    # blocks are A_{6,3,6} and A_{5,4,12}
    _, top_left, bottom_right = block_form(6, 4, 12)
    assert top_left.shape == (5, 7)
    assert bottom_right.shape == (11, 11)


def test_block_form_small_cases():
    for k in range(1, 5):
        for d in range(2, 5):
            for n in range(1, d * k + 1):
                # returns without raising: CheckFailed on a nonzero
                # top-right block or a wrong diagonal block
                block_form(k, d, n)


def test_full_rank_matches_oracle():
    for k in range(1, 5):
        for d in range(2, 4):
            for n in range(1, d * k + 1):
                m = build_incidence(k, d, n)
                assert matrix_rank(m.data) == dense_rank(m.data.to_dense())


def test_verify_full_rank():
    assert verify_full_rank(5, 3, 6) is None  # CheckFailed otherwise
    assert matrix_rank(build_incidence(5, 3, 6).data) == 5
    with pytest.raises(ValueError):
        verify_full_rank(5, 3, 0)


def test_verify_full_rank_raises_on_a_wrong_rank(monkeypatch):
    # a rank one below the bound fails the claim, naming the instance
    inner = incidence.matrix_rank
    monkeypatch.setattr(incidence, "matrix_rank", lambda m: inner(m) - 1)
    with pytest.raises(CheckFailed) as exc:
        verify_full_rank(5, 3, 6)
    assert str(exc.value) == "full rank of A_{5,3,6}: rank 4, expected 5"


def test_truncate_columns():
    m = build_incidence(5, 3, 6)
    sub, kept = truncate_columns(m, (4, 2, 0))
    assert kept == [(4, 2, 0), (4, 1, 1), (3, 3, 0), (3, 2, 1), (2, 2, 2)]
    assert sub.ncols == 5


def test_truncate_columns_matches_per_column_definition():
    # every kappa with d parts in [0, k], of any size, against every n
    for k in range(0, 6):
        for d in range(1, 5):
            kappas = [lam for size in range(d * k + 1)
                      for lam in enumerate_partitions(k, d, size)]
            for n in range(0, d * k + 2):
                m = build_incidence(k, d, n)
                dense = m.data.to_dense()
                for kappa in kappas:
                    sub, kept = truncate_columns(m, kappa)
                    cols = [j for j, lam in enumerate(m.col_set) if lam <= kappa]
                    assert kept == [m.col_set[j] for j in cols]
                    assert (sub.nrows, sub.ncols) == (m.data.nrows, len(cols))
                    assert sub.to_dense() == [[row[j] for j in cols]
                                              for row in dense]


def test_build_incidence_k0_is_the_zero_block():
    # no part of a partition in [0, 0] can be raised
    for d in range(1, 5):
        for n in range(-1, 3):
            rs = enumerate_partitions(0, d, n - 1)
            cs = enumerate_partitions(0, d, n)
            zero = from_rows(len(rs), len(cs), [{} for _ in rs])
            assert build_incidence(0, d, n) == IncidenceMatrix(rs, cs, zero)
    assert build_incidence(0, 3, 0).shape == (0, 1)
    assert build_incidence(0, 3, 1).shape == (1, 0)
    for k, d in ((-1, 2), (1, 0)):
        with pytest.raises(ValueError):
            build_incidence(k, d, 1)
    with pytest.raises(ValueError):
        block_form(0, 2, 1)


def test_build_incidence_matches_bump_oracle():
    # n runs from 0 to dk + 1, so the empty row and column sets and k = 0
    # are covered along with every nonempty shape
    for k in range(0, 7):
        for d in range(1, 5):
            for n in range(0, d * k + 2):
                assert build_incidence(k, d, n).data.to_dense() == \
                    incidence_by_bump(k, d, n), (k, d, n)


def test_block_form_returns_the_matrix_it_cuts():
    for k, d, n in ((6, 4, 12), (3, 2, 3), (2, 3, 4)):
        assert block_form(k, d, n)[0] == build_incidence(k, d, n)


def test_kappa_of():
    assert kappa_of((1, 1, 1, 1)) == (6, 4, 2, 0)
    assert kappa_of((2, 1, 1)) == (4, 2, 0, 0)
    assert kappa_of((3, 1)) == (2, 0, 0, 0)
    with pytest.raises(ValueError):
        kappa_of((1, 0, 1))


def test_table2_tuple():
    assert table2_tuple(4, 0) == (2, 1, 1)
    assert table2_tuple(4, 2) == (1, 1, 2)
    with pytest.raises(ValueError):
        table2_tuple(4, 3)


def test_nullity_truncated_small_against_oracle():
    for d in (4, 5):
        for e in (0, 1):
            t = table2_tuple(d, 0)
            r = d - 2
            m = build_incidence(2 * r, d, r * (r + 1) + e)
            sub, kept = truncate_columns(m, kappa_of(t))
            assert nullity_truncated(t, e) == dense_nullity(
                sub.to_dense(), len(kept))


def test_truncate_table1():
    m = build_incidence(6, 4, 12)
    sub, kept = truncate_columns(m, (6, 4, 2, 0))
    assert sub.ncols == 16
    assert (6, 6, 0, 0) not in kept and (6, 5, 1, 0) not in kept
    # truncating at the all-k partition drops nothing
    full, kept_all = truncate_columns(m, (6, 6, 6, 6))
    assert len(kept_all) == 18


def test_nullity_vanishing_family():
    # the truncated nullity vanishes once e >= max(floor(d/2) - 1, ell + 1)
    for d in range(3, 6):
        r = d - 2
        for ell in range(0, r + 1):
            start = max(d // 2 - 1, ell + 1)
            for e in range(start, start + 2):
                assert nullity_truncated(table2_tuple(d, ell), e) == 0


def test_block_nullity_formula():
    rng = Random(3)
    for _ in range(20):
        n1, n2, m1, m2 = (rng.randint(1, 4) for _ in range(4))
        a = from_dense(
            [[rng.randint(-2, 2) for _ in range(n1)] for _ in range(m1)])
        b = from_dense(
            [[rng.randint(-2, 2) for _ in range(n1)] for _ in range(m2)])
        c = from_dense(
            [[rng.randint(-2, 2) for _ in range(n2)] for _ in range(m2)])
        assert block_nullity_formula(a, b, c)["pass"]


def test_block_nullity_formula_on_incidence():
    for k in range(2, 5):
        for d in range(2, 4):
            for n in range(k + 2, d * k + 1):
                full, top_left, bottom_right = block_form(k, d, n)
                bottom_left = full.data.blocks(*top_left.shape)[2]
                rep = block_nullity_formula(
                    top_left.data, bottom_left, bottom_right.data)
                assert rep["pass"]


def test_kernel_dim_one_small():
    # CheckFailed unless the Vandermonde vector spans the kernel
    for d in (2, 3):
        _, kappa, kappa_entry = verify_kernel_dim_one(d)
        assert kappa == kappa_of((1,) * d)
        expected = 1
        for j in range(1, d):
            expected *= factorial(2 * j)
        assert kappa_entry == expected


def test_kernel_matrix_is_the_all_ones_cell():
    # the kernel theorem's matrix is the t = 1^d, e = 0 cell: its nullity
    # by the transposed rank agrees with the candidate-certified kernel
    for d in range(2, 7):
        assert nullity_truncated((1,) * d, 0) == 1, d
        verify_kernel_dim_one(d)  # CheckFailed unless v spans the kernel


def test_kernel_columns_are_the_suffix_of_the_vandermonde_vector():
    # verify_kernel_dim_one reads the candidate as the suffix of v over the
    # kept columns and kappa's entry as its first: v and the columns share
    # the index P(2d - 2, d, d(d - 1)), and kappa is the first kept column
    from plovlab.symfun import vandermonde_coeff_vector

    for d in range(2, 8):
        m = build_incidence(2 * d - 2, d, d * (d - 1))
        _, kept = truncate_columns(m, kappa_of((1,) * d))
        index = partition_set(2 * d - 2, d, d * (d - 1))
        v = vandermonde_coeff_vector(d - 1, d)
        entry = dict(zip(index, v, strict=True))
        assert index == m.col_set, d
        assert kept[0] == kappa_of((1,) * d), d
        assert v[len(v) - len(kept):] == tuple([entry[lam] for lam in kept]), d


def test_kernel_d2_vector():
    kernel, _, _ = verify_kernel_dim_one(2)
    assert kernel == [1, -1]


def test_csv_format():
    m = build_incidence(5, 3, 6)
    text = matrix_to_csv(m, 5, 3, 6)
    lines = text.strip().split("\n")
    assert lines[0] == "5,3,6,5,6"
    assert lines[1] == "2,0,0,0,0,0"
    assert len(lines) == 6
