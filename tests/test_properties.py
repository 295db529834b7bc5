"""Property tests: invariants checked on small inputs drawn by Hypothesis."""

from fractions import Fraction
from random import Random
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import (  # noqa: E402
    TWISTS,
    action_matrix,
    cleared,
    closed_form,
    coeff_vector_poly,
    dense_nullity,
    dense_nullspace,
    dense_rank,
    direct_sum,
    distinct_permutations_by_sorting,
    from_dense,
    from_rows,
    intersect_rational,
    mhat_expand_by_sorting,
    mixed_determinant,
    rational_w_table,
    vec_to_sym,
    w_table_by_polarization,
)
from plovlab.dynamics import (  # noqa: E402
    AbelianSurrogate,
    degree_growth_exponent,
    delta_polynomial,
    jordan_matrix,
    mat_mul,
    model_from_json,
    random_conjugate,
    random_unimodular,
)
from plovlab import exactmat  # noqa: E402
from plovlab.exactmat import (  # noqa: E402
    SparseMultiPoly,
    _primitive,
    matrix_rank,
    nullspace_basis,
)
from plovlab.partitions import count, enumerate_partitions, partition_set  # noqa: E402
from plovlab.symfun import CoeffVector, mhat_expand  # noqa: E402

SMALL = settings(max_examples=40, deadline=None)


@st.composite
def kdn(draw):
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 6))
    n = draw(st.integers(-1, k * d + 1))
    return k, d, n


@SMALL
@given(kdn())
def test_count_matches_enumeration(args):
    assert count(*args) == len(enumerate_partitions(*args))


@st.composite
def matrix_and_permutations(draw):
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-4, 4))
    dense = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    rows = draw(st.permutations(range(nrows)))
    cols = draw(st.permutations(range(ncols)))
    return dense, rows, cols


@SMALL
@given(matrix_and_permutations())
def test_rank_invariant_under_permutations(case):
    dense, rows, cols = case
    permuted = [[dense[i][j] for j in cols] for i in rows]
    assert (matrix_rank(from_dense(permuted))
            == matrix_rank(from_dense(dense)))


@st.composite
def sparse_integer_matrix(draw):
    """Mostly zeros; some entries vanish mod the word prime 2^30 - 35, where
    the rank starts, or mod 2^127 - 1, its next prime, so that it has to
    escalate."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    entry = st.one_of(
        st.just(0),
        st.just(0),
        st.integers(-4, 4),
        st.integers(-3, 3).map(lambda v: v * (2**127 - 1)),
        st.integers(-3, 3).map(lambda v: v * (2**30 - 35)),
    )
    rows = [{j: draw(entry) for j in range(ncols)} for _ in range(nrows)]
    return from_rows(nrows, ncols, rows)


@SMALL
@given(sparse_integer_matrix())
def test_modular_rank_matches_dense_rank(m):
    assert matrix_rank(m) == dense_rank(m.to_dense())


@st.composite
def shaped_integer_matrix(draw):
    """Wide, tall or empty, with whole zero rows and zero columns; some
    entries vanish mod 2^30 - 35 or mod 2^127 - 1."""
    nrows = draw(st.integers(0, 8))
    ncols = draw(st.integers(0, 8))
    zero_rows = draw(st.sets(st.integers(0, 7)))
    zero_cols = draw(st.sets(st.integers(0, 7)))
    entry = st.one_of(
        st.just(0),
        st.integers(-4, 4),
        st.integers(-3, 3).map(lambda v: v * (2**127 - 1)),
        st.integers(-3, 3).map(lambda v: v * (2**30 - 35)),
    )
    rows = [{j: 0 if i in zero_rows or j in zero_cols else draw(entry)
             for j in range(ncols)} for i in range(nrows)]
    return from_rows(nrows, ncols, rows)


def transpose(m):
    cols = [{} for _ in range(m.ncols)]
    for i, row in enumerate(m.rows):
        for c, v in row:
            cols[c][i] = v
    return from_rows(m.ncols, m.nrows, cols)


@settings(max_examples=80, deadline=None)
@given(shaped_integer_matrix())
def test_rank_of_transpose_matches_dense_rank(m):
    assert (matrix_rank(m) == matrix_rank(transpose(m))
            == dense_rank(m.to_dense()))


@settings(max_examples=250, deadline=None)
@given(st.one_of(sparse_integer_matrix(), shaped_integer_matrix()))
def test_hadamard_prime_rank_matches_dense_rank(m):
    # with no prime on the ladder, every rank is read mod the Mersenne prime
    # above the Hadamard bound, with no certificate
    with patch.object(exactmat, "_PRIMES", ()):
        assert matrix_rank(m) == dense_rank(m.to_dense())


@st.composite
def matrix_and_candidate(draw):
    """A matrix of any nullity and shape, with a candidate kernel vector: a
    combination of the oracle's kernel basis cleared to integers, times
    +-k, a random vector or zero.  Half of the matrices with a kernel get
    rows that leave only the line of one kernel vector u: for a p with
    u_p != 0, the rows s (u_p e_i - u_i e_p) vanish on u's line alone.  The
    scale s is 1 or the word prime 2^30 - 35, where the rows vanish and
    the word prime rank bound falls short more often."""
    m = draw(shaped_integer_matrix())
    basis = dense_nullspace(m.to_dense(), m.ncols)
    if basis and draw(st.booleans()):
        u = cleared(basis[0])
        p = next(i for i, v in enumerate(u) if v)
        s = draw(st.sampled_from((1, 2**30 - 35)))
        extra = [{i: s * u[p], p: -s * u[i]} for i in range(m.ncols) if i != p]
        m = from_rows(m.nrows + len(extra), m.ncols,
                      [dict(row) for row in m.rows] + extra)
        basis = dense_nullspace(m.to_dense(), m.ncols)
    kind = draw(st.sampled_from(("kernel", "random", "zero")))
    if kind == "zero":
        return m, [0] * m.ncols
    if kind == "random":
        return m, draw(st.lists(st.integers(-4, 4), min_size=m.ncols,
                                max_size=m.ncols))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis),
                           max_size=len(basis)))
    k = draw(st.sampled_from((1, -1))) * draw(st.integers(1, 5))
    return m, [k * v for v in cleared(
        [sum(c * x[j] for c, x in zip(coeffs, basis)) for j in range(m.ncols)])]


@settings(max_examples=150, deadline=None)
@given(matrix_and_candidate())
def test_nullspace_basis_matches_dense_nullity(case):
    # the candidate spans the kernel exactly when it is a nonzero kernel
    # vector and the nullity is one
    m, x = case
    spans = (any(x) and not any(m.matvec(x))
             and dense_nullity(m.to_dense(), m.ncols) == 1)
    assert nullspace_basis(m, x) == ([_primitive(x)] if spans else [])


@st.composite
def unimodular(draw):
    """A product of integer shears: row i += c * row j."""
    g = draw(st.integers(1, 4))
    a = [[int(i == j) for j in range(g)] for i in range(g)]
    if g > 1:
        for _ in range(draw(st.integers(0, 3 * g))):
            i, j = draw(st.permutations(range(g)))[:2]
            c = draw(st.integers(-2, 2))
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return a


@SMALL
@given(unimodular())
def test_model_json_round_trip(a):
    m = AbelianSurrogate(a)
    back = model_from_json(m.to_json())
    assert back.a == m.a == a
    assert action_matrix(back.a) == action_matrix(m.a)


@st.composite
def intersect_calls(draw):
    """g and a sequence of intersect calls.  Each class is num * v / den, for
    v the ample class H or a primitive integer vector, num in {1, -1, 2} and
    den in {1, 2, 3}, as Fractions.  Every call is made twice, the sequence
    is shuffled, and each call's classes are permuted."""
    g = draw(st.integers(2, 4))
    dim = g * (g + 1) // 2
    h = [int(i == j) for i in range(g) for j in range(i, g)]
    v = [1] + [draw(st.integers(-2, 2)) for _ in range(dim - 1)]
    specs = st.tuples(st.sampled_from((h, v)), st.sampled_from((1, -1, 2)),
                      st.sampled_from((1, 2, 3)))
    calls = [[[Fraction(num * x, den) for x in base]
              for base, num, den in (draw(specs) for _ in range(g))]
             for _ in range(draw(st.integers(1, 3)))]
    return g, [draw(st.permutations(c)) for c in draw(st.permutations(calls * 2))]


@settings(max_examples=80, deadline=None)
@given(intersect_calls())
def test_shared_surrogate_intersect_matches_oracle(case):
    # one surrogate answers the whole sequence, so no call may depend on an
    # earlier one; the test clears each class's denominators before the call
    g, calls = case
    m = AbelianSurrogate(jordan_matrix((1,) * g))
    for vecs in calls:
        classes = [vec_to_sym(g, v) for v in vecs]
        assert intersect_rational(m, classes) == mixed_determinant(classes), vecs


@st.composite
def jordan_type(draw, lo=2, hi=5):
    """Weakly decreasing block sizes summing to g in [lo, hi]."""
    rest = draw(st.integers(lo, hi))
    blocks = []
    while rest:
        blocks.append(draw(st.integers(1, min(rest, blocks[-1] if blocks else rest))))
        rest -= blocks[-1]
    return tuple(blocks)


@settings(max_examples=30, deadline=None)
@given(jordan_type(), st.integers(0, 2**32 - 1))
def test_det_table_matches_polarization(blocks, seed):
    m = random_conjugate(blocks, Random(seed))
    assert rational_w_table(m) == w_table_by_polarization(m), (blocks, m.a)


@st.composite
def twisted_type(draw):
    """A Jordan type and no twist, or a shorter Jordan type and the name of
    a TWISTS block R, which adds 2 to g; g <= 6 in all."""
    twist = draw(st.sampled_from((None, *TWISTS)))
    if twist is None:
        return draw(jordan_type(2, 6)), None
    return draw(jordan_type(1, 4)), twist


@settings(max_examples=100, deadline=None)
@given(twisted_type(), st.integers(0, 2**32 - 1))
def test_k_and_plov_match_closed_form(case, seed):
    # a seeded conjugate P^-1 (J (+) R) P has the k and plov of the observed
    # closed form, with R as two 1-blocks
    blocks, twist = case
    block = jordan_matrix(blocks)
    if twist is not None:
        block = direct_sum(block, TWISTS[twist])
        blocks += (1, 1)
    p, p_inv = random_unimodular(len(block), Random(seed))
    m = AbelianSurrogate(mat_mul(p_inv, mat_mul(block, p)))
    got = degree_growth_exponent(m), len(delta_polynomial(m)) - 1
    assert got == closed_form(blocks), (blocks, twist, m.a)


PERTURBATIONS = ("none", "drop", "change", "zero", "zero_orbit", "off_degree", "above_k")


@st.composite
def perturbed_symmetric_poly(draw):
    """A random symmetric polynomial over P(k, d, n), with at most one change
    that may break its symmetry, degree or variable-degree bound; new terms
    go first or last in the term order."""
    k, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = draw(st.integers(0, k * d))
    index = partition_set(k, d, n)
    coef = st.sampled_from((0, 0, 1, -1, Fraction(1, 2), 3))
    x = CoeffVector(index, tuple(Fraction(draw(coef)) for _ in index))
    terms = dict(coeff_vector_poly(x).terms)
    change = draw(st.sampled_from(PERTURBATIONS))
    lam = draw(st.sampled_from(index.members))
    alpha = [draw(st.integers(0, k)) for _ in range(d)]
    new = {}
    if change == "drop" and terms:
        del terms[draw(st.sampled_from(list(terms)))]
    elif change == "change" and terms:
        terms[draw(st.sampled_from(list(terms)))] += draw(
            st.sampled_from((-1, 1, Fraction(1, 3))))
    elif change == "zero":
        # a zero on one rearrangement of lam: a partial orbit unless lam's
        # orbit is present or has one member
        new = {tuple(draw(st.permutations(lam))): Fraction(0)}
    elif change == "zero_orbit":
        new = dict.fromkeys((a for a in distinct_permutations_by_sorting(lam)
                             if a not in terms), Fraction(0))
    elif change == "off_degree" and sum(alpha) != n:
        new = {tuple(alpha): Fraction(draw(coef))}
    elif change == "above_k":
        alpha[draw(st.integers(0, d - 1))] = k + 1
        new = {tuple(alpha): Fraction(draw(coef))}
    terms = {**new, **terms} if draw(st.booleans()) else {**terms, **new}
    return SparseMultiPoly(d, terms), k, d, n


@settings(max_examples=150, deadline=None)
@given(perturbed_symmetric_poly())
def test_mhat_expand_matches_sorting_oracle(case):
    p, k, d, n = case
    try:
        expected = mhat_expand_by_sorting(p, k, d, n)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            mhat_expand(p, k, d, n)
        assert str(got.value) == str(err)
    else:
        assert mhat_expand(p, k, d, n) == expected
