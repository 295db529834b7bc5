from fractions import Fraction
from math import gcd, isqrt, prod
from random import Random

import pytest

from plovlab import exactmat, golden
from plovlab.dynamics import AbelianSurrogate, charpoly, mat_identity
from plovlab.exactmat import ExactMatrix, matrix_rank, nullspace_basis
from plovlab.incidence import (
    build_incidence,
    kappa_of,
    nullity_truncated,
    table2_tuple,
    truncate_columns,
    verify_kernel_dim_one,
)
from plovlab.partitions import partition_set
from plovlab.symfun import vandermonde_coeff_vector, vandermonde_poly

from oracles import (
    assemble_block_lower,
    bucket_echelon,
    cleared,
    dense_nullity,
    dense_nullspace,
    dense_rank,
    dense_transposed,
    from_dense,
    from_rows,
    hstack,
    vandermonde_square_product,
)


def random_matrix(rng, nrows, ncols, density=0.5):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                row[c] = rng.randint(-5, 5)
        rows.append(row)
    return from_rows(nrows, ncols, rows)


def test_rank_against_dense_oracle():
    rng = Random(11)
    for _ in range(60):
        nrows = rng.randint(0, 7)
        ncols = rng.randint(0, 7)
        m = random_matrix(rng, nrows, ncols)
        assert matrix_rank(m) == dense_rank(m.to_dense())


def test_nullspace_spans_kernel():
    # each vector of the oracle's kernel basis spans the kernel exactly
    # when the nullity is one
    rng = Random(23)
    nullities = set()
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 7)
        m = random_matrix(rng, nrows, ncols)
        oracle = [cleared(x) for x in dense_nullspace(m.to_dense(), ncols)]
        nullities.add(min(len(oracle), 2))
        for x in oracle:
            assert not any(m.matvec(x))
            expected = [exactmat._primitive(x)] if len(oracle) == 1 else []
            assert nullspace_basis(m, x) == expected
    assert nullities == {0, 1, 2}


def test_nullspace_normalization(monkeypatch):
    # the candidate is divided by the gcd of its entries and its first
    # nonzero entry made positive; 80-bit entries, far above any lift
    # bound, need no lift and no prime but the word prime
    assert nullspace_basis(from_dense([[1, 1]]), [-3, 3]) == [[1, -1]]
    rng = Random(3)
    a, b = rng.getrandbits(80) | 1 << 79, rng.getrandbits(80) | 1 << 79
    while gcd(a, b) != 1:
        b += 1
    echelons = count_calls(monkeypatch, "_modular_echelon")
    assert nullspace_basis(from_dense([[a, -b]]), [-2 * b, -2 * a]) == [[b, a]]
    assert [args[2] for args in echelons] == [2**30 - 35]


def test_degenerate_shapes():
    # a 0 x 3 matrix has nullity 3, so no vector spans its kernel; a 3 x 0
    # matrix has no nonzero vector
    wide = from_rows(0, 3, [])
    assert matrix_rank(wide) == 0
    assert nullspace_basis(wide, [1, 0, 0]) == []
    tall = from_rows(3, 0, [{}, {}, {}])
    assert matrix_rank(tall) == 0
    assert nullspace_basis(tall, []) == []


def test_transposed_matches_the_dense_transpose():
    # zero rows and zero columns are dropped, and a position counts only
    # the nonzero rows before it
    m = from_dense([[0, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0], [3, 0, 0, -1]])
    assert exactmat._transposed(m) == ([{1: 3}, {0: 2}, {1: -1}], 2)
    for shape in ((0, 4), (4, 0), (0, 0)):
        assert exactmat._transposed(from_rows(*shape, [{}] * shape[0])) == (
            [], 0)
    rng = Random(23)
    zero_row = zero_col = False
    for _ in range(150):
        m = random_matrix(rng, rng.randint(0, 8), rng.randint(0, 8),
                          density=rng.choice((0.15, 0.5)))
        dense = m.to_dense()
        zero_row |= any(not any(r) for r in dense)
        zero_col |= any(not any(c) for c in zip(*dense))
        assert exactmat._transposed(m) == dense_transposed(m)
    assert zero_row and zero_col


def test_exact_matrix_rejects_bad_shape():
    with pytest.raises(ValueError):
        ExactMatrix(-1, ())


def test_exact_matrix_fields_are_read_only():
    m = ExactMatrix(1, (((0, 1),),))
    with pytest.raises(AttributeError):
        m.nrows = 2
    with pytest.raises(AttributeError):
        m.ncols = 2
    assert m == ExactMatrix(1, (((0, 1),),)) and m.nrows == 1


def test_entry_and_submatrix():
    m = from_dense([[1, 0, 2], [0, 3, 0]])
    assert m.rows == (((0, 1), (2, 2)), ((1, 3),))
    assert m.to_dense() == [[1, 0, 2], [0, 3, 0]]
    tl, tr, bl, br = m.blocks(1, 2)
    assert tl.to_dense() == [[1, 0]] and tr.to_dense() == [[2]]
    assert bl.to_dense() == [[0, 3]] and br.to_dense() == [[0]]
    with pytest.raises(ValueError):
        m.blocks(3, 0)
    with pytest.raises(ValueError):
        m.blocks(0, -1)


def test_blocks_match_dense_slicing():
    # every cut, both ends included, of seeded sparse matrices with zero rows
    rng = Random(19)
    zero_rows = 0
    for _ in range(30):
        nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
        m = random_matrix(rng, nrows, ncols, density=0.3)
        dense = m.to_dense()
        zero_rows += m.rows.count(())
        for i in range(nrows + 1):
            for j in range(ncols + 1):
                tl, tr, bl, br = m.blocks(i, j)
                assert (tl.nrows, tl.ncols, br.nrows, br.ncols) == (
                    i, j, nrows - i, ncols - j)
                assert tl.to_dense() == [r[:j] for r in dense[:i]]
                assert tr.to_dense() == [r[j:] for r in dense[:i]]
                assert bl.to_dense() == [r[:j] for r in dense[i:]]
                assert br.to_dense() == [r[j:] for r in dense[i:]]
    assert zero_rows


def test_block_assembly():
    a = from_dense([[1, 2]])
    b = from_dense([[3, 0], [0, 4]])
    c = from_dense([[5], [6]])
    m = assemble_block_lower(a, b, c)
    assert m.to_dense() == [[1, 2, 0], [3, 0, 5], [0, 4, 6]]
    h = hstack(b, c)
    assert h.to_dense() == [[3, 0, 5], [0, 4, 6]]
    with pytest.raises(ValueError):
        assemble_block_lower(a, c, c)


def test_rank_is_deterministic():
    rng = Random(5)
    m = random_matrix(rng, 6, 6)
    ranks = {matrix_rank(m) for _ in range(3)}
    assert len(ranks) == 1


def test_rank_invariance():
    rng = Random(31)
    for _ in range(15):
        m = random_matrix(rng, 5, 5)
        dense = m.to_dense()
        r = matrix_rank(m)
        shuffled = dense[:]
        rng.shuffle(shuffled)
        assert matrix_rank(from_dense(shuffled)) == r
        scaled = [[v * rng.randint(1, 5) for v in row] for row in dense]
        assert matrix_rank(from_dense(scaled)) == r


def count_calls(monkeypatch, name):
    """Record the arguments of every call of ``exactmat.<name>``."""
    calls = []
    original = getattr(exactmat, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exactmat, name, counted)
    return calls


def test_fallback_when_every_prime_divides(monkeypatch):
    # w * p1 * p2 vanishes mod every prime of the ladder, so none certifies
    # rank 2, and the last step reads it mod 2^1279 - 1, the least Mersenne
    # prime of the table above the Hadamard bound; with a third column, a
    # kernel candidate's word prime bound falls short too, and the exact
    # rank takes the same path
    w, p1, p2 = exactmat._PRIMES
    m = from_dense([[w * p1 * p2, 0], [0, 1]])
    echelons = count_calls(monkeypatch, "_modular_echelon")
    assert matrix_rank(m) == 2
    p = echelons[-1][2]
    assert [args[2] for args in echelons] == [w, p1, p2, 2**1279 - 1]
    assert p * p > prod(sum(v * v for v in row) for row in m.to_dense())
    m = from_dense([[w * p1 * p2, 0, 0], [0, 1, -1]])
    assert nullspace_basis(m, [0, 3, 3]) == [[0, 1, 1]]
    assert [args[2] for args in echelons[4:]] == [w, p1, p2, p]


def test_last_step_beyond_the_table_raises(monkeypatch):
    # the Hadamard bound of the matrix above is about 2^679: a table that
    # stops at 2^607 - 1 has no prime for it
    w, p1, p2 = exactmat._PRIMES
    monkeypatch.setattr(exactmat, "_MERSENNE_EXPONENTS", (607,))
    with pytest.raises(ValueError, match="Hadamard bound 2"):
        matrix_rank(from_dense([[w * p1 * p2, 0], [0, 1]]))


def test_rank_escalates_from_the_word_prime(monkeypatch):
    # w vanishes mod the word prime: one pivot there, and the left kernel
    # vector (1, 0) fails the exact check against the column (w, 0)
    w, p1, _ = exactmat._PRIMES
    m = from_dense([[w, 0], [0, 1]])
    echelons = count_calls(monkeypatch, "_modular_echelon")
    assert matrix_rank(m) == 2
    assert [args[2] for args in echelons] == [w, p1]


def test_rank_escalates_on_the_left_kernel(monkeypatch):
    # [[b, b], [a, a]] has rank 1 with two nonzero rows and columns, so the
    # rank needs its left kernel (a, -b).  Its 80-bit entries are far above
    # the word prime's lift bound; mod 2^127 - 1 a smaller fraction matches
    # -a/b and only the exact check against the columns rejects it; the
    # entries lift mod 2^521 - 1.  With the ladder cut there, the last step
    # reads rank 1 mod 2^607 - 1, the first prime of the table
    rng = Random(3)
    a, b = rng.getrandbits(80) | 1 << 79, rng.getrandbits(80) | 1 << 79
    while gcd(a, b) != 1:
        b += 1
    w, p1, p2 = exactmat._PRIMES
    assert exactmat._wang_denominator(-a * pow(b, -1, p1) % p1, p1, isqrt(p1 // 2))
    m = from_dense([[b, b], [a, a]])
    echelons = count_calls(monkeypatch, "_modular_echelon")
    assert matrix_rank(m) == 1
    assert [args[2] for args in echelons] == [w, p1, p2]
    monkeypatch.setattr(exactmat, "_PRIMES", (w, p1))
    assert matrix_rank(m) == 1
    assert [args[2] for args in echelons[3:]] == [w, p1, 2**607 - 1]


def test_table2_rank_lifts_one_left_kernel_vector(monkeypatch):
    # Table 2 at d = 7, e = 1: rank 583 of the 584 x 587 truncated matrix,
    # certified by one elimination mod the word prime 2^30 - 35 and one
    # lifted vector
    echelons = count_calls(monkeypatch, "_modular_echelon")
    assert nullity_truncated((2, 1, 1, 1, 1, 1), 1) == 4
    assert [args[2] for args in echelons] == [2**30 - 35]


def test_table2_row_takes_one_word_prime_echelon_per_cell(monkeypatch):
    # the d = 7 row of Table 2: each cell is one elimination mod 2^30 - 35
    echelons = count_calls(monkeypatch, "_modular_echelon")
    t = table2_tuple(7, 0)
    assert [nullity_truncated(t, e) for e in range(6)] == [
        golden.TABLE2[(7, e)] for e in range(6)]
    assert [args[2] for args in echelons] == [2**30 - 35] * 6


def test_kernel_is_certified_by_the_word_prime_rank(monkeypatch):
    # the Vandermonde vector is the candidate: one echelon mod the word
    # prime 2^30 - 35 gives rank ncols - 1, and the exact product is zero,
    # so no other prime is tried
    echelons = count_calls(monkeypatch, "_modular_echelon")
    verify_kernel_dim_one(6)  # CheckFailed otherwise
    assert [args[2] for args in echelons] == [2**30 - 35]


def lucas_lehmer(e):
    """Whether 2^e - 1 is prime, for an odd prime e."""
    m, s = 2**e - 1, 4
    for _ in range(e - 2):
        s = (s * s - 2) % m
    return s == 0


def test_mersenne_table_starts_above_the_ladder():
    # the exponents increase from past the ladder's last prime 2^521 - 1
    # through 216091 and are prime; the Lucas-Lehmer test rejects 2^e - 1
    # at the primes e = 11 and 523
    es = exactmat._MERSENNE_EXPONENTS
    assert exactmat._PRIMES[-1] == 2**521 - 1 < 2**es[0] - 1
    assert list(es) == sorted(set(es)) and es[-1] == 216091
    assert all(e % q for e in es for q in range(2, isqrt(e) + 1))
    assert lucas_lehmer(521) and not lucas_lehmer(11) and not lucas_lehmer(523)


@pytest.mark.parametrize("e", [
    e if e <= 4423 else pytest.param(e, marks=pytest.mark.extended)
    for e in exactmat._MERSENNE_EXPONENTS if e <= 19937])
def test_mersenne_exponent_gives_a_prime(e):
    assert lucas_lehmer(e)


def test_hadamard_prime_exceeds_every_minor():
    # p^2 > prod sum v^2, which bounds the square of every minor, checked
    # exactly on seeded rows whose Hadamard bound lies far above 2^607
    rng = Random(5)
    for nrows, bits in ((6, 200), (20, 64), (40, 90), (9, 400)):
        rows = [{c: (rng.getrandbits(bits) | 1) * rng.choice((1, -1))
                 for c in rng.sample(range(8), rng.randint(1, 8))}
                for _ in range(nrows)]
        bound = prod(sum(v * v for v in row.values()) for row in rows)
        p = exactmat._hadamard_prime(rows)
        e = p.bit_length()
        assert e in exactmat._MERSENNE_EXPONENTS and p == 2**e - 1
        assert bound.bit_length() > 2000 and p * p > bound


def kernel_matrix(d):
    """The truncated staircase matrix of the kernel theorem and the
    Vandermonde vector on its kept columns."""
    m = build_incidence(2 * d - 2, d, d * (d - 1))
    sub, kept = truncate_columns(m, kappa_of((1,) * d))
    v = dict(zip(partition_set(2 * d - 2, d, d * (d - 1)),
                 vandermonde_coeff_vector(d - 1, d), strict=True))
    return sub, [v[lam] for lam in kept]


def test_candidate_certifies_nullity_one(monkeypatch):
    # one echelon mod the word prime, certified by the bound with no lift
    sub, v = kernel_matrix(4)
    assert dense_nullity(sub.to_dense(), sub.ncols) == 1
    echelons = count_calls(monkeypatch, "_modular_echelon")
    lifts = count_calls(monkeypatch, "_lift_kernel")
    basis = nullspace_basis(sub, [-3 * x for x in v])
    assert basis == [exactmat._primitive(v)]
    assert [args[2] for args in echelons] == [2**30 - 35]
    assert lifts == []


def test_wrong_candidate_fails_the_exact_product(monkeypatch):
    # one entry of v off by one: the product is nonzero, so the candidate
    # is rejected before any echelon
    sub, v = kernel_matrix(4)
    i = next(i for i, x in enumerate(v) if x)
    wrong = v[:i] + [v[i] + 1] + v[i + 1:]
    assert any(sub.matvec(wrong))
    echelons = count_calls(monkeypatch, "_modular_echelon")
    assert nullspace_basis(sub, wrong) == []
    assert echelons == []


def test_low_rank_candidate_takes_the_fallback(monkeypatch):
    # rank 1 of 3 columns: (1, 1, 0) is a kernel vector, but the word
    # prime bound falls one short of ncols - 1, and so does the exact rank,
    # certified at once by the one nonzero row, from the same echelon: the
    # nullity is 2
    m = from_dense([[1, -1, 0]])
    echelons = count_calls(monkeypatch, "_modular_echelon")
    assert nullspace_basis(m, [1, 1, 0]) == []
    assert [args[2] for args in echelons] == [2**30 - 35]


def test_word_prime_rank_deficit_takes_the_fallback(monkeypatch):
    # rank 2 of 3 columns over Q, but w vanishes mod the word prime, where
    # the rank is 1: the bound certifies nothing, and the exact rank starts
    # from that echelon and escalates to 2^127 - 1, which certifies the
    # candidate
    w = exactmat._PRIMES[0]
    m = from_dense([[w, 0, 0], [0, 1, -1]])
    echelons = count_calls(monkeypatch, "_modular_echelon")
    ranks = count_calls(monkeypatch, "_rank")
    assert nullspace_basis(m, [0, 2, 2]) == [[0, 1, 1]]
    assert [args[2] for args in echelons] == [w, 2**127 - 1]
    assert len(ranks) == 1


def test_candidate_shapes():
    # 0 x 1: the whole line is the kernel; n x 0: no nonzero candidate;
    # a wrong length raises, the zero vector included; a Fraction entry is
    # not an int
    assert nullspace_basis(from_rows(0, 1, []), [-4]) == [[1]]
    tall = from_rows(2, 0, [{}, {}])
    assert nullspace_basis(tall, []) == []
    for wrong in ([1, -1, 0], [0, 0, 0]):
        with pytest.raises(ValueError):
            nullspace_basis(from_dense([[1, 1]]), wrong)
    with pytest.raises(TypeError):
        nullspace_basis(from_dense([[1, 1]]), [Fraction(1), -1])


def test_non_int_entries_raise():
    # a matrix is an integer matrix: a Fraction entry raises instead of
    # being stored, truncated, cleared or floor-divided
    with pytest.raises(TypeError):
        from_rows(1, 2, [{0: 3, 1: Fraction(1, 2)}])
    with pytest.raises(TypeError):
        AbelianSurrogate([[1, Fraction(1, 2)], [0, 1]])
    m = AbelianSurrogate([[1, 0], [0, 1]])
    with pytest.raises(TypeError):
        m.intersect([mat_identity(2), [[1, Fraction(1, 2)], [Fraction(1, 2), 1]]])
    with pytest.raises(TypeError):
        charpoly([[Fraction(1, 2)]])


def test_vandermonde_square_monomial_count():
    # (z1-z2)^2 (z1-z3)^2 (z2-z3)^2 has 19 monomials in 3 variables; the
    # product of binomials and the permutation-pair count agree on every size
    for m, expected in ((3, 19), (4, 201), (5, 2961)):
        assert len(vandermonde_square_product(m).terms) == expected
        assert len(vandermonde_poly(m - 1, m).terms) == expected
    assert len(vandermonde_poly(5, 6).terms) == 56183


WORD, MERSENNE = 2**30 - 35, 2**127 - 1


def assert_same_echelon(rows, ncols, p):
    """``_modular_echelon`` and the bucket oracle give the same pivot
    columns and the same lifted kernel basis (or both no basis)."""
    new = exactmat._modular_echelon(rows, ncols, p)
    old = bucket_echelon(rows, ncols, p)
    assert [c for c, _ in new] == [c for c, _ in old]
    assert (exactmat._lift_kernel(rows, new, ncols, p)
            == exactmat._lift_kernel(rows, old, ncols, p))
    return new


def random_rows(rng, nrows, ncols, p):
    """Sparse integer rows with zero rows, rows that vanish mod p, rows
    that are integer combinations of earlier ones, and entries that vanish
    mod p next to ones that do not."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1 or not ncols:
            rows.append({})
        elif kind < 0.2:
            rows.append({c: p * rng.randint(1, 3) for c in range(ncols)
                         if rng.random() < 0.4})
        elif kind < 0.4 and rows:
            row = {}
            for _ in range(2):
                a, other = rng.randint(-2, 2), rng.choice(rows)
                for c, v in other.items():
                    row[c] = row.get(c, 0) + a * v
            rows.append(row)
        else:
            rows.append({c: rng.choice((rng.randint(-4, 4), p))
                         for c in range(ncols) if rng.random() < 0.35})
    return rows


@pytest.mark.parametrize("p", [WORD, MERSENNE])
def test_echelon_matches_bucket_echelon_on_random_rows(p):
    rng = Random(p % 1000)
    for _ in range(150):
        nrows, ncols = rng.randint(0, 9), rng.randint(0, 9)
        assert_same_echelon(random_rows(rng, nrows, ncols, p), ncols, p)
    assert assert_same_echelon([], 4, p) == []
    assert assert_same_echelon([{}, {}], 0, p) == []
    assert assert_same_echelon([{}, {1: p}, {0: 2 * p, 2: -p}], 3, p) == []


def test_echelon_matches_bucket_echelon_on_table2_cells():
    # the 24 cells d = 4..7, e = 0..5, in the rank's transposed orientation
    for d in range(4, 8):
        r = d - 2
        for e in range(6):
            m = build_incidence(2 * r, d, r * (r + 1) + e)
            sub, _ = truncate_columns(m, kappa_of(table2_tuple(d, 0)))
            cols, ncols = exactmat._transposed(sub)
            pivots = assert_same_echelon(cols, ncols, WORD)
            assert sub.ncols - len(pivots) == golden.TABLE2[(d, e)]


def test_echelon_matches_bucket_echelon_on_kernel_matrices():
    # the rows mod 2^127 - 1, whose one lifted vector is the Vandermonde
    # vector, and the transpose mod the word prime, as the candidate's
    # rank bound eliminates it
    for d in range(2, 7):
        sub, v = kernel_matrix(d)
        rows = [dict(r) for r in sub.rows if r]
        pivots = assert_same_echelon(rows, sub.ncols, MERSENNE)
        assert exactmat._lift_kernel(rows, pivots, sub.ncols, MERSENNE) == [
            exactmat._primitive(v)]
        cols, ncols = exactmat._transposed(sub)
        assert len(assert_same_echelon(cols, ncols, WORD)) == sub.ncols - 1


def test_row_order_leaves_rank_kernel_and_pivots_unchanged():
    # rows 1 and 2 share their leading column 1 and row 2 - row 1 is row 3,
    # so whichever of them comes last cancels to zero before rows 4 and 5
    # (leading column 0) are taken: an entry it left in the accumulator
    # would leak into them
    dense = [[0, 0, 0, 1, 2, 1],
             [0, 1, 3, 0, 1, 0],
             [0, 1, 2, 1, 3, 1],
             [0, 0, -1, 1, 2, 1],
             [1, 0, 5, 0, 0, 2],
             [1, 2, 0, 0, 1, 0]]
    m, x = from_dense(dense), cleared(dense_nullspace(dense, 6)[0])
    rank, basis = matrix_rank(m), nullspace_basis(m, x)
    assert rank == dense_rank(dense) == 5 and basis == [exactmat._primitive(x)]
    rows = [dict(enumerate(r)) for r in dense]
    pivot_cols = [c for c, _ in exactmat._modular_echelon(rows, 6, WORD)]
    rng = Random(41)
    for _ in range(40):
        rng.shuffle(dense)
        m = from_dense(dense)
        assert matrix_rank(m) == rank and nullspace_basis(m, x) == basis
        rows = [dict(enumerate(r)) for r in dense]
        for p in (WORD, MERSENNE):
            assert [c for c, _ in exactmat._modular_echelon(rows, 6, p)] == pivot_cols
            assert len(exactmat._modular_echelon(
                *exactmat._transposed(m), p)) == rank
