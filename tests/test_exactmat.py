from fractions import Fraction
from math import gcd, isqrt
from random import Random

import pytest

from plovlab import exactmat
from plovlab.exactmat import (
    ExactMatrix,
    SparseMultiPoly,
    assemble_block_lower,
    hstack,
    matrix_rank,
    nullspace_basis,
)
from plovlab.incidence import nullity_truncated
from plovlab.symfun import vandermonde_poly

from oracles import dense_nullspace, dense_rank, vandermonde_square_product


def random_matrix(rng, nrows, ncols, density=0.5):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                row[c] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        rows.append(row)
    return ExactMatrix.from_rows(nrows, ncols, rows)


def test_rank_against_dense_oracle():
    rng = Random(11)
    for _ in range(60):
        nrows = rng.randint(0, 7)
        ncols = rng.randint(0, 7)
        m = random_matrix(rng, nrows, ncols)
        assert matrix_rank(m) == dense_rank(m.to_dense())


def test_nullspace_spans_kernel():
    rng = Random(23)
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 7)
        m = random_matrix(rng, nrows, ncols)
        basis = nullspace_basis(m)
        assert len(basis) == ncols - matrix_rank(m)
        for v in basis:
            assert all(x == 0 for x in m.matvec(v))
        oracle = dense_nullspace(m.to_dense(), ncols)
        assert len(basis) == len(oracle)


def test_nullspace_normalization():
    m = ExactMatrix.from_dense([[Fraction(1), Fraction(1)]])
    basis = nullspace_basis(m)
    assert basis == [[Fraction(1), Fraction(-1)]]


def test_degenerate_shapes():
    wide = ExactMatrix.from_rows(0, 3, [])
    assert matrix_rank(wide) == 0
    assert len(nullspace_basis(wide)) == 3
    tall = ExactMatrix.from_rows(3, 0, [{}, {}, {}])
    assert matrix_rank(tall) == 0
    assert nullspace_basis(tall) == []


@pytest.mark.parametrize("nrows, ncols, rows", [(-1, 0, ()), (2, 1, ((),))])
def test_exact_matrix_rejects_bad_shape(nrows, ncols, rows):
    with pytest.raises(ValueError):
        ExactMatrix(nrows, ncols, rows)


def test_exact_matrix_fields_are_read_only():
    m = ExactMatrix(1, 1, (((0, 1),),))
    with pytest.raises(AttributeError):
        m.nrows = 2
    assert m == ExactMatrix(1, 1, (((0, 1),),)) and m.nrows == 1


def test_entry_and_submatrix():
    m = ExactMatrix.from_dense([[1, 0, 2], [0, 3, 0]])
    assert m.entry(0, 2) == 2
    assert m.entry(1, 0) == 0
    sub = m.submatrix_columns([2, 0])
    assert sub.to_dense() == [[2, 1], [0, 0]]


def test_block_assembly():
    a = ExactMatrix.from_dense([[1, 2]])
    b = ExactMatrix.from_dense([[3, 0], [0, 4]])
    c = ExactMatrix.from_dense([[5], [6]])
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
        assert matrix_rank(ExactMatrix.from_dense(shuffled)) == r
        scaled = [
            [v * Fraction(rng.randint(1, 5)) for v in row] for row in dense]
        assert matrix_rank(ExactMatrix.from_dense(scaled)) == r


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
    # p1 * p2 vanishes mod both primes, so neither certifies rank 2
    p1, p2 = exactmat._PRIMES
    m = ExactMatrix.from_dense([[p1 * p2, 0], [0, 1]])
    calls = count_calls(monkeypatch, "_row_reduce")
    assert matrix_rank(m) == 2
    assert len(calls) == 1
    assert nullspace_basis(m) == []
    assert len(calls) == 2


def test_escalation_to_the_second_prime(monkeypatch):
    # the kernel of [a, -b] is (b, a); 80-bit entries do not lift mod
    # 2^127 - 1 but do mod 2^521 - 1
    rng = Random(3)
    a, b = rng.getrandbits(80) | 1 << 79, rng.getrandbits(80) | 1 << 79
    while gcd(a, b) != 1:
        b += 1
    m = ExactMatrix.from_dense([[a, -b]])
    calls = count_calls(monkeypatch, "_row_reduce")
    assert matrix_rank(m) == 1
    assert nullspace_basis(m) == [[Fraction(b), Fraction(a)]]
    assert calls == []
    monkeypatch.setattr(exactmat, "_PRIMES", exactmat._PRIMES[:1])
    assert nullspace_basis(m) == [[Fraction(b), Fraction(a)]]
    assert len(calls) == 1


def test_rank_escalates_on_the_left_kernel(monkeypatch):
    # [[b, b], [a, a]] has rank 1 with two nonzero rows and columns, so the
    # rank needs its left kernel (a, -b).  Mod 2^127 - 1 a smaller fraction
    # matches -a/b and only the exact check against the columns rejects it;
    # the 80-bit entries lift mod 2^521 - 1
    rng = Random(3)
    a, b = rng.getrandbits(80) | 1 << 79, rng.getrandbits(80) | 1 << 79
    while gcd(a, b) != 1:
        b += 1
    p1, p2 = exactmat._PRIMES
    assert exactmat._wang_denominator(-a * pow(b, -1, p1) % p1, p1, isqrt(p1 // 2))
    m = ExactMatrix.from_dense([[b, b], [a, a]])
    echelons = count_calls(monkeypatch, "_modular_echelon")
    fallbacks = count_calls(monkeypatch, "_row_reduce")
    assert matrix_rank(m) == 1
    assert [args[2] for args in echelons] == [p1, p2]
    assert fallbacks == []
    monkeypatch.setattr(exactmat, "_PRIMES", (p1,))
    assert matrix_rank(m) == 1
    assert len(fallbacks) == 1


def test_table2_rank_lifts_one_left_kernel_vector(monkeypatch):
    # Table 2 at d = 7, e = 1: rank 583 of the 584 x 587 truncated matrix,
    # certified by one elimination mod 2^127 - 1 and one lifted vector
    echelons = count_calls(monkeypatch, "_modular_echelon")
    fallbacks = count_calls(monkeypatch, "_row_reduce")
    assert nullity_truncated(7, 5, (2, 1, 1, 1, 1, 1), 1) == 4
    assert [args[2] for args in echelons] == [exactmat._PRIMES[0]]
    assert fallbacks == []


def test_integral_entries_are_ints():
    m = ExactMatrix.from_dense([[Fraction(4, 2), 3, Fraction(1, 2)]])
    assert [type(v) for _, v in m.rows[0]] == [int, int, Fraction]
    assert exactmat._integer_rows(m) == [{0: 4, 1: 6, 2: 1}]


def test_vandermonde_square_monomial_count():
    # (z1-z2)^2 (z1-z3)^2 (z2-z3)^2 has 19 monomials in 3 variables; the
    # product of binomials and the permutation-pair count agree on every size
    for m, expected in ((3, 19), (4, 201), (5, 2961)):
        assert len(vandermonde_square_product(m).terms) == expected
        assert len(vandermonde_poly(m - 1, m).terms) == expected
    assert len(vandermonde_poly(5, 6).terms) == 56183


def test_poly_product_commutative_associative():
    rng = Random(47)

    def random_poly():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            expo = tuple(rng.randint(0, 3) for _ in range(2))
            terms[expo] = Fraction(rng.randint(-4, 4))
        return SparseMultiPoly.from_terms(2, terms)

    for _ in range(10):
        p, q, r = random_poly(), random_poly(), random_poly()
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * SparseMultiPoly.constant(2, 1) == p


def test_poly_arithmetic():
    x = SparseMultiPoly.variable(2, 0)
    y = SparseMultiPoly.variable(2, 1)
    p = (x - y) * (x - y)
    assert p.coefficient((2, 0)) == 1
    assert p.coefficient((1, 1)) == -2
    assert p.coefficient((0, 2)) == 1
    dp = p.differentiate(0)
    assert dp.coefficient((1, 0)) == 2
    assert dp.coefficient((0, 1)) == -2
    assert (p - p).is_zero()
