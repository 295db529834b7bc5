from fractions import Fraction
from math import factorial
from random import Random

import pytest

from plovlab import symfun
from plovlab.exactmat import SparseMultiPoly
from plovlab.incidence import build_incidence
from plovlab.partitions import enumerate_partitions, partition_set
from plovlab.symfun import (
    CoeffVector,
    _vandermonde_square,
    apply_derivation,
    coeff_vector_poly,
    coeff_vector_to_json,
    distinct_permutations,
    hilbert_product,
    integrate_unit_cube,
    mhat_expand,
    mhat_poly,
    vandermonde_coeff_vector,
    vandermonde_poly,
)

from oracles import (
    distinct_permutations_by_sorting,
    is_symmetric_by_swaps,
    mhat_expand_by_sorting,
    vandermonde_square_by_backtracking,
    vandermonde_square_product,
    vandermonde_subset_sum,
)


def test_distinct_permutations():
    perms = list(distinct_permutations((2, 1, 1)))
    assert len(perms) == 3
    assert len(set(perms)) == 3
    assert all(sorted(p, reverse=True) == [2, 1, 1] for p in perms)
    assert list(distinct_permutations([1, 2, 1])) == perms


def test_distinct_permutations_order_matches_sorting():
    # k = d - 1 gives every run-length shape of d parts
    for d in range(1, 7):
        k = max(d - 1, 1)
        for n in range(d * k + 1):
            for lam in enumerate_partitions(k, d, n):
                assert (list(distinct_permutations(lam))
                        == distinct_permutations_by_sorting(lam)), lam


def test_mhat_poly_small():
    p = mhat_poly((2, 0))
    assert p.coefficient((2, 0)) == Fraction(1, 2)
    assert p.coefficient((0, 2)) == Fraction(1, 2)
    q = mhat_poly((1, 1))
    assert q.coefficient((1, 1)) == 1


def test_mhat_expand_roundtrip():
    rng = Random(17)
    for (k, d, n) in ((3, 2, 4), (4, 3, 6), (2, 4, 5)):
        index = partition_set(k, d, n)
        entries = tuple(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in index)
        x = CoeffVector(index, entries)
        back = mhat_expand(coeff_vector_poly(x), k, d, n)
        assert back.entries == entries


def test_mhat_expand_rejects_asymmetric():
    p = SparseMultiPoly.from_terms(2, {(2, 0): 1})
    with pytest.raises(ValueError):
        mhat_expand(p, 2, 2, 2)


def test_mhat_expand_rejects_incomplete_orbit():
    # drop one of the six rearrangements of (2,1,0)
    p = SparseMultiPoly(
        3, {**mhat_poly((2, 1, 0)).terms, **mhat_poly((1, 1, 1)).terms})
    mhat_expand(p, 2, 3, 3)
    terms = dict(p.terms)
    del terms[(0, 1, 2)]
    with pytest.raises(ValueError, match="polynomial is not symmetric"):
        mhat_expand(SparseMultiPoly.from_terms(3, terms), 2, 3, 3)


def test_mhat_expand_rejects_unequal_orbit_coefficient():
    # every rearrangement present, one coefficient changed
    p = vandermonde_poly(1, 3)
    terms = dict(p.terms)
    terms[(0, 2, 0)] += 1
    with pytest.raises(ValueError, match="polynomial is not symmetric"):
        mhat_expand(SparseMultiPoly.from_terms(3, terms), 2, 3, 2)


def test_mhat_expand_symmetry_matches_swap_oracle():
    # the orbit test accepts exactly what the adjacent-swap test accepts
    rng = Random(41)
    k, d, n = 3, 3, 4
    index = partition_set(k, d, n)
    for trial in range(60):
        x = CoeffVector(index, tuple(
            Fraction(rng.randint(-2, 2)) for _ in index))
        terms = dict(coeff_vector_poly(x).terms)
        for _ in range(trial % 3):
            expo = tuple(rng.sample(index[rng.randrange(len(index))], d))
            terms[expo] = terms.get(expo, Fraction(0)) + rng.choice((-1, 1))
        p = SparseMultiPoly.from_terms(d, terms)
        if is_symmetric_by_swaps(p):
            mhat_expand(p, k, d, n)
        else:
            with pytest.raises(ValueError, match="not symmetric"):
                mhat_expand(p, k, d, n)


def test_mhat_expand_rejects_wrong_degree():
    p = SparseMultiPoly(2, {**mhat_poly((2, 1)).terms, **mhat_poly((1, 0)).terms})
    with pytest.raises(ValueError):
        mhat_expand(p, 2, 2, 3)


def test_mhat_expand_orbit_count_must_match_term_count():
    # an orbit short of one member and one term outside every orbit leave
    # the term count equal to the orbit's size; the term is still reported
    terms = dict(mhat_poly((2, 1, 0)).terms)
    del terms[(0, 1, 2)]
    terms[(1, 0, 0)] = Fraction(1)
    p = SparseMultiPoly.from_terms(3, terms)
    with pytest.raises(ValueError, match=r"term \(1, 0, 0\) is not of degree 3"):
        mhat_expand(p, 2, 3, 3)


def test_mhat_expand_certifies_symmetric_input_in_one_pass(monkeypatch):
    passes = []
    orbit_pass = symfun._orbit_pass

    def counted(terms, index):
        passes.append(len(terms))
        return orbit_pass(terms, index)

    monkeypatch.setattr(symfun, "_orbit_pass", counted)
    p = vandermonde_poly(3, 4)
    assert mhat_expand(p, 6, 4, 12) == mhat_expand_by_sorting(p, 6, 4, 12)
    assert passes == [len(p.terms)]
    # a zero coefficient in a partial orbit needs the term-by-term check
    q = SparseMultiPoly(4, {**p.terms, (6, 6, 0, 0): Fraction(0)})
    assert mhat_expand(q, 6, 4, 12) == mhat_expand_by_sorting(q, 6, 4, 12)
    assert passes[-2:] == [len(q.terms), len(p.terms)]


def test_derivation_matches_incidence():
    # the analytic derivation and the combinatorial bump matrix agree
    rng = Random(29)
    for d in range(2, 5):
        for k in range(1, 2 * d - 1):
            for n in range(1, d * k + 1):
                index = partition_set(k, d, n)
                mat = build_incidence(k, d, n)
                for _ in range(3):
                    entries = tuple(
                        Fraction(rng.randint(-3, 3)) for _ in index)
                    x = CoeffVector(index, entries)
                    lhs = apply_derivation(x).entries
                    rhs = tuple(mat.data.matvec(list(entries)))
                    assert lhs == rhs


def test_vandermonde_small():
    # d=2, r=1: (z1-z2)^2 = 2 mhat_(2,0) - 2 mhat_(1,1)
    v = vandermonde_coeff_vector(1, 2)
    assert v[(2, 0)] == 2
    assert v[(1, 1)] == -2


def test_vandermonde_in_kernel():
    for d in (2, 3, 4):
        for r in range(1, d):
            v = vandermonde_coeff_vector(r, d)
            mat = build_incidence(2 * r, d, r * (r + 1))
            assert all(x == 0 for x in mat.data.matvec(list(v.entries)))


def test_vandermonde_general_kappa_entry():
    # the kappa(t)-coordinate of v_{r,d} is (d-r) times the factorial of kappa
    from plovlab.incidence import kappa_of

    cases = [(1, 2, (1, 1)), (1, 3, (2, 1)), (2, 3, (1, 1, 1)),
             (1, 4, (3, 1)), (2, 4, (2, 1, 1)), (3, 4, (1, 1, 1, 1))]
    for r, d, t in cases:
        kappa = kappa_of(t)
        v = vandermonde_coeff_vector(r, d)
        expected = d - r
        for part in kappa:
            expected *= factorial(part)
        assert v[kappa] == expected, (r, d, t)


def test_vandermonde_kappa_entry():
    for d in (2, 3, 4):
        v = vandermonde_coeff_vector(d - 1, d)
        kappa = tuple(2 * j for j in range(d - 1, -1, -1))
        expected = 1
        for j in range(1, d):
            expected *= factorial(2 * j)
        assert v[kappa] == expected


def test_vandermonde_square_matches_product():
    # the signed permutation-pair counts are the product's partition coefficients
    for m in range(2, 6):
        product = vandermonde_square_product(m)
        expected = {lam: c for lam, c in product.terms.items()
                    if list(lam) == sorted(lam, reverse=True)}
        assert _vandermonde_square(m) == expected


def test_vandermonde_square_matches_backtracking():
    for m in range(1, 7):
        assert _vandermonde_square(m) == vandermonde_square_by_backtracking(m), m


def test_vandermonde_poly_matches_subset_sum():
    for d in range(2, 6):
        for r in range(1, d):
            assert vandermonde_poly(r, d) == vandermonde_subset_sum(r, d), (r, d)


def test_vandermonde_poly_symmetric():
    p = vandermonde_poly(1, 3)
    for expo, coef in p.terms.items():
        assert p.coefficient(tuple(reversed(expo))) == coef


def test_integrate_unit_cube():
    # mhat_(1,1) = z1 z2 integrates to 1/4
    assert integrate_unit_cube((1, 1)) == Fraction(1, 4)
    assert integrate_unit_cube((0, 0)) == 1
    # check against direct monomial integration for a few cases
    for lam in ((2, 0), (2, 1), (3, 1, 0)):
        p = mhat_poly(lam)
        direct = Fraction(0)
        for expo, coef in p.terms.items():
            term = coef
            for e in expo:
                term /= e + 1
            direct += term
        assert integrate_unit_cube(lam) == direct


def test_hilbert_product_values():
    assert hilbert_product(2) == Fraction(1, 12)
    # d=3: (1!^3 / (2! 4!)) * (2!^3 / (4! 5!)) = (1/48)(1/360)
    assert hilbert_product(3) == Fraction(1, 17280)
    with pytest.raises(ValueError):
        hilbert_product(1)


def test_coeff_vector_rejects_wrong_entry_count():
    index = partition_set(2, 2, 2)
    with pytest.raises(ValueError):
        CoeffVector(index, (Fraction(1),) * (len(index) + 1))


def test_coeff_vector_json():
    v = vandermonde_coeff_vector(1, 2)
    text = coeff_vector_to_json(v)
    assert '"partition": "2,0"' in text
    assert '"value": "2/1"' in text
