import gc
import sys
from collections import Counter
from fractions import Fraction
from math import factorial, prod
from random import Random

import pytest

from plovlab import symfun
from plovlab.exactmat import SparseMultiPoly
from plovlab.incidence import build_incidence
from plovlab.partitions import enumerate_partitions, partition_set
from plovlab.symfun import (
    _vandermonde_square,
    hilbert_product,
    mhat_expand,
    mhat_poly,
    vandermonde_coeff_vector,
    vandermonde_poly,
)

from oracles import (
    apply_derivation,
    coeff_vector_poly,
    distinct_permutations_by_sorting,
    integrate_unit_cube,
    is_symmetric_by_swaps,
    mhat_expand_by_sorting,
    vandermonde_square_by_backtracking,
    vandermonde_square_by_pairs,
    vandermonde_square_product,
    vandermonde_subset_sum,
)


def orbit_uncached(lam):
    """_orbit(lam) without filling its per-tuple memo, which a sweep over
    every partition would grow to every exponent tuple of the sweep."""
    return symfun._orbit.__wrapped__(lam)


def test_distinct_permutations_order_matches_sorting():
    # every partition with parts up to 2d - 2, the largest part the
    # kernel's expansion lists; k = d - 1 alone gives every run-length shape
    for d in range(1, 7):
        k = max(2 * d - 2, 1)
        for n in range(d * k + 1):
            for lam in enumerate_partitions(k, d, n):
                assert orbit_uncached(lam) == distinct_permutations_by_sorting(lam), lam


def runs_at_the_ends(d, k):
    """For every run-length shape of d parts, the partition whose runs take
    the largest values in [0, k] and the one whose runs take the least."""
    for cuts in range(1 << (d - 1)):
        lengths, run = [], 1
        for i in range(d - 1):
            if cuts >> i & 1:
                lengths.append(run)
                run = 0
            run += 1
        lengths.append(run)
        for top in (k, len(lengths) - 1):
            yield tuple(v for j, size in enumerate(lengths)
                        for v in [top - j] * size)


def test_orbit_matches_sorting_on_every_shape_at_d7():
    # every partition of parts up to 12 would be 13^7 exponent tuples; each
    # of the 64 run-length shapes at both ends of [0, 12] reads the templates
    # through the largest and the smallest parts
    lams = list(runs_at_the_ends(7, 12))
    assert len(set(lams)) == 128 and max(map(max, lams)) == 12
    for lam in lams:
        assert orbit_uncached(lam) == distinct_permutations_by_sorting(lam), lam


def test_mhat_expand_caps_parts_and_length_at_255():
    # an orbit is listed one byte per part: 255 fits in k and in d, 256
    # raises one line
    for k, d, lam in ((255, 2, (255, 0)), (1, 255, (1,) + (0,) * 254)):
        p = SparseMultiPoly(d, dict.fromkeys(orbit_uncached(lam), 1))
        assert len(p.terms) == d
        index = partition_set(k, d, sum(lam))
        x = mhat_expand(p, k, d, sum(lam))
        assert x[index.members.index(lam)] == factorial(max(lam))
    for k, d in ((256, 2), (1, 256)):
        with pytest.raises(ValueError, match="255") as err:
            mhat_expand(SparseMultiPoly(d, {}), k, d, 0)
        assert "\n" not in str(err.value)


def test_mhat_poly_small():
    assert mhat_poly((2, 0)).terms == {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}
    assert mhat_poly((1, 1)).terms == {(1, 1): 1}


def test_mhat_expand_roundtrip():
    rng = Random(17)
    for (k, d, n) in ((3, 2, 4), (4, 3, 6), (2, 4, 5)):
        index = partition_set(k, d, n)
        entries = tuple(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in index)
        assert mhat_expand(coeff_vector_poly(index, entries), k, d, n) == entries


def test_mhat_expand_rejects_asymmetric():
    p = SparseMultiPoly(2, {(2, 0): 1})
    with pytest.raises(ValueError):
        mhat_expand(p, 2, 2, 2)


class LookupCounter(dict):
    """Terms that count their ``get`` calls: the orbit pass makes one per
    partition of the index, and its lookup makes one more per term."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


def certified_by(terms, k, d, n):
    """The orbit pass's expansion of terms, and "walk" or "lookup" for the
    check that certified it."""
    counted = LookupCounter(terms)
    index = partition_set(k, d, n)
    out = symfun._orbit_pass(counted, index)
    assert out is not None
    return out, "walk" if counted.gets == len(index) else "lookup"


def test_mhat_expand_rejects_incomplete_orbit():
    # drop one of the six rearrangements of (2,1,0)
    p = SparseMultiPoly(
        3, {**mhat_poly((2, 1, 0)).terms, **mhat_poly((1, 1, 1)).terms})
    mhat_expand(p, 2, 3, 3)
    terms = dict(p.terms)
    del terms[(0, 1, 2)]
    with pytest.raises(ValueError, match="polynomial is not symmetric"):
        mhat_expand(SparseMultiPoly(3, terms), 2, 3, 3)


def test_mhat_expand_rejects_unequal_orbit_coefficient():
    # every rearrangement present, one coefficient changed; the copy keeps
    # the Vandermonde sum's insertion order, so the walk that certifies the
    # sum meets the change among identical keys and must compare the
    # coefficients too
    p = vandermonde_poly(1, 3)
    assert certified_by(p.terms, 2, 3, 2)[1] == "walk"
    terms = dict(p.terms)
    terms[(0, 2, 0)] += 1
    assert list(terms) == list(p.terms)
    with pytest.raises(ValueError, match="polynomial is not symmetric"):
        mhat_expand(SparseMultiPoly(3, terms), 2, 3, 2)


def test_mhat_expand_symmetry_matches_swap_oracle():
    # the orbit test accepts exactly what the adjacent-swap test accepts
    rng = Random(41)
    k, d, n = 3, 3, 4
    index = partition_set(k, d, n)
    for trial in range(60):
        x = tuple(Fraction(rng.randint(-2, 2)) for _ in index)
        terms = dict(coeff_vector_poly(index, x).terms)
        for _ in range(trial % 3):
            expo = tuple(rng.sample(index[rng.randrange(len(index))], d))
            terms[expo] = terms.get(expo, Fraction(0)) + rng.choice((-1, 1))
        p = SparseMultiPoly(d, terms)
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
    p = SparseMultiPoly(3, terms)
    with pytest.raises(ValueError, match=r"term \(1, 0, 0\) is not of degree 3"):
        mhat_expand(p, 2, 3, 3)


def test_orbit_pass_walks_the_insertion_order():
    # the Vandermonde sum lists its terms orbit after orbit from the orbit
    # memo, so the walk certifies it with no lookup
    p = vandermonde_poly(3, 4)
    out, how = certified_by(p.terms, 6, 4, 12)
    assert how == "walk"
    assert out == mhat_expand_by_sorting(p, 6, 4, 12)


def test_orbit_pass_looks_up_what_the_walk_cannot_certify():
    # a shuffled copy, and a copy with one key replaced by an equal tuple
    # that is not the orbit member itself, are the same polynomial: the walk
    # disagrees and the lookup certifies them
    p = vandermonde_poly(3, 4)
    expected = mhat_expand_by_sorting(p, 6, 4, 12)
    items = list(p.terms.items())
    Random(5).shuffle(items)
    old = next(e for e in p.terms if e != tuple(sorted(e, reverse=True)))
    new = tuple(list(old))
    assert new == old and new is not old
    replaced = {(new if e is old else e): c for e, c in p.terms.items()}
    assert list(replaced) == list(p.terms)
    for terms in (dict(items), replaced):
        assert certified_by(terms, 6, 4, 12) == (expected, "lookup")


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
                    lhs = apply_derivation(index, entries)
                    rhs = tuple(mat.data.matvec(list(entries)))
                    assert lhs == rhs


def vandermonde_by_partition(r, d):
    """vandermonde_coeff_vector(r, d) keyed by the partitions of its index
    P(2r, d, r(r+1))."""
    return dict(zip(partition_set(2 * r, d, r * (r + 1)),
                    vandermonde_coeff_vector(r, d), strict=True))


def test_vandermonde_small():
    # d=2, r=1: (z1-z2)^2 = 2 mhat_(2,0) - 2 mhat_(1,1)
    assert vandermonde_by_partition(1, 2) == {(2, 0): 2, (1, 1): -2}


def test_vandermonde_in_kernel():
    for d in (2, 3, 4):
        for r in range(1, d):
            v = vandermonde_coeff_vector(r, d)
            mat = build_incidence(2 * r, d, r * (r + 1))
            assert all(x == 0 for x in mat.data.matvec(list(v)))


def test_vandermonde_general_kappa_entry():
    # the kappa(t)-coordinate of v_{r,d} is (d-r) times the factorial of kappa
    from plovlab.incidence import kappa_of

    cases = [(1, 2, (1, 1)), (1, 3, (2, 1)), (2, 3, (1, 1, 1)),
             (1, 4, (3, 1)), (2, 4, (2, 1, 1)), (3, 4, (1, 1, 1, 1))]
    for r, d, t in cases:
        kappa = kappa_of(t)
        v = vandermonde_by_partition(r, d)
        expected = d - r
        for part in kappa:
            expected *= factorial(part)
        assert v[kappa] == expected, (r, d, t)


def test_vandermonde_kappa_entry():
    for d in (2, 3, 4):
        v = vandermonde_by_partition(d - 1, d)
        kappa = tuple(2 * j for j in range(d - 1, -1, -1))
        expected = 1
        for j in range(1, d):
            expected *= factorial(2 * j)
        assert v[kappa] == expected


@pytest.fixture
def collector():
    """Restore the collector's setting and thresholds after the test."""
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*thresholds)
    (gc.enable if enabled else gc.disable)()


def collections_inside(code):
    """A gc.callbacks probe, and the list of the generations of the
    collections it sees start while a frame of code is on the stack."""
    seen = []

    def probe(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(0).f_back
        while frame is not None:
            if frame.f_code is code:
                seen.append(info["generation"])
                return
            frame = frame.f_back

    return probe, seen


def test_expansion_runs_without_collector_passes(collector):
    # with a collection due at every allocation, none starts inside the
    # expansion; afterwards the collector is on again and the orbit memo
    # is empty
    probe, seen = collections_inside(vandermonde_coeff_vector.__code__)
    gc.callbacks.append(probe)
    try:
        gc.enable()
        gc.set_threshold(1)
        for d in range(2, 7):
            vandermonde_coeff_vector(d - 1, d)
            assert gc.isenabled(), d
            assert symfun._orbit.cache_info().currsize == 0, d
            assert symfun._template.cache_info().currsize == 0, d
    finally:
        gc.callbacks.remove(probe)
    assert seen == []


def test_collection_probe_sees_an_unpaused_expansion(collector):
    # the probe above is not blind: the same expansion without the pause
    # starts collections
    probe, seen = collections_inside(symfun.mhat_expand.__code__)
    gc.callbacks.append(probe)
    try:
        gc.enable()
        gc.set_threshold(1)
        mhat_expand(vandermonde_poly(3, 4), 6, 4, 12)
    finally:
        gc.callbacks.remove(probe)
    assert seen != []


@pytest.mark.parametrize("enabled", [True, False])
def test_expansion_restores_the_collector_setting(collector, enabled):
    (gc.enable if enabled else gc.disable)()
    vandermonde_coeff_vector(3, 4)
    assert gc.isenabled() is enabled
    with pytest.raises(ValueError):
        vandermonde_coeff_vector(0, 4)
    assert gc.isenabled() is enabled
    assert symfun._orbit.cache_info().currsize == 0
    assert symfun._template.cache_info().currsize == 0


def test_expansion_leaves_no_garbage_for_the_collector(collector):
    # every tuple the expansion allocates is freed by its reference count
    gc.disable()
    gc.collect()
    for d in range(2, 7):
        vandermonde_coeff_vector(d - 1, d)
        assert gc.collect() == 0, d


def test_vandermonde_square_leaves_no_cycle(collector):
    # the pass over S_m frees its signed sums by reference count, so under
    # the paused collector they do not outlive the expansion
    gc.disable()
    gc.collect()
    for m in range(2, 8):
        _vandermonde_square.__wrapped__(m)
        assert gc.collect() == 0, m


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


# the table sizes m of the squared Vandermonde: m = 9 is extended
TABLE_SIZES = [*range(1, 9), pytest.param(9, marks=pytest.mark.extended)]


@pytest.mark.parametrize("m", TABLE_SIZES)
def test_vandermonde_square_matches_pair_count(m):
    assert _vandermonde_square(m) == vandermonde_square_by_pairs(m)


@pytest.mark.parametrize("m", TABLE_SIZES)
def test_vandermonde_square_closed_forms(m):
    # the leading term z^(2 delta) has coefficient 1; the constant term of
    # prod_{i != j} (1 - z_i / z_j), at z^((m-1)^m), is (-1)^(m(m-1)/2) m!
    # (Dyson's constant term with a = 1); and the square vanishes at
    # (1, ..., 1), so the coefficients weighted by orbit size sum to 0
    table = _vandermonde_square(m)
    assert table[tuple(range(2 * m - 2, -1, -2))] == 1
    assert table[(m - 1,) * m] == (-1) ** (m * (m - 1) // 2) * factorial(m)
    if m >= 2:
        assert sum(c * factorial(m) // prod(map(factorial, Counter(lam).values()))
                   for lam, c in table.items()) == 0


def test_vandermonde_poly_matches_subset_sum():
    for d in range(2, 6):
        for r in range(1, d):
            assert vandermonde_poly(r, d) == vandermonde_subset_sum(r, d), (r, d)


def test_vandermonde_poly_symmetric():
    p = vandermonde_poly(1, 3)
    for expo, coef in p.terms.items():
        assert p.terms.get(tuple(reversed(expo)), 0) == coef


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


def test_expansion_has_one_entry_per_partition():
    # mhat_expand lists one coefficient per partition of P(k, d, n), in its
    # order, whichever check certified the input
    for k, d, n in ((3, 2, 3), (4, 3, 6), (6, 4, 12)):
        index = partition_set(k, d, n)
        x = tuple(Fraction(i % 3 - 1, 1 + i % 2) for i in range(len(index)))
        p = coeff_vector_poly(index, x)
        assert mhat_expand(p, k, d, n) == x
        # x is zero at index[1]: a zero on one rearrangement of it is a
        # partial orbit, which only the term-by-term check accepts
        zeroed = SparseMultiPoly(d, {**p.terms, index[1][::-1]: 0})
        assert mhat_expand(zeroed, k, d, n) == x

