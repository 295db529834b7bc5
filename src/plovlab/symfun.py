"""Normalized monomial symmetric functions and Vandermonde-type expansions.

The normalized basis element attached to a partition lambda is the sum of
z^alpha / alpha! over all distinct rearrangements alpha of lambda.  Expanding
a symmetric polynomial in this basis turns the "raise one part" incidence
matrix into the divergence operator sum_i d/dz_i, which is the bridge between
the combinatorics and the intersection-number computations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from operator import itemgetter

from .exactmat import SparseMultiPoly
from .partitions import (
    CoeffVector,
    Partition,
    PartitionSet,
    enumerate_partitions,
    partition_set,
)


def _rearranger(first: tuple[int, ...]) -> itemgetter:
    """A getter that lists, flat, the distinct rearrangements of every
    decreasing tuple lam with lam[i] == lam[first[i]], first[i] being the
    first position of lam[i]'s value.

    Lam's rearrangements are those of `first` read through lam, and since
    lam's runs decrease, increasing lex order on `first` gives decreasing
    lex order on lam.  Each step goes to the next one: take the last ascent
    a[i] < a[i+1], swap a[i] with the last entry above it, and reverse the
    (now decreasing) suffix.
    """
    a = list(first)
    n = len(a)
    flat = []
    while True:
        flat += a
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return itemgetter(*flat)
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


# The orbit of a decreasing tuple depends only on its run lengths, so one
# getter serves each run-length shape, keyed by every entry's first position:
# (5,4,4,2,1,0) -> (0,1,1,3,4,5).
_rearrangers: dict[tuple[int, ...], itemgetter] = {}


@lru_cache(maxsize=None)
def _orbit(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct rearrangements of a decreasing tuple, in decreasing lex
    order.  Cached per tuple, so callers share the list and must not change
    it."""
    d = len(lam)
    if d < 2:
        return [lam]
    first = tuple(map(lam.index, lam))
    getter = _rearrangers.get(first)
    if getter is None:
        getter = _rearrangers[first] = _rearranger(first)
    return list(zip(*[iter(getter(lam))] * d))


@lru_cache(maxsize=None)
def mhat_poly(lam: Partition) -> SparseMultiPoly:
    """Sum of z^alpha / alpha! over distinct rearrangements alpha of lam."""
    coef = Fraction(1, prod(map(factorial, lam)))
    return SparseMultiPoly(len(lam), dict.fromkeys(_orbit(lam), coef))


def _orbit_pass(terms: dict, index: PartitionSet) -> CoeffVector | None:
    """The expansion of a polynomial with these terms, or None if it is not
    a sum of whole orbits of index with one coefficient each.

    Orbits of distinct partitions are disjoint, so when every present
    partition's orbit is present with its coefficient and the orbits cover
    len(terms) exponents, no other term exists: the polynomial is symmetric
    and all its terms lie in orbits of index.
    """
    get = terms.get
    covered = 0
    entries = []
    for lam in index:
        c = get(lam)
        if c is None:
            entries.append(0)
            continue
        orbit = _orbit(lam)
        if list(map(get, orbit)).count(c) != len(orbit):
            return None
        covered += len(orbit)
        entries.append(c * prod(map(factorial, lam)))
    if covered != len(terms):
        return None
    return CoeffVector(index, tuple(entries))


def mhat_expand(p: SparseMultiPoly, k: int, d: int, n: int) -> CoeffVector:
    """Coefficients of p in the normalized monomial basis over P(k,d,n).

    Validates that p is homogeneous of degree n, has per-variable degree at
    most k, and is symmetric: the nonzero terms sharing a sorted exponent
    lambda (an orbit) have one coefficient and make up the whole orbit.  The
    lambda coefficient is the z^lambda coefficient of p times lambda!.

    One pass over the orbits of P(k,d,n) certifies the usual input.  Any
    other input is checked term by term, so a term of the wrong degree is
    reported first and zero coefficients may form partial orbits.
    """
    if p.arity != d:
        raise ValueError(f"arity {p.arity} != d = {d}")
    index = partition_set(k, d, n)
    out = _orbit_pass(p.terms, index)
    if out is not None:
        return out
    for expo in p.terms:
        if sum(expo) != n:
            raise ValueError(f"term {expo} is not of degree {n}")
        if max(expo, default=0) > k:
            raise ValueError(f"term {expo} has variable degree above {k}")
    out = _orbit_pass({e: c for e, c in p.terms.items() if c}, index)
    if out is None:
        raise ValueError("polynomial is not symmetric")
    return out


@lru_cache(maxsize=None)
def _vandermonde_square(m: int) -> dict[Partition, int]:
    """Coefficients of prod_{i<j<=m} (z_i - z_j)^2 at the partitions of m(m-1).

    The Vandermonde product is det(z_i^(m-j)) = sum over permutations a of
    the staircase delta = (m-1, ..., 0) of sgn(a) z^a, so its square has
    coefficient sum sgn(a) sgn(b) over the pairs with a + b = lambda.  The
    pairs are counted by backtracking over positions; a value v placed after
    the c smaller values already used adds c inversions.  The signed count
    of completions depends only on the parts still to place and the values
    still free, so it is memoised on them, across all lambda of one call.
    Only nonzero coefficients are kept, one per partition in
    P(2m-2, m, m(m-1)).
    """
    full = (1 << m) - 1
    memo: dict[tuple[Partition, int, int], int] = {}

    def signed_pairs(rest: Partition, free_a: int, free_b: int) -> int:
        if not rest:
            return 1
        key = (rest, free_a, free_b)
        total = memo.get(key)
        if total is not None:
            return total
        total = 0
        part = rest[0]
        for a in range(max(0, part - m + 1), min(part, m - 1) + 1):
            b = part - a
            if not (free_a >> a) & 1 or not (free_b >> b) & 1:
                continue
            # values below a (resp. b) already used sit left of this position
            flips = (a - (free_a & ((1 << a) - 1)).bit_count()
                     + b - (free_b & ((1 << b) - 1)).bit_count())
            sub = signed_pairs(rest[1:], free_a & ~(1 << a), free_b & ~(1 << b))
            total += -sub if flips & 1 else sub
        memo[key] = total
        return total

    out = {}
    for lam in enumerate_partitions(2 * m - 2, m, m * (m - 1)):
        c = signed_pairs(lam, full, full)
        if c:
            out[lam] = c
    return out


def vandermonde_poly(r: int, d: int) -> SparseMultiPoly:
    """Sum over (r+1)-subsets I of the squared Vandermonde in the I variables.

    A monomial z^alpha whose sorted exponent lambda has s <= r+1 nonzero
    parts lies in the C(d-s, r+1-s) blocks I containing its support, each
    with the (r+1)-variable coefficient at lambda[:r+1].
    """
    if not 1 <= r <= d - 1:
        raise ValueError(f"need 1 <= r <= d-1, got r={r}, d={d}")
    block = _vandermonde_square(r + 1)
    terms: dict[tuple[int, ...], int] = {}
    for lam in enumerate_partitions(2 * r, d, r * (r + 1)):
        s = d - lam.count(0)
        if s > r + 1 or lam[:r + 1] not in block:
            continue
        coef = comb(d - s, r + 1 - s) * block[lam[:r + 1]]
        terms.update(dict.fromkeys(_orbit(lam), coef))
    return SparseMultiPoly(d, terms)


def vandermonde_coeff_vector(r: int, d: int) -> CoeffVector:
    """Coefficients of the degree r(r+1) Vandermonde sum over P(2r, d, r(r+1))."""
    return mhat_expand(vandermonde_poly(r, d), 2 * r, d, r * (r + 1))


def hilbert_product(d: int) -> Fraction:
    """prod_{j=1}^{d-1} (j!)^3 / ((2j)! (d+j)!)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    out = Fraction(1)
    for j in range(1, d):
        out *= Fraction(factorial(j) ** 3, factorial(2 * j) * factorial(d + j))
    return out
