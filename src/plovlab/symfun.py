"""Normalized monomial symmetric functions and Vandermonde-type expansions.

The normalized basis element attached to a partition lambda is the sum of
z^alpha / alpha! over all distinct rearrangements alpha of lambda.  Expanding
a symmetric polynomial in this basis turns the "raise one part" incidence
matrix into the divergence operator sum_i d/dz_i, which is the bridge between
the combinatorics and the intersection-number computations.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .exactmat import Record, SparseMultiPoly
from .partitions import (
    Partition,
    PartitionSet,
    enumerate_partitions,
    format_partition,
    multiplicities,
    partition_set,
)

__all__ = [
    "CoeffVector",
    "mhat_poly",
    "mhat_expand",
    "apply_derivation",
    "vandermonde_poly",
    "vandermonde_coeff_vector",
    "integrate_unit_cube",
    "hilbert_product",
    "coeff_vector_to_json",
]


class CoeffVector(Record):
    """Rational coefficients indexed by a partition set in decreasing lex order."""

    __slots__ = _fields = ("index", "entries")

    def __init__(self, index: PartitionSet, entries: tuple[Fraction, ...]):
        if len(entries) != len(index):
            raise ValueError("entry count must match the index set")
        self._set(index, entries)

    def __getitem__(self, lam: Partition) -> Fraction:
        return self.entries[self.index.index_of(lam)]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.entries)


def distinct_permutations(items: tuple[int, ...]):
    """All distinct rearrangements, in decreasing lexicographic order.

    Each step goes to the previous permutation: take the last descent
    a[i] > a[i+1], swap a[i] with the last entry below it, and reverse the
    (now increasing) suffix.
    """
    a = sorted(items, reverse=True)
    n = len(a)
    while True:
        yield tuple(a)
        i = n - 2
        while i >= 0 and a[i] <= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] >= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


@lru_cache(maxsize=None)
def mhat_poly(lam: Partition) -> SparseMultiPoly:
    """Sum of z^alpha / alpha! over distinct rearrangements alpha of lam."""
    d = len(lam)
    terms = {}
    for alpha in distinct_permutations(lam):
        denom = 1
        for a in alpha:
            denom *= factorial(a)
        terms[alpha] = Fraction(1, denom)
    return SparseMultiPoly.from_terms(d, terms)


def mhat_expand(p: SparseMultiPoly, k: int, d: int, n: int) -> CoeffVector:
    """Coefficients of p in the normalized monomial basis over P(k,d,n).

    Validates that p is homogeneous of degree n, has per-variable degree at
    most k, and is symmetric: the nonzero terms sharing a sorted exponent
    lambda (an orbit) have one coefficient and number d!/prod_i e_i!, with
    e the multiplicities of lambda.  The lambda coefficient is the z^lambda
    coefficient of p times lambda!.
    """
    if p.arity != d:
        raise ValueError(f"arity {p.arity} != d = {d}")
    orbits: dict[Partition, list] = {}  # sorted exponent -> [coefficient, members]
    symmetric = True
    for expo, coef in p.terms.items():
        if sum(expo) != n:
            raise ValueError(f"term {expo} is not of degree {n}")
        if max(expo, default=0) > k:
            raise ValueError(f"term {expo} has variable degree above {k}")
        if not coef:
            continue
        orbit = orbits.setdefault(tuple(sorted(expo, reverse=True)), [coef, 0])
        orbit[1] += 1
        # an orbit often shares one Fraction object; skip comparing it to itself
        if orbit[0] is not coef and orbit[0] != coef:
            symmetric = False
    for lam, (_, members) in orbits.items():
        size = factorial(d)
        for e_i in multiplicities(lam, k):
            size //= factorial(e_i)
        symmetric = symmetric and members == size
    if not symmetric:
        raise ValueError("polynomial is not symmetric")
    index = partition_set(k, d, n)
    entries = []
    for lam in index:
        mult = Fraction(1)
        for a in lam:
            mult *= factorial(a)
        entries.append(p.coefficient(lam) * mult)
    return CoeffVector(index, tuple(entries))


def coeff_vector_poly(x: CoeffVector) -> SparseMultiPoly:
    """The symmetric polynomial sum_lambda x_lambda mhat_lambda."""
    total = SparseMultiPoly.zero(x.index.d)
    for lam, c in zip(x.index, x.entries):
        if c:
            total = total + mhat_poly(lam).scale(c)
    return total


def apply_derivation(x: CoeffVector) -> CoeffVector:
    """Expand sum_i d/dz_i of the polynomial attached to x, one degree down.

    Computed by direct differentiation of monomials, independently of the
    incidence matrices.
    """
    k, d, n = x.index.k, x.index.d, x.index.n
    if n < 1:
        raise ValueError("n must be at least 1")
    poly = coeff_vector_poly(x)
    deriv = SparseMultiPoly.zero(d)
    for i in range(d):
        deriv = deriv + poly.differentiate(i)
    return mhat_expand(deriv, k, d, n - 1)


@lru_cache(maxsize=None)
def _vandermonde_square(m: int) -> dict[Partition, int]:
    """Coefficients of prod_{i<j<=m} (z_i - z_j)^2 at the partitions of m(m-1).

    The Vandermonde product is det(z_i^(m-j)) = sum over permutations a of
    the staircase delta = (m-1, ..., 0) of sgn(a) z^a, so its square has
    coefficient sum sgn(a) sgn(b) over the pairs with a + b = lambda.  The
    pairs are counted by backtracking over positions; a value v placed after
    the c smaller values already used adds c inversions.  Only nonzero
    coefficients are kept, one per partition in P(2m-2, m, m(m-1)).
    """
    full = (1 << m) - 1

    def signed_pairs(lam: Partition, i: int, free_a: int, free_b: int) -> int:
        if i == m:
            return 1
        total = 0
        part = lam[i]
        for a in range(max(0, part - m + 1), min(part, m - 1) + 1):
            b = part - a
            if not (free_a >> a) & 1 or not (free_b >> b) & 1:
                continue
            # values below a (resp. b) already used sit left of position i
            flips = (a - bin(free_a & ((1 << a) - 1)).count("1")
                     + b - bin(free_b & ((1 << b) - 1)).count("1"))
            sub = signed_pairs(lam, i + 1, free_a & ~(1 << a), free_b & ~(1 << b))
            total += -sub if flips & 1 else sub
        return total

    out = {}
    for lam in enumerate_partitions(2 * m - 2, m, m * (m - 1)):
        c = signed_pairs(lam, 0, full, full)
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
    terms: dict[tuple[int, ...], Fraction] = {}
    for lam in enumerate_partitions(2 * r, d, r * (r + 1)):
        s = d - lam.count(0)
        if s > r + 1 or lam[:r + 1] not in block:
            continue
        coef = Fraction(comb(d - s, r + 1 - s) * block[lam[:r + 1]])
        for alpha in distinct_permutations(lam):
            terms[alpha] = coef
    return SparseMultiPoly(d, terms)


def vandermonde_coeff_vector(r: int, d: int) -> CoeffVector:
    """Coefficients of the degree r(r+1) Vandermonde sum over P(2r, d, r(r+1))."""
    return mhat_expand(vandermonde_poly(r, d), 2 * r, d, r * (r + 1))


def integrate_unit_cube(lam: Partition) -> Fraction:
    """Exact integral of mhat_lambda over the unit cube [0,1]^d."""
    d = len(lam)
    e = multiplicities(lam, max(lam) if lam else 0)
    denom = 1
    for i, e_i in enumerate(e):
        denom *= factorial(e_i) * factorial(i + 1) ** e_i
    return Fraction(factorial(d), denom)


def hilbert_product(d: int) -> Fraction:
    """prod_{j=1}^{d-1} (j!)^3 / ((2j)! (d+j)!)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    out = Fraction(1)
    for j in range(1, d):
        out *= Fraction(factorial(j) ** 3, factorial(2 * j) * factorial(d + j))
    return out


def coeff_vector_to_json(x: CoeffVector) -> str:
    """JSON export: list of {partition, value} in index order."""
    payload = [
        {
            "partition": format_partition(lam),
            "value": f"{v.numerator}/{v.denominator}",
        }
        for lam, v in zip(x.index, x.entries)
    ]
    return json.dumps(payload)
