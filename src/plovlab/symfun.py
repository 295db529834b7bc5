"""Normalized monomial symmetric functions and Vandermonde-type expansions.

The normalized basis element attached to a partition lambda is the sum of
z^alpha / alpha! over all distinct rearrangements alpha of lambda.  Expanding
a symmetric polynomial in this basis turns the "raise one part" incidence
matrix into the divergence operator sum_i d/dz_i, which is the bridge between
the combinatorics and the intersection-number computations.
"""

from __future__ import annotations

import gc
from collections import Counter
from functools import lru_cache
from itertools import repeat
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
    it; ``vandermonde_coeff_vector`` empties the cache when its expansion
    ends, so the memo lives for one expansion."""
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
    from fractions import Fraction
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


def _place(sums: dict, exps: list[int], i: int, free: int, sign: int) -> None:
    """Add to sums the signed exponents delta + pi delta of every pi in S_m
    that takes exps[:i] at positions below i and the values in the bitmask
    free above, where sign is sgn of the inversions already placed.

    Each value v placed at position i flips the sign once for each free
    value above it: an inversion against delta's decreasing order.  The
    last two positions are placed together.  Bound by name, not through a
    closure cell, so the recursion leaves no reference cycle behind.
    """
    m = len(exps)
    top = m - 1 - i  # delta_i
    if i == m - 2:
        low = free & -free
        u, w = low.bit_length() - 1, (free ^ low).bit_length() - 1
        # u at i has w above it still free; w at i has none
        exps[i], exps[i + 1] = top + u, top - 1 + w
        key = tuple(sorted(exps))
        sums[key] = sums.get(key, 0) - sign
        exps[i], exps[i + 1] = top + w, top - 1 + u
        key = tuple(sorted(exps))
        sums[key] = sums.get(key, 0) + sign
        return
    for v in range(m):
        if (free >> v) & 1:
            rest = free ^ (1 << v)
            exps[i] = top + v
            _place(sums, exps, i + 1, rest,
                   -sign if (rest >> v).bit_count() & 1 else sign)


@lru_cache(maxsize=None)
def _vandermonde_square(m: int) -> dict[Partition, int]:
    """Coefficients of prod_{i<j<=m} (z_i - z_j)^2 at the partitions of m(m-1).

    With delta = (m-1, ..., 0), the coefficient at lambda is

        c_lambda = prod_v mult_v(lambda)! * sum of sgn(pi) over the pi in S_m
                   with sort(delta + pi delta) = lambda.

    The Vandermonde product is det(z_i^(m-j)) = sum over sigma in S_m of
    sgn(sigma) z^(sigma delta), so its square is the sum over pairs
    (sigma, tau) of sgn(sigma) sgn(tau) z^(sigma delta + tau delta).  Put
    tau = sigma pi: then sigma delta + tau delta = sigma(delta + pi delta)
    and sgn(sigma) sgn(tau) = sgn(pi).  For a fixed pi, the sigma that take
    delta + pi delta to lambda are the |Stab lambda| = prod mult! that fix
    lambda.

    One pass over S_m (``_place``) places a value at each position from a
    bitmask of the values still free.  The signed sums are keyed by their
    increasing sort.  Only nonzero coefficients are kept, one per partition
    in P(2m-2, m, m(m-1)), in that order.
    """
    if m == 1:  # the empty product; the pass places two positions
        return {(0,): 1}
    sums: dict[Partition, int] = {}
    _place(sums, [0] * m, 0, (1 << m) - 1, 1)
    out = {}
    for lam in enumerate_partitions(2 * m - 2, m, m * (m - 1)):
        c = sums.get(lam[::-1])
        if c:
            out[lam] = c * prod(map(factorial, Counter(lam).values()))
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
        terms.update(zip(_orbit(lam), repeat(coef)))
    return SparseMultiPoly(d, terms)


def vandermonde_coeff_vector(r: int, d: int) -> CoeffVector:
    """Coefficients of the degree r(r+1) Vandermonde sum over P(2r, d, r(r+1)).

    The expansion allocates every exponent tuple of the polynomial (56,183
    at d = 6) and frees them all when it ends, together with the ``_orbit``
    memo that shares them.  The tuples hold only ints and form no cycles, so
    the cyclic collector, which a run of allocations sets off, would only
    traverse them in vain: it is paused while the expansion runs, and the
    caller's setting is restored after it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return mhat_expand(vandermonde_poly(r, d), 2 * r, d, r * (r + 1))
    finally:
        _orbit.cache_clear()
        if enabled:
            gc.enable()


def hilbert_product(d: int) -> Fraction:
    """prod_{j=1}^{d-1} (j!)^3 / ((2j)! (d+j)!)."""
    from fractions import Fraction
    if d < 2:
        raise ValueError("d must be at least 2")
    out = Fraction(1)
    for j in range(1, d):
        out *= Fraction(factorial(j) ** 3, factorial(2 * j) * factorial(d + j))
    return out
