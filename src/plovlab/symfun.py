"""Normalized monomial symmetric functions and Vandermonde-type expansions.

The normalized basis element attached to a partition lambda is the sum of
z^alpha / alpha! over all distinct rearrangements alpha of lambda.  Expanding
a symmetric polynomial in this basis turns the "raise one part" incidence
matrix into the divergence operator sum_i d/dz_i, which is the bridge between
the combinatorics and the intersection-number computations.

An orbit, the distinct rearrangements of a partition, depends only on the
partition's run lengths.  Each run-length shape keeps one byte string of the
first-position indices of all its rearrangements, and an orbit is that
string translated through the partition, one byte per part: parts and
lengths are at most 255.
"""

from __future__ import annotations

import gc
from functools import lru_cache
from itertools import islice, repeat
from math import comb, factorial, prod
from operator import is_

from .exactmat import SparseMultiPoly
from .partitions import Partition, PartitionSet, enumerate_partitions, partition_set


@lru_cache(maxsize=None)
def _template(first: bytes) -> bytes:
    """The distinct rearrangements of the nondecreasing bytes `first`, flat,
    in increasing lex order.  With `first` the first positions of the parts
    of a decreasing tuple lam (lam[i] == lam[first[i]]), they are lam's
    rearrangements read through lam, and since lam's runs decrease,
    increasing lex order on `first` gives decreasing lex order on lam.

    In that order the rearrangements come in one block per distinct value v
    of `first`, increasing: v, then each rearrangement of `first` without
    one v.  A block is written one column at a time by extended slices, the
    rest from the template of the shorter bytes.
    """
    n = len(first)
    if n < 2:
        return first
    blocks = []
    for i, v in enumerate(first):
        if i and first[i - 1] == v:
            continue
        rest = _template(first[:i] + first[i + 1:])
        rows = len(rest) // (n - 1)
        block = bytearray(rows * n)
        block[::n] = bytes([v]) * rows
        for c in range(1, n):
            block[c::n] = rest[c - 1::n - 1]
        blocks.append(block)
    return b"".join(blocks)


@lru_cache(maxsize=None)
def _orbit(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct rearrangements of a decreasing tuple, in decreasing lex
    order.  Parts and length are at most 255, as one byte each.

    The orbit depends only on lam's run lengths, so one ``_template`` per
    run-length shape, keyed by every part's first position ((5,4,4,2,1,0)
    -> 0,1,1,3,4,5), serves every lam of that shape: one translate reads it
    through lam.  Cached per tuple, so callers share the list and must not
    change it; ``vandermonde_coeff_vector`` empties both caches when its
    expansion ends, so the memos live for one expansion."""
    d = len(lam)
    if d < 2:
        return [lam]
    flat = _template(bytes(map(lam.index, lam))).translate(
        bytes(lam).ljust(256, b"\0"))
    return list(zip(*[iter(flat)] * d))


@lru_cache(maxsize=None)
def mhat_poly(lam: Partition) -> SparseMultiPoly:
    """Sum of z^alpha / alpha! over distinct rearrangements alpha of lam."""
    from fractions import Fraction
    coef = Fraction(1, prod(map(factorial, lam)))
    return SparseMultiPoly(len(lam), dict.fromkeys(_orbit(lam), coef))


def _orbit_pass(terms: dict, index: PartitionSet) -> tuple | None:
    """The expansion of a polynomial with these terms, or None if it is not
    a sum of whole orbits of index with one coefficient each.

    Orbits of distinct partitions are disjoint, so when every present
    partition's orbit is present with its coefficient and the orbits cover
    len(terms) exponents, no other term exists: the polynomial is symmetric
    and all its terms lie in orbits of index.

    A polynomial built from the ``_orbit`` lists, as ``vandermonde_poly``
    builds it, holds those very tuples, orbit after orbit in the order of
    index.  So the terms are first walked in insertion order against the
    present orbits: each key must be the orbit member itself
    (``operator.is_``), and each orbit's coefficients must equal its
    partition's, counted as the lookup counts them.  No term is hashed
    again.  Where the walk disagrees anywhere, every orbit member is looked
    up instead.
    """
    get = terms.get
    present = [(i, c, _orbit(lam)) for i, lam in enumerate(index)
               if (c := get(lam)) is not None]
    if sum(len(orbit) for _, _, orbit in present) != len(terms):
        return None
    keys, values = iter(terms), iter(terms.values())
    walked = all(all(map(is_, islice(keys, len(orbit)), orbit))
                 and list(islice(values, len(orbit))).count(c) == len(orbit)
                 for _, c, orbit in present)
    if not walked and any(list(map(get, orbit)).count(c) != len(orbit)
                          for _, c, orbit in present):
        return None
    entries = [0] * len(index)
    for i, c, _ in present:
        entries[i] = c * prod(map(factorial, index[i]))
    return tuple(entries)


def mhat_expand(p: SparseMultiPoly, k: int, d: int, n: int) -> tuple:
    """Coefficients of p in the normalized monomial basis over P(k,d,n).

    Validates that p is homogeneous of degree n, has per-variable degree at
    most k, and is symmetric: the nonzero terms sharing a sorted exponent
    lambda (an orbit) have one coefficient and make up the whole orbit.  The
    lambda coefficient is the z^lambda coefficient of p times lambda!.

    One pass over the orbits of P(k,d,n) certifies the usual input.  Any
    other input is checked term by term, so a term of the wrong degree is
    reported first and zero coefficients may form partial orbits.  Orbits
    are listed one byte per part, so k or d above 255 raises ValueError.
    """
    if p.arity != d:
        raise ValueError(f"arity {p.arity} != d = {d}")
    if k > 255 or d > 255:
        raise ValueError(f"need k, d <= 255, got k={k}, d={d}")
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
            out[lam] = c * prod(map(factorial, map(lam.count, set(lam))))
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


def vandermonde_coeff_vector(r: int, d: int) -> tuple:
    """Coefficients of the degree r(r+1) Vandermonde sum over P(2r, d, r(r+1)).

    The expansion allocates every exponent tuple of the polynomial (56,183
    at d = 6) and frees them all when it ends, together with the ``_orbit``
    memo that shares them and the ``_template`` memo behind it.  The tuples
    hold only ints and form no cycles, so the cyclic collector, which a run
    of allocations sets off, would only traverse them in vain: it is paused
    while the expansion runs, and the caller's setting is restored after
    it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return mhat_expand(vandermonde_poly(r, d), 2 * r, d, r * (r + 1))
    finally:
        _orbit.cache_clear()
        _template.cache_clear()
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
