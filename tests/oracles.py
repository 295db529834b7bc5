"""Slow, independent reference implementations used to cross-check the library.

Everything here is written the dumb way on purpose: dense Gaussian
elimination over Fraction, brute-force enumeration over product spaces and
permutations.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial, lcm

from plovlab.dynamics import (
    _int_det,
    _prepared,
    degree_growth_exponent,
    mat_add,
    mat_identity,
    mat_is_zero,
    mat_mul,
    nilpotent_log,
    power_sum_polynomial,
    unipotent_power,
)
from plovlab.exactmat import SparseMultiPoly
from plovlab.partitions import enumerate_partitions, multiplicities, partition_set
from plovlab.symfun import CoeffVector


def brute_force_partitions(k, d, n):
    """All weakly decreasing d-tuples in [0,k] summing to n, decreasing lex."""
    out = []
    for combo in combinations_with_replacement(range(k + 1), d):
        if sum(combo) == n:
            out.append(tuple(sorted(combo, reverse=True)))
    return sorted(set(out), reverse=True)


def dense_rref(rows):
    """Row-reduce a dense list-of-lists of Fractions in place; return pivot cols."""
    rows = [[Fraction(v) for v in r] for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        scale = rows[r][c]
        rows[r] = [v / scale for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def dense_rank(rows):
    if not rows or not rows[0]:
        return 0
    return len(dense_rref(rows)[1])


def dense_nullity(rows, ncols=None):
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return ncols - dense_rank(rows)


def dense_nullspace(rows, ncols):
    """Kernel basis of a dense matrix, one vector per free column."""
    if not rows:
        basis = []
        for f in range(ncols):
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            basis.append(v)
        return basis
    rref, pivots = dense_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rref[r][f]
        basis.append(v)
    return basis


def dense_det(rows):
    """Determinant by dense Gaussian elimination over Fraction."""
    rows = [[Fraction(v) for v in r] for r in rows]
    n = len(rows)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            out = -out
        out *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [v - f * w for v, w in zip(rows[i], rows[c])]
    return out


def mixed_determinant(mats):
    """Coefficient of t_1...t_g in det(sum t_i mats[i]): the sum over the g!
    column assignments phi of det(column j taken from mats[phi(j)])."""
    g = len(mats)
    return sum(
        (dense_det([[mats[phi[j]][i][j] for j in range(g)] for i in range(g)])
         for phi in permutations(range(g))),
        Fraction(0),
    )


def intersect_rational(model, classes):
    """model.intersect of symmetric classes with Fraction entries: each class
    is cleared to integers by the lcm of its denominators, and the product
    of those lcms, one overall factor of the multilinear form, is divided
    out once."""
    scale = 1
    cleared = []
    for s in classes:
        den = lcm(*(Fraction(x).denominator for r in s for x in r))
        scale *= den
        cleared.append([[int(x * den) for x in r] for r in s])
    return Fraction(model.intersect(cleared), scale)


@lru_cache(maxsize=None)
def vandermonde_square_product(m):
    """prod_{i<j<=m} (z_i - z_j)^2 in m variables, multiplied out factor by
    factor: each term z^e c becomes z^(e + u_i) c - z^(e + u_j) c."""
    terms = {(0,) * m: Fraction(1)}
    for i in range(m):
        for j in range(i + 1, m):
            for _ in range(2):
                out = {}
                for expo, coef in terms.items():
                    for pos, c in ((i, coef), (j, -coef)):
                        key = expo[:pos] + (expo[pos] + 1,) + expo[pos + 1:]
                        out[key] = out.get(key, 0) + c
                terms = {e: c for e, c in out.items() if c}
    return SparseMultiPoly(m, terms)


def vandermonde_subset_sum(r, d):
    """Sum over (r+1)-subsets I of [d] of the squared Vandermonde in the I
    variables, each subset's copy lifted into d variables and added up."""
    terms = {}
    for subset in combinations(range(d), r + 1):
        for expo, coef in vandermonde_square_product(r + 1).terms.items():
            lifted = [0] * d
            for pos, e in zip(subset, expo):
                lifted[pos] = e
            key = tuple(lifted)
            terms[key] = terms.get(key, Fraction(0)) + coef
    return SparseMultiPoly.from_terms(d, terms)


def is_symmetric_by_swaps(poly):
    """True when every adjacent transposition of the variables fixes poly."""
    for i in range(poly.arity - 1):
        for expo, coef in poly.terms.items():
            swapped = list(expo)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if poly.coefficient(tuple(swapped)) != coef:
                return False
    return True


def distinct_permutations_by_sorting(items):
    """Every distinct rearrangement of items, from all d! permutations,
    in decreasing lex order."""
    return sorted(set(permutations(items)), reverse=True)


def vandermonde_square_by_backtracking(m):
    """The partition coefficients of prod_{i<j<=m} (z_i - z_j)^2, each the
    signed count of staircase permutation pairs (a, b) with a + b = lambda,
    backtracking afresh over the positions of every lambda."""
    full = (1 << m) - 1

    def signed_pairs(lam, i, free_a, free_b):
        if i == m:
            return 1
        total = 0
        for a in range(m):
            b = lam[i] - a
            if not 0 <= b < m or not (free_a >> a) & 1 or not (free_b >> b) & 1:
                continue
            # each used value above a (resp. b) sits left of position i
            flips = (bin(~free_a & full & ~((2 << a) - 1)).count("1")
                     + bin(~free_b & full & ~((2 << b) - 1)).count("1"))
            sub = signed_pairs(lam, i + 1, free_a & ~(1 << a), free_b & ~(1 << b))
            total += -sub if flips & 1 else sub
        return total

    out = {}
    for lam in enumerate_partitions(2 * m - 2, m, m * (m - 1)):
        c = signed_pairs(lam, 0, full, full)
        if c:
            out[lam] = c
    return out


def mhat_expand_by_sorting(p, k, d, n):
    """mhat_expand term by term: check each term's degrees, group the nonzero
    terms by their sorted exponent and compare each group with its orbit
    size d!/prod e_i! and first coefficient."""
    if p.arity != d:
        raise ValueError(f"arity {p.arity} != d = {d}")
    orbits = {}  # sorted exponent -> [coefficient, members]
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
        if orbit[0] != coef:
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


def dense_matmul(a, b):
    """Product of two dense matrices, every entry a Fraction."""
    return [[sum((Fraction(a[i][t]) * Fraction(b[t][j]) for t in range(len(b))),
                 Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def charpoly_fraction(a):
    """det(xI - A), ascending coefficients, by Faddeev-LeVerrier with every
    intermediate a Fraction."""
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    am = [[Fraction(x) for x in r] for r in a]
    mk = [row[:] for row in am]
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs[n - k] = ck
        if k < n:
            shifted = [row[:] for row in mk]
            for i in range(n):
                shifted[i][i] += ck
            mk = dense_matmul(am, shifted)
    return coeffs


def nilpotent_log_fraction(u):
    """log U = sum_{i>=1} (-1)^(i+1) (U - I)^i / i, each term added as a
    Fraction matrix; None when (U - I)^g is not zero."""
    g = len(u)
    n = [[Fraction(u[i][j]) - (i == j) for j in range(g)] for i in range(g)]
    out = [[Fraction(0)] * g for _ in range(g)]
    power = [[Fraction(int(i == j)) for j in range(g)] for i in range(g)]
    for i in range(1, g + 1):
        power = dense_matmul(power, n)
        if all(x == 0 for r in power for x in r):
            return out
        coef = Fraction((-1) ** (i + 1), i)
        out = [[o + coef * p for o, p in zip(ro, rp)] for ro, rp in zip(out, power)]
    return None


def mat_scale(a, c):
    c = Fraction(c)
    return [[x * c for x in r] for r in a]


def nilpotent_exp(l):
    """exp of a nilpotent matrix via the terminating series."""
    g = len(l)
    out = mat_identity(g)
    power = mat_identity(g)
    for i in range(1, g + 1):
        power = mat_mul(power, l)
        if mat_is_zero(power):
            break
        out = mat_add(out, mat_scale(power, Fraction(1, factorial(i))))
    return out


def fraction_poly_mul(a, b):
    """Product of two ascending coefficient lists, every entry a Fraction."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def delta_multinomial_fraction(model):
    """Coefficients of the volume polynomial, ascending, trailing zeros
    dropped: the sum over the w-table of d!/prod(e_i!) * w_lambda *
    prod (S_i/i!)^{e_i}, with every product and sum taken in Fractions."""
    d = model.d
    k = degree_growth_exponent(model)
    s_over_fact = [[Fraction(c) / factorial(i) for c in power_sum_polynomial(i).coeffs]
                   for i in range(k + 1)]
    total = []
    for lam, w in _prepared(model)["w"].items():
        if w == 0 or lam[0] > k:
            continue
        e = multiplicities(lam, k)
        term = [Fraction(factorial(d)) * w]
        for i, e_i in enumerate(e):
            for _ in range(e_i):
                term = fraction_poly_mul(term, s_over_fact[i])
            term = [c / factorial(e_i) for c in term]
        total += [Fraction(0)] * (len(term) - len(total))
        for m, c in enumerate(term):
            total[m] += c
    while total and total[-1] == 0:
        total.pop()
    return total


def w_table_by_polarization(model):
    """The nonzero w_lambda by polarization, over every partition with g
    parts in [0, K]: the intersection of the integer classes (cL)^{lambda_j}
    H is the sum over the subsets T of the parts of (-1)^(g - |T|) det(sum
    of the classes of T) (Bapat 1989), divided by c^|lambda|.  The summed
    class depends only on the parts in T, so each one's determinant is
    taken once per call."""
    prep = _prepared(model)
    lh, c, g = prep["cLH"], prep["c"], model.g
    kmax = len(lh) - 1
    dets = {}

    def det(parts):
        if parts not in dets:
            total = [[0] * g for _ in range(g)]
            for p in parts:
                total = mat_add(total, lh[p])
            dets[parts] = _int_det(total)
        return dets[parts]

    table = {}
    for n in range(g * kmax + 1):
        for lam in enumerate_partitions(kmax, g, n):
            total = sum((-1) ** (g - size) * det(parts)
                        for size in range(g + 1)
                        for parts in combinations(lam, size))
            if total:
                table[lam] = Fraction(total, c ** n)
    return table


def sym_to_vec(g, s):
    """The coordinates S[i][j], i <= j, of a symmetric g x g matrix."""
    return tuple(s[i][j] for i in range(g) for j in range(i, g))


def vec_to_sym(g, vec):
    """The symmetric g x g matrix with the coordinates vec (see sym_to_vec)."""
    s = [[0] * g for _ in range(g)]
    coords = iter(vec)
    for i in range(g):
        for j in range(i, g):
            s[i][j] = s[j][i] = next(coords)
    return s


def action_matrix(a):
    """The action S -> A^T S A on symmetric g x g matrices, as a matrix on
    the coordinates S[i][j], i <= j: column (i, j) is the image of the
    symmetric unit matrix with ones at (i, j) and (j, i)."""
    g = len(a)
    at = [list(col) for col in zip(*a)]
    cols = []
    for i in range(g):
        for j in range(i, g):
            unit = [[0] * g for _ in range(g)]
            unit[i][j] = unit[j][i] = 1
            cols.append(sym_to_vec(g, mat_mul(at, mat_mul(unit, a))))
    return [list(row) for row in zip(*cols)]


def classes_by_action(a):
    """p, U = F^p and the nonzero classes L^i H, as Fraction vectors, from
    the unipotent power of the action matrix F of A and L = log U."""
    p, u = unipotent_power(action_matrix(a))
    l = nilpotent_log(u)
    g = len(a)
    lh = [[Fraction(int(i == j)) for i in range(g) for j in range(i, g)]]
    while any(lh[-1]):
        lh.append([sum(x * y for x, y in zip(row, lh[-1])) for row in l])
    return p, u, lh[:-1]
