"""Slow, independent reference implementations used to cross-check the library.

Everything here is written the dumb way on purpose: dense Gaussian
elimination over Fraction, brute-force enumeration over product spaces and
permutations.  Constructions that only tests reach live here too, not in
the library: the validating matrix constructors `from_rows` and
`from_dense`, the block assembly behind the block nullity formula, the
derivation and unit-cube integral of the acceptance tests, and the bucket
echelon that the library's modular elimination is checked against.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial, lcm, prod
from operator import index

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
from plovlab.exactmat import ExactMatrix, SparseMultiPoly, matrix_rank
from plovlab.partitions import Partition, enumerate_partitions, partition_set
from plovlab.symfun import CoeffVector, _orbit, mhat_expand


def brute_force_partitions(k, d, n):
    """All weakly decreasing d-tuples in [0,k] summing to n, decreasing lex."""
    out = []
    for combo in combinations_with_replacement(range(k + 1), d):
        if sum(combo) == n:
            out.append(tuple(sorted(combo, reverse=True)))
    return sorted(set(out), reverse=True)


def bump(mu: Partition, i: int, k: int) -> tuple[Partition, int] | None:
    """Replace one part equal to i with i+1.

    Returns (mu(i), weight e_i), or None when mu has no part equal to i
    (which maps to a zero matrix entry).  Requires 0 <= i <= k-1.  The
    first part equal to i is raised: every part before it is at least
    i+1, so mu(i) is weakly decreasing as mu is.
    """
    if not 0 <= i <= k - 1:
        raise ValueError(f"bump index {i} outside [0, {k - 1}]")
    e_i = mu.count(i)
    if e_i == 0:
        return None
    p = mu.index(i)
    return mu[:p] + (i + 1,) + mu[p + 1:], e_i


def incidence_by_bump(k, d, n):
    """Dense A_{k,d,n} on the brute-force partition sets: each row mu probes
    every i < k with `bump`, and a hit puts its weight at the column of mu(i)."""
    cols = brute_force_partitions(k, d, n)
    index = {lam: j for j, lam in enumerate(cols)}
    dense = []
    for mu in brute_force_partitions(k, d, n - 1):
        row = [0] * len(cols)
        for i in range(k):
            hit = bump(mu, i, k)
            if hit is not None:
                lam, weight = hit
                row[index[lam]] = weight
        dense.append(row)
    return dense


def multiplicities(p: Partition, k: int) -> list[int]:
    """Multiplicity vector e with e[i] = number of parts equal to i, for 0 <= i <= k."""
    e = [0] * (k + 1)
    for part in p:
        e[part] += 1
    return e


def from_rows(nrows: int, ncols: int, row_dicts) -> ExactMatrix:
    """Build from an iterable of {col: int} dicts (zeros dropped); an
    entry that is not an int, such as a Fraction or a float, raises
    TypeError, and a column outside [0, ncols) or a row count other than
    nrows raises ValueError."""
    rows = []
    for rd in row_dicts:
        row = tuple((c, v) for c, v in sorted(
            (c, index(v)) for c, v in rd.items()) if v)
        if row and (row[0][0] < 0 or row[-1][0] >= ncols):
            raise ValueError("column index out of range")
        rows.append(row)
    if len(rows) != nrows:
        raise ValueError("row count mismatch")
    return ExactMatrix(ncols, tuple(rows))


def from_dense(data) -> ExactMatrix:
    """Build from a dense list of rows, through from_rows."""
    data = [list(r) for r in data]
    nrows = len(data)
    ncols = len(data[0]) if nrows else 0
    return from_rows(nrows, ncols, ({j: v for j, v in enumerate(r)} for r in data))


def dense_transposed(m: ExactMatrix):
    """The transpose of m by way of its dense form: the nonzero columns
    over the nonzero rows, as {row position: value} dicts, and the number
    of nonzero rows."""
    dense = [r for r in m.to_dense() if any(r)]
    cols = [{i: v for i, v in enumerate(col) if v} for col in zip(*dense)]
    return [col for col in cols if col], len(dense)


def assemble_block_lower(a: ExactMatrix, b: ExactMatrix, c: ExactMatrix) -> ExactMatrix:
    """M = [[A, 0], [B, C]]; shapes must compose."""
    if a.ncols != b.ncols or b.nrows != c.nrows:
        raise ValueError("block shapes do not compose")
    n1 = a.ncols
    rows = []
    for row in a.rows:
        rows.append(dict(row))
    for rb, rc in zip(b.rows, c.rows):
        d = dict(rb)
        for col, v in rc:
            d[col + n1] = v
        rows.append(d)
    return from_rows(a.nrows + b.nrows, n1 + c.ncols, rows)


def hstack(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """[A, B]; the row counts must agree."""
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch")
    rows = []
    for ra, rb in zip(a.rows, b.rows):
        d = dict(ra)
        for col, v in rb:
            d[col + a.ncols] = v
        rows.append(d)
    return from_rows(a.nrows, a.ncols + b.ncols, rows)


def block_nullity_formula(a: ExactMatrix, b: ExactMatrix, c: ExactMatrix) -> dict:
    """Check nullity([[A,0],[B,C]]) = dim{x in ker A : Bx in range C} + nullity(C)."""
    m = assemble_block_lower(a, b, c)
    lhs = m.ncols - matrix_rank(m)
    nullity_c = c.ncols - matrix_rank(c)
    ker_a = [cleared(x) for x in dense_nullspace(a.to_dense(), a.ncols)]
    if ker_a:
        bk = from_dense(
            [[sum(v * x[col] for col, v in row) for x in ker_a]
             for row in b.rows]
        ) if b.nrows else from_rows(0, len(ker_a), [])
        joint = hstack(bk, c)
        # fibers over attainable x are affine translates of ker C
        dim_compat = (joint.ncols - matrix_rank(joint)) - nullity_c
    else:
        dim_compat = 0
    rhs = dim_compat + nullity_c
    return {"lhs": lhs, "rhs": rhs, "pass": lhs == rhs}


def bucket_echelon(rows, ncols, p):
    """Echelon form mod p of integer rows by leading-column buckets, the
    scheme `exactmat._modular_echelon` used before its row-at-a-time
    elimination: at each column in turn the pivot is the row with the fewest
    nonzeros (ties by arrival order), and every other row of the bucket is
    cancelled against it and re-bucketed by `min` of its new keys.  Same
    contract: pivots as (col, row_dict) in increasing column order, each
    scaled to pivot entry -1 and stored without it."""
    buckets = {}
    seq = 0

    def insert(row):
        nonlocal seq
        buckets.setdefault(min(row), []).append((len(row), seq, row))
        seq += 1

    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        if row:
            insert(row)

    pivots = []
    for col in range(ncols):
        group = buckets.pop(col, None)
        if not group:
            continue
        group.sort()  # seq is unique, so no two rows are compared
        piv = group[0][2]
        neg_inv = p - pow(piv.pop(col), -1, p)
        piv = {c: v * neg_inv % p for c, v in piv.items()}
        pivots.append((col, piv))
        for _, _, r in group[1:]:
            q = r.pop(col)
            for c, v in piv.items():
                w = (r.get(c, 0) + q * v) % p
                if w:
                    r[c] = w
                else:
                    del r[c]
            if r:
                insert(r)
    return pivots


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


def cleared(v):
    """A Fraction vector times the lcm of its denominators: an int vector
    on the same line."""
    mult = lcm(*(x.denominator for x in v))
    return [int(x * mult) for x in v]


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
    return SparseMultiPoly(d, {e: c for e, c in terms.items() if c})


def is_symmetric_by_swaps(poly):
    """True when every adjacent transposition of the variables fixes poly."""
    for i in range(poly.arity - 1):
        for expo, coef in poly.terms.items():
            swapped = list(expo)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if poly.terms.get(tuple(swapped), 0) != coef:
                return False
    return True


def distinct_permutations_by_sorting(items):
    """Every distinct rearrangement of items, from all d! permutations,
    in decreasing lex order."""
    return sorted(set(permutations(items)), reverse=True)


def vandermonde_square_by_pairs(m):
    """The partition coefficients of prod_{i<j<=m} (z_i - z_j)^2, each the
    signed count of staircase permutation pairs (a, b) with a + b = lambda.

    The Vandermonde product is det(z_i^(m-j)) = sum over permutations a of
    the staircase delta = (m-1, ..., 0) of sgn(a) z^a, so its square has
    coefficient sum sgn(a) sgn(b) over the pairs with a + b = lambda.  The
    pairs are counted by backtracking over positions; a value v placed after
    the c smaller values already used adds c inversions.  The signed count
    of completions depends only on the parts still to place and the values
    still free, so it is memoised on them, across all lambda of one call.
    """
    full = (1 << m) - 1
    memo = {}

    def signed_pairs(rest, free_a, free_b):
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
        entries.append(p.terms.get(lam, 0) * mult)
    return CoeffVector(index, tuple(entries))


def coeff_vector_poly(x: CoeffVector) -> SparseMultiPoly:
    """The symmetric polynomial sum_lambda x_lambda mhat_lambda."""
    terms = {}
    for lam, c in zip(x.index, x.entries):
        if c:
            terms.update(dict.fromkeys(
                _orbit(lam), Fraction(c) / prod(map(factorial, lam))))
    return SparseMultiPoly(x.index.d, terms)


def apply_derivation(x: CoeffVector) -> CoeffVector:
    """Expand sum_i d/dz_i of the polynomial attached to x, one degree down.

    Computed by direct differentiation of monomials, independently of the
    incidence matrices: each term adds its d partial derivatives to one sum.
    """
    k, d, n = x.index.k, x.index.d, x.index.n
    if n < 1:
        raise ValueError("n must be at least 1")
    out: dict[tuple[int, ...], Fraction] = {}
    for expo, c in coeff_vector_poly(x).terms.items():
        for i, e in enumerate(expo):
            if e:
                lower = expo[:i] + (e - 1,) + expo[i + 1:]
                out[lower] = out.get(lower, 0) + c * e
    deriv = SparseMultiPoly(d, {e: v for e, v in out.items() if v})
    return mhat_expand(deriv, k, d, n - 1)


def integrate_unit_cube(lam: Partition) -> Fraction:
    """Exact integral of mhat_lambda over the unit cube [0,1]^d."""
    d = len(lam)
    e = multiplicities(lam, max(lam) if lam else 0)
    denom = 1
    for i, e_i in enumerate(e):
        denom *= factorial(e_i) * factorial(i + 1) ** e_i
    return Fraction(factorial(d), denom)


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


def poly_at(coeffs, n):
    """The polynomial with the ascending coefficients coeffs at n, by
    Horner."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def fraction_poly_mul(a, b):
    """Product of two ascending coefficient lists, every entry a Fraction."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def rational_w_table(model):
    """The nonzero w_lambda as Fractions: each int c^|lambda| w_lambda of
    the library's w-table divided by c^|lambda|."""
    prep = _prepared(model)
    c = prep["c"]
    return {lam: Fraction(v, c ** sum(lam)) for lam, v in prep["w"].items()}


def delta_multinomial_fraction(model):
    """Coefficients of the volume polynomial, ascending, trailing zeros
    dropped: the sum over the w-table of d!/prod(e_i!) * w_lambda *
    prod (S_i/i!)^{e_i}, with every product and sum taken in Fractions."""
    d = model.d
    k = degree_growth_exponent(model)
    s_over_fact = [[c / factorial(i) for c in power_sum_polynomial(i)]
                   for i in range(k + 1)]
    total = []
    for lam, w in rational_w_table(model).items():
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
    c, cl = nilpotent_log(u)
    l = [[Fraction(x, c) for x in r] for r in cl]
    g = len(a)
    lh = [[Fraction(int(i == j)) for i in range(g) for j in range(i, g)]]
    while any(lh[-1]):
        lh.append([sum(x * y for x, y in zip(row, lh[-1])) for row in l])
    return p, u, lh[:-1]


# finite-order 2 x 2 integer blocks R of the twisted models P^-1 (J (+) R) P
TWISTS = {
    "minus-identity": [[-1, 0], [0, -1]],
    "order-3": [[0, -1], [1, -1]],
    "order-4": [[0, -1], [1, 0]],
    "order-6": [[1, -1], [1, 0]],
}


def direct_sum(a, b):
    """The block-diagonal matrix a (+) b of two square matrices."""
    n, m = len(a), len(b)
    return ([list(row) + [0] * m for row in a]
            + [[0] * n + list(row) for row in b])


def closed_form(blocks):
    """(k, plov) of a model of Jordan type blocks: k = 2(max b - 1) and
    plov = sum of b^2.  Observed, not proven: it held on every Jordan type
    with g <= 10, as its Jordan form and as seeded conjugates.  A twist R
    acts as two more 1-blocks."""
    return 2 * (max(blocks) - 1), sum(b * b for b in blocks)
