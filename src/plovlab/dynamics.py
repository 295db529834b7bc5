"""Zero-entropy dynamics pipeline on concrete intersection models.

A model bundles a dimension d, a rational intersection form (symmetric
d-linear), an ample class H, and an integer matrix A whose action on
divisor classes is the automorphism.  The pipeline replaces the action by a
unipotent power, takes the nilpotent logarithm L, evaluates the
intersection numbers w_lambda of the log-twisted classes L^i H,
interpolates the top self-intersection of the sum of pullbacks as an exact
polynomial in n, kept as its ascending Fraction coefficients with no
trailing zero, and reads off the polynomial volume growth as its degree.
L and w stay in ints, as cL and c^{|lambda|} w_lambda for the c that clears
L; only the Hilbert check divides by c^{|lambda|}.
The concrete models are abelian surrogates: the lattice Z^g with an integer
unimodular A acting by S -> A^T S A on symmetric g x g matrices, which are
the classes and carry the polarized-determinant intersection form.  Each
check of the pipeline returns only on success and otherwise raises
ModelError, a CheckFailed that names the check and the instance.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from operator import add, index, mul, sub
from random import Random

from .exactmat import CheckFailed
from .incidence import build_incidence, kappa_of
from .partitions import Partition, format_partition, partition_set
from .symfun import hilbert_product

# largest model dimension g that plov and scan accept
MAX_MODEL_DIM = 6
# largest bit length of an entry of a model's A that model_from_json accepts
MAX_ENTRY_BITS = 64


class ModelError(CheckFailed):
    """A model violates an assumption of the pipeline."""


# The Faulhaber power sums no longer enter the pipeline (delta_polynomial
# sums the orbit of U).  They stay here for the test oracle
# tests/oracles.delta_multinomial_fraction, and because the benchmark's
# cold-cache list (perfbench/layers.COLD_CACHES) names _bernoulli; they move
# to the tests once that list is re-keyed.
@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    from fractions import Fraction
    if m == 0:
        return Fraction(1)
    return Fraction(-1, m + 1) * sum(
        (comb(m + 1, j) * _bernoulli(j) for j in range(m)), Fraction(0)
    )


def power_sum_polynomial(i: int) -> tuple[Fraction, ...]:
    """S_i with S_i(n-1) = sum_{m=0}^{n-1} m^i, as its ascending
    coefficients in n.

    Faulhaber via Bernoulli polynomials: (B_{i+1}(n) - B_{i+1}(0)) / (i+1),
    whose n^m coefficient is C(i+1, m) B_{i+1-m} / (i+1) for m >= 1; the
    constant term is 0 and the top one 1/(i+1).
    """
    from fractions import Fraction
    if i < 0:
        raise ValueError("i must be nonnegative")
    deg = i + 1
    return (Fraction(0),) + tuple(comb(deg, m) * _bernoulli(deg - m) / deg
                                  for m in range(1, deg + 1))


# ---------------------------------------------------------------------------
# exact square-matrix helpers (lists of lists of Fraction or int)

def mat_identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Exact product; int inputs give int entries."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_is_zero(a) -> bool:
    return all(x == 0 for r in a for x in r)


def mat_pow(a, e: int):
    out = mat_identity(len(a))
    while e:
        if e & 1:
            out = mat_mul(out, a)
        a = mat_mul(a, a)
        e >>= 1
    return out


def charpoly(a: list[list[int]]) -> list[int]:
    """Characteristic polynomial det(xI - A) of an integer matrix, ascending
    coefficients.

    Faddeev-LeVerrier in ints: each c_k = -tr(M_k)/k is an integer, so the
    division is exact; a trace that is not an int raises TypeError.
    """
    n = len(a)
    coeffs = [0] * n + [1]
    mk = a
    for k in range(1, n + 1):
        ck = -index(sum(mk[i][i] for i in range(n))) // k
        coeffs[n - k] = ck
        if k < n:
            shifted = [row[:] for row in mk]
            for i in range(n):
                shifted[i][i] += ck
            mk = mat_mul(a, shifted)
    return coeffs


# cyclotomic machinery for quasi-unipotency detection

@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial."""
    # x^n - 1 divided by the cyclotomic polynomials of proper divisors
    poly = [-1] + [0] * (n - 1) + [1]
    for m in range(1, n):
        if n % m == 0:
            poly = _polydiv_monic(poly, _cyclotomic(m))
    return tuple(poly)


def _polydiv_monic(num: list[int], den: tuple[int, ...]) -> list[int] | None:
    """The quotient num / den for a monic den, or None when the remainder is
    nonzero; a monic divisor needs no division."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q = out[i] = num[i + len(den) - 1]
        for j, dj in enumerate(den):
            num[i + j] -= q * dj
    return None if any(num) else out


def _euler_phi(n: int) -> int:
    return sum(1 for i in range(1, n + 1) if gcd(i, n) == 1)


def unipotent_power(a: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Least m with A^m unipotent, plus the integer matrix U = A^m, for an
    integer matrix A.

    Checks that every irreducible factor of the characteristic polynomial is
    cyclotomic (all eigenvalues roots of unity); raises ModelError otherwise.
    The residual and every cyclotomic divisor are monic integer polynomials,
    so each quotient stays in ints.
    """
    g = len(a)
    orders = set()
    residual = charpoly(a)
    # phi(n) <= g bounds the order of any root of unity among the eigenvalues
    n_cap = 2 * g * g + 2
    for n in range(1, n_cap + 1):
        if len(residual) == 1:
            break
        if _euler_phi(n) > g:
            continue
        cyc = _cyclotomic(n)
        while len(residual) >= len(cyc):
            quo = _polydiv_monic(residual, cyc)
            if quo is None:
                break
            residual = quo
            orders.add(n)
    if len(residual) > 1:
        raise ModelError(
            "action is not quasi-unipotent (positive entropy or "
            "non-root-of-unity eigenvalues)"
        )
    m = lcm(*orders)
    u = mat_pow(a, m)
    if not mat_is_zero(mat_pow(mat_sub(u, mat_identity(g)), g)):
        raise ModelError("A^m is not unipotent")
    return m, u


def nilpotent_log(u: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(c, cN) for N = log U = sum (-1)^{i+1} (U - I)^i / i, U a unipotent
    integer matrix, and c the least positive int with cN integral.

    The powers of U - I are summed with the integer weights (-1)^{i+1} b/i,
    b = lcm(1..g), into bN, and b / c = gcd(b, every entry of bN).
    """
    g = len(u)
    b = lcm(*range(1, g + 1))
    n = mat_sub(u, mat_identity(g))
    out = [[0] * g for _ in range(g)]
    power = mat_identity(g)
    for i in range(1, g + 1):
        power = mat_mul(power, n)
        if mat_is_zero(power):
            break
        weight = (-1) ** (i + 1) * (b // i)
        out = mat_add(out, [[x * weight for x in r] for r in power])
    else:
        if not mat_is_zero(mat_mul(power, n)):
            raise ModelError("input is not unipotent")
    common = gcd(b, *(x for r in out for x in r))
    return b // common, [[x // common for x in r] for r in out]


# ---------------------------------------------------------------------------
# abelian surrogates

def _int_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of a small integer matrix; 1 for the empty
    matrix."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                a[r][j] = (a[c][c] * a[r][j] - a[r][c] * a[c][j]) // prev
            a[r][c] = 0
        prev = a[c][c]
    return sign * prev


class AbelianSurrogate:
    """Product-of-elliptic-curves stand-in: divisor classes are symmetric g x g
    integer matrices, used as they are with no coordinate basis; the action
    is S -> A^T S A for an integer unimodular A, the ample class H is the
    g x g identity, and the intersection form is the polarized determinant
    (the coefficient of t_1...t_g in det(sum t_i S_i), computed by
    polarization over the subsets of the g classes: exactly 2^g determinants
    per call)."""

    def __init__(self, a: list[list[int]], jordan: tuple[int, ...] | None = None):
        g = len(a)
        if any(len(r) != g for r in a):
            raise ValueError("A must be square")
        a = [[index(x) for x in r] for r in a]
        det = _int_det(a)
        if det not in (1, -1):
            raise ModelError(f"A must be unimodular, det = {det}")
        self.g = g
        self.d = g
        self.a = a
        self.jordan = jordan

    def intersect(self, classes) -> int:
        """The intersection of g classes, each a symmetric g x g integer
        matrix (any other entry raises TypeError): the polarization sum over
        the subsets T of the classes S_j of (-1)^(g - |T|) det(sum_{j in T}
        S_j) (Bapat 1989), exactly 2^g determinants.  The pipeline reads its
        w-table from one polynomial determinant (`_det_table`) and calls
        this once per k >= 2 model, on the integer classes (cL)^i H, to
        certify the table's int c^|kappa| w_kappa."""
        g = self.g
        if len(classes) != g:
            raise ValueError(f"need exactly {g} classes")
        sums = [[[0] * g for _ in range(g)]]
        for s_j in classes:
            s_j = [[index(x) for x in r] for r in s_j]
            sums += [mat_add(s, s_j) for s in sums]
        # bit j of the index t is set when S_j is in the subset
        return sum((-1) ** (g - t.bit_count()) * _int_det(s)
                   for t, s in enumerate(sums))

    def to_json(self) -> str:
        return json.dumps({"type": "abelian", "g": self.g, "A": self.a})


# ---------------------------------------------------------------------------
# the pipeline

def _det_table(g: int, clh) -> dict[Partition, int]:
    """Every nonzero intersection of the integer classes clh[i], at once.

    det(sum_i s_i M_i), M_i the g x g matrix clh[i], is expanded row by row:
    after r rows, each set of used columns (a bitmask) holds the signed sum,
    as a polynomial in s, of the products of the chosen entries, and a new
    column j adds the sign (-1)^(used columns right of j).  The monomial s^e
    is the int sum e_i (g+1)^i (every e_i <= g), so multiplying by s_i adds
    (g+1)^i.  The polarized determinant is symmetric and multilinear, so
    [s^e] det = (intersection with clh[i] taken e_i times) / prod e_i!
    (Bapat 1989); each nonzero coefficient is decoded into the partition
    lambda with multiplicities e and scaled by prod e_i!.
    """
    base = g + 1
    # entries[r][j]: the terms (code of s_i, M_i[r][j]) with M_i[r][j] != 0
    entries = [[[(base ** i, m[r][j]) for i, m in enumerate(clh) if m[r][j]]
                for j in range(g)] for r in range(g)]
    layer = {0: {0: 1}}
    for row in entries:
        nxt: dict[int, dict[int, int]] = {}
        for mask, poly in layer.items():
            for j, terms in enumerate(row):
                if mask >> j & 1 or not terms:
                    continue
                sign = -1 if (mask >> (j + 1)).bit_count() & 1 else 1
                out = nxt.setdefault(mask | 1 << j, {})
                for step, v in terms:
                    v *= sign
                    for code, coef in poly.items():
                        key = code + step
                        out[key] = out.get(key, 0) + v * coef
        layer = {mask: {code: coef for code, coef in poly.items() if coef}
                 for mask, poly in nxt.items()}
    table = {}
    for code, coef in layer.get((1 << g) - 1, {}).items():
        lam = []
        weight = coef
        for i in range(len(clh)):
            code, e = divmod(code, base)
            lam[:0] = [i] * e
            weight *= factorial(e)
        table[tuple(lam)] = weight
    return table


def _prepared(model):
    """Cache p, V, c, the classes (cL)^i H and the w-table on the model.

    For A^m the least unipotent power of A, p = m/2 and V = -A^{m/2} if m
    is even and A^{m/2} + I is nilpotent, else p = m and V = A^m: the
    action S -> A^T S A has the products of two eigenvalues of A as its
    eigenvalues, so its q-th power is unipotent iff A^q is +-(unipotent),
    and V, -V act alike.  So U: S -> V^T S V is the unipotent power, whose
    orbit `delta_polynomial` sums, and L = log U is S -> N^T S + S N for
    N = log V.  With (c, cN) from `nilpotent_log`, (cL)^i H is a symmetric
    integer matrix for H = I.
    The classes run up to the last nonzero one, K = len(cLH) - 1, and the
    w-table maps each partition with d parts in [0, K] to the int
    c^{|lambda|} w_lambda, the intersection of the classes (cL)^{lambda_j} H,
    read from one determinant by `_det_table`, for w_lambda that of the
    L^{lambda_j} H (multilinearity).  Only the nonzero entries are stored.
    """
    cache = getattr(model, "_pipeline_cache", None)
    if cache is None:
        p, v = unipotent_power(model.a)
        if p % 2 == 0:
            half = mat_pow(model.a, p // 2)
            if mat_is_zero(
                    mat_pow(mat_add(half, mat_identity(model.g)), model.g)):
                p, v = p // 2, [[-x for x in r] for r in half]
        c, cn = nilpotent_log(v)
        cnt = list(zip(*cn))  # (cN)^T
        lh = [mat_identity(model.g)]
        while True:
            # (cN)^T S + S (cN) = X + X^T for X = (cN)^T S, S symmetric
            x = mat_mul(cnt, lh[-1])
            s = [list(map(add, row, col)) for row, col in zip(x, zip(*x))]
            if mat_is_zero(s):
                break
            lh.append(s)
        cache = {"p": p, "V": v, "cLH": lh, "c": c,
                 "w": _det_table(model.g, lh)}
        model._pipeline_cache = cache
    return cache


def degree_growth_exponent(model) -> int:
    """k, the max i with (L^i H) . H^{d-1} = (d-1)! tr L^i H nonzero (H = I):
    the index of the last nonzero class, len(cLH) - 1.

    With H = I, L^i H = sum_j C(i, j) (N^T)^j N^{i-j} for N = log V.  For nu
    the nilpotency index of N, the class at i = 2nu - 2 is C(2nu - 2, nu - 1)
    (N^{nu-1})^T N^{nu-1}, whose trace is positive, and the class at
    2nu - 1 is zero.  So k = 2nu - 2 is even and at most 2d - 2.
    """
    return len(_prepared(model)["cLH"]) - 1


def w_vector(model, n: int) -> tuple[int, ...]:
    """The ints c^n w_lambda over P(k,d,n): w up to the positive scale c^n,
    c from `nilpotent_log`, for k = `degree_growth_exponent(model)`."""
    d = model.d
    k = degree_growth_exponent(model)
    if k == 0:
        raise ModelError("k = 0: no valid n, the w-vector is empty")
    if not 1 <= n <= d * k:
        raise ValueError(f"n={n} outside [1, {d * k}]")
    w = _prepared(model)["w"]
    return tuple(w.get(lam, 0) for lam in partition_set(k, d, n))


def verify_linear_system(model, n: int) -> None:
    """A_{k,d,n} . w = 0, exactly, for k = `degree_growth_exponent(model)`;
    raises ModelError otherwise.  The system is homogeneous, so it is
    checked on the integer vector c^n w of `w_vector`."""
    k = degree_growth_exponent(model)
    if any(build_incidence(k, model.d, n).data.matvec(w_vector(model, n))):
        raise ModelError(f"linear system violated at (k={k}, d={model.d}, n={n})")


def delta_polynomial(model) -> tuple[Fraction, ...]:
    """The volume polynomial Delta(n) = (sum_{m<n} U^m H)^d, exactly, as its
    ascending coefficients with no trailing zero; its degree, the length
    less one, is the plov.

    The intersection of d equal classes S is d! det(S), so Delta takes the
    integer values d! det(sum_{m<n} U^m H) at n = 1 .. N, read off a running
    orbit sum of the integer classes U^m H = (V^m)^T V^m (see `_prepared`).
    Each U^m H is a polynomial of degree at most K in m (L^{K+1} H = 0,
    K = len(cLH) - 1), so its partial sums have degree at most K + 1 in n
    and deg Delta <= d(K + 1) = N - 1.
    The forward differences a_j of the values are the Newton coefficients,
    Delta(n) = sum_j a_j C(n-1, j); the products (n-1)...(n-j) are expanded
    by Horner over ints on the common denominator (N - 1)!, divided once at
    the end.  Delta reads neither the w-table nor the power sums, so the
    Hilbert check compares two independent routes.  The result is kept in
    the per-model cache, so a second call reads it back.
    """
    from fractions import Fraction
    prep = _prepared(model)
    if "delta" in prep:
        return prep["delta"]
    g = model.g
    v = prep["V"]
    vt = list(zip(*v))
    points = g * len(prep["cLH"]) + 1
    values = []
    orbit = total = mat_identity(g)
    for _ in range(points):
        values.append(factorial(g) * _int_det(total))
        orbit = mat_mul(vt, mat_mul(orbit, v))
        total = mat_add(total, orbit)
    newton = []
    while values:
        newton.append(values[0])
        values = list(map(sub, values[1:], values[:-1]))
    common = factorial(points - 1)
    # Horner from the last Newton coefficient: acc <- acc (n - j - 1) +
    # a_j (N-1)!/j!, with every coefficient of acc an int
    acc = [0]
    for j in range(points - 1, -1, -1):
        acc = [a - (j + 1) * b for a, b in zip([0] + acc, acc + [0])]
        acc[0] += newton[j] * (common // factorial(j))
    while acc[-1] == 0:
        acc.pop()
    prep["delta"] = tuple([Fraction(c, common) for c in acc])
    return prep["delta"]


def find_distinguished_kappa(model) -> tuple[tuple[int, ...], Partition]:
    """(t, kappa(t)) for the positive tuple t with w positive at kappa(t)
    and vanishing above it.

    Such a kappa(t) is the lex-largest partition with parts at most k in the
    support of w, so it is read off the top of the table: t_j counts the
    parts 2j of the top partition, which must be kappa(t) with w positive.
    w_kappa is then certified by a second, independent route: one
    `intersect` of the classes (cL)^{kappa_j} H, a polarization sum over
    their subsets of exactly 2^d determinants: the table's c^|kappa| w_kappa.
    """
    d = model.d
    k = degree_growth_exponent(model)
    if k < 2:
        raise ModelError("distinguished partition requires k = 2r >= 2")
    r = k // 2
    prep = _prepared(model)
    w = prep["w"]
    # every key has parts in [0, K], K = k, and w at (k, 0, ..., 0) is
    # nonzero, so the table is not empty
    kappa = max(w)
    t = tuple(kappa.count(2 * j) for j in range(r + 1))
    if sum(t) != d or 0 in t or w[kappa] <= 0:
        raise ModelError(
            f"no distinguished tuple: the top of the w-table, "
            f"{format_partition(kappa)}, is not kappa(t) with w positive")
    certified = model.intersect([prep["cLH"][p] for p in kappa])
    if certified != w[kappa]:
        raise ModelError(
            f"w_kappa mismatch at kappa = {format_partition(kappa)}: "
            f"c^|kappa| w_kappa: table {w[kappa]}, intersect {certified}")
    weighted = sum(2 * j * t[j] for j in range(1, r + 1))
    if not r * (r + 1) <= weighted <= r * d:
        raise ModelError(f"boundedness violated: {weighted}")
    if t[r] > (d - r + 1) // 2:
        raise ModelError(f"t_r = {t[r]} above floor((d-r+1)/2)")
    return t, kappa


def check_principles(d: int, k: int, plov: int) -> bool:
    """Parity, gap interval and proven upper bound, raising ModelError that
    names each one that fails; return whether the conjectured lower bound
    holds, which is reported but never asserted.

    The paper proves the gap (d(d-2) + 2 floor(d/4), d^2) for d >= 4, where
    max(1, d // 4) is floor(d/4).  Below d = 4, floor(d/4) = 0 would put
    realized values inside the interval: plov 5 of the Jordan type (2, 1)
    at d = 3, and plov 2 of the identity at d = 2.  With 1 in its place the
    gap at d = 3 is (5, 9), so the realized 3, 5 and 9 pass."""
    failed = [name for name, ok in (
        ("parity", (plov - d) % 2 == 0),
        ("gap", not d * (d - 2) + 2 * max(1, d // 4) < plov < d * d),
        ("upper_bound", plov <= (k // 2 + 1) * d)) if not ok]
    if failed:
        raise ModelError(
            f"principle check failed at d={d}, k={k}, plov={plov}: "
            f"{', '.join(failed)}")
    return 4 * plov >= 4 * d + k * (k + 2)


def hilbert_top_coefficient_check(model) -> None:
    """Top coefficient of the volume polynomial against the closed form;
    raises ModelError otherwise."""
    d = model.d
    k = degree_growth_exponent(model)
    if k != 2 * d - 2:
        raise ValueError("requires maximal degree growth k = 2d-2")
    delta = delta_polynomial(model)
    # two independent routes: the top coefficient comes from the orbit sum
    # of U, and w_kappa from the determinant table of the classes L^i H
    # (find_distinguished_kappa certifies it against intersect)
    prep = _prepared(model)
    kappa = kappa_of(tuple([1] * d))
    expected = (hilbert_product(d) * prep["w"].get(kappa, 0)
                / prep["c"] ** sum(kappa))
    if (len(delta) - 1, delta[-1]) != (d * d, expected):
        raise ModelError(
            f"Hilbert closed form mismatch at d={d}: degree {len(delta) - 1} "
            f"with top coefficient {delta[-1]}, expected degree {d * d} "
            f"with top coefficient {expected}")


# ---------------------------------------------------------------------------
# model constructors and the full report

def jordan_matrix(blocks: tuple[int, ...]) -> list[list[int]]:
    """Block-diagonal unipotent matrix with the given Jordan block sizes."""
    g = sum(blocks)
    a = [[0] * g for _ in range(g)]
    pos = 0
    for b in blocks:
        for i in range(b):
            a[pos + i][pos + i] = 1
            if i + 1 < b:
                a[pos + i][pos + i + 1] = 1
        pos += b
    return a


def random_unimodular(g: int,
                      rng: Random) -> tuple[list[list[int]], list[list[int]]]:
    """(P, P^-1) for P a product of at most 3g integer shears I + c E_ij
    with c in [-2, 2], so det P = 1.  Each shear adds c times row j of P to
    row i, and its inverse, I - c E_ij, multiplies P^-1 on the right: c
    times column i is subtracted from column j.  So P^-1 is the product of
    the inverse shears in reverse order, with no determinant taken."""
    p = mat_identity(g)
    p_inv = mat_identity(g)
    for _ in range(3 * g):
        i = rng.randrange(g)
        j = rng.randrange(g)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= c * row[i]
    return p, p_inv


def random_conjugate(blocks: tuple[int, ...], rng: Random) -> AbelianSurrogate:
    p, p_inv = random_unimodular(sum(blocks), rng)
    return AbelianSurrogate(mat_mul(p_inv, mat_mul(jordan_matrix(blocks), p)),
                            jordan=tuple(blocks))


def model_from_json(text: str) -> AbelianSurrogate:
    """Parse {"type": "abelian", "g": g, "A": [[...], ...]}; "g" is optional.

    Raises ValueError, with a one-line message, for anything that is not a
    square matrix of JSON integers of the declared size, or of a size above
    MAX_MODEL_DIM, or with an entry of more than MAX_ENTRY_BITS bits, for a
    "g" that is not a JSON integer, for any other key (named), and for JSON
    nested too deeply for the parser's recursion.
    """
    try:
        spec = json.loads(text)
    except RecursionError:
        raise ValueError("model JSON is nested too deeply") from None
    if not isinstance(spec, dict):
        raise ValueError("model must be a JSON object")
    if spec.get("type") != "abelian":
        raise ValueError(f"unsupported model type {spec.get('type')!r}")
    unknown = next((key for key in spec if key not in ("type", "g", "A")), None)
    if unknown is not None:
        raise ValueError(f"unknown model key {json.dumps(unknown)}")
    if "A" not in spec:
        raise ValueError('model has no "A" matrix')
    a = spec["A"]
    if not (isinstance(a, list) and a
            and all(isinstance(r, list) and len(r) == len(a) for r in a)):
        raise ValueError('"A" must be a nonempty square list of rows')
    if not all(type(x) is int for r in a for x in r):
        raise ValueError('"A" entries must be integers')
    g = spec.get("g", len(a))
    if type(g) is not int:
        raise ValueError(f'"g" must be an integer, not {json.dumps(g)}')
    if g != len(a):
        raise ValueError(f'"g" is {g!r} but "A" is {len(a)} x {len(a)}')
    if len(a) > MAX_MODEL_DIM:
        raise ValueError(
            f"model has g = {len(a)}, above the cap of {MAX_MODEL_DIM}")
    bits = max(abs(x).bit_length() for r in a for x in r)
    if bits > MAX_ENTRY_BITS:
        raise ValueError(f'"A" has a {bits}-bit entry, above the cap of '
                         f"{MAX_ENTRY_BITS} bits")
    return AbelianSurrogate(a)


def run_pipeline(model: AbelianSurrogate) -> dict:
    """Full dynamics report for one model: k, plov, kappa, the conjectured
    lower bound and whether the Hilbert check applied.  Every other check
    returns only on success; a failed check is raised again as a ModelError
    that names the model."""
    try:
        d = model.d
        k = degree_growth_exponent(model)
        delta = delta_polynomial(model)
        plov = len(delta) - 1
        report: dict = {
            "g": model.g,
            "d": d,
            "k": k,
            "jordan": list(model.jordan) if model.jordan else None,
            "plov": plov,
            "kappa": None,
            "t": None,
            "top_coefficient": str(delta[-1]),
            "checks": {"conjecture_lb": check_principles(d, k, plov),
                       "hilbert": None},
        }
        if k >= 2:
            # kappa first: its intersect certificate names a wrong w_kappa
            # before the linear systems that read it
            t, kappa = find_distinguished_kappa(model)
            report["kappa"] = format_partition(kappa)
            report["t"] = list(t)
            for n in range(1, d * k + 1):
                verify_linear_system(model, n)
        if k == 2 * d - 2:
            hilbert_top_coefficient_check(model)
            report["checks"]["hilbert"] = True
        return report
    except CheckFailed as exc:
        # A after the check's text: a cut line loses the matrix, not the check
        raise ModelError(f"{exc} [model A = {model.a}]") from exc
