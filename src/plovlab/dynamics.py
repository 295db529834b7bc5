"""Zero-entropy dynamics pipeline on concrete intersection models.

A model bundles a dimension d, a rational intersection form (symmetric
d-linear), an ample class H, and an integer matrix A whose action on
divisor classes is the automorphism.  The pipeline replaces the action by a
unipotent power, takes the nilpotent logarithm L, evaluates the
intersection numbers w_lambda of the log-twisted classes L^i H,
interpolates the top self-intersection of the sum of pullbacks as an exact
polynomial in n, and reads off the polynomial volume growth as its degree.
The concrete models are abelian surrogates: the lattice Z^g with an integer
unimodular A acting by S -> A^T S A on symmetric g x g matrices, which are
the classes and carry the polarized-determinant intersection form.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from operator import add, index, mul, sub
from random import Random

from .exactmat import Record
from .incidence import build_incidence, kappa_of
from .partitions import Partition, format_partition, partition_set

__all__ = [
    "UnivariatePoly",
    "WVector",
    "DistinguishedPartition",
    "AbelianSurrogate",
    "unipotent_power",
    "nilpotent_log",
    "degree_growth_exponent",
    "w_vector",
    "verify_linear_system",
    "power_sum_polynomial",
    "delta_polynomial",
    "find_distinguished_kappa",
    "check_principles",
    "hilbert_top_coefficient_check",
    "jordan_matrix",
    "random_unimodular",
    "random_conjugate",
    "model_from_json",
    "run_pipeline",
]

# largest model dimension g that plov and scan accept
MAX_MODEL_DIM = 6
# largest bit length of an entry of a model's A that model_from_json accepts
MAX_ENTRY_BITS = 64


class ModelError(ValueError):
    """A model violates an assumption of the pipeline."""


# ---------------------------------------------------------------------------
# exact univariate polynomials in n

class UnivariatePoly(Record):
    """Polynomial in n with rational coefficients, ascending by power."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...] = ()):
        self._set(coeffs)

    @staticmethod
    def from_coeffs(coeffs) -> "UnivariatePoly":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return UnivariatePoly(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def coeff(self, m: int) -> Fraction:
        return self.coeffs[m] if 0 <= m < len(self.coeffs) else Fraction(0)

    def scale(self, c) -> "UnivariatePoly":
        return UnivariatePoly.from_coeffs([v * Fraction(c) for v in self.coeffs])

    def __call__(self, n) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc


# The Faulhaber power sums no longer enter the pipeline (delta_polynomial
# sums the orbit of U).  They stay here for the test oracle
# tests/oracles.delta_multinomial_fraction, and because the benchmark's
# cold-cache list (perfbench/layers.COLD_CACHES) names _bernoulli; they move
# to the tests once that list is re-keyed.
@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    if m == 0:
        return Fraction(1)
    return Fraction(-1, m + 1) * sum(
        (comb(m + 1, j) * _bernoulli(j) for j in range(m)), Fraction(0)
    )


def power_sum_polynomial(i: int) -> UnivariatePoly:
    """S_i with S_i(n-1) = sum_{m=0}^{n-1} m^i, as a polynomial in n.

    Faulhaber via Bernoulli polynomials: (B_{i+1}(n) - B_{i+1}(0)) / (i+1).
    """
    if i < 0:
        raise ValueError("i must be nonnegative")
    deg = i + 1
    coeffs = [Fraction(0)] * (deg + 1)
    for j in range(deg + 1):
        coeffs[deg - j] += Fraction(comb(deg, j)) * _bernoulli(j)
    coeffs[0] -= _bernoulli(deg)  # subtract B_{i+1}(0)
    return UnivariatePoly.from_coeffs(coeffs).scale(Fraction(1, deg))


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


def nilpotent_log(u: list[list[int]]) -> list[list[Fraction]]:
    """log U = sum (-1)^{i+1} (U - I)^i / i for a unipotent integer matrix U;
    exact and finite, with Fraction entries.

    The integer powers N^i of N = U - I are summed with the integer weights
    (-1)^{i+1} c/i, c = lcm(1..g), and the sum is divided by c once.
    """
    g = len(u)
    c = lcm(*range(1, g + 1))
    n = mat_sub(u, mat_identity(g))
    out = [[0] * g for _ in range(g)]
    power = mat_identity(g)
    for i in range(1, g + 1):
        power = mat_mul(power, n)
        if mat_is_zero(power):
            break
        weight = (-1) ** (i + 1) * (c // i)
        out = mat_add(out, [[x * weight for x in r] for r in power])
    else:
        if not mat_is_zero(mat_mul(power, n)):
            raise ModelError("input is not unipotent")
    return [[Fraction(x, c) for x in r] for r in out]


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
    is S -> A^T S A for an integer unimodular A, H is the g x g identity, and
    the intersection form is the polarized determinant (the coefficient of
    t_1...t_g in det(sum t_i S_i), computed by polarization over the subsets
    of the g classes: exactly 2^g determinants per call)."""

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
        self.H = mat_identity(g)

    def intersect(self, classes) -> int:
        """The intersection of g classes, each a symmetric g x g integer
        matrix (any other entry raises TypeError): the polarization sum over
        the subsets T of the classes S_j of (-1)^(g - |T|) det(sum_{j in T}
        S_j) (Bapat 1989), exactly 2^g determinants.  The pipeline reads its
        w-table from one polynomial determinant (`_det_table`) and calls
        this once per k >= 2 model, on the integer classes (cL)^i H, to
        certify w_kappa."""
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
    N = log V.  With c the lcm of the denominators of N, (cL)^i H is a
    symmetric integer matrix for H = I.
    The classes run up to the last nonzero one, K = len(cLH) - 1, and the
    w-table maps each partition with d parts in [0, K] to w_lambda, the
    intersection of (L^{lambda_1} H, ..., L^{lambda_d} H): by
    multilinearity, the intersection of the scaled classes, read from one
    determinant by `_det_table`, divided by c^{|lambda|}.  Only the nonzero
    w_lambda are stored; every other w_lambda is zero.
    """
    cache = getattr(model, "_pipeline_cache", None)
    if cache is None:
        p, v = unipotent_power(model.a)
        if p % 2 == 0:
            half = mat_pow(model.a, p // 2)
            if mat_is_zero(
                    mat_pow(mat_add(half, mat_identity(model.g)), model.g)):
                p, v = p // 2, [[-x for x in r] for r in half]
        n = nilpotent_log(v)
        c = lcm(*(x.denominator for r in n for x in r))
        cnt = [[int(x * c) for x in col] for col in zip(*n)]  # (cN)^T
        lh = [mat_identity(model.g)]
        while True:
            # (cN)^T S + S (cN) = X + X^T for X = (cN)^T S, S symmetric
            x = mat_mul(cnt, lh[-1])
            s = [list(map(add, row, col)) for row, col in zip(x, zip(*x))]
            if mat_is_zero(s):
                break
            lh.append(s)
        w = {lam: Fraction(val, c ** sum(lam))
             for lam, val in _det_table(model.g, lh).items()}
        cache = {"p": p, "V": v, "cLH": lh, "c": c, "w": w}
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


class WVector(Record):
    __slots__ = _fields = ("k", "d", "n", "index", "values")

    def __init__(self, k: int, d: int, n: int, index,
                 values: tuple[Fraction, ...]):
        self._set(k, d, n, index, values)

    def __getitem__(self, lam: Partition) -> Fraction:
        return self.values[self.index.index_of(lam)]


def w_vector(model, n: int) -> WVector:
    """w_lambda = intersection of (L^{lambda_1} H, ..., L^{lambda_d} H) over
    P(k,d,n), for k = `degree_growth_exponent(model)`."""
    d = model.d
    k = degree_growth_exponent(model)
    if k == 0:
        raise ModelError("k = 0: no valid n, the w-vector is empty")
    if not 1 <= n <= d * k:
        raise ValueError(f"n={n} outside [1, {d * k}]")
    members = partition_set(k, d, n)
    w = _prepared(model)["w"]
    return WVector(k, d, n, members, tuple(w.get(lam, 0) for lam in members))


def verify_linear_system(model, n: int) -> bool:
    """A_{k,d,n} . w = 0, exactly, for k = `degree_growth_exponent(model)`.

    Every lambda in P(k, d, n) has |lambda| = n, so c^n clears each
    denominator of w, and the system is checked on the integer numerators.
    """
    w = w_vector(model, n)
    scale = _prepared(model)["c"] ** n
    mat = build_incidence(w.k, model.d, n)
    residual = mat.data.matvec(
        [v.numerator * (scale // v.denominator) for v in w.values])
    if any(v != 0 for v in residual):
        raise ModelError(f"linear system violated at (k={w.k}, d={model.d}, n={n})")
    return True


class DeltaExpansion(Record):
    __slots__ = _fields = ("poly", "plov")

    def __init__(self, poly: UnivariatePoly, plov: int):
        self._set(poly, plov)


def delta_polynomial(model) -> DeltaExpansion:
    """The volume polynomial Delta(n) = (sum_{m<n} U^m H)^d, exactly.

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
    poly = UnivariatePoly.from_coeffs([Fraction(c, common) for c in acc])
    prep["delta"] = DeltaExpansion(poly, poly.degree)
    return prep["delta"]


class DistinguishedPartition(Record):
    __slots__ = _fields = ("r", "t", "kappa")

    def __init__(self, r: int, t: tuple[int, ...], kappa: Partition):
        self._set(r, t, kappa)


def find_distinguished_kappa(model) -> DistinguishedPartition:
    """The positive tuple t with w positive at kappa(t) and vanishing above
    it.

    Such a kappa(t) is the lex-largest partition with parts at most k in the
    support of w, so it is read off the top of the table: t_j counts the
    parts 2j of the top partition, which must be kappa(t) with w positive.
    w_kappa is then certified by a second, independent route: one
    `intersect` of the classes (cL)^{kappa_j} H, a polarization sum over
    their subsets of exactly 2^d determinants, divided by c^|kappa|.
    """
    d = model.d
    k = degree_growth_exponent(model)
    if k < 2:
        raise ModelError("distinguished partition requires k = 2r >= 2")
    r = k // 2
    prep = _prepared(model)
    w = prep["w"]
    # w at (k, 0, ..., 0) is nonzero, so the support below k is not empty
    kappa = max(lam for lam in w if lam[0] <= k)
    t = tuple(kappa.count(2 * j) for j in range(r + 1))
    if sum(t) != d or 0 in t or w[kappa] <= 0:
        raise ModelError(
            f"no distinguished tuple: the top of the w-table, "
            f"{format_partition(kappa)}, is not kappa(t) with w positive")
    certified = Fraction(
        model.intersect([prep["cLH"][p] for p in kappa]),
        prep["c"] ** sum(kappa))
    if certified != w[kappa]:
        raise ModelError(
            f"w_kappa mismatch at kappa = {format_partition(kappa)}: "
            f"determinant table {w[kappa]}, intersect {certified}")
    weighted = sum(2 * j * t[j] for j in range(1, r + 1))
    if not r * (r + 1) <= weighted <= r * d:
        raise ModelError(f"boundedness violated: {weighted}")
    if t[r] > (d - r + 1) // 2:
        raise ModelError(f"t_r = {t[r]} above floor((d-r+1)/2)")
    return DistinguishedPartition(r, t, kappa)


def check_principles(d: int, k: int, plov: int) -> dict:
    """Parity, gap interval, proven upper bound; the conjectured lower bound is
    reported but never asserted."""
    parity = (plov - d) % 2 == 0
    gap_lo = d * (d - 2) + 2 * max(1, d // 4)
    gap_hi = d * d
    gap = not (gap_lo < plov < gap_hi)
    upper = plov <= (k // 2 + 1) * d
    conjecture_lb = 4 * plov >= 4 * d + k * (k + 2)
    report = {
        "parity": parity,
        "gap": gap,
        "gap_interval": (gap_lo, gap_hi),
        "upper_bound": upper,
        "conjecture_lb": conjecture_lb,
        "pass": parity and gap and upper,
    }
    if not report["pass"]:
        raise ModelError(f"principle check failed: {report}")
    return report


def hilbert_top_coefficient_check(model) -> dict:
    """Top coefficient of the volume polynomial against the closed form."""
    from .symfun import hilbert_product

    d = model.d
    k = degree_growth_exponent(model)
    if k != 2 * d - 2:
        raise ValueError("requires maximal degree growth k = 2d-2")
    expansion = delta_polynomial(model)
    top = expansion.poly.coeff(d * d)
    # two independent routes: the top coefficient comes from the orbit sum
    # of U, and w_kappa from the determinant table of the classes L^i H
    # (find_distinguished_kappa certifies it against intersect)
    w_kappa = _prepared(model)["w"].get(kappa_of(tuple([1] * d)), 0)
    expected = w_kappa * hilbert_product(d)
    report = {"coefficient": top, "expected": expected, "w_kappa": w_kappa,
              "pass": top == expected}
    if not report["pass"]:
        raise ModelError(f"Hilbert closed form mismatch: {report}")
    return report


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


def random_unimodular(g: int, rng: Random, steps: int | None = None) -> list[list[int]]:
    """Product of integer shears with coefficients in [-2, 2]; determinant one."""
    p = [[int(i == j) for j in range(g)] for i in range(g)]
    for _ in range(steps if steps is not None else 3 * g):
        i = rng.randrange(g)
        j = rng.randrange(g)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for col in range(g):
            p[i][col] += c * p[j][col]
    return p


def _int_inverse(p: list[list[int]]) -> list[list[int]]:
    """Inverse of an integer matrix of determinant +-1: det times the
    adjugate, whose (i, j) entry is the signed minor of p without row j and
    column i."""
    det = _int_det(p)
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return [[(-1) ** (i + j) * det
             * _int_det([r[:i] + r[i + 1:] for k, r in enumerate(p) if k != j])
             for j in range(len(p))] for i in range(len(p))]


def random_conjugate(blocks: tuple[int, ...], rng: Random) -> AbelianSurrogate:
    j = jordan_matrix(blocks)
    p = random_unimodular(sum(blocks), rng)
    p_inv = _int_inverse(p)
    return AbelianSurrogate(mat_mul(p_inv, mat_mul(j, p)), jordan=tuple(blocks))


def model_from_json(text: str) -> AbelianSurrogate:
    """Parse {"type": "abelian", "g": g, "A": [[...], ...]}; "g" is optional.

    Raises ValueError, with a one-line message, for anything that is not a
    square matrix of JSON integers of the declared size, or of a size above
    MAX_MODEL_DIM, or with an entry of more than MAX_ENTRY_BITS bits, for a
    "g" that is not a JSON integer, and for JSON nested too deeply for the
    parser's recursion.
    """
    try:
        spec = json.loads(text)
    except RecursionError:
        raise ValueError("model JSON is nested too deeply") from None
    if not isinstance(spec, dict):
        raise ValueError("model must be a JSON object")
    if spec.get("type") != "abelian":
        raise ValueError(f"unsupported model type {spec.get('type')!r}")
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
    """Full dynamics report for one model: k, plov, kappa, and all checks."""
    d = model.d
    k = degree_growth_exponent(model)
    expansion = delta_polynomial(model)
    plov = expansion.plov
    report: dict = {
        "g": model.g,
        "d": d,
        "k": k,
        "jordan": list(model.jordan) if model.jordan else None,
        "plov": plov,
        "kappa": None,
        "t": None,
        "top_coefficient": str(expansion.poly.coeffs[-1]),
        "checks": {},
    }
    checks = check_principles(d, k, plov)
    report["checks"] = {
        "parity": checks["parity"],
        "gap": checks["gap"],
        "upper_bound": checks["upper_bound"],
        "conjecture_lb": checks["conjecture_lb"],
    }
    if k >= 2:
        # kappa first: its intersect certificate names a wrong w_kappa
        # before the linear systems that read it
        dist = find_distinguished_kappa(model)
        report["kappa"] = format_partition(dist.kappa)
        report["t"] = list(dist.t)
        for n in range(1, d * k + 1):
            verify_linear_system(model, n)
    if k == 2 * d - 2:
        hil = hilbert_top_coefficient_check(model)
        report["checks"]["hilbert"] = hil["pass"]
    else:
        report["checks"]["hilbert"] = None
    # conjecture_lb is observational only; it never gates the pass flag
    report["pass"] = all(
        v
        for name, v in report["checks"].items()
        if v is not None and name != "conjecture_lb"
    )
    return report
