from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial, lcm
from random import Random

import pytest

from oracles import (
    charpoly_fraction,
    delta_multinomial_fraction,
    dense_det,
    mixed_determinant,
    nilpotent_exp,
    nilpotent_log_fraction,
    w_table_by_polarization,
)
from plovlab import dynamics
from plovlab.dynamics import (
    AbelianSurrogate,
    UnivariatePoly,
    _prepared,
    _vec_to_sym,
    ModelError,
    charpoly,
    check_principles,
    degree_growth_exponent,
    delta_polynomial,
    find_distinguished_kappa,
    hilbert_top_coefficient_check,
    jordan_matrix,
    mat_identity,
    mat_mul,
    model_from_json,
    nilpotent_log,
    power_sum_polynomial,
    random_conjugate,
    random_unimodular,
    run_pipeline,
    unipotent_power,
    verify_linear_system,
    w_vector,
)
from plovlab.partitions import enumerate_partitions


def test_power_sum_polynomials():
    # S_i(n-1) = sum of m^i for m < n
    for i in range(6):
        s = power_sum_polynomial(i)
        for n in range(0, 8):
            assert s(n) == sum(Fraction(m) ** i for m in range(n))


def test_univariate_poly_defaults_to_zero():
    zero = UnivariatePoly()
    assert zero == UnivariatePoly.from_coeffs([0, 0])
    assert zero.degree == -1 and zero(5) == 0


def test_charpoly():
    # companion of x^2 - x - 1
    a = [[0, 1], [1, 1]]
    assert charpoly(a) == [Fraction(-1), Fraction(-1), Fraction(1)]


def _jordan_types(total, cap):
    if total == 0:
        yield ()
        return
    for first in range(min(cap, total), 0, -1):
        for rest in _jordan_types(total - first, first):
            yield (first,) + rest


def test_integer_path_matches_fraction_oracles():
    # charpoly and nilpotent_log against their all-Fraction forms on the
    # integer action F of a seeded conjugate of every type with g <= 5
    rng = Random(3)
    for g in range(2, 6):
        for blocks in _jordan_types(g, g):
            m = random_conjugate(blocks, rng)
            assert charpoly(m.F) == charpoly_fraction(m.F), blocks
            _, u = unipotent_power(m.F)
            assert nilpotent_log(u) == nilpotent_log_fraction(u), blocks


def test_rational_matrix_matches_fraction_oracles():
    a = [[Fraction(1, 2), Fraction(-2, 3), 1],
         [Fraction(3, 4), 0, Fraction(5, 7)],
         [2, Fraction(-1, 6), Fraction(7, 5)]]
    assert charpoly(a) == charpoly_fraction(a)
    assert all(type(c) is Fraction for c in charpoly(a))
    # a unipotent matrix with non-integer entries: I + strictly upper part,
    # conjugated by a rational shear
    p = [[1, 0, 0], [Fraction(1, 3), 1, 0], [0, Fraction(-2, 5), 1]]
    p_inv = [[1, 0, 0], [Fraction(-1, 3), 1, 0],
             [Fraction(-2, 15), Fraction(2, 5), 1]]
    assert mat_mul(p, p_inv) == mat_identity(3)
    u = mat_mul(p_inv, mat_mul(
        [[1, Fraction(1, 2), Fraction(-3, 4)], [0, 1, Fraction(2, 3)], [0, 0, 1]], p))
    assert nilpotent_log(u) == nilpotent_log_fraction(u)
    assert nilpotent_exp(nilpotent_log(u)) == u


def test_w_table_matches_fraction_classes():
    # every w-table entry against intersect of the classes L^i H built from
    # the Fraction log, with no integer scaling
    rng = Random(19)
    for blocks in ((4,), (4, 1), (3, 2)):
        m = random_conjugate(blocks, rng)
        prep = _prepared(m)
        l = nilpotent_log(unipotent_power(m.F)[1])
        lh = [[Fraction(x) for x in m.H]]
        while any(lh[-1]):
            lh.append([sum(a * b for a, b in zip(row, lh[-1])) for row in l])
        lh.pop()
        assert len(lh) == len(prep["cLH"]), blocks
        for lam, w in prep["w"].items():
            assert w == m.intersect([lh[part] for part in lam]), (blocks, lam)


def test_unipotent_power_identity():
    m, u = unipotent_power([[1, 0], [0, 1]])
    assert m == 1 and u == mat_identity(2)


def test_unipotent_power_stops_at_constant_residual():
    # (x - 1)^4 is used up by the first cyclotomic polynomial, so no later
    # one is built
    dynamics._cyclotomic.cache_clear()
    m, u = unipotent_power(mat_identity(4))
    assert m == 1 and u == mat_identity(4)
    assert dynamics._cyclotomic.cache_info().misses == 1


def test_unipotent_power_rotation():
    # order-4 rotation becomes the identity at the 4th power
    m, u = unipotent_power([[0, -1], [1, 0]])
    assert m == 4
    assert u == mat_identity(2)


def test_unipotent_power_rejects_entropy():
    with pytest.raises(ModelError):
        unipotent_power([[2, 1], [1, 1]])


def test_log_exp_roundtrip():
    u = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    l = nilpotent_log(u)
    assert nilpotent_exp(l) == [[Fraction(x) for x in r] for r in u]


def test_surrogate_requires_unimodular():
    with pytest.raises(ModelError):
        AbelianSurrogate([[2, 0], [0, 1]])


def test_intersection_form_normalization():
    # H.H = 2 at g = 2 with the polarized determinant
    m = AbelianSurrogate([[1, 0], [0, 1]])
    assert m.intersect([m.H, m.H]) == 2


def test_intersect_matches_assignment_oracle():
    # polarization against the sum over column assignments, on random
    # rational classes drawn from a small pool so that classes repeat
    rng = Random(5)
    for g in range(2, 6):
        m = AbelianSurrogate(jordan_matrix((1,) * g))
        for pool_size in range(1, g + 1):
            pool = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                     for _ in range(m.dim)] for _ in range(pool_size)]
            vecs = [rng.choice(pool) for _ in range(g)]
            mats = [_vec_to_sym(g, v) for v in vecs]
            assert m.intersect(vecs) == mixed_determinant(mats), (g, vecs)


def test_pipeline_computes_each_w_once(monkeypatch):
    # one determinant table per model; intersect runs once, for the w_kappa
    # certificate of a k >= 2 model
    tables = []
    calls = []
    inner_table = dynamics._det_table
    inner = AbelianSurrogate.intersect

    def counting_table(g, clh):
        tables.append(1)
        return inner_table(g, clh)

    def counting(self, vecs):
        calls.append(1)
        return inner(self, vecs)

    monkeypatch.setattr(dynamics, "_det_table", counting_table)
    monkeypatch.setattr(AbelianSurrogate, "intersect", counting)
    for blocks in ((4,), (4, 1)):
        tables.clear()
        calls.clear()
        report = run_pipeline(AbelianSurrogate(jordan_matrix(blocks), jordan=blocks))
        assert report["pass"] and report["k"] >= 2
        assert (len(tables), len(calls)) == (1, 1), blocks


def test_intersect_memo_eliminates_each_summed_class_once(monkeypatch):
    # intersect over the whole w-table of a (4,1) conjugate, one call per
    # partition, takes one determinant per distinct summed class
    # sum f_j c_j over the sub-multisets f of every partition, counted here
    # from the classes, and fewer than the polarization terms
    m = random_conjugate((4, 1), Random(31))
    lh = _prepared(m)["cLH"]
    calls = []
    inner = dynamics._int_det

    def counting(a):
        calls.append(1)
        return inner(a)

    monkeypatch.setattr(dynamics, "_int_det", counting)
    w_table_by_polarization(m)
    kmax = len(lh) - 1
    summed_classes = set()
    terms = 0
    for n in range(m.d * kmax + 1):
        for lam in enumerate_partitions(kmax, m.d, n):
            groups = Counter(lam)
            for f in product(*(range(e + 1) for e in groups.values())):
                summed_classes.add(tuple(
                    sum(fj * lh[part][t] for fj, part in zip(f, groups))
                    for t in range(m.dim)))
                terms += 1
    assert len(calls) == len(summed_classes) < terms


def test_w_table_matches_polarization_oracle():
    # the determinant table against one intersect per partition, on the
    # Jordan form and two seeded conjugates of every type with g <= 5; among
    # them models whose L has denominators, c > 1
    rng = Random(37)
    dens = set()
    for g in range(2, 6):
        for blocks in _jordan_types(g, g):
            jordan = AbelianSurrogate(jordan_matrix(blocks), jordan=blocks)
            for m in (jordan, random_conjugate(blocks, rng),
                      random_conjugate(blocks, rng)):
                prep = _prepared(m)
                assert prep["w"] == w_table_by_polarization(m), (blocks, m.a)
                assert all(prep["w"].values()), blocks
                dens.add(prep["c"])
    assert dens == {1, 2, 6, 12}


def test_kappa_certificate_catches_a_corrupt_table(monkeypatch):
    # a determinant table that is off at kappa alone fails the pipeline at
    # the intersect certificate, which names w_kappa
    inner = dynamics._det_table

    def corrupt(g, clh):
        table = inner(g, clh)
        table[(6, 4, 2, 0)] += 1
        return table

    monkeypatch.setattr(dynamics, "_det_table", corrupt)
    m = AbelianSurrogate(jordan_matrix((4,)), jordan=(4,))
    with pytest.raises(ModelError, match=r"w_kappa mismatch at kappa = 6,4,2,0"):
        run_pipeline(m)


def test_pipeline_expands_delta_once(monkeypatch):
    # run_pipeline and the Hilbert check share one expansion of Delta, which
    # takes one power sum S_i for each i <= k
    calls = []
    inner = dynamics.power_sum_polynomial

    def counting(i):
        calls.append(i)
        return inner(i)

    monkeypatch.setattr(dynamics, "power_sum_polynomial", counting)
    report = run_pipeline(AbelianSurrogate(jordan_matrix((4,)), jordan=(4,)))
    assert report["pass"] and report["checks"]["hilbert"]
    assert report["k"] == 6
    assert sorted(calls) == list(range(7))


def test_delta_polynomial_equals_determinant():
    # Delta(n) = g! det(sum_i S_i(n)/i! L^i H), the intersect of g equal classes
    rng = Random(23)
    for blocks in ((4,), (4, 1), (3, 2), (2, 2, 1)):
        m = random_conjugate(blocks, rng)
        g = m.g
        _, u = unipotent_power(m.F)
        l = nilpotent_log(u)
        lh = [list(m.H)]
        for _ in range(m.dim):
            lh.append([sum(a * b for a, b in zip(row, lh[-1])) for row in l])
        poly = delta_polynomial(m).poly
        for n in range(1, g * g + 3):
            total = [sum(power_sum_polynomial(i)(n) / factorial(i) * v[t]
                         for i, v in enumerate(lh)) for t in range(m.dim)]
            assert poly(n) == factorial(g) * dense_det(_vec_to_sym(g, total)), (
                blocks, n)


def test_delta_polynomial_matches_fraction_oracle():
    # the integer expansion against the Fraction multinomial one, coefficient
    # by coefficient, on the Jordan form and two seeded conjugates of every
    # type with g <= 5; among them the k = 0 model (1,1,1,1) and models whose
    # L has denominators, c > 1
    rng = Random(29)
    dens = set()
    for g in range(2, 6):
        for blocks in _jordan_types(g, g):
            jordan = AbelianSurrogate(jordan_matrix(blocks), jordan=blocks)
            for m in (jordan, random_conjugate(blocks, rng),
                      random_conjugate(blocks, rng)):
                assert list(delta_polynomial(m).poly.coeffs) == (
                    delta_multinomial_fraction(m)), (blocks, m.a)
                l = nilpotent_log(unipotent_power(m.F)[1])
                dens.add(lcm(*(x.denominator for r in l for x in r)))
            if blocks == (1, 1, 1, 1):
                assert degree_growth_exponent(jordan) == 0
    assert dens == {1, 2, 6, 12}


def test_intersection_form_invariance():
    rng = Random(13)
    for blocks in ((2,), (2, 1), (3,)):
        m = random_conjugate(blocks, rng)
        f = m.F
        for _ in range(10):
            vecs = [[rng.randint(-2, 2) for _ in range(m.dim)]
                    for _ in range(m.d)]
            moved = [[sum(f[i][j] * v[j] for j in range(m.dim))
                      for i in range(m.dim)] for v in vecs]
            assert m.intersect(moved) == m.intersect(vecs)


def test_degree_growth_exponent():
    for blocks, k in (((1, 1), 0), ((2,), 2), ((2, 1, 1), 2), ((3, 1), 4),
                      ((4,), 6)):
        m = AbelianSurrogate(jordan_matrix(blocks), jordan=blocks)
        assert degree_growth_exponent(m) == k


def test_w_vector_and_linear_system():
    m = AbelianSurrogate(jordan_matrix((2,)), jordan=(2,))
    for n in range(1, 5):
        assert verify_linear_system(m, n)
    w = w_vector(m, 2)
    assert w[(2, 0)] != 0 or w[(1, 1)] != 0


def test_w_vector_k0_error():
    m = AbelianSurrogate(jordan_matrix((1, 1)), jordan=(1, 1))
    with pytest.raises(ModelError):
        w_vector(m, 1)


def test_delta_polynomial_identity_action():
    m = AbelianSurrogate(jordan_matrix((1, 1, 1)), jordan=(1, 1, 1))
    exp = delta_polynomial(m)
    assert exp.plov == 3
    # identity action: polynomial is H^3 * n^3
    assert exp.poly.coeffs[-1] == m.intersect([m.H] * 3)


def test_find_distinguished_kappa():
    m = AbelianSurrogate(jordan_matrix((4,)), jordan=(4,))
    dist = find_distinguished_kappa(m)
    assert dist.t == (1, 1, 1, 1)
    assert dist.kappa == (6, 4, 2, 0)
    m2 = AbelianSurrogate(jordan_matrix((3, 1)), jordan=(3, 1))
    dist2 = find_distinguished_kappa(m2)
    assert dist2.t == (2, 1, 1)
    assert dist2.kappa == (4, 2, 0, 0)


def test_find_distinguished_kappa_k0_error():
    m = AbelianSurrogate(jordan_matrix((1, 1)), jordan=(1, 1))
    with pytest.raises(ModelError):
        find_distinguished_kappa(m)


def test_check_principles():
    rep = check_principles(4, 4, 10)
    assert rep["pass"] and rep["conjecture_lb"]
    rep = check_principles(4, 6, 16)
    assert rep["pass"]
    rep = check_principles(3, 2, 5)
    assert rep["parity"] and rep["conjecture_lb"]
    with pytest.raises(ModelError):
        check_principles(4, 4, 11)  # wrong parity
    with pytest.raises(ModelError):
        check_principles(4, 6, 12)  # inside the gap interval (10, 16)


def test_hilbert_check():
    for blocks in ((2,), (3,)):
        m = AbelianSurrogate(jordan_matrix(blocks), jordan=blocks)
        rep = hilbert_top_coefficient_check(m)
        assert rep["pass"]
    # d=2: coefficient of n^4 equals w_(2,0) / 12
    m2 = AbelianSurrogate(jordan_matrix((2,)), jordan=(2,))
    rep2 = hilbert_top_coefficient_check(m2)
    assert rep2["coefficient"] == rep2["w_kappa"] / 12


def test_random_unimodular_and_conjugate():
    rng = Random(41)
    from plovlab.dynamics import _int_det

    for g in (2, 3, 4):
        p = random_unimodular(g, rng)
        assert _int_det(p) in (1, -1)
    m = random_conjugate((2, 1), rng)
    rep = run_pipeline(m)
    assert rep["plov"] == 5
    assert rep["pass"]


def test_model_json_roundtrip():
    m = AbelianSurrogate(jordan_matrix((2, 1)), jordan=(2, 1))
    m2 = model_from_json(m.to_json())
    assert m2.a == m.a
    with pytest.raises(ValueError):
        model_from_json('{"type": "k3"}')


@pytest.mark.parametrize("text", [
    '{"type": "abelian", "g": 2}',                       # no "A"
    '[[1, 0], [0, 1]]',                                   # not an object
    '{"type": "abelian", "A": [[1, 0.5], [0, 1]]}',       # non-integer entry
    '{"type": "abelian", "A": [[1, 1.0], [0, 1]]}',       # float, even if integral
    '{"type": "abelian", "A": [[1, true], [0, 1]]}',      # boolean entry
    '{"type": "abelian", "A": [[1, 0], [0]]}',            # ragged rows
    '{"type": "abelian", "A": [[1, 0]]}',                 # not square
    '{"type": "abelian", "A": []}',                       # empty
    '{"type": "abelian", "A": [1, 0]}',                   # rows are not lists
    '{"type": "abelian", "g": 3, "A": [[1, 0], [0, 1]]}',  # wrong g
    '{"type": "abelian", "g": 2.0, "A": [[1, 0], [0, 1]]}',  # float g
    '{"type": "abelian", "g": true, "A": [[1]]}',          # boolean g
])
def test_model_from_json_rejects(text):
    with pytest.raises(ValueError):
        model_from_json(text)


def test_abelian_plov_law():
    # plov = sum of squares of the Jordan block sizes, all types with g <= 5
    for g in range(2, 6):
        for blocks in _jordan_types(g, g):
            m = AbelianSurrogate(jordan_matrix(blocks), jordan=blocks)
            exp = delta_polynomial(m)
            assert exp.plov == sum(b * b for b in blocks), blocks
            assert exp.poly.coeffs[-1] > 0


def test_maximality_equivalence():
    for g in range(2, 6):
        for blocks in ((g,), (g - 1, 1)) if g > 2 else ((g,),):
            m = AbelianSurrogate(jordan_matrix(blocks), jordan=blocks)
            k = degree_growth_exponent(m)
            plov = delta_polynomial(m).plov
            assert (k == 2 * g - 2) == (plov == g * g)


def test_combinatorial_vanishing():
    m = AbelianSurrogate(jordan_matrix((3, 1)), jordan=(3, 1))
    k = degree_growth_exponent(m)
    d = m.d
    for n in range(1, d * k + 1):
        w = w_vector(m, n, k)
        for lam, v in zip(w.index, w.values):
            if sum(lam) > d * k // 2:
                assert v == 0, lam
