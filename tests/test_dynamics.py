from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from random import Random

import pytest

from oracles import (
    TWISTS,
    action_matrix,
    charpoly_fraction,
    classes_by_action,
    delta_multinomial_fraction,
    dense_det,
    direct_sum,
    intersect_rational,
    mixed_determinant,
    nilpotent_exp,
    nilpotent_log_fraction,
    poly_at,
    rational_w_table,
    sym_to_vec,
    vec_to_sym,
    w_table_by_polarization,
)
from plovlab import dynamics
from plovlab.dynamics import (
    AbelianSurrogate,
    _polydiv_monic,
    _prepared,
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
from plovlab.partitions import partition_set


def test_power_sum_polynomials():
    # S_i(n-1) = sum of m^i for m < n
    for i in range(6):
        s = power_sum_polynomial(i)
        for n in range(0, 8):
            assert poly_at(s, n) == sum(Fraction(m) ** i for m in range(n))


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
    # charpoly and nilpotent_log against their all-Fraction forms on A, on
    # the unipotent V the pipeline takes the log of, and on the integer
    # action of A, for a seeded conjugate of every type with g <= 5
    rng = Random(3)
    for g in range(2, 6):
        for blocks in _jordan_types(g, g):
            m = random_conjugate(blocks, rng)
            f = action_matrix(m.a)
            for a in (m.a, f):
                assert charpoly(a) == charpoly_fraction(a), blocks
            for u in (_prepared(m)["V"], unipotent_power(f)[1]):
                c, cn = nilpotent_log(u)
                assert [[Fraction(x, c) for x in r] for r in cn] == (
                    nilpotent_log_fraction(u)), blocks


def test_nilpotent_log_scale_is_the_lcm_of_denominators():
    # c of (c, cN) against the lcm of the denominators of the Fraction log,
    # on V and on the action's unipotent power for a seeded conjugate of
    # every type with g <= 5, and on U = I, where N = 0 and c = 1
    rng = Random(5)
    scales = set()
    for g in range(2, 6):
        assert nilpotent_log(mat_identity(g)) == (1, [[0] * g] * g)
        for blocks in _jordan_types(g, g):
            m = random_conjugate(blocks, rng)
            for u in (_prepared(m)["V"], unipotent_power(action_matrix(m.a))[1]):
                c, cn = nilpotent_log(u)
                n = nilpotent_log_fraction(u)
                assert c == lcm(*(x.denominator for r in n for x in r)), blocks
                assert cn == [[x * c for x in r] for r in n], blocks
                scales.add(c)
    assert scales == {1, 2, 6, 12}


def test_w_vector_is_the_scaled_w_table():
    # w_vector(m, n) holds the ints c^n w_lambda: the rational polarization
    # table times c^n, on the Jordan form and a seeded conjugate of every
    # type with g <= 5 and k > 0, at every n in [1, d k]
    rng = Random(41)
    for g in range(2, 6):
        for blocks in _jordan_types(g, g):
            if blocks[0] == 1:
                continue
            for m in (AbelianSurrogate(jordan_matrix(blocks)),
                      random_conjugate(blocks, rng)):
                table = w_table_by_polarization(m)
                c = _prepared(m)["c"]
                k = degree_growth_exponent(m)
                for n in range(1, m.d * k + 1):
                    w = w_vector(m, n)
                    assert w == tuple(c ** n * table.get(lam, 0)
                                      for lam in partition_set(k, m.d, n)), (
                        blocks, n)
                    assert all(type(x) is int for x in w)


def test_w_table_matches_fraction_classes():
    # every w-table entry against intersect of the classes L^i H built from
    # the Fraction log, each cleared by its own denominators rather than by
    # the library's c^i
    rng = Random(19)
    for blocks in ((4,), (4, 1), (3, 2)):
        m = random_conjugate(blocks, rng)
        prep = _prepared(m)
        lh = classes_by_action(m.a)[2]
        assert len(lh) == len(prep["cLH"]), blocks
        for lam, w in rational_w_table(m).items():
            assert w == intersect_rational(
                m, [vec_to_sym(m.g, lh[part]) for part in lam]), (blocks, lam)


# quasi-unipotent hand models, rotation (+) Jordan block: (A, p, plov)
ROTATION_MODELS = (
    ([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]], 4, 6),
    ([[-1, 1, 0], [0, -1, 0], [0, 0, 1]], 2, 5),
)


def test_prepared_matches_action_oracle():
    # p, the unipotent power S -> V^T S V and the classes L^i H of the
    # g x g route against unipotent_power and nilpotent_log of the action
    # matrix, on the Jordan form J, a seeded conjugate and -J of every type
    # with g <= 6, and the rotation models; -J is where p = m/2 and
    # V = -A^{m/2}, for m the unipotent power of A
    rng = Random(47)
    models = []
    for g in range(2, 7):
        for blocks in _jordan_types(g, g):
            j = jordan_matrix(blocks)
            models += [j, random_conjugate(blocks, rng).a,
                       [[-x for x in r] for r in j]]
    halved = 0
    for a in models + [a for a, _, _ in ROTATION_MODELS]:
        m = AbelianSurrogate(a)
        prep = _prepared(m)
        p, u, lh = classes_by_action(a)
        assert prep["p"] == p, a
        assert action_matrix(prep["V"]) == u, a
        c = prep["c"]
        assert [[Fraction(x, c ** i) for x in sym_to_vec(m.g, s)]
                for i, s in enumerate(prep["cLH"])] == lh, a
        halved += p < unipotent_power(a)[0]
    assert halved == len(models) // 3


def _order(r):
    q, power = 1, r
    while power != mat_identity(len(r)):
        q, power = q + 1, mat_mul(power, r)
    return q


@lru_cache(maxsize=None)
def _untwisted(blocks):
    report = run_pipeline(AbelianSurrogate(jordan_matrix(blocks + (1, 1))))
    return report["k"], report["plov"]


@pytest.mark.parametrize("twist", list(TWISTS))
@pytest.mark.parametrize("blocks", [(2,), (3,), (4,), (2, 2), (3, 1)])
def test_twisted_models(blocks, twist):
    # P^-1 (J (+) R) P, P a seeded unimodular matrix, has the k and plov of
    # J (+) I_2, and p is the order of R: the eigenvalue 1 of J times each
    # eigenvalue of R is an eigenvalue of the action
    r = TWISTS[twist]
    block = direct_sum(jordan_matrix(blocks), r)
    p, p_inv = random_unimodular(len(block), Random(f"{blocks} {twist}"))
    m = AbelianSurrogate(mat_mul(p_inv, mat_mul(block, p)))
    report = run_pipeline(m)  # raises ModelError on a failed check
    assert (report["k"], report["plov"]) == _untwisted(blocks)
    assert _prepared(m)["p"] == _order(r) == unipotent_power(action_matrix(m.a))[0]


def test_pipeline_takes_unipotent_powers_of_g_by_g_matrices(monkeypatch):
    # the pipeline never hands unipotent_power a matrix larger than A
    shapes = []
    inner = dynamics.unipotent_power

    def recording(a):
        shapes.append((len(a), *map(len, a)))
        return inner(a)

    monkeypatch.setattr(dynamics, "unipotent_power", recording)
    rng = Random(53)
    for blocks in ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,), (4, 1), (3, 2)):
        m = random_conjugate(blocks, rng)
        shapes.clear()
        run_pipeline(m)  # raises ModelError on a failed check
        assert shapes and max(max(s) for s in shapes) <= m.g, (blocks, shapes)


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


def test_unipotent_power_takes_the_lcm_of_the_orders():
    # rotations of order 4 and 6: the least unipotent power is the 12th
    m, u = unipotent_power([[0, -1, 0, 0], [1, 0, 0, 0],
                            [0, 0, 1, -1], [0, 0, 1, 0]])
    assert m == 12 and u == mat_identity(4)


def test_unipotent_power_rejects_entropy():
    with pytest.raises(ModelError):
        unipotent_power([[2, 1], [1, 1]])


def test_log_exp_roundtrip():
    u = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    c, cl = nilpotent_log(u)
    l = [[Fraction(x, c) for x in r] for r in cl]
    assert nilpotent_exp(l) == [[Fraction(x) for x in r] for r in u]


def test_surrogate_requires_unimodular():
    with pytest.raises(ModelError):
        AbelianSurrogate([[2, 0], [0, 1]])


def test_intersection_form_normalization():
    # H.H = 2 at g = 2 with the polarized determinant
    m = AbelianSurrogate([[1, 0], [0, 1]])
    h = mat_identity(2)
    assert m.intersect([h, h]) == 2


def test_intersect_matches_assignment_oracle():
    # polarization against the sum over column assignments, on random
    # rational classes drawn from a small pool so that classes repeat
    rng = Random(5)
    for g in range(2, 6):
        m = AbelianSurrogate(jordan_matrix((1,) * g))
        for pool_size in range(1, g + 1):
            pool = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                     for _ in range(g * (g + 1) // 2)] for _ in range(pool_size)]
            vecs = [rng.choice(pool) for _ in range(g)]
            mats = [vec_to_sym(g, v) for v in vecs]
            assert intersect_rational(m, mats) == mixed_determinant(mats), (g, vecs)


def test_pipeline_computes_each_w_once(monkeypatch):
    # one determinant table per model; intersect runs once, for the w_kappa
    # certificate of a k >= 2 model, and receives the classes as g x g
    # matrices, with no round trip through coordinate vectors
    tables = []
    calls = []
    inner_table = dynamics._det_table
    inner = AbelianSurrogate.intersect

    def counting_table(g, clh):
        tables.append(1)
        return inner_table(g, clh)

    def counting(self, classes):
        calls.append(1)
        g = self.g
        assert all(type(s) is list and len(s) == g
                   and all(type(r) is list and len(r) == g for r in s)
                   for s in classes), classes
        return inner(self, classes)

    monkeypatch.setattr(dynamics, "_det_table", counting_table)
    monkeypatch.setattr(AbelianSurrogate, "intersect", counting)
    models = [AbelianSurrogate(jordan_matrix(blocks), jordan=blocks)
              for blocks in ((4,), (4, 1))]
    models.append(random_conjugate((5,), Random(31)))
    for m in models:
        tables.clear()
        calls.clear()
        report = run_pipeline(m)  # raises ModelError on a failed check
        assert report["k"] >= 2
        assert (len(tables), len(calls)) == (1, 1), m.a


def test_intersect_takes_one_determinant_per_subset(monkeypatch):
    # classes with repeats and a denominator, cleared before the call: every
    # call is the plain polarization sum over the 2^g subsets, with nothing
    # kept between calls
    g = 4
    m = AbelianSurrogate(jordan_matrix((1,) * g))
    v = vec_to_sym(g, [Fraction(1, 2), 0, 1, 0, 0, -1, 0, 1, 0, 0])
    h = mat_identity(g)
    classes = [h, v, h, v]
    calls = []
    inner = dynamics._int_det

    def counting(a):
        calls.append(1)
        return inner(a)

    monkeypatch.setattr(dynamics, "_int_det", counting)
    expected = mixed_determinant(classes)
    for _ in range(2):
        calls.clear()
        assert intersect_rational(m, classes) == expected
        assert len(calls) == 2 ** g


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
                assert rational_w_table(m) == w_table_by_polarization(m), (
                    blocks, m.a)
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


@pytest.mark.parametrize("top, value", [((6, 5, 1, 0), lambda v: 1),
                                        ((6, 4, 2, 0), lambda v: -v)])
def test_kappa_is_the_top_of_the_table(monkeypatch, top, value):
    # an entry above kappa, or a w_kappa that is not positive, leaves no
    # distinguished tuple, and the error names the top of the table
    inner = dynamics._det_table

    def corrupt(g, clh):
        table = inner(g, clh)
        table[top] = value(table.get(top, 0))
        return table

    monkeypatch.setattr(dynamics, "_det_table", corrupt)
    m = AbelianSurrogate(jordan_matrix((4,)), jordan=(4,))
    with pytest.raises(ModelError, match=f"top of the w-table, {','.join(map(str, top))},"):
        find_distinguished_kappa(m)


def test_pipeline_expands_delta_once(monkeypatch):
    # run_pipeline and the Hilbert check share one evaluation of Delta: the
    # first call takes one determinant of an orbit sum at each of the
    # N = g len(cLH) + 1 points, and the Hilbert check's call reads it back
    dets = []
    calls = []
    inner_det = dynamics._int_det
    inner = dynamics.delta_polynomial

    def counting_det(a):
        dets.append(1)
        return inner_det(a)

    def counting(model):
        before = len(dets)
        result = inner(model)
        calls.append(len(dets) - before)
        return result

    monkeypatch.setattr(dynamics, "_int_det", counting_det)
    monkeypatch.setattr(dynamics, "delta_polynomial", counting)
    for blocks, k, hilbert in (((4,), 6, True), ((3, 1), 4, None)):
        calls.clear()
        m = AbelianSurrogate(jordan_matrix(blocks), jordan=blocks)
        report = run_pipeline(m)  # raises ModelError on a failed check
        assert report["k"] == k
        assert report["checks"]["hilbert"] is hilbert, blocks
        points = m.g * len(_prepared(m)["cLH"]) + 1
        assert points == m.g * (k + 1) + 1
        assert calls == ([points, 0] if hilbert else [points]), blocks


def test_delta_polynomial_reads_no_w_table(monkeypatch):
    # Delta comes from the orbit of U alone: doubling every entry of the
    # determinant table leaves it unchanged, and the Hilbert check, whose
    # w_kappa the table gives, then fails
    rng = Random(43)
    mats = [random_conjugate(blocks, rng).a for blocks in ((4,), (3, 1), (2, 2, 1))]
    expected = [delta_polynomial(AbelianSurrogate(a)) for a in mats]
    tables = [_prepared(AbelianSurrogate(a))["w"] for a in mats]
    inner = dynamics._det_table

    def doubled(g, clh):
        return {lam: 2 * v for lam, v in inner(g, clh).items()}

    monkeypatch.setattr(dynamics, "_det_table", doubled)
    for a, want, table in zip(mats, expected, tables):
        m = AbelianSurrogate(a)
        assert _prepared(m)["w"] == {lam: 2 * v for lam, v in table.items()}
        assert delta_polynomial(m) == want, a
    with pytest.raises(ModelError, match="Hilbert closed form mismatch"):
        hilbert_top_coefficient_check(AbelianSurrogate(mats[0]))


def test_delta_polynomial_equals_determinant():
    # Delta(n) = g! det(sum_i S_i(n)/i! L^i H), the intersect of g equal
    # classes, with L the log of the unipotent power of the action matrix
    rng = Random(23)
    for blocks in ((4,), (4, 1), (3, 2), (2, 2, 1)):
        m = random_conjugate(blocks, rng)
        g = m.g
        lh = classes_by_action(m.a)[2]
        poly = delta_polynomial(m)
        for n in range(1, g * g + 3):
            s = [poly_at(power_sum_polynomial(i), n) / factorial(i)
                 for i in range(len(lh))]
            total = [sum(s[i] * v[t] for i, v in enumerate(lh))
                     for t in range(len(lh[0]))]
            assert poly_at(poly, n) == (
                factorial(g) * dense_det(vec_to_sym(g, total))), (blocks, n)


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
                assert list(delta_polynomial(m)) == (
                    delta_multinomial_fraction(m)), (blocks, m.a)
                l = nilpotent_log_fraction(
                    unipotent_power(action_matrix(m.a))[1])
                dens.add(lcm(*(x.denominator for r in l for x in r)))
            if blocks == (1, 1, 1, 1):
                assert degree_growth_exponent(jordan) == 0
    assert dens == {1, 2, 6, 12}
    # quasi-unipotent actions, rotation (+) Jordan block, where the orbit of
    # the unipotent power U = F^m of the action F and the orbit of F differ
    for a, power, plov in ROTATION_MODELS:
        m = AbelianSurrogate(a)
        assert unipotent_power(action_matrix(m.a))[0] == power
        poly = delta_polynomial(m)
        assert len(poly) - 1 == plov
        assert list(poly) == delta_multinomial_fraction(m), a


# plov and the top coefficient of Delta for the Jordan form of every g = 6
# type, where the Fraction oracle takes about 10 s
G6_DELTA = {
    (6,): (36, "1/309071606732292096000000"),
    (5, 1): (26, "1/30725775360000"),
    (4, 2): (20, "1/14515200"),
    (4, 1, 1): (18, "1/1209600"),
    (3, 3): (18, "1/103680"),
    (3, 2, 1): (14, "1/144"),
    (3, 1, 1, 1): (12, "1/12"),
    (2, 2, 2): (12, "5/12"),
    (2, 2, 1, 1): (10, "5"),
    (2, 1, 1, 1, 1): (8, "60"),
    (1, 1, 1, 1, 1, 1): (6, "720"),
}


def test_delta_polynomial_pins_g6_jordan_forms():
    assert set(G6_DELTA) == set(_jordan_types(6, 6))
    for blocks, (plov, top) in G6_DELTA.items():
        poly = delta_polynomial(
            AbelianSurrogate(jordan_matrix(blocks), jordan=blocks))
        assert (len(poly) - 1, str(poly[-1])) == (plov, top), blocks


def test_intersection_form_invariance():
    rng = Random(13)
    for blocks in ((2,), (2, 1), (3,)):
        m = random_conjugate(blocks, rng)
        f = action_matrix(m.a)
        dim = len(f)
        for _ in range(10):
            vecs = [[rng.randint(-2, 2) for _ in range(dim)]
                    for _ in range(m.d)]
            moved = [[sum(f[i][j] * v[j] for j in range(dim))
                      for i in range(dim)] for v in vecs]
            assert (m.intersect([vec_to_sym(m.g, v) for v in moved])
                    == m.intersect([vec_to_sym(m.g, v) for v in vecs]))


def test_degree_growth_exponent_matches_w_table():
    # k, the index of the last nonzero class, against the last i with
    # tr(L^i H) nonzero, the last i with w_(i, 0, ..., 0) nonzero, and
    # 2(b - 1) for the largest block b, on the Jordan form J, a seeded
    # conjugate and -J of every type with g <= 6
    rng = Random(3)
    for g in range(2, 7):
        for blocks in _jordan_types(g, g):
            jordan = jordan_matrix(blocks)
            for a in (jordan, random_conjugate(blocks, rng).a,
                      [[-x for x in r] for r in jordan]):
                m = AbelianSurrogate(a)
                prep = _prepared(m)
                last = max(i for i in range(len(prep["cLH"]))
                           if prep["w"].get((i,) + (0,) * (g - 1)))
                trace = max(i for i, s in enumerate(prep["cLH"])
                            if sum(s[j][j] for j in range(g)))
                assert (degree_growth_exponent(m) == last == trace
                        == 2 * (blocks[0] - 1)), a


def test_degree_growth_exponent():
    for blocks, k in (((1, 1), 0), ((2,), 2), ((2, 1, 1), 2), ((3, 1), 4),
                      ((4,), 6)):
        m = AbelianSurrogate(jordan_matrix(blocks), jordan=blocks)
        assert degree_growth_exponent(m) == k


def test_w_vector_and_linear_system():
    m = AbelianSurrogate(jordan_matrix((2,)), jordan=(2,))
    for n in range(1, 5):
        assert verify_linear_system(m, n) is None  # ModelError on failure
    k = degree_growth_exponent(m)
    w = dict(zip(partition_set(k, 2, 2), w_vector(m, 2), strict=True))
    assert w[(2, 0)] != 0 or w[(1, 1)] != 0


def test_w_vector_k0_error():
    m = AbelianSurrogate(jordan_matrix((1, 1)), jordan=(1, 1))
    with pytest.raises(ModelError):
        w_vector(m, 1)


def test_delta_polynomial_identity_action():
    m = AbelianSurrogate(jordan_matrix((1, 1, 1)), jordan=(1, 1, 1))
    poly = delta_polynomial(m)
    assert len(poly) - 1 == 3
    # identity action: polynomial is H^3 * n^3
    assert poly[-1] == m.intersect([mat_identity(3)] * 3)


def test_find_distinguished_kappa():
    m = AbelianSurrogate(jordan_matrix((4,)), jordan=(4,))
    assert find_distinguished_kappa(m) == ((1, 1, 1, 1), (6, 4, 2, 0))
    m2 = AbelianSurrogate(jordan_matrix((3, 1)), jordan=(3, 1))
    assert find_distinguished_kappa(m2) == ((2, 1, 1), (4, 2, 0, 0))


def test_find_distinguished_kappa_k0_error():
    m = AbelianSurrogate(jordan_matrix((1, 1)), jordan=(1, 1))
    with pytest.raises(ModelError):
        find_distinguished_kappa(m)


def test_check_principles():
    # a call that returns passed: a failed principle raises ModelError, and
    # the return is the conjectured lower bound
    assert check_principles(4, 4, 10) is True
    check_principles(4, 6, 16)
    assert check_principles(3, 2, 5) is True
    with pytest.raises(ModelError):
        check_principles(4, 4, 11)  # wrong parity
    with pytest.raises(ModelError):
        check_principles(4, 6, 12)  # inside the gap interval (10, 16)


def test_hilbert_check():
    for blocks in ((2,), (3,)):
        m = AbelianSurrogate(jordan_matrix(blocks), jordan=blocks)
        # returns only when the top coefficient meets the closed form
        assert hilbert_top_coefficient_check(m) is None
    # d=2: coefficient of n^4 equals w_(2,0) / 12
    m2 = AbelianSurrogate(jordan_matrix((2,)), jordan=(2,))
    hilbert_top_coefficient_check(m2)
    assert delta_polynomial(m2)[4] == rational_w_table(m2)[(2, 0)] / 12


def test_hilbert_check_names_a_wrong_degree(monkeypatch):
    # a Delta of degree below d^2 fails on its degree, not on a top
    # coefficient read as 0
    m = AbelianSurrogate(jordan_matrix((2,)), jordan=(2,))
    delta = delta_polynomial(m)
    monkeypatch.setattr(dynamics, "delta_polynomial", lambda model: delta[:-1])
    with pytest.raises(ModelError, match=(
            f"at d=2: degree 3 with top coefficient {delta[3]}, "
            f"expected degree 4 with top coefficient {delta[4]}$")):
        hilbert_top_coefficient_check(m)


def test_seeded_conjugates_are_pinned():
    # scan draws its models with random_conjugate; its seeded reports hold
    # only while these matrices do
    assert random_conjugate((2, 1), Random(1)).a == [
        [-2, -4, 7], [-3, -3, 7], [-3, -4, 8]]
    assert random_conjugate((4,), Random(7)).a == [
        [-131, 372, -255, -220], [46, -130, 89, 77],
        [-44, 127, -84, -74], [208, -592, 402, 349]]
    assert random_conjugate((3, 2, 1), Random(11)).a == [
        [-2, 0, 1, -1, -4, 3], [1, -1, 0, 3, 10, -3], [-8, -2, 3, -2, -8, 6],
        [-1, -4, 6, 16, 46, -3], [1, 1, -2, -4, -11, 0], [0, 0, 0, 0, 0, 1]]


def test_polydiv_exact_returns_none_on_remainder():
    # (x^2 - 1) / (x - 1) = x + 1; (x^2 + 1) / (x - 1) leaves remainder 2
    assert _polydiv_monic([-1, 0, 1], [-1, 1]) == [1, 1]
    assert _polydiv_monic([1, 0, 1], [-1, 1]) is None


def test_int_inverse_of_unimodular():
    # the P^-1 that random_unimodular builds from the inverse shears
    rng = Random(43)
    for g in range(1, 7):
        p, p_inv = random_unimodular(g, rng)
        assert mat_mul(p, p_inv) == mat_mul(p_inv, p) == mat_identity(g), p


def test_random_unimodular_and_conjugate():
    rng = Random(41)
    from plovlab.dynamics import _int_det

    for g in range(1, 7):
        p, p_inv = random_unimodular(g, rng)
        assert _int_det(p) == 1, p
        assert mat_mul(p, p_inv) == mat_identity(g), p
    m = random_conjugate((2, 1), rng)
    rep = run_pipeline(m)  # raises ModelError on a failed check
    assert rep["plov"] == 5


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
    '{"type": "abelian", "A": [[1, 18446744073709551616], [0, 1]]}',  # 65 bits
    '{"type": "abelian", "A": [[1, 1], [0, 1]], "H": [[2, 0], [0, 1]]}',  # extra key
    pytest.param('[' * 100000, id="nested-100000"),       # nested too deeply
])
def test_model_from_json_rejects(text):
    with pytest.raises(ValueError):
        model_from_json(text)


def test_abelian_plov_law():
    # plov = sum of squares of the Jordan block sizes, all types with g <= 5
    for g in range(2, 6):
        for blocks in _jordan_types(g, g):
            m = AbelianSurrogate(jordan_matrix(blocks), jordan=blocks)
            poly = delta_polynomial(m)
            assert len(poly) - 1 == sum(b * b for b in blocks), blocks
            assert poly[-1] > 0


def test_maximality_equivalence():
    for g in range(2, 6):
        for blocks in ((g,), (g - 1, 1)) if g > 2 else ((g,),):
            m = AbelianSurrogate(jordan_matrix(blocks), jordan=blocks)
            k = degree_growth_exponent(m)
            plov = len(delta_polynomial(m)) - 1
            assert (k == 2 * g - 2) == (plov == g * g)


def test_combinatorial_vanishing():
    m = AbelianSurrogate(jordan_matrix((3, 1)), jordan=(3, 1))
    k = degree_growth_exponent(m)
    d = m.d
    for n in range(1, d * k + 1):
        for lam, v in zip(partition_set(k, d, n), w_vector(m, n), strict=True):
            if sum(lam) > d * k // 2:
                assert v == 0, lam
