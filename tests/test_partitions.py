import pytest

from plovlab.exactmat import ExactMatrix
from plovlab.incidence import BlockForm
from plovlab.partitions import (
    PartitionSet,
    count,
    enumerate_partitions,
    format_partition,
    partition_set,
)

from oracles import brute_force_partitions, bump, multiplicities


def test_enumeration_matches_brute_force():
    for k in range(1, 6):
        for d in range(1, 5):
            for n in range(0, d * k + 1):
                assert list(enumerate_partitions(k, d, n)) == \
                    brute_force_partitions(k, d, n)


def test_enumeration_is_decreasing_lex():
    parts = enumerate_partitions(6, 4, 12)
    for a, b in zip(parts, parts[1:]):
        assert a > b


def test_count_agrees_with_enumeration():
    for k in range(1, 7):
        for d in range(1, 6):
            for n in range(0, d * k + 1):
                assert count(k, d, n) == len(enumerate_partitions(k, d, n))


def test_count_out_of_range_is_zero():
    assert count(3, 2, -1) == 0
    assert count(3, 2, 7) == 0
    with pytest.raises(ValueError):
        count(0, 2, 1)


def test_example_sets():
    assert enumerate_partitions(4, 3, 6) == (
        (4, 2, 0), (4, 1, 1), (3, 3, 0), (3, 2, 1), (2, 2, 2))
    assert count(4, 3, 6) == 5
    assert enumerate_partitions(3, 2, 0) == ((0, 0),)
    assert (4, 1, 1) < (4, 2, 0)
    assert (3, 3, 0) > (2, 2, 2)
    assert enumerate_partitions(5, 3, 6) == (
        (5, 1, 0), (4, 2, 0), (4, 1, 1), (3, 3, 0), (3, 2, 1), (2, 2, 2))
    assert count(6, 4, 12) == 18
    assert count(6, 4, 11) == 16


def test_bump():
    assert bump((5, 0, 0), 0, 5) == ((5, 1, 0), 2)
    assert bump((3, 2, 1), 2, 5) == ((3, 3, 1), 1)
    assert bump((3, 3, 0), 1, 5) is None
    with pytest.raises(ValueError):
        bump((3, 2, 1), 5, 5)


def test_bump_stays_in_set():
    ps = partition_set(4, 3, 6)
    target = partition_set(4, 3, 7)
    for mu in ps:
        for i in range(4):
            hit = bump(mu, i, 4)
            if hit is not None:
                lam, w = hit
                assert lam in target
                assert w == multiplicities(mu, 4)[i]


def test_format_partition():
    assert format_partition((6, 4, 2, 0)) == "6,4,2,0"
    assert format_partition((5,)) == "5"


def test_partition_set_is_a_value():
    a, b = partition_set(5, 3, 6), partition_set(5, 3, 6)
    assert a == b and hash(a) == hash(b)
    assert a.index_of((2, 2, 2)) == b.index_of((2, 2, 2))  # fills one lazy index
    assert a == b and hash(a) == hash(b)
    assert a != partition_set(5, 3, 7)
    with pytest.raises(AttributeError):
        a.members = ()
    # one value per field: Record's constructor names the fields, and a
    # checking __init__ such as ExactMatrix's has the fields as parameters
    with pytest.raises(TypeError, match=r"\(k, d, n, members\), got 3"):
        PartitionSet(1, 2, 3)
    with pytest.raises(TypeError):
        ExactMatrix(2, (), ())
    with pytest.raises(TypeError,
                       match=r"\(full, top_left, bottom_right\), got 1"):
        BlockForm(a)


def test_index_of():
    ps = partition_set(5, 3, 6)
    for i, p in enumerate(ps):
        assert ps.index_of(p) == i
    assert (9, 9, 9) not in ps
