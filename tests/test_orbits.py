import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from nilorbits.exceptional import ORBITS
from nilorbits.orbits import (ClassicalOrbit, Partition,
                              WeightedDynkinDiagram, all_partitions,
                              centralizer_dims, half_orbit, is_divisible,
                              is_almost_distinguished, is_distinguished,
                              is_even, reductive_type, valid_partitions,
                              wdd_from_partition)
from nilorbits.roots import all_simple_types, build_root_system

partitions = st.lists(st.integers(1, 9), min_size=1, max_size=6).map(
    lambda parts: Partition(tuple(sorted(parts, reverse=True))))


@given(partitions)
def test_dual_is_involutive(lam):
    assert lam.dual().dual() == lam
    assert lam.dual().n == lam.n


def test_partition_parsing():
    assert Partition.parse("(5,3,1)").parts == (5, 3, 1)
    assert Partition.parse("5, 1, 3").parts == (5, 3, 1)
    # whitespace separates parts; it never joins digits
    assert Partition.parse("(3 1)").parts == (3, 1)
    assert Partition.parse("(1 3)").parts == (3, 1)
    assert Partition.parse(" (2\t2 , 1) ").parts == (2, 2, 1)
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((0,))


def test_orbit_validity():
    ClassicalOrbit("so", 9, Partition.parse("(5,3,1)"))
    ClassicalOrbit("so", 5, Partition.parse("(2,2,1)"))
    with pytest.raises(ValueError):
        ClassicalOrbit("so", 5, Partition.parse("(4,1)"))
    with pytest.raises(ValueError):
        ClassicalOrbit("sp", 6, Partition.parse("(3,2,1)"))
    with pytest.raises(ValueError):
        ClassicalOrbit("sp", 5, Partition.parse("(5)"))
    ClassicalOrbit("sp", 6, Partition.parse("(3,3)"))


def test_is_even():
    assert is_even(ClassicalOrbit("so", 9, Partition.parse("(5,3,1)")))
    assert not is_even(ClassicalOrbit("sl", 5, Partition.parse("(3,2)")))
    assert is_even(ClassicalOrbit("sl", 4, Partition.parse("(4)")))


@pytest.mark.parametrize("kind,n,lam,labels", [
    ("sp", 8, "(4,4)", (0, 2, 0, 2)),
    ("so", 12, "(5,5,1,1)", (0, 2, 0, 2, 0, 0)),
    ("sl", 5, "(3,2)", (1, 1, 1, 1)),
    ("sl", 4, "(2,2)", (0, 2, 0)),
    ("so", 9, "(5,3,1)", (2, 0, 2, 0)),
    ("so", 10, "(5,3,1,1)", (2, 0, 2, 0, 0)),
    ("so", 7, "(3,3,1)", (0, 2, 0)),
    ("sp", 6, "(3,3)", (0, 2, 0)),
])
def test_wdd_values(kind, n, lam, labels):
    o = ClassicalOrbit(kind, n, Partition.parse(lam))
    assert wdd_from_partition(o).labels == labels


def test_wdd_labels_in_range_and_even_iff():
    for kind, sizes in [("sl", range(2, 11)), ("sp", range(4, 11, 2)),
                        ("so", [5, 7, 8, 9, 10])]:
        for n in sizes:
            for o in valid_partitions(kind, n):
                wdd = wdd_from_partition(o)
                assert all(v in (0, 1, 2) for v in wdd.labels), o
                all_even = all(v in (0, 2) for v in wdd.labels)
                assert all_even == is_even(o), o


def check_layer_dims(wdd, dim_centralizer):
    """layer_dim against a direct root count per layer, dim g, and Kostant's
    dim g(0) + dim g(1) = dim g^e."""
    t = wdd.type
    heights = [sum(c * v for c, v in zip(r.coeffs, wdd.labels))
               for r in build_root_system(t).positive_roots]
    top = max(heights)
    assert wdd.layer_dim(0) == wdd.dim_centralizer_of_h() \
        == t.rank + 2 * heights.count(0)
    for i in range(1, top + 2):
        assert wdd.layer_dim(i) == wdd.layer_dim(-i) == heights.count(i)
    assert wdd.dim_centralizer_of_h() + 2 * sum(
        wdd.layer_dim(i) for i in range(1, top + 1)) == t.dimension
    assert wdd.layer_dim(0) + wdd.layer_dim(1) == dim_centralizer


def test_height_counts_match_direct_count_to_rank_24():
    rng = random.Random(20242)
    for t in all_simple_types(24):
        roots = build_root_system(t).positive_roots
        for _ in range(20):
            labels = tuple(rng.choice((0, 1, 2)) for _ in range(t.rank))
            direct = Counter(sum(c * v for c, v in zip(r.coeffs, labels))
                             for r in roots)
            assert WeightedDynkinDiagram(t, labels).height_counts == direct, \
                (str(t), labels)


def test_layer_dims_classical():
    for kind, sizes in [("sl", range(2, 13)), ("sp", range(4, 13, 2)),
                        ("so", [5, 7, 8, 9, 10, 11, 12])]:
        for n in sizes:
            for o in valid_partitions(kind, n):
                check_layer_dims(wdd_from_partition(o),
                                 centralizer_dims(o)[0])


@pytest.mark.parametrize("key", sorted(ORBITS))
def test_layer_dims_exceptional(key):
    rec = ORBITS[key]
    check_layer_dims(rec.wdd, rec.dim_centralizer)


@pytest.mark.parametrize("kind,n,lam,expect", [
    ("so", 9, "(5,3,1)", (8, 0, 8)),
    ("sl", 4, "(2,2)", (7, 3, 4)),
    ("so", 7, "(3,3,1)", (7, 1, 6)),
    ("sp", 8, "(4,4)", (8, 1, 7)),
    ("sl", 4, "(4)", (3, 0, 3)),
    ("so", 12, "(5,5,1,1)", (14, 2, 12)),
])
def test_centralizer_dims(kind, n, lam, expect):
    o = ClassicalOrbit(kind, n, Partition.parse(lam))
    assert centralizer_dims(o) == expect


def test_orbit_dimension_even():
    for kind, sizes in [("sl", range(2, 11)), ("sp", range(2, 11, 2)),
                        ("so", range(3, 11))]:
        dim_g = {"sl": lambda n: n * n - 1,
                 "so": lambda n: n * (n - 1) // 2,
                 "sp": lambda n: n * (n + 1) // 2}[kind]
        for n in sizes:
            for o in valid_partitions(kind, n):
                total = centralizer_dims(o)[0]
                assert (dim_g(n) - total) % 2 == 0, o


def test_reductive_type_strings():
    assert str(reductive_type(
        ClassicalOrbit("so", 12, Partition.parse("(5,5,1,1)")))) == "t2"
    assert str(reductive_type(
        ClassicalOrbit("sl", 4, Partition.parse("(2,2)")))) == "sl2"
    assert str(reductive_type(
        ClassicalOrbit("sp", 6, Partition.parse("(3,3)")))) == "sp2"
    assert str(reductive_type(
        ClassicalOrbit("so", 9, Partition.parse("(5,3,1)")))) == "0"


def test_distinguished_predicates():
    o = ClassicalOrbit("so", 9, Partition.parse("(5,3,1)"))
    assert is_distinguished(o) and is_almost_distinguished(o)
    o = ClassicalOrbit("sp", 6, Partition.parse("(3,3)"))
    assert not is_almost_distinguished(o)
    o = ClassicalOrbit("sl", 6, Partition.parse("(3,2,1)"))
    assert not is_distinguished(o) and is_almost_distinguished(o)


def test_distinguished_implies_even():
    for kind, sizes in [("sl", range(2, 11)), ("sp", range(2, 11, 2)),
                        ("so", range(3, 11))]:
        for n in sizes:
            for o in valid_partitions(kind, n):
                if is_distinguished(o):
                    assert is_even(o), o


@pytest.mark.parametrize("kind,lam,expect", [
    ("sl", "(5,1)", True),
    ("sl", "(2,2)", False),
    ("so", "(7,7)", True),
    ("so", "(7,5)", False),
    ("so", "(5,3)", True),
    ("so", "(3,1)", False),
    ("so", "(5,3,1)", True),
    ("sp", "(3,3)", True),
    ("sp", "(3,3,1,1)", True),
    ("sp", "(5,5,3,3)", True),
])
def test_divisibility(kind, lam, expect):
    p = Partition.parse(lam)
    assert is_divisible(ClassicalOrbit(kind, p.n, p)) == expect


@pytest.mark.parametrize("kind,lam,half", [
    ("sl", "(5,1)", (3, 2, 1)),
    ("so", "(7,7)", (4, 4, 3, 3)),
    ("so", "(5,3)", (3, 2, 2, 1)),
    ("so", "(5,5)", (3, 3, 2, 2)),
    ("so", "(5,3,1)", (3, 2, 2, 1, 1)),
    ("sl", "(3)", (2, 1)),
])
def test_half_orbit(kind, lam, half):
    p = Partition.parse(lam)
    o = ClassicalOrbit(kind, p.n, p)
    assert half_orbit(o).partition.parts == half


def test_half_orbit_preconditions():
    with pytest.raises(ValueError):
        half_orbit(ClassicalOrbit("sl", 4, Partition.parse("(2,2)")))
    with pytest.raises(ValueError):
        half_orbit(ClassicalOrbit("sp", 6, Partition.parse("(3,3)")))


def test_half_orbit_characteristic_is_halved():
    for kind, sizes in [("sl", range(2, 10)), ("so", range(3, 10))]:
        for n in sizes:
            for o in valid_partitions(kind, n):
                if not is_divisible(o):
                    continue
                want = [v // 2 for v in o.partition.weight_string()]
                assert half_orbit(o).partition.weight_string() == want, o


def test_all_partitions_count():
    assert len(all_partitions(9)) == 30
    assert len(all_partitions(1)) == 1


def test_wdd_render_marks_short_nodes():
    o = ClassicalOrbit("so", 9, Partition.parse("(5,3,1)"))
    out = wdd_from_partition(o).render()
    assert out == "(2)-(0)-(2)=>[0]"
