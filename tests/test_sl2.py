import itertools

import pytest
from hypothesis import given, strategies as st

from nilorbits.gradings import _grid_row
from nilorbits.sl2 import (NegativeMultiplicityError, R, SL2Module, alt2,
                           sym2, tensor)
from nilorbits.verify import E_MODULES

from charutil import (alt2_by_character, character, sym2_by_character,
                      tensor_by_character)

modules = st.dictionaries(st.integers(0, 9), st.integers(1, 3),
                          min_size=0, max_size=4).map(SL2Module)
E6_C4 = tuple(map(SL2Module.parse, E_MODULES[("E6", "C4")]))  # (M0, M1)


def test_clebsch_gordan_basics():
    assert tensor(R(2), R(2)) == SL2Module.parse("R4+R2+R0")
    assert tensor(R(4), R(2)) == SL2Module.parse("R6+R4+R2")
    m = SL2Module.parse("R3+2*R5")
    assert tensor(R(0), m) == m


def test_squares_of_irreducibles():
    assert alt2(R(2)) == R(2)
    assert sym2(R(2)) == SL2Module.parse("R4+R0")
    assert alt2(R(0)) == SL2Module()
    assert sym2(R(0)) == R(0)


def test_square_of_sum():
    # Alt2(R4 + R2) = Alt2 R4 + Alt2 R2 + R4 x R2
    assert alt2(SL2Module.parse("R4+R2")) == \
        SL2Module.parse("2*R6+R4+3*R2")
    assert alt2(SL2Module.parse("R4+R2")).dim == 8 * 7 // 2


def test_tensor_exhaustive_against_characters():
    for a in range(13):
        for b in range(13):
            assert tensor(R(a), R(b)) == tensor_by_character(R(a), R(b))


def test_squares_exhaustive_against_characters():
    for k in range(13):
        assert sym2(R(k)) == sym2_by_character(R(k))
        assert alt2(R(k)) == alt2_by_character(R(k))


@given(modules, modules)
def test_tensor_matches_characters(a, b):
    assert tensor(a, b) == tensor_by_character(a, b)


@given(modules)
def test_squares_match_characters(a):
    assert sym2(a) == sym2_by_character(a)
    assert alt2(a) == alt2_by_character(a)


def test_tensor_commutative_associative():
    weights = range(0, 9, 2)
    for a, b in itertools.combinations_with_replacement(weights, 2):
        assert tensor(R(a), R(b)) == tensor(R(b), R(a))
    for a, b, c in itertools.combinations_with_replacement(range(0, 9, 3), 3):
        assert tensor(R(a), tensor(R(b), R(c))) == \
            tensor(tensor(R(a), R(b)), R(c))


@given(modules, modules)
def test_dimension_homomorphisms(a, b):
    assert tensor(a, b).dim == a.dim * b.dim
    assert sym2(a).dim + alt2(a).dim == a.dim * a.dim


def test_eigen_dim():
    # a grid row holds the eigenspace dimensions d(0), d(1), ...
    assert _grid_row(R(4), 5) == (1, 0, 1, 0, 1)
    row = _grid_row(E6_C4[0], 17)
    assert (row[0], row[16]) == (4, 0)


@given(modules)
def test_eigen_dim_symmetry_and_monotonicity(m):
    # the grid row of any module against its character, which is
    # symmetric in i; the row falls by steps of 2 and sums to dim m
    top = m.max_weight
    row, ch = _grid_row(m, top + 3), character(m)
    for i in range(top + 1):
        assert row[i] == ch.get(i, 0) == ch.get(-i, 0)
        assert row[i] >= row[i + 2]
    assert row[top + 1:] == (0, 0)
    assert row[0] + 2 * sum(row[1:]) == m.dim


def test_signed_counts():
    assert R(0).signed_count() == 1
    assert E6_C4[0].signed_count() == -4
    # the sigma-sigma-check difference weighs g1 by -s1
    assert -E6_C4[1].signed_count() == -2
    with pytest.raises(ValueError):
        SL2Module.parse("R3").signed_count()


def test_virtual_subtraction():
    m = sym2(SL2Module.parse("R4+R0"))
    assert m.subtract(R(0)) == SL2Module.parse("R8+R4+R0+R4")
    with pytest.raises(NegativeMultiplicityError):
        R(2).subtract(R(0))


def test_parse_and_format_roundtrip():
    for text in ["R2+R6+2*R10", "R0", "3*R1+R7"]:
        m = SL2Module.parse(text)
        assert SL2Module.parse(str(m)) == m
    assert str(SL2Module()) == "0"
    with pytest.raises(ValueError):
        SL2Module.parse("Rx")


def test_json_form():
    assert SL2Module.parse("R2+2*R10").to_json() == {"2": 1, "10": 2}
