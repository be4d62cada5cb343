from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as st

from nilorbits import gradings
from nilorbits.gradings import (check_02, check_04, check_4k2,
                                collapsing_defect, d00_closed_form,
                                decompose, decompose_classical,
                                decompose_exceptional,
                                dim_fixed_cross, divisibility_report,
                                grading_grid, MixedGrading,
                                PairDecomposition, upsilon)
from nilorbits.involutions import (Reductive, catalog, pair_by_descriptor,
                                   parse_factors)
from nilorbits.orbits import (ClassicalOrbit, Partition, centralizer_dims,
                              half_orbit)
from nilorbits.roots import SimpleType, all_simple_types
from nilorbits.sl2 import SL2Module
from nilorbits.verify import E_GRIDS, swept_pairs

from charutil import character


def P(text):
    return Partition.parse(text)


def pair(ts, g0):
    return pair_by_descriptor(SimpleType.parse(ts), g0)


def test_regular_partitions():
    # the orbit of e regular in g0, read from the pair's decomposition
    for ts, g0, parts in [("C4", "sp4+sp4", (4, 4)), ("D5", "gl5", (5, 5)),
                          ("A4", "gl2+gl3", (3, 2)),
                          ("B4", "so5+so4", (5, 3, 1)),
                          ("B4", "so8", (7, 1, 1))]:
        assert decompose(pair(ts, g0)).orbit.partition.parts == parts


def test_factor_regular_parts_are_regular_in_the_factor():
    # a regular element has a centraliser of dimension rank; gl_n is taken
    # in sl_n, where its centre is gone and the rank drops by one
    sizes = {"so": range(1, 17), "sp": range(2, 17, 2), "gl": range(1, 17)}
    for kind, ns in sizes.items():
        for n in ns:
            f = (kind, n)
            o = ClassicalOrbit("sl" if kind == "gl" else kind, n,
                               Partition(gradings.factor_regular_parts(f)))
            rank = Reductive((f,)).rank - (kind == "gl")
            assert centralizer_dims(o)[0] == rank, f


def test_decompose_hermitian_so():
    pd = decompose(pair("D5", "gl5"))
    assert pd.m0 == SL2Module.parse("R0+R2+R4+R6+R8")
    assert pd.m1 == SL2Module.parse("2*R2+2*R6")
    assert pd.orbit.partition.parts == (5, 5)


def test_decompose_split_sl():
    pd = decompose_classical(pair("A5", "so6"), [P("(5,1)")])
    assert pd.m0 == SL2Module.parse("R6+R4+R2")
    assert pd.m1 == SL2Module.parse("R8+2*R4+R0")


def test_decompose_sl4_so4_non_regular():
    pd = decompose_classical(pair("A3", "so4"), [P("(2,2)")])
    assert pd.m0.dim == 6
    assert pd.m0 == SL2Module.parse("R2+3*R0")
    assert pd.m1 == SL2Module.parse("3*R2")
    assert pd.e_is_even


def test_parity_dichotomy_enforced():
    for t in all_simple_types(8):
        for p in catalog(t):
            pd = decompose(p)
            assert pd.m1.weights_all_even() or pd.m1.weights_all_odd(), p


def test_grid_example_e6():
    pd = decompose(pair("E6", "C4"))
    mg = grading_grid(pd)
    row0, row1 = E_GRIDS[("E6", "C4")]
    assert tuple(mg.d(0, i) for i in range(0, 2 * len(row0), 2)) == row0
    assert tuple(mg.d(1, i) for i in range(0, 2 * len(row1), 2)) == row1
    assert mg.d(0, -4) == 3
    assert (mg.m0, mg.m1) == (14, 16)
    assert mg.dim_g0 == 36 and mg.row1[0] + 2 * sum(mg.row1[1:]) == 42
    assert check_02(mg) and check_04(mg) and check_4k2(mg)


def test_grid_family_sl2n():
    # two odd parts with gap > 1
    for m, k in [(2, 0), (4, 1), (5, 3)]:
        n = m + k + 1
        pd = decompose_classical(pair(f"A{2 * n - 1}", f"so{2 * n}"),
                                 [Partition.of(2 * m + 1, 2 * k + 1)])
        mg = grading_grid(pd)
        assert mg.d(0, 0) == m + 3 * k + 1
        assert mg.d(1, 0) == m + 3 * k + 2
        assert mg.d(1, 4) == m + 3 * k + 1
        assert d00_closed_form(tuple(x for x in (m, k))) == \
            (mg.d(0, 0), mg.d(1, 0))


def test_d00_closed_form():
    assert d00_closed_form((3,)) == (3, 3)
    assert d00_closed_form((2, 0)) == (3, 4)
    with pytest.raises(ValueError):
        d00_closed_form((3, 2))


def test_grid_invariants_over_catalog():
    for t in all_simple_types(8):
        for p in catalog(t):
            mg = grading_grid(decompose(p))
            for i in range(len(mg.row0)):
                assert mg.d(0, i) == mg.d(0, -i)
                assert mg.d(0, i) >= mg.d(0, i + 2)
                assert mg.d(1, i) >= mg.d(1, i + 2)
                if i != 0:
                    assert mg.d(0, i) <= mg.d(0, 0)
                    assert mg.d(1, i) <= mg.d(0, 0)


def test_checks_on_failing_pair():
    mg = grading_grid(decompose(pair("B4", "so8")))
    assert not check_02(mg) and not check_04(mg)
    g2 = grading_grid(decompose_exceptional(pair("G2", "A1+A1~")))
    assert check_02(g2)
    assert g2.d(0, 0) == 2 and g2.d(1, 2) == 2 and g2.d(1, 4) == 1


def test_upsilon_requires_even():
    pd = decompose(pair("A4", "gl2+gl3"))
    assert not pd.e_is_even
    with pytest.raises(ValueError):
        upsilon(pd)


def test_upsilon_e6():
    u = upsilon(decompose(pair("E6", "C4")))
    assert u.sigma_check.descriptor == "A5+A1"
    assert u.sigma_check.inner
    assert u.sigma_sigma_check.descriptor == "C4"
    assert not u.sigma_sigma_check.inner
    assert u.diff_check == -2 and u.diff_cross == -6


def test_upsilon_hermitian_parities():
    u = upsilon(decompose(pair("D5", "gl5")))
    assert (u.sigma_check.descriptor, u.sigma_sigma_check.descriptor) == \
        ("so6+so4", "gl5")
    u = upsilon(decompose(pair("D6", "gl6")))
    assert (u.sigma_check.descriptor, u.sigma_sigma_check.descriptor) == \
        ("gl6", "so6+so6")


def test_upsilon_dim_consistency():
    for t in all_simple_types(7):
        if str(t) == "A1":
            continue
        for p in catalog(t):
            pd = decompose(p)
            if not pd.e_is_even:
                continue
            mg = grading_grid(pd)
            u = upsilon(pd)
            # the fixed algebra of the derived inner involution: the
            # multiples-of-4 layers of both rows
            top = max(mg.m0, mg.m1)
            assert u.sigma_check.dim_g0 == mg.total(0) + 2 * sum(
                mg.total(i) for i in range(4, top + 1, 4))
            assert u.sigma_sigma_check.dim_g0 == dim_fixed_cross(mg)


def test_divisibility_report_passes():
    pd = decompose(pair("E6", "C4"))
    assert divisibility_report(pd) == []
    pd = decompose_classical(pair("A5", "so6"), [P("(5,1)")])
    assert divisibility_report(pd) == []
    assert half_orbit(pd.orbit).partition.parts == (3, 2, 1)


def test_half_almost_distinguished_read_from_the_grid(monkeypatch):
    # E6/C4 with d1(0) raised from 4 to 6: d0(0) = d1(4) = 4 still holds,
    # but the reductive centraliser of e/2 has dimension
    # total(0) - total(4) = 10 - 7 = 3, too big for a torus
    pd = decompose(pair("E6", "C4"))
    mg = grading_grid(pd)
    assert mg.total(0) - mg.total(4) == 1
    row1 = (6,) + mg.row1[1:]
    crafted = MixedGrading(mg.row0, row1)
    assert check_04(crafted) and crafted.total(0) - crafted.total(4) == 3
    monkeypatch.setattr(gradings, "grading_grid", lambda _: crafted)
    assert "half_almost_distinguished" in divisibility_report(pd)


def _crafted(name, pd, mg):
    """E6/C4's decomposition and grid, changed so that the named
    consequence of d0(0) = d1(4) fails and the other five hold."""
    if name == "grid_equalities":  # d0(2) raised from 4 to 5
        return pd, MixedGrading(mg.row0[:2] + (5,) + mg.row0[3:], mg.row1)
    if name == "no_r2_in_odd_part":  # R4 in M1 traded for R2 + 2 R0
        m1 = pd.m1.subtract(SL2Module.parse("R4")) + \
            SL2Module.parse("R2+2*R0")
        return replace(pd, m1=m1), mg
    if name == "g0_semisimple":  # gl6 has the dimension of sp8, and a centre
        g0 = Reductive(parse_factors("gl6"))
        return replace(pd, pair=replace(pd.pair, g0=g0)), mg
    if name == "orbit_divisible":
        return replace(pd, orbit=replace(pd.orbit, divisible=False)), mg
    if name == "e_almost_distinguished":  # A1 is not a torus
        red = Reductive(parse_factors("A1"))
        return replace(pd, orbit=replace(pd.orbit, red=red)), mg
    # half_almost_distinguished: d1(0) raised from 4 to 6 (see above)
    return pd, MixedGrading(mg.row0, (6,) + mg.row1[1:])


@pytest.mark.parametrize("name", [
    "grid_equalities", "no_r2_in_odd_part", "g0_semisimple",
    "orbit_divisible", "e_almost_distinguished",
    "half_almost_distinguished"])
def test_each_divisibility_consequence_can_fail(monkeypatch, name):
    pd = decompose(pair("E6", "C4"))
    crafted_pd, crafted = _crafted(name, pd, grading_grid(pd))
    assert check_04(crafted)
    monkeypatch.setattr(gradings, "grading_grid", lambda _: crafted)
    assert divisibility_report(crafted_pd) == [name]


def test_divisibility_report_requires_check04():
    pd = decompose(pair("B4", "so8"))
    with pytest.raises(ValueError):
        divisibility_report(pd)


@pytest.mark.parametrize("ts,d,finite", [
    ("E6", 0, True), ("E7", 1, False), ("E8", 0, True),
    ("F4", 0, True), ("G2", 0, True),
    ("D6", 2, False), ("D5", 1, False), ("C4", 0, True),
    ("B4", 0, True), ("A4", 0, True), ("A5", 1, False),
])
def test_collapsing_defect(ts, d, finite):
    assert collapsing_defect(SimpleType.parse(ts)) == (d, finite)


def test_grid_render_contains_boxes():
    mg = grading_grid(decompose(pair("E6", "C4")))
    out = mg.render()
    assert "[4]" in out
    assert out.count("[4]") == 2


def test_cached_decompose_matches_fresh():
    # decompose is memoized per pair, and each decomposition keeps its grid
    # and upsilon result; the stored values must be what a fresh
    # decomposition computes, and a repeated call returns the same object
    for p in swept_pairs(16):
        pd, fresh = decompose(p), decompose.__wrapped__(p)
        assert fresh is not pd
        assert decompose(p) is pd, p
        for f in fields(pd):
            assert getattr(pd, f.name) == getattr(fresh, f.name), (p, f.name)
        mg, fresh_mg = grading_grid(pd), grading_grid(fresh)
        assert grading_grid(pd) is mg, p
        for f in fields(mg):
            assert getattr(mg, f.name) == getattr(fresh_mg, f.name), \
                (p, f.name)
        assert pd.e_is_even == fresh.e_is_even, p
        if not pd.e_is_even:
            continue
        u, fresh_u = upsilon(pd), upsilon(fresh)
        assert upsilon(pd) is u, p
        for f in fields(u):
            assert getattr(u, f.name) == getattr(fresh_u, f.name), (p, f.name)


def _reference_rows(m0: SL2Module, m1: SL2Module):
    """The grid rows one weight at a time, as eigenspace dimensions read
    from the characters."""
    size = max(m0.max_weight, m1.max_weight) + 1
    ch0, ch1 = character(m0), character(m1)
    return (tuple(ch0.get(i, 0) for i in range(size)),
            tuple(ch1.get(i, 0) for i in range(size)))


def test_grid_rows_match_eigenspace_dims_on_swept_pairs():
    for p in swept_pairs(16):
        pd = decompose(p)
        mg = grading_grid(pd)
        assert (mg.row0, mg.row1) == _reference_rows(pd.m0, pd.m1), p


def _unchecked_decomposition(m0: SL2Module, m1: SL2Module):
    """A decomposition of two arbitrary modules, without the dimension
    check against a pair, to reach the grid kernel on any input."""
    pd = object.__new__(PairDecomposition)
    for name, value in (("pair", None), ("m0", m0), ("m1", m1),
                        ("orbit", None)):
        object.__setattr__(pd, name, value)
    return pd


modules = st.dictionaries(st.integers(0, 14), st.integers(0, 3),
                          max_size=6).map(SL2Module)


@given(modules, modules)
def test_grid_rows_match_eigenspace_dims(m0, m1):
    # any weights, odd ones and the zero module included
    mg = grading_grid(_unchecked_decomposition(m0, m1))
    assert (mg.row0, mg.row1) == _reference_rows(m0, m1)


def test_grid_of_zero_modules():
    mg = grading_grid(_unchecked_decomposition(SL2Module(), SL2Module()))
    assert (mg.row0, mg.row1) == ((0,), (0,))
    assert mg.profile == ()


def test_grid_profile_is_the_diagram_profile():
    # the grid of a regular e in g0 is the grading of g by its
    # characteristic, layer for layer and with the same top layer
    for p in swept_pairs(16):
        pd = decompose(p)
        assert grading_grid(pd).profile == pd.orbit.wdd.profile, p


def test_ambient_module_matches_pair_modules():
    # module calculus against root heights: g under the triple of the
    # ambient diagram is M0 + M1
    for p in swept_pairs(8):
        pd = decompose(p)
        assert pd.orbit.wdd.module() == pd.m0 + pd.m1, p


def test_cached_decomposition_is_read_only():
    pd = decompose(pair("D5", "gl5"))
    with pytest.raises(TypeError):
        pd.m0.mult[2] = 7
    assert pd.m0 == SL2Module.parse("R0+R2+R4+R6+R8")
