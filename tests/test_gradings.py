from dataclasses import fields

import pytest

from nilorbits.gradings import (check_02, check_04, check_4k2,
                                collapsing_defect, d00_closed_form,
                                decompose, decompose_classical,
                                decompose_exceptional, dim_fixed_check,
                                dim_fixed_cross, grading_grid,
                                regular_e_partition, divisibility_report,
                                upsilon)
from nilorbits.involutions import catalog, pair_by_descriptor
from nilorbits.orbits import Partition
from nilorbits.roots import SimpleType, all_simple_types
from nilorbits.sl2 import SL2Module
from nilorbits.verify import swept_pairs


def P(text):
    return Partition.parse(text)


def pair(ts, g0):
    return pair_by_descriptor(SimpleType.parse(ts), g0)


def test_regular_partitions():
    assert regular_e_partition(pair("C4", "sp4+sp4")).parts == (4, 4)
    assert regular_e_partition(pair("D5", "gl5")).parts == (5, 5)
    assert regular_e_partition(pair("A4", "gl2+gl3")).parts == (3, 2)
    assert regular_e_partition(pair("B4", "so5+so4")).parts == (5, 3, 1)
    assert regular_e_partition(pair("B4", "so8")).parts == (7, 1, 1)


def test_decompose_hermitian_so():
    pd = decompose(pair("D5", "gl5"))
    assert pd.m0 == SL2Module.parse("R0+R2+R4+R6+R8")
    assert pd.m1 == SL2Module.parse("2*R2+2*R6")
    assert pd.ambient_partition.parts == (5, 5)


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
    assert tuple(mg.d(0, i) for i in range(0, 16, 2)) == \
        (4, 4, 3, 3, 2, 2, 1, 1)
    assert tuple(mg.d(1, i) for i in range(0, 18, 2)) == \
        (4, 4, 4, 3, 3, 2, 1, 1, 1)
    assert mg.d(0, -4) == 3
    assert (mg.m0, mg.m1) == (14, 16)
    assert (mg.dim_g0, mg.dim_g1) == (36, 42)
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
            for i in mg.support:
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
            assert u.sigma_check.dim_g0 == dim_fixed_check(mg)
            assert u.sigma_sigma_check.dim_g0 == dim_fixed_cross(mg)


def test_divisibility_report_passes():
    pd = decompose(pair("E6", "C4"))
    rep = divisibility_report(pd)
    assert rep.all_pass and rep.failures() == []
    pd = decompose_classical(pair("A5", "so6"), [P("(5,1)")])
    rep = divisibility_report(pd)
    assert rep.all_pass
    assert rep.half_partition.parts == (3, 2, 1)


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
    # decompose and upsilon are memoized per process; the cached values
    # must be what a fresh call computes, and one shared object per key
    for p in swept_pairs(16):
        pd, fresh = decompose(p), decompose.__wrapped__(p)
        assert decompose(p) is pd, p
        for f in fields(pd):
            assert getattr(pd, f.name) == getattr(fresh, f.name), (p, f.name)
        if not pd.e_is_even:
            continue
        u, fresh_u = upsilon(pd), upsilon.__wrapped__(pd)
        assert upsilon(pd) is u, p
        for f in fields(u):
            assert getattr(u, f.name) == getattr(fresh_u, f.name), (p, f.name)


def test_ambient_module_matches_pair_modules():
    # module calculus against root heights: g under the triple of the
    # ambient diagram is M0 + M1
    for p in swept_pairs(8, include_exceptional=False):
        pd = decompose(p)
        assert pd.ambient_wdd().module() == pd.m0 + pd.m1, p


def test_cached_decomposition_is_read_only():
    pd = decompose(pair("D5", "gl5"))
    with pytest.raises(TypeError):
        pd.m0.mult[2] = 7
    assert pd.m0 == SL2Module.parse("R0+R2+R4+R6+R8")
