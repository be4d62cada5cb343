"""The exceptional decompositions are derived from root data, and the
static orbit records must be re-derivable from first principles: the
diagram is the unique even dominant label vector whose layer dimensions
match the published module structure, and the centraliser data follows
from the grid."""

from itertools import product

import pytest

from nilorbits.exceptional import (ORBITS, ExceptionalOrbit,
                                   exceptional_lookup)
from nilorbits.gradings import decompose
from nilorbits.involutions import catalog, pair_by_descriptor
from nilorbits.roots import SimpleType, build_root_system
from nilorbits.sl2 import SL2Module
from rootdata import EXPONENTS

# (ambient, g0) -> (M0, M1, Bala-Carter label of e regular in g0), as
# published for the regular element of g0 (M0 + M1 is g under the triple)
PUBLISHED = {
    ("E6", "C4"):     ("R2+R6+R10+R14", "R4+R8+R10+R16", "E6(a1)"),
    ("E6", "A5+A1"):  ("2*R2+R4+R6+R8+R10", "R2+2*R4+R6+R8+R10", "E6(a3)"),
    ("E6", "F4"):     ("R2+R10+R14+R22", "R8+R16", "E6"),
    ("E6", "D5+t1"):  ("R0+R2+R6+R8+R10+R14", "2*R4+2*R10", "D5"),
    ("E7", "A7"):     ("R2+R4+R6+R8+R10+R12+R14",
                       "R0+2*R4+2*R8+R10+R12+R16", "E6(a1)"),
    ("E7", "D6+A1"):  ("2*R2+R6+2*R10+R14+R18",
                       "R4+R6+R8+R10+R14+R16", "E7(a3)"),
    ("E7", "E6+t1"):  ("R0+R2+R8+R10+R14+R16+R22",
                       "2*R0+2*R8+2*R16", "E6"),
    ("E8", "D8"):     ("R2+R6+R10+2*R14+R18+R22+R26",
                       "R4+R8+R10+R14+R16+R18+R22+R28", "E8(a4)"),
    ("E8", "E7+A1"):  ("2*R2+R10+R14+R18+R22+R26+R34",
                       "R8+R10+R16+R18+R26+R28", "E8(b4)"),
    ("F4", "C3+A1"):  ("2*R2+R6+R10", "R2+R4+R8+R10", "F4(a2)"),
    ("F4", "B4"):     ("R2+R6+R10+R14", "R4+R10", "F4(a1)"),
    ("G2", "A1+A1~"): ("2*R2", "R2+R4", "G2(a1)"),
}


def principal_module(factors) -> SL2Module:
    m = SL2Module()
    for kind, n in factors:
        if kind == "t":
            m = m + SL2Module({0: n})
        else:
            fam = "A" if kind == "A~" else kind
            for e in EXPONENTS[fam](n):
                m = m + SL2Module({2 * e: 1})
    return m


def layer_profile(t: SimpleType, labels) -> dict[int, int]:
    rs = build_root_system(t)
    out = {0: t.rank}
    for r in rs.positive_roots:
        v = abs(sum(c * l for c, l in zip(r.coeffs, labels)))
        out[v] = out.get(v, 0) + (2 if v == 0 else 1)
    return out


def module_profile(m: SL2Module) -> dict[int, int]:
    return {i: m.eigen_dim(i) for i in range(0, m.max_weight + 1, 2)
            if m.eigen_dim(i)}


@pytest.mark.parametrize("key", sorted(PUBLISHED))
def test_pair_records_regenerate(key):
    ts, desc = key
    t = SimpleType.parse(ts)
    pair = pair_by_descriptor(t, desc)
    m0s, m1s, label = PUBLISHED[key]
    m0, m1 = SL2Module.parse(m0s), SL2Module.parse(m1s)
    pd = decompose(pair)
    assert (pd.m0, pd.m1, pd.orbit_label) == (m0, m1, label)
    # the even part carries the principal decomposition of g0
    assert m0 == principal_module(pair.factors)
    assert m0.dim == pair.dim_g0 and m1.dim == pair.dim_g1
    # the recorded diagram is the unique even match for the total module
    want = module_profile(m0 + m1)
    hits = [labels for labels in product((0, 2), repeat=t.rank)
            if layer_profile(t, labels) == want]
    assert hits == [exceptional_lookup(t, label).wdd.labels]
    assert pd.ambient_wdd().labels == hits[0]


@pytest.mark.parametrize("key", sorted(ORBITS))
def test_orbit_records_consistent(key):
    rec = ORBITS[key]
    wdd = rec.wdd
    assert all(v in (0, 2) for v in wdd.labels)
    prof = layer_profile(rec.type, wdd.labels)
    # even orbit: dim g^e = dim g^h, red = d(0) - d(2)
    assert rec.dim_centralizer == prof[0]
    assert rec.dim_red == prof[0] - prof.get(2, 0)
    assert rec.dim_nil == rec.dim_centralizer - rec.dim_red
    assert wdd.has_only_isolated_zeros()


def test_inconsistent_record_raises():
    rec = ORBITS[("E6", "D5")]
    with pytest.raises(ValueError, match=r"dim g\^e = 10"):
        ExceptionalOrbit(rec.type, rec.bala_carter_label, rec.wdd,
                         dim_centralizer=10, red_type="t1", dim_red=1,
                         dim_nil=8)


def test_lookup_errors_list_known_labels():
    t = SimpleType("E", 6)
    rec = exceptional_lookup(t, "E6(a3)")
    assert rec.dim_centralizer == 12 and rec.red_type == "0"
    with pytest.raises(KeyError) as err:
        exceptional_lookup(t, "E6(b17)")
    assert "E6(a1)" in str(err.value)


def test_every_exceptional_pair_has_a_record():
    for ts in ("E6", "E7", "E8", "F4", "G2"):
        t = SimpleType.parse(ts)
        for p in catalog(t):
            pd = decompose(p)
            assert pd.m0.dim + pd.m1.dim == t.dimension
            assert PUBLISHED[(ts, p.descriptor)][2] == pd.orbit_label


def test_table_rows():
    assert exceptional_lookup(SimpleType("G", 2), "G2(a1)").wdd.labels \
        == (0, 2)
    assert exceptional_lookup(SimpleType("E", 8), "E8(a4)").dim_nil == 16
    e7 = exceptional_lookup(SimpleType("E", 7), "E6(a1)")
    assert (e7.dim_centralizer, e7.red_type, e7.dim_nil) == (15, "t1", 14)
