"""The static exceptional records must be re-derivable from first
principles: the diagram is the unique even dominant label vector whose
layer dimensions match the recorded module structure, and the centraliser
data follows from the grid."""

from itertools import product

import pytest

from nilorbits.exceptional import (ORBITS, PAIR_DECOMPOSITIONS,
                                   ExceptionalOrbit, exceptional_lookup,
                                   pair_decomposition_data)
from nilorbits.involutions import catalog, pair_by_descriptor
from nilorbits.roots import SimpleType, build_root_system
from nilorbits.sl2 import SL2Module
from rootdata import EXPONENTS


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


@pytest.mark.parametrize("key", sorted(PAIR_DECOMPOSITIONS))
def test_pair_records_regenerate(key):
    ts, desc = key
    t = SimpleType.parse(ts)
    pair = pair_by_descriptor(t, desc)
    m0, m1, rec = pair_decomposition_data(t, desc)
    # the even part carries the principal decomposition of g0
    assert m0 == principal_module(pair.factors)
    assert m0.dim == pair.dim_g0 and m1.dim == pair.dim_g1
    # the recorded diagram is the unique even match for the total module
    total = m0 + m1
    want = module_profile(total)
    hits = [labels for labels in product((0, 2), repeat=t.rank)
            if layer_profile(t, labels) == want]
    assert hits == [rec.wdd.labels]


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
    with pytest.raises(KeyError):
        pair_decomposition_data(t, "nope")


def test_every_exceptional_pair_has_a_record():
    for ts in ("E6", "E7", "E8", "F4", "G2"):
        t = SimpleType.parse(ts)
        for p in catalog(t):
            m0, m1, rec = pair_decomposition_data(t, p.descriptor)
            assert m0.dim + m1.dim == t.dimension


def test_table_rows():
    assert exceptional_lookup(SimpleType("G", 2), "G2(a1)").wdd.labels \
        == (0, 2)
    assert exceptional_lookup(SimpleType("E", 8), "E8(a4)").dim_nil == 16
    e7 = exceptional_lookup(SimpleType("E", 7), "E6(a1)")
    assert (e7.dim_centralizer, e7.red_type, e7.dim_nil) == (15, "t1", 14)
