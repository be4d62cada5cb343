"""The exceptional decompositions are derived from root data, and the
static orbit records must be re-derivable from first principles: the
diagram is the unique even dominant label vector whose layer dimensions
match the published module structure, and the centraliser data follows
from the grid."""

from dataclasses import replace
from itertools import product

import pytest

from nilorbits import verify
from nilorbits.exceptional import ORBITS, PAIR_ORBITS, exceptional_lookup
from nilorbits.gradings import decompose
from nilorbits.involutions import (EXCEPTIONAL_ROWS, Reductive, catalog,
                                   pair_by_descriptor, parse_factors)
from nilorbits.orbits import WeightedDynkinDiagram, kostant_dims
from nilorbits.roots import SimpleType, build_root_system
from nilorbits.sl2 import SL2Module
from nilorbits.verify import E_MODULES, suite_tables
from charutil import character
from rootdata import EXPONENTS

# the twelve exceptional pairs in catalog order
EXCEPTIONAL_PAIRS = [(ts, p) for ts in ("E6", "E7", "E8", "F4", "G2")
                     for p in catalog(SimpleType.parse(ts))]


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
        v = abs(sum(c * l for c, l in zip(r, labels)))
        out[v] = out.get(v, 0) + (2 if v == 0 else 1)
    return out


def module_profile(m: SL2Module) -> dict[int, int]:
    ch = character(m)
    return {i: ch[i] for i in range(0, m.max_weight + 1, 2) if ch.get(i)}


@pytest.mark.parametrize("key", sorted(E_MODULES))
def test_pair_records_regenerate(key):
    ts, desc = key
    t = SimpleType.parse(ts)
    pair = pair_by_descriptor(t, desc)
    m0, m1 = map(SL2Module.parse, E_MODULES[key])
    pd = decompose(pair)
    assert (pd.m0, pd.m1) == (m0, m1)
    # the even part carries the principal decomposition of g0
    assert m0 == principal_module(pair.g0.factors)
    assert m0.dim == pair.dim_g0 and m1.dim == pair.dim_g1
    # the recorded diagram is the unique even match for the total module
    want = module_profile(m0 + m1)
    hits = [labels for labels in product((0, 2), repeat=t.rank)
            if layer_profile(t, labels) == want]
    assert hits == [pd.orbit.wdd.labels]


@pytest.mark.parametrize("key", sorted(ORBITS))
def test_orbit_records_consistent(key):
    rec = ORBITS[key]
    wdd = rec.wdd
    assert all(v in (0, 2) for v in wdd.labels)
    prof = layer_profile(rec.type, wdd.labels)
    # even orbit: dim g^e = dim g^h, red = d(0) - d(2)
    dim, red, nil = kostant_dims(wdd.profile)
    assert dim == prof[0]
    assert red == prof[0] - prof.get(2, 0)
    assert nil == dim - red
    assert wdd.has_only_isolated_zeros()


def test_tampered_record_fails_the_tables_suite(monkeypatch):
    # a wrong E8(a4) diagram must show in every tables case that reads it;
    # the tampered diagram still contains M0 of E8/D8, so decompose builds
    # a decomposition from it instead of raising
    key = ("E8", "E8(a4)")
    tampered = WeightedDynkinDiagram(ORBITS[key].type,
                                     (2, 0, 0, 2, 0, 0, 2, 2))
    monkeypatch.setitem(ORBITS, key, replace(ORBITS[key], wdd=tampered))
    decompose.cache_clear()
    try:
        rep = suite_tables()
    finally:
        decompose.cache_clear()
    passed = {c.case_id: c.passed for c in rep.cases}
    for case_id in ("E8 E8(a4)", "E8 E8(a4) wdd", "E8 PI orbit"):
        assert passed[case_id] is False, case_id
    assert passed["E7 PI orbit"] and passed["E8 PI"]


def test_reductive_types_render_back_to_the_published_strings():
    # the published type is read by parse_factors; its dimension must be
    # the one the diagram's layers give, d(0) - d(2)
    assert len(EXCEPTIONAL_ROWS) == len(ORBITS) == 12
    for ts, _, _, _, _, label, _, red, _ in EXCEPTIONAL_ROWS:
        rec = ORBITS[(ts, label)]
        assert str(rec.red) == red, (ts, label)
        assert rec.red.dim == kostant_dims(rec.wdd.profile)[1], (ts, label)
        assert rec.red.is_toral == (red == "0" or red.startswith("t"))


def test_lookup_errors_list_known_labels():
    t = SimpleType("E", 6)
    rec = exceptional_lookup(t, "E6(a3)")
    assert kostant_dims(rec.wdd.profile)[0] == 12 and str(rec.red) == "0"
    with pytest.raises(KeyError) as err:
        exceptional_lookup(t, "E6(b17)")
    assert "E6(a1)" in str(err.value)


def test_every_exceptional_pair_has_a_record():
    for _, p in EXCEPTIONAL_PAIRS:
        pd = decompose(p)
        assert pd.m0.dim + pd.m1.dim == p.g.dimension


def test_published_modules_cover_the_exceptional_classes():
    # in catalog order, which the grids suite reports
    assert list(E_MODULES) == [(ts, p.descriptor)
                               for ts, p in EXCEPTIONAL_PAIRS]


@pytest.mark.parametrize("key,label", [(("E8", "E8(a3)"), "E8(b4)"),
                                       (("E7", "E6"), "(A5)''")],
                         ids=["wrong-subscript", "unreadable"])
def test_a_label_against_the_bala_carter_rule_fails_its_case(
        monkeypatch, key, label):
    # E8(b4) names 4 zeros where the diagram has 3; (A5)'' names no Levi
    # type that parse_factors reads
    monkeypatch.setitem(ORBITS, key, replace(ORBITS[key], label=label))
    rep = suite_tables()
    assert [c.case_id for c in rep.cases if not c.passed] \
        == [f"{key[0]} {label} label"]


def test_a_reductive_type_of_the_wrong_dimension_fails_its_case(
        monkeypatch):
    # A1 has the rank of t1, so the label case passes.  Planted in the
    # record, only the red case compares its dimension, 3, with
    # d(0) - d(2) = 1 of the diagram; planted in Table 1, only the case
    # that compares it with the PI pair's own grid fails
    key = ("E7", "E6(a1)")
    with monkeypatch.context() as mp:
        mp.setitem(ORBITS, key, replace(
            ORBITS[key], red=Reductive(parse_factors("A1"))))
        rep = suite_tables()
    assert [c.case_id for c in rep.cases if not c.passed] \
        == ["E7 E6(a1) red"]
    monkeypatch.setattr(verify, "_TABLE_EXCEPTIONAL", [
        row[:4] + ("A1",) + row[5:] if row[:3] == ("E7", "A7", "E6(a1)")
        else row for row in verify._TABLE_EXCEPTIONAL])
    rep = suite_tables()
    assert [c.case_id for c in rep.cases if not c.passed] == ["E7 E6(a1)"]


def test_one_orbit_row_per_exceptional_pair():
    # each catalog class names its g0 in exactly one row, and each row's
    # g0 is a catalog class of its type
    rows = {}
    for ts, g0, _, _, _, label, *_ in EXCEPTIONAL_ROWS:
        rows.setdefault((ts, g0), []).append(label)
    classes = {(ts, p.descriptor) for ts, p in EXCEPTIONAL_PAIRS}
    assert set(rows) == classes == set(PAIR_ORBITS)
    assert all(len(labels) == 1 for labels in rows.values()), rows
    assert len(EXCEPTIONAL_ROWS) == len(classes) == 12


# the twelve exceptional classes in catalog order, as the two tables that
# EXCEPTIONAL_ROWS merges recorded them: (type, g0, inner, black nodes,
# arrows, label of the orbit through an element regular in g0)
PINNED_CLASSES = [
    ("E6", "C4", False, (), (), "E6(a1)"),
    ("E6", "A5+A1", True, (), ((0, 5), (2, 4)), "E6(a3)"),
    ("E6", "D5+t1", True, (2, 3, 4), ((0, 5),), "D5"),
    ("E6", "F4", False, (1, 2, 3, 4), (), "E6"),
    ("E7", "A7", True, (), (), "E6(a1)"),
    ("E7", "D6+A1", True, (1, 4, 6), (), "E7(a3)"),
    ("E7", "E6+t1", True, (1, 2, 3, 4), (), "E6"),
    ("E8", "D8", True, (), (), "E8(a4)"),
    ("E8", "E7+A1", True, (1, 2, 3, 4), (), "E8(a3)"),
    ("F4", "C3+A1", True, (), (), "F4(a2)"),
    ("F4", "B4", True, (1, 2, 3), (), "F4(a1)"),
    ("G2", "A1+A1~", True, (), (), "G2(a1)"),
]


def test_exceptional_classes_are_pinned():
    got = [(ts, p.descriptor, p.inner, tuple(sorted(p.satake.black)),
            tuple(sorted(p.satake.arrows)), decompose(p).orbit.label)
           for ts, p in EXCEPTIONAL_PAIRS]
    assert got == PINNED_CLASSES

