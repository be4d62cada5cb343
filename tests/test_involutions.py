import pytest

from nilorbits import involutions
from nilorbits.involutions import (SatakeDiagram, catalog, ibn_signature,
                                   identify_ibn, maximal_rank,
                                   max_orbit_meeting_g1, orbit_meets_g1,
                                   pair_by_descriptor, pi_involution,
                                   so_pair_ibn)
from nilorbits.orbits import (ClassicalOrbit, Partition, WeightedDynkinDiagram,
                              wdd_from_partition)
from nilorbits.roots import SimpleType, all_simple_types


def test_catalog_contents():
    g2 = catalog(SimpleType("G", 2))
    assert [p.descriptor for p in g2] == ["A1+A1~"]
    assert g2[0].is_maximal_rank
    e6 = {p.descriptor for p in catalog(SimpleType("E", 6))}
    assert e6 == {"C4", "A5+A1", "D5+t1", "F4"}
    a3 = {p.descriptor for p in catalog(SimpleType("A", 3))}
    assert a3 == {"so4", "sp4", "gl1+gl3", "gl2+gl2"}
    a1 = catalog(SimpleType("A", 1))
    assert len(a1) == 1 and a1[0].dim_g0 == 1


def test_dimension_identities_and_bound():
    for t in all_simple_types(10):
        for p in catalog(t):
            assert p.dim_g0 + p.dim_g1 == t.dimension
            assert p.signature <= t.rank
            assert p.is_maximal_rank == (p.signature == t.rank)


def test_maximal_rank_classes():
    assert maximal_rank(SimpleType("A", 5)).descriptor == "so6"
    assert maximal_rank(SimpleType("E", 7)).descriptor == "A7"
    assert maximal_rank(SimpleType("F", 4)).descriptor == "C3+A1"
    assert maximal_rank(SimpleType("C", 4)).descriptor == "gl4"
    assert maximal_rank(SimpleType("D", 7)).descriptor == "so7+so7"
    assert maximal_rank(SimpleType("B", 5)).descriptor == "so6+so5"
    for t in all_simple_types(9):
        mr = maximal_rank(t)
        assert not mr.satake.black and not mr.satake.arrows


def test_pi_involutions():
    assert pi_involution(SimpleType("C", 6)).descriptor == "gl6"
    assert pi_involution(SimpleType("D", 6)).descriptor == "so6+so6"
    assert pi_involution(SimpleType("E", 8)).descriptor == "D8"
    assert pi_involution(SimpleType("A", 6)).descriptor == "gl3+gl4"
    for t in all_simple_types(9):
        pi = pi_involution(t)
        assert pi.inner
        assert not pi.satake.black


def closed_form_pi(t: SimpleType) -> str:
    """The principal inner class by the family rules of the tables."""
    fam, r = t.family, t.rank
    if fam == "A":
        n = r + 1
        return "so2" if n == 2 else f"gl{n // 2}+gl{n - n // 2}"
    if fam == "B":
        return f"so{r + 1}+so{r}"
    if fam == "C":
        return f"gl{r}"
    if fam == "D":
        return f"so{r}+so{r}" if r % 2 == 0 else f"so{r + 1}+so{r - 1}"
    return {"E6": "A5+A1", "E7": "A7", "E8": "D8", "F4": "C3+A1",
            "G2": "A1+A1~"}[str(t)]


def test_pi_involution_matches_closed_form_to_rank_40():
    for t in all_simple_types(40):
        assert pi_involution(t).descriptor == closed_form_pi(t), str(t)


def test_pi_involution_must_be_unique(monkeypatch):
    t = SimpleType("C", 4)
    twice = catalog(t) + (pi_involution(t),)
    monkeypatch.setattr(involutions, "catalog", lambda _: twice)
    with pytest.raises(RuntimeError, match="not unique"):
        pi_involution.__wrapped__(t)


def test_ibn_signature_formula():
    for t in all_simple_types(10):
        for p in catalog(t):
            if p.satake.ibn:
                assert ibn_signature(p.satake) == p.signature, \
                    (str(t), p.descriptor)


def test_ibn_signature_requires_ibn():
    f4 = pair_by_descriptor(SimpleType("F", 4), "B4")
    assert not f4.satake.ibn
    with pytest.raises(ValueError):
        ibn_signature(f4.satake)


def test_signature_injective_on_ibn():
    # the lone exception is D4, whose gl_4 and so_2+so_6 classes are
    # exchanged by triality and share signature -4
    for t in all_simple_types(10):
        seen = {}
        for p in catalog(t):
            if not p.satake.ibn:
                continue
            sig = ibn_signature(p.satake)
            if sig in seen:
                assert str(t) == "D4" and \
                    {seen[sig], p.descriptor} == {"gl4", "so6+so2"}
            seen.setdefault(sig, p.descriptor)


def test_identify_ibn():
    assert identify_ibn(SimpleType("D", 5), 3).descriptor == "so6+so4"
    assert identify_ibn(SimpleType("D", 6), 6).descriptor == "so6+so6"
    assert identify_ibn(SimpleType("E", 7), -5).descriptor == "D6+A1"
    with pytest.raises(KeyError):
        identify_ibn(SimpleType("E", 7), 1)
    with pytest.raises(KeyError):
        identify_ibn(SimpleType("D", 4), -4)  # triality twins
    assert identify_ibn(SimpleType("A", 5), 1).descriptor == "gl3+gl3"


def test_identify_ibn_orbit_filter():
    # gl4 has black nodes {1, 3}, so6+so2 has {3, 4}: the orbit separates
    # the triality twins, and an orbit meeting neither is a KeyError
    d4 = SimpleType("D", 4)
    wdd = WeightedDynkinDiagram(d4, (0, 2, 0, 2))
    assert identify_ibn(d4, -4, True, wdd).descriptor == "gl4"
    with pytest.raises(KeyError, match="meeting the orbit"):
        identify_ibn(d4, -4, True, WeightedDynkinDiagram(d4, (2, 2, 2, 2)))


def test_so_pair_ibn_rule():
    assert so_pair_ibn(5, 3) and not so_pair_ibn(9, 3) and so_pair_ibn(7, 7)
    with pytest.raises(ValueError):
        so_pair_ibn(0, 3)
    for t in all_simple_types(12):
        if t.family not in "BD":
            continue
        for p in catalog(t):
            if p.descriptor.startswith("so"):
                a, b = (f[1] for f in p.factors)
                assert p.satake.ibn == so_pair_ibn(max(a, 1), max(b, 1)), \
                    (str(t), p.descriptor)


def test_satake_renders():
    p = pair_by_descriptor(SimpleType("E", 7), "D6+A1")
    assert p.satake.render() == "○●○○●○●"
    p = pair_by_descriptor(SimpleType("A", 5), "gl2+gl4")
    assert "arrows" in p.satake.render()


def test_orbit_meets_g1():
    e7 = SimpleType("E", 7)
    wdd = WeightedDynkinDiagram(e7, (2, 0, 0, 2, 0, 2, 2))  # E7(a3)
    sat = pair_by_descriptor(e7, "D6+A1").satake
    assert not orbit_meets_g1(wdd, sat)
    assert orbit_meets_g1(wdd, pair_by_descriptor(e7, "A7").satake)
    zero = WeightedDynkinDiagram(e7, (0,) * 7)
    for p in catalog(e7):
        assert orbit_meets_g1(zero, p.satake)
    # maximal-rank diagrams accept every orbit
    for t in all_simple_types(6):
        sat = maximal_rank(t).satake
        full = WeightedDynkinDiagram(t, (2,) * t.rank)
        assert orbit_meets_g1(full, sat)


def test_orbit_meets_g1_arrow_condition():
    a3 = SimpleType("A", 3)
    sat = pair_by_descriptor(a3, "gl2+gl2").satake  # arrow 1 <-> 3
    sym = wdd_from_partition(ClassicalOrbit("sl", 4, Partition.parse("(2,2)")))
    assert orbit_meets_g1(sym, sat)
    skew = WeightedDynkinDiagram(a3, (2, 1, 0))
    assert not orbit_meets_g1(skew, sat)


def test_orbit_meets_type_mismatch():
    wdd = WeightedDynkinDiagram(SimpleType("A", 2), (2, 2))
    sat = maximal_rank(SimpleType("A", 3)).satake
    with pytest.raises(ValueError):
        orbit_meets_g1(wdd, sat)


def test_max_orbit_meeting_g1():
    p = pair_by_descriptor(SimpleType("E", 7), "D6+A1")
    wdd = max_orbit_meeting_g1(p.satake)
    assert wdd.labels == (2, 0, 2, 2, 0, 2, 0)
    mr = maximal_rank(SimpleType("B", 3))
    assert max_orbit_meeting_g1(mr.satake).labels == (2, 2, 2)


def test_descriptor_normalisation():
    b4 = SimpleType("B", 4)
    assert pair_by_descriptor(b4, "so8").descriptor == "so8+so1"
    assert pair_by_descriptor(b4, "so4+so5").descriptor == "so5+so4"
    a5 = SimpleType("A", 5)
    assert pair_by_descriptor(a5, "C3").descriptor == "sp6"
    assert pair_by_descriptor(a5, "s(gl4+gl2)").descriptor == "gl2+gl4"
    assert pair_by_descriptor(SimpleType("D", 5), "D2+D3").descriptor \
        == "so6+so4"
    with pytest.raises(KeyError):
        pair_by_descriptor(b4, "gl4")


def test_satake_arrow_validation():
    with pytest.raises(ValueError):
        SatakeDiagram(SimpleType("A", 3), frozenset({0}),
                      frozenset({(0, 2)}))
