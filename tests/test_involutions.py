import pytest

from nilorbits import involutions
from nilorbits.involutions import (Reductive, SatakeDiagram, catalog,
                                   factor_str, ibn_signature, identify_ibn,
                                   maximal_rank, orbit_meets_g1,
                                   pair_by_descriptor, parse_factors,
                                   pi_involution, so_pair_ibn)
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


def zero_diagram(t):
    """The diagram of the zero orbit, which meets every odd part."""
    return WeightedDynkinDiagram(t, (0,) * t.rank)


def _inner_ibn(ts, diff):
    t = SimpleType.parse(ts)
    return identify_ibn(t, diff, True, zero_diagram(t))


def test_identify_ibn():
    assert _inner_ibn("D5", 3).descriptor == "so6+so4"
    assert _inner_ibn("D6", 6).descriptor == "so6+so6"
    assert _inner_ibn("E7", -5).descriptor == "D6+A1"
    with pytest.raises(KeyError):
        _inner_ibn("E7", 1)
    with pytest.raises(KeyError):
        _inner_ibn("D4", -4)  # triality twins
    assert _inner_ibn("A5", 1).descriptor == "gl3+gl3"


def test_identify_ibn_orbit_filter():
    # gl4 has black nodes {1, 3}, so6+so2 has {3, 4}: the orbit separates
    # the triality twins, and an orbit meeting neither is a KeyError
    d4 = SimpleType("D", 4)
    wdd = WeightedDynkinDiagram(d4, (0, 2, 0, 2))
    assert identify_ibn(d4, -4, True, wdd).descriptor == "gl4"
    with pytest.raises(KeyError, match="meeting the orbit"):
        identify_ibn(d4, -4, True, WeightedDynkinDiagram(d4, (2, 2, 2, 2)))


def test_identify_ibn_keeps_its_messages():
    d4, e7 = SimpleType("D", 4), SimpleType("E", 7)
    z4, z7 = zero_diagram(d4), zero_diagram(e7)
    none_e7 = ("no IBN class of E7 with signature 1 meeting the orbit "
               "(0, 0, 0, 0, 0, 0, 0); available: ")
    for args, message in (
            ((d4, -4, True, z4), "signature -4 is ambiguous for D4 meeting "
             "the orbit (0, 0, 0, 0): ['so6+so2', 'gl4'] (triality twins)"),
            ((e7, 1, True, z7), none_e7 + "[(-5, 'D6+A1'), (7, 'A7')]"),
            ((e7, 1, False, z7), none_e7 + "[]")):
        with pytest.raises(KeyError) as got:
            identify_ibn(*args)
        assert got.value.args == (message,)


def test_so_pair_ibn_rule():
    assert so_pair_ibn(5, 3) and not so_pair_ibn(9, 3) and so_pair_ibn(7, 7)
    with pytest.raises(ValueError):
        so_pair_ibn(0, 3)
    for t in all_simple_types(12):
        if t.family not in "BD":
            continue
        for p in catalog(t):
            if p.descriptor.startswith("so"):
                a, b = (f[1] for f in p.g0.factors)
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


def _cartan_form(f) -> str:
    kind, n = f
    if kind == "so" and n >= 3:
        return f"{'B' if n % 2 else 'D'}{n // 2}"
    return f"C{n // 2}" if kind == "sp" else factor_str(f)


def test_every_class_resolves_from_each_form_of_its_descriptor():
    classes = 0
    for t in all_simple_types(24):
        for p in catalog(t):
            classes += 1
            factors = p.g0.factors
            forms = [p.descriptor, f"s({p.descriptor})",
                     "+".join(factor_str(f) for f in reversed(factors))]
            if t.ambient is not None:
                forms.append("+".join(_cartan_form(f) for f in factors))
            if t.family in "BD" and factors[0][0] == "so":
                forms += [factor_str(f) for f in factors]  # bare so<k>
            for text in forms:
                assert pair_by_descriptor(t, text) is p, (str(t), text)
    assert classes == 983


def test_exceptional_descriptors_in_either_order():
    e6, g2 = SimpleType("E", 6), SimpleType("G", 2)
    assert pair_by_descriptor(e6, "A1+A5").descriptor == "A5+A1"
    assert pair_by_descriptor(e6, "t1+D5").descriptor == "D5+t1"
    assert pair_by_descriptor(g2, "A1~+A1").descriptor == "A1+A1~"


def test_parse_factors():
    assert parse_factors("so8+so1") == (("so", 8), ("so", 1))
    assert parse_factors("A5+A1~") == (("A", 5), ("A~", 1))
    assert parse_factors("t1") == (("t", 1),)
    assert parse_factors("0") == ()
    for text, part in (("so8+soX", "'soX'"), ("gl", "'gl'"), ("B1~", "'B1~'"),
                       ("sl²", "'sl²'"), ("so+so4", "'so'")):
        with pytest.raises(ValueError, match=part):
            parse_factors(text)
    for text in ("", "gl2+", "+A1"):
        with pytest.raises(ValueError, match="empty part"):
            parse_factors(text)


def test_reductive_numbers():
    g0 = Reductive((("gl", 2), ("gl", 3)), traced=True)
    assert (g0.dim, g0.rank, g0.center_dim) == (12, 4, 1)
    assert not g0.is_toral and str(g0) == "s(gl2+gl3)"
    assert g0.descriptor == "gl2+gl3"
    e6 = Reductive((("D", 5), ("t", 1)))
    assert (e6.dim, e6.rank, e6.center_dim) == (46, 6, 1)
    assert str(Reductive((("so", 2), ("so", 1)))) == "t1"
    assert str(Reductive((("gl", 1), ("gl", 1)), traced=True)) == "t1"
    assert str(Reductive((("A", 1), ("A~", 1)))) == "A1+A1~"


def test_satake_arrow_validation():
    with pytest.raises(ValueError):
        SatakeDiagram(SimpleType("A", 3), frozenset({0}),
                      frozenset({(0, 2)}))
