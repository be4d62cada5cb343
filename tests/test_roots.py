from collections import Counter

import pytest

from nilorbits.gradings import decompose
from nilorbits.involutions import pi_involution
from nilorbits.roots import (SimpleType, all_simple_types,
                             beta_root, build_root_system, coxeter_number,
                             kappa_direct, kappa_root_count,
                             principal_inner_labels, principal_layer)
from nilorbits.verify import _classical_pi_row
from rootdata import EXPONENTS


def test_invalid_types_rejected():
    for fam, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("D", 3),
                      ("E", 5), ("E", 9), ("F", 3), ("F", 5), ("G", 3)]:
        with pytest.raises(ValueError):
            SimpleType(fam, rank)


def test_positive_root_counts():
    for t in all_simple_types(8):
        rs = build_root_system(t)
        assert len(rs.positive_roots) == t.num_positive_roots
        assert len(rs.roots_of_height(1)) == t.rank
        assert len(set(rs.positive_roots)) == len(rs.positive_roots)


def test_a2_smallest_case():
    rs = build_root_system(SimpleType("A", 2))
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    assert rs.highest_root == (1, 1)


def test_closure_matches_closed_forms_to_rank_24():
    """Kostant: #roots of height k = #{exponents >= k}; classical highest
    roots and Coxeter numbers in closed form."""
    for t in all_simple_types(24):
        rs = build_root_system(t)
        exps = list(EXPONENTS[t.family](t.rank))
        heights = Counter(map(sum, rs.positive_roots))
        assert heights == {k: sum(1 for e in exps if e >= k)
                           for k in range(1, max(exps) + 1)}, str(t)
        n = t.rank
        top, c = {"A": ((1,) * n, n + 1),
                  "B": ((1,) + (2,) * (n - 1), 2 * n),
                  "C": ((2,) * (n - 1) + (1,), 2 * n),
                  "D": ((1,) + (2,) * (n - 3) + (1, 1), 2 * n - 2),
                  }.get(t.family, (None, None))
        if top is not None:
            assert rs.highest_root == top, str(t)
            assert coxeter_number(rs) == c, str(t)


def test_recorded_parents_to_rank_24():
    """Each root is its recorded parent plus alpha_i, and the parent is a
    positive root one height lower (simple roots: no parent)."""
    for t in all_simple_types(24):
        rs = build_root_system(t)
        assert len(rs.parents) == len(rs.positive_roots), str(t)
        for k, (root, (j, i)) in enumerate(zip(rs.positive_roots,
                                               rs.parents)):
            alpha = tuple(int(x == i) for x in range(t.rank))
            if j is None:
                assert root == alpha, (str(t), root)
                continue
            parent = rs.positive_roots[j]
            assert j < k and sum(parent) == sum(root) - 1, (str(t), root)
            assert tuple(a + b for a, b in zip(parent, alpha)) == root, \
                (str(t), root)


def _string_walk_closure(t):
    """Reference closure: extend gamma by alpha_i whenever the alpha_i-string
    through gamma goes on, walking down the string to find p."""
    n, a = t.rank, t.cartan_matrix()
    simple = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    known, layer = set(simple), simple
    while layer:
        new_layer = []
        for g in layer:
            for i in range(n):
                pairing = sum(g[j] * a[i][j] for j in range(n))
                p = 0
                while g[:i] + (g[i] - p - 1,) + g[i + 1:] in known:
                    p += 1
                up = g[:i] + (g[i] + 1,) + g[i + 1:]
                if p - pairing > 0 and up not in known:
                    known.add(up)
                    new_layer.append(up)
        layer = new_layer
    return sorted(known, key=lambda c: (sum(c), c))


def test_closure_matches_string_walk_to_rank_24():
    for t in all_simple_types(24):
        rs = build_root_system(t)
        assert list(rs.positive_roots) == _string_walk_closure(t), str(t)


def test_g2_closure():
    rs = build_root_system(SimpleType("G", 2))
    assert set(rs.positive_roots) == \
        {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
    assert rs.highest_root == (3, 2)
    assert rs.type.short_nodes() == frozenset({0})


def test_e8_count():
    rs = build_root_system(SimpleType("E", 8))
    assert len(rs.positive_roots) == 120


def test_highest_root_unique_maximum():
    for t in all_simple_types(8):
        rs = build_root_system(t)
        top = sum(rs.highest_root)
        assert sum(1 for r in rs.positive_roots if sum(r) == top) == 1


def test_tuple_rules_match_their_definitions_to_rank_24():
    # is_long reads the top simple-root length and highest_root the last
    # root, and the simple roots come first; each against the rule it
    # replaced: the largest norm2 of a simple root, a max by height, and
    # the roots of height 1
    for t in all_simple_types(24):
        rs = build_root_system(t)
        roots, n = rs.positive_roots, t.rank
        simple = {tuple(int(j == i) for j in range(n)) for i in range(n)}
        assert set(roots[:n]) == set(rs.roots_of_height(1)) == simple, str(t)
        top = max(map(rs.norm2, simple))
        assert all(rs.is_long(r) == (rs.norm2(r) == top) for r in roots), \
            str(t)
        tallest = max(map(sum, roots))
        assert [r for r in roots if sum(r) == tallest] == \
            [rs.highest_root], str(t)


@pytest.mark.parametrize("t,c", [
    (SimpleType("A", 1), 2),
    (SimpleType("A", 4), 5),      # odd Coxeter number: sl_odd
    (SimpleType("G", 2), 6),
    (SimpleType("F", 4), 12),
    (SimpleType("E", 8), 30),
    (SimpleType("B", 4), 8),
    (SimpleType("D", 6), 10),
])
def test_coxeter_numbers(t, c):
    assert coxeter_number(build_root_system(t)) == c


def test_coxeter_parity():
    for t in all_simple_types(9):
        c = coxeter_number(build_root_system(t))
        odd_type = t.family == "A" and t.rank % 2 == 0
        assert (c % 2 == 1) == odd_type


@pytest.mark.parametrize("t,k", [
    (SimpleType("A", 5), 3),
    (SimpleType("D", 8), 5),
    (SimpleType("G", 2), 1),
    (SimpleType("A", 1), 1),
])
def test_kappa_values(t, k):
    assert kappa_direct(t) == k
    assert kappa_root_count(build_root_system(t)) == k


def test_kappa_identity_rank_12():
    for t in all_simple_types(12):
        rs = build_root_system(t)
        assert kappa_root_count(rs) == kappa_direct(t), str(t)


def test_principal_layers():
    rs = build_root_system(SimpleType("A", 3))
    assert set(principal_layer(rs, 1)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert principal_layer(rs, 0) == ()
    assert principal_layer(rs, 99) == ()
    assert principal_layer(rs, -3) == ((-1, -1, -1),)
    for t in all_simple_types(8):
        rs = build_root_system(t)
        assert len(principal_layer(rs, 2)) == t.rank - 1
        assert principal_layer(rs, sum(rs.highest_root)) == \
            (rs.highest_root,)


@pytest.mark.parametrize("t,coeffs", [
    (SimpleType("B", 4), (0, 1, 1, 2)),
    (SimpleType("G", 2), (3, 1)),
    (SimpleType("F", 4), (0, 2, 1, 1)),
    (SimpleType("E", 6), (0, 1, 1, 1, 1, 0)),
    (SimpleType("D", 4), (1, 1, 1, 1)),
])
def test_beta_root_values(t, coeffs):
    beta = beta_root(build_root_system(t))
    assert beta == coeffs
    assert sum(beta) == 4


def test_beta_root_excluded_types():
    for t in [SimpleType("A", 4), SimpleType("C", 3), SimpleType("B", 2)]:
        with pytest.raises(ValueError):
            beta_root(build_root_system(t))


def test_beta_not_sum_of_layer2():
    for t in all_simple_types(8):
        if t.family in ("A", "C") or (t.family, t.rank) == ("B", 2):
            continue
        rs = build_root_system(t)
        beta = beta_root(rs)
        layer2 = principal_layer(rs, 2)
        for x in layer2:
            for y in layer2:
                assert tuple(a + b for a, b in zip(x, y)) != beta
        assert rs.is_long(beta)


# The rules below are the hand-written ones the root system now derives;
# they stay here as references for the derivations.

def _family_beta(t):
    """beta by family: B_n: a_{n-2} + a_{n-1} + 2 a_n; F4: (0,2,1,1);
    G2: (3,1); D and E: the branch node plus its three neighbours; None for
    A, C and B2."""
    n = t.rank
    if t.family in ("A", "C") or (t.family, n) == ("B", 2):
        return None
    if t.family == "B":
        return (0,) * (n - 3) + (1, 1, 2)
    if t.family == "F":
        return (0, 2, 1, 1)
    if t.family == "G":
        return (3, 1)
    adj = t.adjacency()
    branch = next(i for i in range(n) if len(adj[i]) == 3)
    return tuple(int(i == branch or i in adj[branch]) for i in range(n))


def _length_table(t):
    """Half squared norms of the simple roots, short roots 1."""
    n = t.rank
    return {"B": (2,) * (n - 1) + (1,), "C": (1,) * (n - 1) + (2,),
            "F": (1, 1, 2, 2), "G": (1, 3)}.get(t.family, (1,) * n)


def _enumerated_types(max_rank):
    """A_n (n >= 1), B_n and C_n (n >= 2), D_n (n >= 4), E6-E8, F4, G2."""
    low = {"A": 1, "B": 2, "C": 2, "D": 4}
    out = [SimpleType(f, r) for f in "ABCD"
           for r in range(low[f], max_rank + 1)]
    out += [SimpleType("E", r) for r in (6, 7, 8) if r <= max_rank]
    if max_rank >= 4:
        out.append(SimpleType("F", 4))
    if max_rank >= 2:
        out.append(SimpleType("G", 2))
    return out


def test_type_list_matches_enumeration():
    for max_rank in range(0, 31):
        assert all_simple_types(max_rank) == _enumerated_types(max_rank)


def test_root_lengths_match_table_to_rank_30():
    for t in all_simple_types(30):
        assert t.root_lengths() == _length_table(t), str(t)
        a, d = t.cartan_matrix(), t.root_lengths()
        assert all(d[i] * a[i][j] == d[j] * a[j][i]
                   for i in range(t.rank) for j in range(t.rank)), str(t)


def test_beta_matches_family_rule_to_rank_30():
    for t in all_simple_types(30):
        want = _family_beta(t)
        rs = build_root_system(t)
        if want is None:
            with pytest.raises(ValueError):
                beta_root(rs)
        else:
            assert beta_root(rs) == want, str(t)


def test_principal_inner_labels_match_pi_orbit_to_rank_16():
    for t in all_simple_types(16):
        if t == SimpleType("A", 1):
            continue    # toral g0: e_sigma = 0
        labels = principal_inner_labels(build_root_system(t))
        assert labels == decompose(pi_involution(t)).orbit.wdd.labels, \
            str(t)
        if t.family in "ABCD" and t != SimpleType("B", 2):
            assert labels == _classical_pi_row(t)[1], str(t)


def test_json_shape():
    assert SimpleType("G", 2).to_json() == {"family": "G", "rank": 2}


def test_ambient_round_trip_and_dimensions():
    exceptional = {"E6": 78, "E7": 133, "E8": 248, "F4": 52, "G2": 14}
    for t in all_simple_types(24):
        if t.ambient is None:
            assert t.dimension == exceptional[str(t)]
            continue
        kind, n = t.ambient
        assert SimpleType.of_ambient(kind, n) == t
        assert t.dimension == {"sl": n * n - 1, "so": n * (n - 1) // 2,
                               "sp": n * (n + 1) // 2}[kind]
    for n in (1, 3, 7):
        with pytest.raises(ValueError):
            SimpleType.of_ambient("sp", n)
