import copy
import random
from dataclasses import replace
from itertools import product

import pytest

from nilorbits import oracle, verify
from nilorbits.gradings import decompose, decompose_classical, grading_grid
from nilorbits.involutions import catalog, pair_by_descriptor
from nilorbits.linalg import commutator, mat_mul, rank, zeros
from nilorbits.orbits import (ClassicalOrbit, Partition, all_partitions,
                              centralizer_dims, half_orbit, is_divisible,
                              valid_partitions)
from nilorbits.oracle import (RealizedPair, SL2Triple, centralizer_dim,
                              ker_ad_squared, oracle_grid, oracle_sizes,
                              realize_pair, triple_from_partition)
from nilorbits.roots import SimpleType, all_simple_types
from nilorbits.verify import suite_oracle, swept_pairs
from test_linalg import as_dicts


def P(text):
    return Partition.parse(text)


def test_rank_basics():
    assert rank(as_dicts([[1, 2], [2, 4]])) == 1
    assert rank(as_dicts([[0, 0], [0, 0]])) == 0
    assert rank(as_dicts([[2, 0, 1], [0, 3, 1], [2, 3, 2]])) == 2
    assert rank(as_dicts([[1, 2, 3], [4, 5, 6], [7, 8, 10]])) == 3


def test_standard_sl2_triple():
    t = triple_from_partition("sl", 2, P("(2)"))
    assert t.e == {(0, 1): 1}
    assert t.h == [1, -1]
    assert t.f == {(1, 0): 1}


def test_triple_relations_everywhere():
    cases = [("sl", 6, "(3,2,1)"), ("so", 9, "(5,3,1)"), ("so", 8, "(3,3,1,1)"),
             ("sp", 8, "(4,2,2)"), ("sp", 6, "(3,3)"), ("so", 10, "(4,4,1,1)")]
    for kind, n, lam in cases:
        t = triple_from_partition(kind, n, P(lam))
        assert t.check_relations(), (kind, n, lam)


def dense(t):
    """e, h, f and the form of t as dense matrices (the form None on sl)."""
    form = None if t.form is None else oracle._dense(
        {(i, c): b for i, (c, b) in enumerate(t.form)}, t.n)
    return (oracle._dense(t.e, t.n), oracle._dense(oracle._diagonal(t.h), t.n),
            oracle._dense(t.f, t.n), form)


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def transpose(a):
    return [list(row) for row in zip(*a)]


def dense_relations(t):
    """Reference for SL2Triple.check_relations by dense products:
    [h, e] = 2e, [e, f] = h, [h, f] = -2f and, with a form,
    x^T B = -B x for x = e, h, f."""
    e, h, f, form = dense(t)
    ok = (commutator(h, e) == mat_scale(e, 2) and commutator(e, f) == h
          and commutator(h, f) == mat_scale(f, -2))
    if ok and form is not None:
        ok = all(mat_mul(transpose(x), form) ==
                 mat_scale(mat_mul(form, x), -1) for x in (e, h, f))
    return ok


def relabelled(t, perm):
    """t in the basis reordered by perm: basis vector a is the old basis
    vector perm[a]."""
    new = {old: a for a, old in enumerate(perm)}

    def relabel(x):
        return {(new[r], new[c]): v for (r, c), v in x.items()}

    form = None if t.form is None else \
        [(new[t.form[a][0]], t.form[a][1]) for a in perm]
    return SL2Triple(t.kind, t.n, relabel(t.e), [t.h[a] for a in perm],
                     relabel(t.f), form)


def oracle_triples(max_n):
    """Every triple_from_partition of oracle_sizes(max_n) and every
    realize_pair triple of the classical pairs the oracle suite sweeps."""
    out = [triple_from_partition(kind, n, o.partition)
           for kind, ns in oracle_sizes(max_n).items() for n in ns
           for o in valid_partitions(kind, n)]
    out += [realize_pair(p).triple
            for p in swept_pairs(max_n - 1)
            if p.g.ambient is not None and p.g.ambient[1] <= max_n]
    return out


def test_relations_match_the_dense_reference():
    rng = random.Random(20248)
    triples = oracle_triples(9)
    assert len(triples) >= 200
    for t in triples:
        assert t.check_relations() is dense_relations(t) is True, t
        u = relabelled(t, rng.sample(range(t.n), t.n))
        assert u.check_relations() is dense_relations(u) is True, u


def relation_mutants(t):
    """(name, triple) of copies of t, whose e is not 0, with one entry
    changed, and with f added to e or e to f, which keeps [e, f] = h and
    the form.  Every mutant but the last two breaks a relation of
    dense_relations; the last two have a form that is not a +-1
    permutation."""
    yield "e + f", replace(t, e={**t.e, **t.f})
    yield "f + e", replace(t, f={**t.f, **t.e})
    e_rc, f_rc = next(iter(t.e)), next(iter(t.f))
    yield "e entry", replace(t, e={**t.e, e_rc: t.e[e_rc] + 1})
    yield "f entry", replace(t, f={**t.f, f_rc: t.f[f_rc] + 1})
    yield "h entry", replace(t, h=[t.h[0] + 1] + t.h[1:])
    if t.form is None:
        return
    # a sign flipped in the row that meets the first entry of e, b_0
    # doubled, and p(0) = p(1)
    for name, r, entry in (
            ("form sign", e_rc[0], (t.form[e_rc[0]][0], -t.form[e_rc[0]][1])),
            ("form entry not +-1", 0, (t.form[0][0], 2 * t.form[0][1])),
            ("form not a permutation", 0, t.form[1])):
        form = list(t.form)
        form[r] = entry
        yield name, replace(t, form=form)


def test_relation_mutants_fail():
    checked = 0
    for t in oracle_triples(9):
        if not t.e:
            continue
        for name, u in relation_mutants(t):
            assert u.check_relations() is False, (name, u)
            if name not in ("form entry not +-1", "form not a permutation"):
                assert dense_relations(u) is False, (name, u)
            checked += 1
    assert checked >= 1250


def test_oracle_grid_rejects_a_tampered_triple(monkeypatch):
    real = oracle.realize_pair

    def tampered(*args):
        rp = real(*args)
        rc = next(iter(rp.triple.f))
        rp.triple.f[rc] *= 2
        return rp

    monkeypatch.setattr(oracle, "realize_pair", tampered)
    p = pair_by_descriptor(SimpleType("B", 3), "so4+so3")
    with pytest.raises(RuntimeError, match="triple relations failed"):
        oracle_grid(p)


def test_h_eigenvalues():
    t = triple_from_partition("so", 7, P("(3,3,1)"))
    assert t.h == [2, 0, -2, 2, 0, -2, 0]
    t = triple_from_partition("sp", 4, P("(2,2)"))
    assert sorted(t.h) == [-1, -1, 1, 1]


def test_invalid_partition_rejected():
    with pytest.raises(ValueError):
        triple_from_partition("so", 6, P("(4,2)"))


@pytest.mark.parametrize("kind,n,lam,expect", [
    ("so", 7, "(3,3,1)", 7),
    ("sl", 4, "(4)", 3),
    ("sp", 4, "(2,2)", 4),
])
def test_centralizer_examples(kind, n, lam, expect):
    t = triple_from_partition(kind, n, P(lam))
    assert centralizer_dim(t) == expect


def test_centralizer_formula_agreement():
    for kind, sizes in [("sl", range(2, 13)), ("so", range(3, 13)),
                        ("sp", range(2, 13, 2))]:
        for n in sizes:
            for o in valid_partitions(kind, n):
                t = triple_from_partition(kind, n, o.partition)
                assert centralizer_dim(t) == centralizer_dims(o)[0], o


def gl_kernel_dim(parts, k):
    """dim ker(ad e)^k on gl_n.  ad e is the sum over pairs of Jordan blocks
    of J_a (x) J_b, whose Jordan blocks have sizes a+b-1-2t for t < min(a, b)
    (Clebsch-Gordan)."""
    return sum(min(k, a + b - 1 - 2 * t)
               for a in parts for b in parts for t in range(min(a, b)))


def test_sl_kernels_match_clebsch_gordan():
    for n in range(2, 13):
        for o in valid_partitions("sl", n):
            t = triple_from_partition("sl", n, o.partition)
            parts = o.partition.parts
            assert centralizer_dim(t) == gl_kernel_dim(parts, 1) - 1, o
            assert ker_ad_squared(t) == gl_kernel_dim(parts, 2) - 1, o


def kernel_dim(kind, parts, k):
    """dim ker(ad e)^k on sl_n, so_n = L^2 V or sp_n = S^2 V, with V the sum
    of the strings V_a.  In V_a (x) V_a the terms V_{2a-1-2t} with t odd
    make up L^2 V_a and those with t even S^2 V_a."""
    if kind == "sl":
        return gl_kernel_dim(parts, k) - 1
    cross = sum(min(k, a + b - 1 - 2 * t) for i, a in enumerate(parts)
                for b in parts[i + 1:] for t in range(min(a, b)))
    odd = kind == "so"
    return cross + sum(min(k, 2 * a - 1 - 2 * t) for a in parts
                       for t in range(a) if t % 2 == odd)


@pytest.mark.parametrize("n", [10, 11, 12, 13])
def test_kernels_match_closed_forms(n):
    for kind in ("sl", "so", "sp"):
        if n not in oracle_sizes(n)[kind]:
            continue
        for o in valid_partitions(kind, n):
            t = triple_from_partition(kind, n, o.partition)
            parts = o.partition.parts
            assert centralizer_dim(t) == centralizer_dims(o)[0] == \
                kernel_dim(kind, parts, 1), o
            assert ker_ad_squared(t) == kernel_dim(kind, parts, 2), o


@pytest.mark.parametrize("kind,lam", [
    ("sl", "(20,20)"), ("so", "(9,9,7,7,5,3)"), ("sp", "(8,8,6,6,4,4,2,2)")])
def test_kernels_at_n_40(kind, lam):
    o = ClassicalOrbit(kind, 40, P(lam))
    t = triple_from_partition(kind, 40, o.partition)
    assert centralizer_dim(t) == centralizer_dims(o)[0]
    assert ker_ad_squared(t) == kernel_dim(kind, o.partition.parts, 2)


def test_kernels_of_triples_that_are_not_upper_triangular():
    # the gl_m realisations in so_2m/sp_2m act as -x^T on W*
    for ts, g0 in [("D4", "gl4"), ("D5", "gl5"), ("C3", "gl3"),
                   ("C4", "gl4")]:
        p = pair_by_descriptor(SimpleType.parse(ts), g0)
        kind, n = p.g.ambient
        for o in valid_partitions("sl", n // 2):
            t = realize_pair(p, [o.partition]).triple
            doubled = Partition.of(*o.partition.parts * 2)
            assert centralizer_dim(t) == \
                centralizer_dims(ClassicalOrbit(kind, n, doubled))[0], o
            assert ker_ad_squared(t) == \
                kernel_dim(kind, doubled.parts, 2), o


def test_kernels_do_not_depend_on_the_order_of_the_basis():
    # relabelling the basis by a random permutation scatters e on both
    # sides of the diagonal, so the image of A = E_ij +- E_ji needs both
    # of its terms
    rng = random.Random(20246)
    for kind, n, lam in [("sl", 6, "(3,2,1)"), ("so", 8, "(3,3,1,1)"),
                         ("so", 9, "(5,3,1)"), ("sp", 8, "(4,2,2)"),
                         ("sp", 6, "(3,3)"), ("sp", 8, "(2,2,2,2)")]:
        t = triple_from_partition(kind, n, P(lam))
        want = (centralizer_dim(t), ker_ad_squared(t))
        for _ in range(5):
            perm = rng.sample(range(n), n)
            u = relabelled(t, perm)
            assert u.check_relations(), (kind, n, lam, perm)
            assert (centralizer_dim(u), ker_ad_squared(u)) == want, perm


def test_ad_blocks_match_dense_images():
    # row k of block w is the image under ad e of coordinate k, computed
    # densely ([e, E_ij] on sl, -(e^T A + A e) with A = E_ij +- E_ji on
    # so/sp) and read off at the coordinates of weight w + 2
    rng = random.Random(20249)
    for t in oracle_triples(8):
        for u in (t, relabelled(t, rng.sample(range(t.n), t.n))):
            blocks = oracle._weight_blocks(u.kind, u.h)
            size, ad = u.ad_blocks
            e = dense(u)[0]
            assert size == sum(map(len, blocks.values()))
            for w, cs in blocks.items():
                rows = []
                for i, j in cs:
                    a = zeros(u.n, u.n)
                    a[i][j] = 1
                    if u.kind == "sl":
                        img = commutator(e, a)
                    else:
                        if i != j:
                            a[j][i] = -1 if u.kind == "so" else 1
                        img = mat_sub(mat_scale(mat_mul(transpose(e), a),
                                                -1), mat_mul(a, e))
                    rows.append({k: img[r][c] for k, (r, c) in
                                 enumerate(blocks.get(w + 2, []))
                                 if img[r][c]})
                assert ad[w] == rows, (u, w)


def test_kernel_dims_do_not_depend_on_the_call_order():
    # rank reads the cached ad e rows without copying them, so it must not
    # change them
    for kind, ns in oracle_sizes(8).items():
        for n in ns:
            for o in valid_partitions(kind, n):
                a = triple_from_partition(kind, n, o.partition)
                b = triple_from_partition(kind, n, o.partition)
                rows = copy.deepcopy(a.ad_blocks)
                first = [centralizer_dim(a), ker_ad_squared(a),
                         centralizer_dim(a), ker_ad_squared(a)]
                second = [ker_ad_squared(b), centralizer_dim(b),
                          ker_ad_squared(b), centralizer_dim(b)]
                want = [centralizer_dims(o)[0],
                        kernel_dim(kind, o.partition.parts, 2)]
                assert (first, second) == (want * 2, want[::-1] * 2), o
                assert a.ad_blocks == rows, o


def test_ad_blocks_built_once_per_triple(monkeypatch):
    calls = []
    real = oracle._weight_blocks
    monkeypatch.setattr(oracle, "_weight_blocks",
                        lambda *a: calls.append(a) or real(*a))
    t = triple_from_partition("so", 8, P("(3,3,1,1)"))
    assert (centralizer_dim(t), ker_ad_squared(t)) == (10, 18)
    assert ker_ad_squared(t) == 18
    assert len(calls) == 1


def test_oracle_suite_builds_one_triple_per_orbit(monkeypatch):
    calls = []
    real = verify.triple_from_partition
    monkeypatch.setattr(verify, "triple_from_partition",
                        lambda *a: calls.append(a) or real(*a))
    rep = suite_oracle(7)
    assert rep.ok, rep.render()
    orbits = [(kind, n, o.partition) for kind, ns in oracle_sizes(7).items()
              for n in ns for o in valid_partitions(kind, n)]
    assert calls == orbits
    assert sum(c.case_id.startswith("z ") for c in rep.cases) == len(orbits)


def test_ker_ad_squared():
    t = triple_from_partition("sl", 6, P("(5,1)"))
    assert ker_ad_squared(t) == \
        centralizer_dims(ClassicalOrbit("sl", 6, P("(3,2,1)")))[0]
    zero = triple_from_partition("sl", 3, P("(1,1,1)"))
    assert ker_ad_squared(zero) == 8
    t = triple_from_partition("so", 8, P("(5,3)"))
    assert ker_ad_squared(t) == \
        centralizer_dims(ClassicalOrbit("so", 8, P("(3,2,2,1)")))[0]


def test_half_orbit_kernel_identity():
    for kind, sizes in oracle_sizes(9).items():
        for n in sizes:
            for o in valid_partitions(kind, n):
                if not is_divisible(o):
                    continue
                t = triple_from_partition(kind, n, o.partition)
                assert ker_ad_squared(t) == \
                    centralizer_dims(half_orbit(o))[0], o


def test_realized_involutions():
    for ts, g0 in [("A3", "so4"), ("A3", "sp4"), ("A4", "gl2+gl3"),
                   ("B3", "so4+so3"), ("C3", "sp4+sp2"), ("C3", "gl3"),
                   ("D4", "gl4"), ("D4", "so5+so3")]:
        p = pair_by_descriptor(SimpleType.parse(ts), g0)
        rp = realize_pair(p)
        tr = rp.triple
        sigma, h = rp.sigma_entries, oracle._diagonal(tr.h)
        assert tr.check_relations(), (ts, g0)
        assert sigma(tr.e) == tr.e, (ts, g0)
        assert sigma(h) == h, (ts, g0)
        assert sigma(sigma(tr.f)) == tr.f, (ts, g0)


def test_involution_fixed_space_dims():
    for ts, g0 in [("A3", "so4"), ("A3", "gl2+gl2"), ("B3", "so4+so3"),
                   ("C3", "gl3"), ("D4", "gl4"), ("D5", "so6+so4")]:
        p = pair_by_descriptor(SimpleType.parse(ts), g0)
        mg = oracle_grid(p)   # raises unless sigma fixes dim g0 dimensions
        dim_g1 = mg.row1[0] + 2 * sum(mg.row1[1:])
        assert (mg.dim_g0, dim_g1) == (p.dim_g0, p.dim_g1), (ts, g0)


def test_oracle_grid_small():
    p = pair_by_descriptor(SimpleType("A", 2), "so3")
    mg = oracle_grid(p)
    assert (mg.d(0, 0), mg.d(0, 2)) == (1, 1)
    assert (mg.d(1, 0), mg.d(1, 2), mg.d(1, 4)) == (1, 1, 1)


def test_oracle_grid_matches_modules():
    for t in all_simple_types(8):
        if t.family not in "ABCD" or str(t) == "A1":
            continue
        for p in catalog(t):
            if p.g.ambient[1] > 9:
                continue
            assert oracle_grid(p) == grading_grid(decompose(p)), \
                (str(t), p.descriptor)


def factor_jordan_types(f):
    """Every Jordan type of a nilpotent element of the factor f of g0 in
    its defining representation."""
    kind, n = f
    if kind in ("so", "sp"):
        return [o.partition for o in valid_partitions(kind, n)]
    return all_partitions(n)


def test_oracle_grid_matches_modules_for_every_nilpotent_of_g0():
    # every classical pair with matrix size n <= 9 and every tuple of
    # factor Jordan types, not only the regular one: e = 0 included, and
    # M1 may mix weight parities
    cases = 0
    for t in all_simple_types(8):
        if t.ambient is None or t.ambient[1] > 9:
            continue
        for p in catalog(t):
            for lams in product(*map(factor_jordan_types, p.g0.factors)):
                cases += 1
                assert oracle_grid(p, list(lams)) == grading_grid(
                    decompose_classical(p, list(lams))), (p, lams)
    assert cases == 507


def test_oracle_grids_do_not_depend_on_the_order_of_the_basis(monkeypatch):
    # every realised pair, three times, in a basis scattered by a random
    # permutation: sigma's basis matrices land in another order, so its
    # index of the block and its solve for the Cartan images of outer sl
    # run on them
    rng = random.Random(20251)
    real, real_solve, solved = oracle.realize_pair, oracle.solve_in_span, []

    def scattered(*args):
        rp = real(*args)
        perm = rng.sample(range(rp.triple.n), rp.triple.n)
        signs = None if rp.sign_vector is None else \
            [rp.sign_vector[a] for a in perm]
        return RealizedPair(relabelled(rp.triple, perm), signs)

    monkeypatch.setattr(oracle, "realize_pair", scattered)
    monkeypatch.setattr(oracle, "solve_in_span",
                        lambda *a: solved.append(a) or real_solve(*a))
    pairs = [p for t in all_simple_types(8)
             if t.ambient is not None and t.ambient[1] <= 9
             for p in catalog(t)]
    for p in pairs * 3:
        assert oracle_grid(p) == grading_grid(decompose(p)), p
    assert len(pairs) == 51 and solved


def test_tampered_sigma_raises(monkeypatch):
    # doubling the entries below the diagonal keeps e and h fixed but makes
    # sigma no involution; the check must raise, also under python -O
    honest = RealizedPair.sigma_entries

    def tampered(self, x):
        return {(i, j): 2 * v if i > j else v
                for (i, j), v in honest(self, x).items()}

    monkeypatch.setattr(RealizedPair, "sigma_entries", tampered)
    p = pair_by_descriptor(SimpleType("A", 3), "gl2+gl2")
    with pytest.raises(RuntimeError, match="not an involution"):
        oracle_grid(p)


def test_oracle_grid_with_explicit_partition():
    p = pair_by_descriptor(SimpleType("A", 5), "so6")
    lam = [P("(5,1)")]
    assert oracle_grid(p, lam) == grading_grid(decompose_classical(p, lam))
    assert oracle_grid(p, lam).d(0, 0) == 3
    assert oracle_grid(p, lam).d(1, 4) == 3


@pytest.mark.parametrize("lams", [["(3,1,1)"], ["(3,1,1)", "(3,1)", "(1)"]])
def test_wrong_number_of_factor_jordan_types_is_named(lams):
    # so5+so4 has two factors: both paths refuse one or three Jordan types
    # with the pair, its factors and the count, not an IndexError or a
    # failed triple
    p = pair_by_descriptor(SimpleType("B", 4), "so5+so4")
    lams = [P(x) for x in lams]
    want = (r"\(B4, so5\+so4\): g0 = so5\+so4 takes one Jordan type per "
            rf"factor: 2 expected, {len(lams)} given")
    with pytest.raises(ValueError, match=want):
        decompose_classical(p, lams)
    with pytest.raises(ValueError, match=want):
        oracle_grid(p, lams)


def test_sp_half_search():
    def half(lam, n):
        return half_orbit(ClassicalOrbit("sp", n, P(lam))).partition.parts

    assert half("(3,3)", 6) == (2, 2, 1, 1)
    assert half("(5,5)", 10) == (3, 3, 2, 2)
    assert half("(3,3,1,1)", 8) == (2, 2, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        half("(4,2)", 6)


def test_sp_half_matches_kernel():
    for n in (2, 4, 6, 8):
        for o in valid_partitions("sp", n):
            if not is_divisible(o):
                continue
            half = half_orbit(o)
            assert half.kind == "sp" and half.n == n, o
            t = triple_from_partition("sp", n, o.partition)
            assert ker_ad_squared(t) == centralizer_dims(half)[0], o


def test_commutator_helper():
    a = [[0, 1], [0, 0]]
    b = [[0, 0], [1, 0]]
    assert commutator(a, b) == [[1, 0], [0, -1]]
    assert mat_mul(a, b) == [[1, 0], [0, 0]]


def test_oracle_suite_grids_follow_max_n():
    rep = suite_oracle(10)
    assert rep.ok, rep.render()
    assert any(c.case_id.startswith("grid A9/") for c in rep.cases)
