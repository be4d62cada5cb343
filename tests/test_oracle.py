import random

import pytest

from nilorbits import oracle, verify
from nilorbits.gradings import decompose, decompose_classical, grading_grid
from nilorbits.involutions import catalog, pair_by_descriptor
from nilorbits.linalg import commutator, mat_mul, rank
from nilorbits.orbits import (ClassicalOrbit, Partition, centralizer_dims,
                              half_orbit, is_divisible, valid_partitions)
from nilorbits.oracle import (RealizedPair, SL2Triple, centralizer_dim,
                              ker_ad_squared, oracle_grid, oracle_sizes,
                              realize_pair, triple_from_partition)
from nilorbits.roots import SimpleType, all_simple_types
from nilorbits.verify import suite_oracle


def P(text):
    return Partition.parse(text)


def test_rank_basics():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[2, 0, 1], [0, 3, 1], [2, 3, 2]]) == 2
    assert rank([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == 3


def test_standard_sl2_triple():
    t = triple_from_partition("sl", 2, P("(2)"))
    assert t.e == [[0, 1], [0, 0]]
    assert t.h == [[1, 0], [0, -1]]
    assert t.f == [[0, 0], [1, 0]]


def test_triple_relations_everywhere():
    cases = [("sl", 6, "(3,2,1)"), ("so", 9, "(5,3,1)"), ("so", 8, "(3,3,1,1)"),
             ("sp", 8, "(4,2,2)"), ("sp", 6, "(3,3)"), ("so", 10, "(4,4,1,1)")]
    for kind, n, lam in cases:
        t = triple_from_partition(kind, n, P(lam))
        assert t.check_relations(), (kind, n, lam)


def test_h_eigenvalues():
    t = triple_from_partition("so", 7, P("(3,3,1)"))
    assert t.h_diagonal == [2, 0, -2, 2, 0, -2, 0]
    t = triple_from_partition("sp", 4, P("(2,2)"))
    assert sorted(t.h_diagonal) == [-1, -1, 1, 1]


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

            def relabel(m):
                return None if m is None else \
                    [[m[a][b] for b in perm] for a in perm]

            u = SL2Triple(kind, n, relabel(t.e), relabel(t.h), relabel(t.f),
                          relabel(t.form))
            assert u.check_relations(), (kind, n, lam, perm)
            assert (centralizer_dim(u), ker_ad_squared(u)) == want, perm


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
        assert tr.check_relations(), (ts, g0)
        assert rp.sigma(tr.e) == tr.e, (ts, g0)
        assert rp.sigma(tr.h) == tr.h, (ts, g0)
        assert rp.sigma(rp.sigma(tr.f)) == tr.f, (ts, g0)


def test_involution_fixed_space_dims():
    for ts, g0 in [("A3", "so4"), ("A3", "gl2+gl2"), ("B3", "so4+so3"),
                   ("C3", "gl3"), ("D4", "gl4"), ("D5", "so6+so4")]:
        p = pair_by_descriptor(SimpleType.parse(ts), g0)
        assert realize_pair(p).fixed_space_dim() == p.dim_g0, (ts, g0)


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
