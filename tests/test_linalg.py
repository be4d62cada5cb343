import copy
import math
import random
from fractions import Fraction

import pytest

from nilorbits.linalg import (_eliminate, eigenspace_dim, mat_mul, rank,
                              solve_in_span)


def as_dicts(matrix):
    """The {column: value} rows of a dense fixture."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def gauss_jordan_rank(matrix):
    """Reference rank over the rationals."""
    m = [[Fraction(v) for v in row] for row in matrix]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_rank_block_cartan_counterexample():
    # a row with a zero in the pivot column must still take the
    # fraction-free step, or a later division is inexact
    m = [[-2, 1, 0, 0, 0], [1, -2, 1, 0, 0], [0, 1, -2, 0, 0],
         [0, 0, 0, -2, 1], [0, 0, 0, 1, -2]]
    assert rank(as_dicts(m)) == 5


def test_rank_matches_rational_elimination():
    rng = random.Random(20240)
    entries = [0] * 6 + [1, -1, 1, -1, 2, -2, 3]
    for _ in range(2000):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
        assert rank(as_dicts(m)) == gauss_jordan_rank(m), m


def test_rank_of_dict_rows_and_large_entries():
    rng = random.Random(20242)
    for trial in range(600):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        big = 10 ** 6 if trial % 2 else 3
        m = [[rng.choice([0, 0, 0, rng.randint(-big, big)])
              for _ in range(cols)] for _ in range(rows)]
        if trial % 3 == 0 and rows > 2:      # a dependent row
            m[-1] = [2 * x - 7 * y for x, y in zip(m[0], m[1])]
        assert rank(as_dicts(m)) == gauss_jordan_rank(m), m
    # explicit zeros in a dict row are ignored
    assert rank([{0: 0, 1: 2}, {1: 0}, {1: -4, 2: 0}]) == 1
    assert rank([]) == 0 and rank([{}, {}]) == 0


def test_rank_of_dense_30_by_30_with_large_entries():
    # coefficient growth: every entry is up to 10^6 in size
    rng = random.Random(20243)
    for trial in range(4):
        m = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(30)]
             for _ in range(30)]
        if trial % 2:
            m[29] = [a - 3 * b + c for a, b, c in zip(m[0], m[7], m[12])]
            m[28] = [5 * a for a in m[3]]
        assert rank(as_dicts(m)) == gauss_jordan_rank(m) == (
            30 if trial % 2 == 0 else 28)


def test_echelon_rows_are_primitive():
    # (9, 3, 0) - 3 (3, 2, 1) = (0, -3, -3) joins as (0, -1, -1); the last
    # row is 2 (3, 2, 1) - (9, 3, 0)
    rows = [{0: 6, 1: 4, 2: 2}, {0: 9, 1: 3}, {0: -3, 1: 1, 2: 2}]
    echelon = {}
    assert _eliminate(rows, echelon) == {}
    assert echelon == {0: {0: 3, 1: 2, 2: 1}, 1: {1: -1, 2: -1}}
    rng = random.Random(20245)
    m = [{j: rng.choice([-6, 6]) * rng.randint(1, 50) for j in range(8)}
         for _ in range(8)]
    echelon = {}
    _eliminate(m, echelon)
    assert len(echelon) == 8
    assert all(math.gcd(*r.values()) == 1 for r in echelon.values())


def test_inputs_are_not_changed():
    # the elimination copies a row only when it first reduces it, and keeps
    # an unreduced row as it is, so no call may write to what it was given
    rng = random.Random(20247)
    for trial in range(300):
        n = rng.randint(2, 7)
        m = [{j: rng.choice([-3, -2, -1, 1, 2, 3])
              for j in rng.sample(range(n), rng.randint(1, n))}
             for _ in range(n)]
        if trial % 2:                      # a dependent row
            m[-1] = {j: v for j in range(n)
                     if (v := 2 * m[0].get(j, 0) - m[1].get(j, 0))}
        if trial % 5 == 0:                 # an explicit zero
            m[0][n - 1] = 0
        dense = [[r.get(j, 0) for j in range(n)] for r in m]
        want = gauss_jordan_rank(dense)
        shifted = [[v - (i == j) for j, v in enumerate(row)]
                   for i, row in enumerate(dense)]
        want_eig = n - gauss_jordan_rank(shifted)
        before = copy.deepcopy(m)
        assert rank(m) == rank(m) == want
        assert eigenspace_dim(m, 1) == want_eig
        assert m == before
        basis = [[row] for row in dense[:-1]]
        target = [dense[-1]]
        before = copy.deepcopy((basis, target))
        try:
            solve_in_span(basis, target)
        except ValueError:
            pass
        assert (basis, target) == before


def test_eigenspace_dim_of_dense_and_dict_rows():
    swap = as_dicts([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    assert eigenspace_dim(swap, 1) == 1
    assert eigenspace_dim(swap, -1) == 2
    assert eigenspace_dim(swap, 2) == 0


def test_solve_in_span():
    rng = random.Random(20244)
    for trial in range(400):
        r, c, m = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
        basis = [[[rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(c)]
                  for _ in range(r)] for _ in range(m)]
        coef = [rng.randint(-3, 3) for _ in range(m)]
        target = [[sum(coef[k] * basis[k][i][j] for k in range(m))
                   for j in range(c)] for i in range(r)]
        sol = solve_in_span(basis, target)
        assert len(sol) == m
        assert all(sum(sol[k] * basis[k][i][j] for k in range(m))
                   == target[i][j] for i in range(r) for j in range(c))
    # coordinates need not be integers; a dependent basis matrix gets 0
    basis = [[[2, 0], [0, 0]], [[4, 0], [0, 0]], [[0, 0], [0, 3]]]
    assert solve_in_span(basis, [[1, 0], [0, 1]]) == \
        [Fraction(1, 2), 0, Fraction(1, 3)]
    with pytest.raises(ValueError, match="not in the span"):
        solve_in_span(basis, [[0, 1], [0, 0]])


def test_mat_mul_matches_triple_loop():
    rng = random.Random(20241)
    entries = [0] * 8 + [1, -1, 2, -3, 5]
    for trial in range(500):
        rows, inner, cols = (rng.randint(1, 7) for _ in range(3))
        if trial % 5 == 0:
            rows = 1                          # 1 x k
        elif trial % 5 == 1:
            cols = 1                          # k x 1
        a = [[rng.choice(entries) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.choice(entries) for _ in range(cols)] for _ in range(inner)]
        if trial % 7 == 0:
            a[rng.randrange(rows)] = [0] * inner      # a zero row of a
        if trial % 11 == 0:
            j = rng.randrange(cols)
            for row in b:
                row[j] = 0                            # a zero column of b
        expect = [[sum(a[i][k] * b[k][j] for k in range(inner))
                   for j in range(cols)] for i in range(rows)]
        assert mat_mul(a, b) == expect, (a, b)
    with pytest.raises(ValueError):
        mat_mul([[1, 2]], [[1, 2]])
