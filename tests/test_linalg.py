import random
from fractions import Fraction

import pytest

from nilorbits.linalg import mat_mul, rank


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
    assert rank(m) == 5


def test_rank_matches_rational_elimination():
    rng = random.Random(20240)
    entries = [0] * 6 + [1, -1, 1, -1, 2, -2, 3]
    for _ in range(2000):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
        assert rank(m) == gauss_jordan_rank(m), m


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
