"""Exact linear algebra over the integers and rationals.

Everything operates on dense lists of lists.  Rank uses fraction-free
(Bareiss) elimination for integer input, so no floating point is involved
anywhere.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[int]]


def zeros(r: int, c: int) -> Matrix:
    return [[0] * c for _ in range(r)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a * b, skipping the zero entries of each row of a and of b."""
    if any(len(ai) != len(b) for ai in a):
        raise ValueError("inner dimensions of the product differ")
    cols = len(b[0])
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for ai in a:
        row = [0] * cols
        for k, x in enumerate(ai):
            if x:
                for j, y in b_rows[k]:
                    row[j] += x * y
        out.append(row)
    return out


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c) -> Matrix:
    return [[c * x for x in row] for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def is_zero(a: Matrix) -> bool:
    return all(not any(row) for row in a)


def rank(matrix: list[list[int]]) -> int:
    """Rank by fraction-free (Bareiss) elimination (exact).

    Every row below the pivot is updated at every step, so each entry stays
    a minor of the input and the division by the previous pivot is exact
    (Sylvester's identity); a remainder raises instead of being floored.
    """
    m = [row[:] for row in matrix if any(row)]
    if not m:
        return 0
    cols = len(m[0])
    r = 0
    prev = 1
    for c in range(cols):
        piv = None
        best = None
        for i in range(r, len(m)):
            v = m[i][c]
            if v:
                score = (abs(v) != 1, abs(v))
                if best is None or score < best:
                    best, piv = score, i
                    if score == (False, 1):
                        break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        row_r = m[r]
        pivot = row_r[c]
        for i in range(r + 1, len(m)):
            row_i = m[i]
            vic = row_i[c]
            if not vic and pivot == prev:
                continue  # the step leaves this row as it is
            for j in range(c, cols):
                q, rem = divmod(row_i[j] * pivot - vic * row_r[j], prev)
                if rem:
                    raise ArithmeticError("inexact Bareiss step")
                row_i[j] = q
        prev = pivot
        r += 1
        if r == len(m):
            break
        m = m[:r] + [row for row in m[r:] if any(row)]
        if r == len(m):
            break
    return r


def eigenspace_dim(matrix: list[list[int]], eigenvalue: int) -> int:
    """dim ker(matrix - eigenvalue) for a square integer matrix."""
    n = len(matrix)
    shifted = [[matrix[i][j] - (eigenvalue if i == j else 0)
                for j in range(n)] for i in range(n)]
    return n - rank(shifted)


def solve_in_span(basis: list[Matrix], target: Matrix) -> list[Fraction]:
    """Coordinates of target in the span of basis (exact; raises if not
    in the span)."""
    rows = len(target)
    cols = len(target[0])
    system = []
    for i in range(rows):
        for j in range(cols):
            system.append([Fraction(b[i][j]) for b in basis]
                          + [Fraction(target[i][j])])
    n = len(basis)
    # rational Gauss with partial pivoting by first nonzero
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(system)) if system[i][c]), None)
        if piv is None:
            continue
        system[r], system[piv] = system[piv], system[r]
        pr = system[r]
        inv = 1 / pr[c]
        system[r] = [v * inv for v in pr]
        for i in range(len(system)):
            if i != r and system[i][c]:
                f = system[i][c]
                system[i] = [a - f * b for a, b in zip(system[i], system[r])]
        pivots.append(c)
        r += 1
    sol = [Fraction(0)] * n
    for row_idx, c in enumerate(pivots):
        sol[c] = system[row_idx][n]
    for i in range(r, len(system)):
        if system[i][n]:
            raise ValueError("target is not in the span of the basis")
    return sol
