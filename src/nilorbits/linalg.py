"""Exact linear algebra over the integers and rationals.

Products and commutators work on dense lists of lists.  rank and
eigenspace_dim take sparse integer rows, each a {column: value} dict; they
and solve_in_span share one elimination, which reduces sparse integer rows
one at a time against an echelon set of primitive rows.  The elimination
copies on write: a row is copied when it is first reduced, a row that joins
the echelon unchanged is kept as it is, and no function here changes its
arguments.  No floating point, modular or probabilistic step is involved
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf

Matrix = list[list[int]]
SparseRow = dict[int, int]  # column -> nonzero value


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


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)]
            for ra, rb in zip(mat_mul(a, b), mat_mul(b, a))]


def _eliminate(rows: list[SparseRow], echelon: dict[int, SparseRow],
               stop: float = inf) -> SparseRow:
    """Reduce the rows one at a time against the echelon, a set of
    primitive integer rows keyed by leading column, and return the last
    row as reduced.  The rows are dicts of nonzero entries and are never
    changed: a row is copied when it is first reduced, and a primitive row
    that reaches a free leading column unreduced joins the echelon as it
    is, so the echelon may share rows with the caller.

    While the leading column of a row holds a pivot row p and is below
    stop, the row becomes a*row - b*p, where a and b are the two leading
    entries over their gcd, so every step is exact in Python ints.  A row
    that reaches a free leading column below stop is divided by its content
    (the gcd of its entries), so that pivot entries do not compound, and
    joins the echelon.
    """
    r: SparseRow = {}
    for r in rows:
        own = False                  # r is still the caller's row
        while r:
            lead = min(r)
            piv = echelon.get(lead)  # no pivot leads at or past stop
            if piv is None:
                if lead < stop:
                    g = gcd(*r.values())
                    echelon[lead] = {j: v // g for j, v in r.items()} \
                        if g != 1 else r
                break
            a, b = piv[lead], r[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                r = {j: a * v for j, v in r.items()}
            elif not own:
                r = dict(r)
            own = True
            for j, v in piv.items():
                x = r.get(j, 0) - b * v
                if x:
                    r[j] = x
                else:
                    del r[j]
    return r


def rank(rows: list[SparseRow]) -> int:
    """Exact rank of a list of {column: value} integer rows: the size of
    the echelon the rows reduce to.  The rows are not changed; a row
    without zero entries is not copied unless it needs reducing."""
    echelon: dict[int, SparseRow] = {}
    _eliminate([{j: v for j, v in row.items() if v}
                if 0 in row.values() else row for row in rows], echelon)
    return len(echelon)


def eigenspace_dim(matrix: list[SparseRow], eigenvalue: int) -> int:
    """dim ker(matrix - eigenvalue) for a square integer matrix given as
    {column: value} rows."""
    return len(matrix) - rank([{**row, i: row.get(i, 0) - eigenvalue}
                               for i, row in enumerate(matrix)])


def solve_in_span(basis: list[Matrix], target: Matrix) -> list[Fraction]:
    """Coordinates of target in the span of basis (exact; raises if not
    in the span).

    Each basis matrix is flattened into a row tagged with a unit in its own
    column past the entries, so a row's tags record the combination of the
    basis that it is.  The target, tagged with a unit in one more column,
    is reduced against them until no entry is left: then its tags read
    a*target + sum c_k b_k = 0.  A dependent basis matrix reduces to tags
    only and stays out of the echelon, so its coordinate is 0.
    """
    cols = len(target[0])
    size, m = len(target) * cols, len(basis)

    def flat(x: Matrix, tag: int) -> SparseRow:
        r = {i * cols + j: v for i, row in enumerate(x)
             for j, v in enumerate(row) if v}
        r[size + tag] = 1
        return r

    echelon: dict[int, SparseRow] = {}
    _eliminate([flat(b, k) for k, b in enumerate(basis)], echelon, size)
    t = _eliminate([flat(target, m)], echelon, size)
    if min(t) < size:
        raise ValueError("target is not in the span of the basis")
    return [Fraction(-t.get(size + k, 0), t[size + m]) for k in range(m)]
