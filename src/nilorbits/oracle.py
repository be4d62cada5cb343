"""Brute-force matrix realisations of classical algebras, triples and
involutions.

This is the independent verification path: sl_n is realised as traceless
matrices, so_n/sp_n as {X : X^T B + B X = 0} for an explicit integer form
B, nilpotent triples are built block-by-block from Jordan strings, and
every dimension (centralisers, kernels, grading layers) is recomputed by
exact rank arithmetic, one h-weight block at a time.  Each matrix is kept
in the one sparse form its checks read: e and f as their nonzero entries,
h as its diagonal and B as a signed permutation.  ad e and sigma are never
built as dense matrices: each coordinate's image is one sparse integer
row, and linalg.rank ranks the rows of a block.  [e, f] = h is the one
dense product, and solve_in_span for the Cartan images of outer sl pairs
the one dense solve.
Nothing here consults the partition formulas or the sl2-module calculus,
so agreement between the two paths is a real check.

Basis conventions: the invariant form on a length-p Jordan string is
  <v_i, v_{p-1-i}> = (-1)^i,
symmetric for p odd and alternating for p even; parts that need a partner
(even parts in so, odd parts in sp) are doubled with the cross form
[[0, C], [+-C^T, 0]].  For the gl_n subalgebras of so_2n/sp_2n the space
splits as W + W* with the hyperbolic form [[0, I], [+-I, 0]] and triples
act as M on W and -M^T on W*.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .gradings import MixedGrading, factor_jordan_types
from .involutions import SymmetricPair
from .linalg import (Matrix, SparseRow, commutator, eigenspace_dim, rank,
                     solve_in_span, zeros)
from .orbits import ClassicalOrbit, Partition


def oracle_sizes(max_n: int) -> dict[str, range]:
    """The matrix sizes up to max_n of the ambients the oracle realises:
    sl_n for n >= 2, so_n for n >= 3 and sp_n for even n >= 2."""
    return {"sl": range(2, max_n + 1), "so": range(3, max_n + 1),
            "sp": range(2, max_n + 1, 2)}


# ---------------------------------------------------------------------------
# Triples
# ---------------------------------------------------------------------------

Entries = dict[tuple[int, int], int]  # nonzero entries (i, j) -> value
Form = list[tuple[int, int]]  # B = sum_i b_i E_{i,p(i)} as (p(i), b_i)


@dataclass
class SL2Triple:
    kind: str          # ambient: sl / so / sp
    n: int
    e: Entries
    h: list[int]       # the diagonal of h
    f: Entries
    form: Form | None  # None for sl

    def check_relations(self) -> bool:
        """[h, e] = 2e, [h, f] = -2f, [e, f] = h and, for so/sp,
        x^T B + B x = 0 for x = e, h, f.

        h is diagonal, so the first two hold when every entry e_ij has
        h_i - h_j = 2 and every entry f_ij has h_i - h_j = -2; the form
        must be a +-1 permutation of range(n), so the last is checked entry
        by entry.  [e, f] = h is the one dense product."""
        d, n, h = self.h, self.n, _diagonal(self.h)
        if any(d[r] - d[c] != 2 for r, c in self.e) or \
                any(d[r] - d[c] != -2 for r, c in self.f):
            return False
        if commutator(_dense(self.e, n), _dense(self.f, n)) != _dense(h, n):
            return False
        form = self.form
        if form is None:
            return True
        if sorted(c for c, _ in form) != list(range(n)) or \
                any(b not in (1, -1) for _, b in form):
            return False
        # B x has b_i x_{p(i),j} at (i, j) and x^T B has b_k x_{k,i} at
        # (i, p(k))
        inv = [0] * n
        for i, (c, _) in enumerate(form):
            inv[c] = i
        for x in (self.e, h, self.f):
            bx = {(inv[r], c): form[inv[r]][1] * v for (r, c), v in x.items()}
            xtb = {(c, form[r][0]): -form[r][1] * v for (r, c), v in x.items()}
            if bx != xtb:
                return False
        return True

    @cached_property
    def ad_blocks(self) -> tuple[int, dict[int, list[SparseRow]]]:
        """The number of coordinates and, for each h-weight w, the images
        under ad e of the coordinates of weight w, one sparse row each over
        the coordinates of weight w + 2 (see _weight_blocks).

        Each image is read from the rows and columns of e.  On so/sp the
        image of A = E_ij + s E_ji (s = -1 on so, +1 on sp; A = E_ii for
        i = j) is -(e^T A + A e) = N + s N^T with N = -A e, whose rows i and
        j are -e_j and -s e_i; an entry v of N at (r, c) adds v to the
        coordinate (r, c) and s v to the coordinate (c, r), whichever of
        them exists (both, adding 2v, on the diagonal of sp).  On sl, s = 0
        and A = E_ij: [e, E_ij] = N + e E_ij, where e E_ij is column i of e
        moved to column j.  e is a sum of Jordan strings, so each image has
        a few entries, and e of h-weight 2 puts them all in weight w + 2.
        """
        kind, n, h = self.kind, self.n, self.h
        blocks = _weight_blocks(kind, h)
        if any(h[r] - h[c] != 2 for r, c in self.e):
            raise RuntimeError("e is not of h-weight 2")
        e_rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        e_cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (r, c), v in self.e.items():
            e_rows[r].append((c, v))
            e_cols[c].append((r, v))
        s = {"sl": 0, "so": -1, "sp": 1}[kind]
        # an entry v of N at (r, c) adds x * v to coordinate k, where
        # (k, x) = index[r * n + c]
        index: dict[int, tuple[int, int]] = {}
        for cs in blocks.values():
            for k, (i, j) in enumerate(cs):
                if i == j:
                    index[i * n + i] = (k, 1 + s)
                else:
                    index[i * n + j] = (k, 1)
                    if s:
                        index[j * n + i] = (k, s)

        def put(row: SparseRow, r: int, u: int, t: int):
            # t times row u of e as row r of N; e has no diagonal entry,
            # so no two entries of N, nor of N and e E_ij, land on one
            # coordinate
            for c, v in e_rows[u]:
                hit = index.get(r * n + c)
                if hit is not None:
                    row[hit[0]] = hit[1] * t * v

        ad: dict[int, list[SparseRow]] = {}
        for w, cs in blocks.items():
            rows = []
            for i, j in cs:
                row: SparseRow = {}
                put(row, i, j, -1)
                if not s:
                    for r, v in e_cols[i]:
                        row[index[r * n + j][0]] = v
                elif i != j:
                    put(row, j, i, -s)
                rows.append(row)
            ad[w] = rows
        return sum(map(len, blocks.values())), ad


def _put_string_form(form: Form, r0: int, c0: int, p: int, sign: int):
    """sign * C at (r0, c0), where C[i][p-1-i] = (-1)^i is the form on a
    length-p string."""
    for i in range(p):
        form[r0 + i] = (c0 + p - 1 - i, sign * (-1) ** i)


def triple_from_partition(kind: str, n: int,
                          lam: Partition) -> SL2Triple:
    """Block triple for the orbit with the given Jordan type, inside a
    compatible bilinear form for so/sp."""
    ClassicalOrbit(kind, n, lam)  # validity
    e: Entries = {}
    f: Entries = {}
    h: list[int] = []
    form = None if kind == "sl" else [None] * n
    pos = 0
    pending: dict[int, int] = {}  # part -> offset of an unpaired block
    for p in lam.parts:
        h += [p - 1 - 2 * i for i in range(p)]  # a Jordan string at pos
        for i in range(1, p):
            e[(pos + i - 1, pos + i)] = 1
            f[(pos + i, pos + i - 1)] = i * (p - i)
        if kind != "sl":
            needs_pair = (p % 2 == 0) if kind == "so" else (p % 2 == 1)
            if not needs_pair:
                _put_string_form(form, pos, pos, p, 1)
            elif p in pending:
                q = pending.pop(p)
                _put_string_form(form, q, pos, p, 1)
                # +- C^T, and C^T[i][p-1-i] = (-1)^(p-1-i)
                sign = 1 if kind == "so" else -1
                _put_string_form(form, pos, q, p, sign * (-1) ** (p - 1))
            else:
                pending[p] = pos
        pos += p
    if pending:
        raise RuntimeError("unpaired parts left over")
    return SL2Triple(kind, n, e, h, f, form)


def _diagonal(h: list[int]) -> Entries:
    return {(i, i): v for i, v in enumerate(h) if v}


def _dense(x: Entries, n: int) -> Matrix:
    out = zeros(n, n)
    for (i, j), v in x.items():
        out[i][j] = v
    return out


# ---------------------------------------------------------------------------
# Coordinates and the h-weight blocks of ad e
# ---------------------------------------------------------------------------

def _weight_blocks(kind: str, h: list[int]
                   ) -> dict[int, list[tuple[int, int]]]:
    """Coordinates of the ambient algebra grouped by ad h-eigenvalue.

    On sl the coordinates are those of E_ij on gl_n, of weight h_i - h_j.
    Writing X = B^{-1} A identifies so(B)/sp(B) with antisymmetric or
    symmetric A, whose coordinates are (i, j) with i < j (so) or i <= j
    (sp); ad h acts on A by A -> -(hA + Ah), so (i, j) has weight
    -(h_i + h_j).
    """
    n = len(h)
    if kind == "sl":
        coords = [(i, j, h[i] - h[j]) for i in range(n) for j in range(n)]
    else:
        lo = 1 if kind == "so" else 0
        coords = [(i, j, -(h[i] + h[j]))
                  for i in range(n) for j in range(i + lo, n)]
    blocks: dict[int, list[tuple[int, int]]] = {}
    for i, j, w in coords:
        blocks.setdefault(w, []).append((i, j))
    return blocks


def _compose(first: list[SparseRow], then: list[SparseRow]) -> list[SparseRow]:
    """Sparse rows of images taken on through a second map: row k of then
    is the image of coordinate k."""
    out = []
    for row in first:
        img: SparseRow = {}
        for k, v in row.items():
            for j, u in then[k].items():
                img[j] = img.get(j, 0) + v * u
        out.append({j: x for j, x in img.items() if x})
    return out


def centralizer_dim(triple: SL2Triple) -> int:
    """dim of the centraliser of e in the ambient algebra: the coordinates
    minus the exact rank of ad e, summed over h-weight blocks (on sl, one
    less for the identity of gl_n)."""
    size, ad = triple.ad_blocks
    return size - sum(rank(rows) for rows in ad.values()) - \
        (triple.kind == "sl")


def ker_ad_squared(triple: SL2Triple) -> int:
    """dim ker (ad e)^2, from the ranks of the composites g(w) -> g(w + 4)."""
    size, ad = triple.ad_blocks
    r = sum(rank(_compose(rows, ad[w + 2]))
            for w, rows in ad.items() if ad.get(w + 2))
    return size - r - (triple.kind == "sl")


# ---------------------------------------------------------------------------
# Involution realisations and oracle grids
# ---------------------------------------------------------------------------

@dataclass
class RealizedPair:
    triple: SL2Triple
    sign_vector: list[int] | None   # sigma = conjugation by diag(signs)

    def sigma_entries(self, x: Entries) -> Entries:
        """sigma on a matrix given by its nonzero entries.  Conjugation by
        diag(s) scales E_ij by s_i s_j.  Without signs sigma is the twist
        X -> -B^{-1} X^T B of outer sl: with B = sum_i b_i E_{i,p(i)} it
        sends E_ij to -b_i b_j E_{p(j),p(i)}."""
        if self.sign_vector is None:
            perm = self.triple.form
            return {(perm[j][0], perm[i][0]): -perm[i][1] * perm[j][1] * v
                    for (i, j), v in x.items()}
        s = self.sign_vector
        return {(i, j): s[i] * s[j] * v for (i, j), v in x.items()}


def realize_pair(pair: SymmetricPair,
                 factor_partitions: list[Partition] | None = None
                 ) -> RealizedPair:
    kind, n = pair.g.ambient
    fparts = factor_jordan_types(pair, factor_partitions)
    if pair.shape == "hermitian":
        m = fparts[0].n
        tw = triple_from_partition("sl", m, fparts[0])
        # x on W, -x^T on W*
        e, f = ({**x, **{(m + c, m + r): -v for (r, c), v in x.items()}}
                for x in (tw.e, tw.f))
        eps = 1 if kind == "so" else -1
        form = [(m + i, 1) for i in range(m)] + [(i, eps) for i in range(m)]
        triple = SL2Triple(kind, n, e, tw.h + [-v for v in tw.h], f, form)
        return RealizedPair(triple, [1] * m + [-1] * m)
    if pair.shape == "twisted":
        fkind = pair.g0.factors[0][0]
        tr = triple_from_partition(fkind, n, fparts[0])
        return RealizedPair(SL2Triple("sl", n, tr.e, tr.h, tr.f, tr.form),
                            None)
    # block-diagonal factor sum: (sl, gl+gl), (so, so+so), (sp, sp+sp)
    e: Entries = {}
    f: Entries = {}
    h: list[int] = []
    form = None if kind == "sl" else []
    pos = 0
    for (fkind, fn), lam in zip(pair.g0.factors, fparts):
        tb = triple_from_partition("sl" if fkind == "gl" else fkind, fn, lam)
        for big, x in ((e, tb.e), (f, tb.f)):
            big.update(((pos + r, pos + c), v) for (r, c), v in x.items())
        h += tb.h
        if form is not None:
            form += [(pos + c, b) for c, b in tb.form]
        pos += fn
    k = pair.g0.factors[0][1]
    return RealizedPair(SL2Triple(kind, n, e, h, f, form),
                        [1] * k + [-1] * (n - k))


def _sigma_basis(rp: RealizedPair) -> dict[int, list[Entries]]:
    """Basis matrices of the ambient algebra by h-weight: E_ij (i != j) and
    E_ii - E_{i+1,i+1} on sl, B^{-1} A for the coordinates A on so/sp."""
    tr = rp.triple
    kind, h = tr.kind, tr.h
    sign = -1 if kind == "so" else 1
    out: dict[int, list[Entries]] = {}
    for w, coords in _weight_blocks(kind, h).items():
        if kind == "sl":
            out[w] = [{(i, j): 1} for i, j in coords if i != j]
            continue
        perm = tr.form  # B^{-1} E_ij = b_i E_{p(i),j}
        mats = []
        for i, j in coords:
            x = {(perm[i][0], j): perm[i][1]}
            if i != j:
                x[(perm[j][0], i)] = sign * perm[j][1]
            if any(h[r] - h[c] != w for r, c in x):
                raise RuntimeError(f"basis matrix {x} is not of h-weight {w}")
            mats.append(x)
        out[w] = mats
    if kind == "sl":
        out[0] += [{(i, i): 1, (i + 1, i + 1): -1} for i in range(tr.n - 1)]
    return out


def _sigma_blocks(rp: RealizedPair) -> dict[int, list[SparseRow]]:
    """sigma on each h-weight block of the basis: the image of basis
    matrix k as a sparse row of its coordinates (the transpose of the
    matrix of sigma, which has the same eigenspace dimensions).

    sigma sends a basis matrix to +- a basis matrix: first tried as +- the
    same matrix, which covers every inner pair, then (outer sl) found by its
    entries in an index of the block built on the first miss.  Only the
    other images (the Cartan part of outer sl pairs) are solved for in the
    span of the block."""
    n = rp.triple.n
    out: dict[int, list[SparseRow]] = {}
    for w, mats in _sigma_basis(rp).items():
        index = dense = None
        rows = []
        for k, x in enumerate(mats):
            y = rp.sigma_entries(x)
            if y == x:
                rows.append({k: 1})
                continue
            if y == {rc: -v for rc, v in x.items()}:
                rows.append({k: -1})
                continue
            if index is None:
                index = {}
                for m, z in enumerate(mats):
                    index[frozenset(z.items())] = (m, 1)
                    index[frozenset((rc, -v) for rc, v in z.items())] = \
                        (m, -1)
            hit = index.get(frozenset(y.items()))
            if hit is not None:
                rows.append({hit[0]: hit[1]})
                continue
            dense = dense or [_dense(m, n) for m in mats]
            coords = solve_in_span(dense, _dense(y, n))
            for v in coords:
                if v.denominator != 1:
                    raise RuntimeError(f"sigma has coordinate {v} on the "
                                       f"basis of h-weight {w}")
            rows.append({k: int(v) for k, v in enumerate(coords) if v})
        out[w] = rows
    return out


def oracle_grid(pair: SymmetricPair,
                factor_partitions: list[Partition] | None = None
                ) -> MixedGrading:
    """The grid d_j(i) recomputed from an explicit matrix realisation."""
    rp = realize_pair(pair, factor_partitions)
    tr = rp.triple
    if not tr.check_relations():
        raise RuntimeError("triple relations failed")
    for name, x in (("e", tr.e), ("h", _diagonal(tr.h))):
        if rp.sigma_entries(x) != x:
            raise RuntimeError(f"{name} is not sigma-fixed")
    # split each h-weight block by the eigenvalues of sigma
    d: dict[tuple[int, int], int] = {}
    for w, sig in _sigma_blocks(rp).items():
        if w < 0:
            continue
        plus = eigenspace_dim(sig, 1)
        minus = eigenspace_dim(sig, -1)
        if plus + minus != len(sig):
            raise RuntimeError(f"sigma is not an involution on h-weight {w}")
        d[(0, w)] = plus
        d[(1, w)] = minus
    hi = max((w for (_, w) in d), default=0)
    mg = MixedGrading(tuple(d.get((0, i), 0) for i in range(hi + 1)),
                      tuple(d.get((1, i), 0) for i in range(hi + 1)))
    # sanity: the fixed subalgebra has the catalogued dimension
    if mg.dim_g0 != pair.dim_g0:
        raise RuntimeError(f"{pair.descriptor}: sigma fixes {mg.dim_g0} "
                           f"dimensions, dim g0 is {pair.dim_g0}")
    return mg

