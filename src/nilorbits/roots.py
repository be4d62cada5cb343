"""Irreducible root systems over the integers.

Roots are stored as integer coefficient vectors with respect to a fixed set
of simple roots, so every computation here (closure, heights, norms, the
Coxeter number) is exact.  Node numbering conventions:

* A_n, B_n, C_n: a chain alpha_1 .. alpha_n; for B_n the last node is short,
  for C_n the last node is long and the first n-1 are short.
* D_n: chain alpha_1 .. alpha_{n-2} with the fork nodes alpha_{n-1}, alpha_n
  both attached to alpha_{n-2}.
* E_6/E_7/E_8: chain alpha_1, alpha_3, alpha_4, ..., alpha_n with the branch
  node alpha_2 attached to alpha_4 (Bourbaki).
* F_4: chain alpha_1 - alpha_2 = alpha_3 - alpha_4 with alpha_1, alpha_2
  short; G_2: alpha_1 short, alpha_2 long.  (These two follow the numbering
  of Onishchik--Vinberg rather than Bourbaki; the short end comes first.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),  # D2 = A1+A1 and D3 = A3 are rejected; use those types
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True, order=True)
class SimpleType:
    """A simple Lie algebra type, e.g. SimpleType('E', 6)."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family == "E":
            if self.rank not in (6, 7, 8):
                raise ValueError("type E exists only in ranks 6, 7, 8")
            return
        if self.family not in _RANK_BOUNDS:
            raise ValueError(f"unknown family {self.family!r}")
        lo, hi = _RANK_BOUNDS[self.family]
        if self.rank < lo:
            if self.family == "D" and self.rank in (2, 3):
                hint = "A1xA1" if self.rank == 2 else "A3"
                raise ValueError(f"D{self.rank} is rejected; use {hint} "
                                 "explicitly")
            raise ValueError(f"rank must be >= {lo} for family {self.family}")
        if hi is not None and self.rank > hi:
            raise ValueError(f"rank must be {hi} for family {self.family}")

    def __str__(self):
        return f"{self.family}{self.rank}"

    @staticmethod
    def parse(text: str) -> "SimpleType":
        text = text.strip()
        if len(text) < 2 or text[0].upper() not in "ABCDEFG" \
                or not text[1:].isdecimal():
            raise ValueError(f"cannot parse simple type from {text!r}")
        return SimpleType(text[0].upper(), int(text[1:]))

    @staticmethod
    def of_ambient(kind: str, n: int) -> "SimpleType":
        """The type of sl_n, so_n or sp_n (n even)."""
        if kind == "sl":
            return SimpleType("A", n - 1)
        if kind == "so":
            return SimpleType("B" if n % 2 else "D", n // 2)
        if kind == "sp" and n % 2 == 0:
            return SimpleType("C", n // 2)
        raise ValueError(f"{kind}{n} is not sl_n, so_n or sp_n with n even")

    @cached_property
    def ambient(self) -> tuple[str, int] | None:
        """(matrix kind, size) of the defining representation of a classical
        type; None for E, F and G."""
        r = self.rank
        return {"A": ("sl", r + 1), "B": ("so", 2 * r + 1), "C": ("sp", 2 * r),
                "D": ("so", 2 * r)}.get(self.family)

    @property
    def dimension(self) -> int:
        return self.rank + 2 * self.num_positive_roots

    @cached_property
    def num_positive_roots(self) -> int:
        n = self.rank
        return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n,
                "D": n * (n - 1), "E": {6: 36, 7: 63, 8: 120}.get(n, 0),
                "F": 24, "G": 6}[self.family]

    @cache
    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Rows indexed by i: entry [i][j] = <alpha_j, alpha_i^vee>."""
        n = self.rank
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

        def bond(i, j, aij=-1, aji=-1):
            a[i][j] = aij
            a[j][i] = aji

        if self.family in ("A", "B", "C"):
            for i in range(n - 1):
                bond(i, i + 1)
            if self.family == "B" and n >= 2:
                a[n - 1][n - 2] = -2        # alpha_n short
            if self.family == "C" and n >= 2:
                a[n - 2][n - 1] = -2        # alpha_n long
        elif self.family == "D":
            for i in range(n - 3):
                bond(i, i + 1)
            bond(n - 3, n - 2)
            bond(n - 3, n - 1)
        elif self.family == "E":
            chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
            for i, j in zip(chain, chain[1:]):
                bond(i, j)
            bond(1, 3)
        elif self.family == "F":
            bond(0, 1)
            bond(1, 2, aij=-2, aji=-1)      # alpha_2 short, alpha_3 long
            bond(2, 3)
        elif self.family == "G":
            bond(0, 1, aij=-3, aji=-1)      # alpha_1 short
        return tuple(tuple(row) for row in a)

    @cache
    def root_lengths(self) -> tuple[int, ...]:
        """Half squared norms d_i = (alpha_i, alpha_i)/2, short roots 1: the
        Cartan symmetriser d_i a_ij = d_j a_ji (Bourbaki, Lie groups and Lie
        algebras, ch. VI, 1.1), carried along the bonds from node 0."""
        a, d = self.cartan_matrix(), {0: 6}    # 6: every bond ratio divides
        todo = [0]
        while todo:
            i = todo.pop()
            for j in self.adjacency()[i]:
                if j not in d:
                    d[j] = d[i] * a[i][j] // a[j][i]
                    todo.append(j)
        low = min(d.values())
        return tuple(d[i] // low for i in range(self.rank))

    def short_nodes(self) -> frozenset[int]:
        lengths = self.root_lengths()
        top = max(lengths)
        return frozenset(i for i, d in enumerate(lengths) if d < top)

    @cache
    def adjacency(self) -> tuple[frozenset[int], ...]:
        a = self.cartan_matrix()
        n = self.rank
        return tuple(frozenset(j for j in range(n) if j != i and a[i][j] != 0)
                     for i in range(n))

    def isolated(self, nodes: frozenset[int]) -> bool:
        """Whether no two of the nodes are joined in the Dynkin diagram."""
        adj = self.adjacency()
        return all(not (adj[i] & nodes) for i in nodes)

    def to_json(self) -> dict:
        return {"family": self.family, "rank": self.rank}


Root = tuple[int, ...]      # coefficients on the simple roots


class RootSystem:
    """The positive system of an irreducible root system, built by closure.

    ``parents[k]`` is (j, i) with positive_roots[k] = positive_roots[j] +
    alpha_i for a root of height >= 2, and (None, i) for alpha_i itself.
    Roots are sorted by height, then coefficients, so the simple roots come
    first, every parent precedes its child and the highest root, the one
    root of top height, is last.  A root's height is sum(root).
    """

    def __init__(self, type: SimpleType, positive_roots: tuple[Root, ...],
                 parents: tuple[tuple[int | None, int], ...]):
        self.type = type
        self.positive_roots = positive_roots
        self.parents = parents
        self.highest_root = positive_roots[-1]

    @property
    def rank(self) -> int:
        return self.type.rank

    def norm2(self, root: Root) -> int:
        """(root, root), normalised so short simple roots have norm 2."""
        t, c = self.type, root
        d, a, adj = t.root_lengths(), t.cartan_matrix(), t.adjacency()
        return sum(c[i] * d[i] * (2 * c[i] + sum(a[i][j] * c[j]
                                                 for j in adj[i]))
                   for i in range(self.rank) if c[i])

    def weighted_heights(self, labels) -> list[int]:
        """<root, labels> for each positive root, in root order: one add
        per root, from its parent's value."""
        out = [labels[i] for _, i in self.parents[:self.rank]]
        for j, i in self.parents[self.rank:]:
            out.append(out[j] + labels[i])
        return out

    def is_long(self, root: Root) -> bool:
        return self.norm2(root) == 2 * max(self.type.root_lengths())

    def roots_of_height(self, h: int) -> tuple[Root, ...]:
        return tuple(r for r in self.positive_roots if sum(r) == h)


@lru_cache(maxsize=None)
def build_root_system(t: SimpleType) -> RootSystem:
    """Close the simple roots under root addition, one height at a time.

    gamma + alpha_i is a root iff q = p - <gamma, alpha_i^vee> > 0, where p
    is the largest k with gamma - k*alpha_i still a root.  Each root of the
    current height carries its nonzero pairings <gamma, alpha_j^vee> and
    its nonzero p_j.  A child gamma + alpha_i takes its pairings from
    gamma's plus Cartan column i, and p_i(gamma + alpha_i) = p_i(gamma) + 1
    is recorded on every edge that reaches it.  An index with pairing and
    p both zero has q = 0, so only the other indices are tried.
    """
    n = t.rank
    a = t.cartan_matrix()
    # nonzero entries of Cartan column i: <alpha_i, alpha_j^vee> = a[j][i]
    cols = [[(j, a[j][i]) for j in range(n) if a[j][i]] for i in range(n)]
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    # root -> (parent root, i) with root = parent + alpha_i
    known: dict[tuple[int, ...], tuple[tuple[int, ...] | None, int]] = {
        s: (None, i) for i, s in enumerate(simple)}
    # per root of the current and next height: {j: <root, alpha_j^vee>} and
    # {j: p_j(root)}, nonzero entries only
    pairings = {s: dict(col) for s, col in zip(simple, cols)}
    strings: dict[tuple[int, ...], dict[int, int]] = {s: {} for s in simple}
    order: list[tuple[int, ...]] = []      # by height, then coefficients
    layer = sorted(simple)
    while layer:
        order += layer
        new_layer = []
        for g in layer:
            pg = pairings.pop(g)
            sg = strings.pop(g)
            for i in pg.keys() | sg.keys():
                p = sg.get(i, 0)
                if p <= pg.get(i, 0):
                    continue
                up = g[:i] + (g[i] + 1,) + g[i + 1:]
                if up in known:
                    strings[up][i] = p + 1
                    continue
                known[up] = (g, i)
                new_layer.append(up)
                pu = dict(pg)
                for j, x in cols[i]:
                    x += pu.get(j, 0)
                    if x:
                        pu[j] = x
                    else:
                        del pu[j]
                pairings[up] = pu
                strings[up] = {i: p + 1}
        layer = sorted(new_layer)
    if len(order) != t.num_positive_roots:
        raise RuntimeError(
            f"closure for {t} produced {len(order)} positive roots, "
            f"expected {t.num_positive_roots}")
    index = {c: k for k, c in enumerate(order)}
    parents = tuple((None if g is None else index[g], i)
                    for g, i in map(known.get, order))
    return RootSystem(t, tuple(order), parents)


def coxeter_number(rs: RootSystem) -> int:
    return sum(rs.highest_root) + 1


def kappa_direct(t: SimpleType) -> int:
    """Maximal number of pairwise non-adjacent Dynkin diagram nodes."""
    if t.family == "D" and t.rank % 2 == 0:
        return t.rank // 2 + 1
    return (t.rank + 1) // 2


def kappa_root_count(rs: RootSystem) -> int:
    """Count positive roots at height floor((c+1)/2); agrees with kappa."""
    a = (coxeter_number(rs) + 1) // 2
    return len(rs.roots_of_height(a))


def principal_layer(rs: RootSystem, i: int) -> tuple[Root, ...]:
    """Roots of height i (negated for i < 0, empty for i = 0)."""
    if i == 0:
        return ()
    layer = rs.roots_of_height(abs(i))
    return layer if i > 0 else tuple(tuple(-c for c in r) for r in layer)


def beta_root(rs: RootSystem) -> Root:
    """The one height-4 root that is not a sum of two height-2 roots: with
    the height-2 roots it forms the base of the even-height subsystem.
    There is none for types A and C (and B2 = C2); it must be long.
    """
    layer2 = rs.roots_of_height(2)
    sums = {tuple(a + b for a, b in zip(x, y)) for x in layer2 for y in layer2}
    found = [r for r in rs.roots_of_height(4) if r not in sums]
    if not found:
        raise ValueError(f"beta root is not defined for type {rs.type}")
    if len(found) > 1 or not rs.is_long(found[0]):
        raise RuntimeError(f"{rs.type}: height-4 roots outside the height-2 "
                           f"sums {found} are not one long root")
    return found[0]


def principal_inner_labels(rs: RootSystem) -> tuple[int, ...]:
    """D(e_sigma) for the principal inner involution: <alpha_i, 2 rho_0^vee>
    with rho_0^vee half the sum of the positive coroots of g0, whose roots
    are those of even height (Collingwood--McGovern 3.8).  As <alpha_i,
    beta^vee> = sum_k c_k(beta) d_i a_ik / d_beta, the coefficient vectors
    are summed first, weighted by top/d_beta, then paired once.
    """
    t = rs.type
    n, a, d = t.rank, t.cartan_matrix(), t.root_lengths()
    top = max(d)
    v = [0] * n
    for r in rs.positive_roots:
        if sum(r) % 2 == 0:
            w = 2 * top // rs.norm2(r)
            for k, c in enumerate(r):
                v[k] += w * c
    labels = tuple(d[i] * sum(a[i][k] * v[k] for k in range(n)) // top
                   for i in range(n))
    if min(labels, default=0) < 0:
        raise RuntimeError(f"{t}: even-height coroots give labels {labels}")
    return labels


def all_simple_types(max_rank: int) -> list[SimpleType]:
    """Every type `SimpleType` accepts with rank <= max_rank, family by
    family in the order A, B, C, D, E, F, G, then by rank."""
    out = []
    for fam in "ABCDEFG":
        for r in range(1, max_rank + 1):
            try:
                out.append(SimpleType(fam, r))
            except ValueError:
                pass
    return out
