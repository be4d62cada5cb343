"""Catalog of involutions (symmetric pairs) of the simple Lie algebras.

A conjugacy class of involutions is recorded by the isomorphism type of its
fixed subalgebra, an inner/outer flag, and its Satake diagram (black nodes
plus arrows joining white nodes).  Classical families are generated by
closed-form rules; the exceptional classes and their Satake diagrams are
static records following the standard tables (Onishchik--Vinberg Table 4,
Helgason Table VI), transcribed into the node numbering of
`nilorbits.roots`.

For a diagram with only isolated black nodes (IBN) the difference
dim g1 - dim g0 equals rank - 2*#arrows - 4*#black, and within one simple
type this signature identifies the class (the single exception is D4,
where the gl_4 pair and the so_2+so_6 pair are exchanged by triality and
share the signature -4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .roots import SimpleType, build_root_system

Factor = tuple[str, int]


def factor_dim(f: Factor) -> int:
    kind, n = f
    if kind == "so":
        return n * (n - 1) // 2
    if kind == "sp":
        return n * (n + 1) // 2  # n = matrix size, even
    if kind == "gl":
        return n * n
    if kind == "sl":
        return n * n - 1
    if kind == "t":
        return n
    return SimpleType(kind[0], n).dimension  # Cartan label; A~ is a copy of A


def factor_rank(f: Factor) -> int:
    kind, n = f
    if kind == "so":
        return n // 2
    if kind == "sp":
        return n // 2
    if kind in ("gl", "t", "A", "A~", "B", "C", "D", "E", "F", "G"):
        return n
    if kind == "sl":
        return n - 1
    raise ValueError(kind)


def factor_center_dim(f: Factor) -> int:
    kind, n = f
    if kind == "t":
        return n
    if kind == "gl":
        return 1
    if kind == "so" and n <= 2:
        return factor_dim(f)  # so1 = 0, so2 = t1
    return 0


def factor_str(f: Factor) -> str:
    kind, n = f
    return f"{kind}{n}" if kind != "A~" else f"A{n}~"


@dataclass(frozen=True)
class SatakeDiagram:
    type: SimpleType
    black: frozenset[int]
    arrows: frozenset[tuple[int, int]]

    def __post_init__(self):
        for i, j in self.arrows:
            if i == j or i in self.black or j in self.black:
                raise ValueError("arrows must join distinct white nodes")

    @cached_property
    def ibn(self) -> bool:
        adj = self.type.adjacency()
        return all(not (adj[i] & self.black) for i in self.black)

    def render(self) -> str:
        marks = "".join("●" if i in self.black else "○"
                        for i in range(self.type.rank))
        if self.arrows:
            pairs = ",".join(f"{i + 1}<->{j + 1}"
                             for i, j in sorted(self.arrows))
            return f"{marks} arrows[{pairs}]"
        return marks

    def to_json(self) -> dict:
        return {"type": self.type.to_json(),
                "black": sorted(self.black),
                "arrows": sorted(map(list, self.arrows))}


def ibn_signature(s: SatakeDiagram) -> int:
    """dim g1 - dim g0, read off an IBN Satake diagram."""
    if not s.ibn:
        raise ValueError("signature formula requires isolated black nodes")
    return s.type.rank - 2 * len(s.arrows) - 4 * len(s.black)


@dataclass(frozen=True)
class SymmetricPair:
    g: SimpleType
    descriptor: str
    factors: tuple[Factor, ...]
    inner: bool
    satake: SatakeDiagram
    traced: bool = False  # sl ambient: s(gl+gl), one central torus removed

    @property
    def dim_g0(self) -> int:
        return sum(factor_dim(f) for f in self.factors) - \
            (1 if self.traced else 0)

    @property
    def dim_g1(self) -> int:
        return self.g.dimension - self.dim_g0

    @property
    def signature(self) -> int:
        return self.dim_g1 - self.dim_g0

    @property
    def is_maximal_rank(self) -> bool:
        return self.signature == self.g.rank

    @property
    def center_dim_g0(self) -> int:
        c = sum(factor_center_dim(f) for f in self.factors)
        return c - (1 if self.traced else 0)

    @property
    def g0_semisimple(self) -> bool:
        return self.center_dim_g0 == 0

    @property
    def rank_g0(self) -> int:
        return sum(factor_rank(f) for f in self.factors) - \
            (1 if self.traced else 0)

    @cached_property
    def shape(self) -> str | None:
        """How g0 sits in the matrix ambient of a classical g: 'hermitian'
        (gl_r in so_2r or sp_2r), 'twisted' (so_n or sp_n in sl_n, fixed by
        an outer involution) or 'blocks' (a block-diagonal sum); None for
        exceptional g."""
        amb = self.g.ambient
        if amb is None:
            return None
        if len(self.factors) > 1:
            return "blocks"
        return "twisted" if amb[0] == "sl" else "hermitian"

    @property
    def g0_str(self) -> str:
        body = "+".join(factor_str(f) for f in self.factors)
        return f"s({body})" if self.traced else body

    def __str__(self):
        return f"({self.g}, {self.g0_str})"

    def to_json(self) -> dict:
        return {"g": self.g.to_json(), "g0": self.descriptor,
                "inner": self.inner, "dim_g0": self.dim_g0,
                "dim_g1": self.dim_g1, "ibn": self.satake.ibn,
                "satake": self.satake.to_json()}


def _pair(g, descriptor, factors, inner, black=(), arrows=(), traced=False):
    sat = SatakeDiagram(g, frozenset(black),
                        frozenset(tuple(sorted(a)) for a in arrows))
    return SymmetricPair(g=g, descriptor=descriptor, factors=tuple(factors),
                         inner=inner, satake=sat, traced=traced)


_EXCEPTIONAL_PAIRS = {
    # descriptor: (factors, inner, black nodes, arrows) in 0-based numbering
    "E6": [
        ("C4",     [("C", 4)],           False, (), ()),
        ("A5+A1",  [("A", 5), ("A", 1)], True,  (), ((0, 5), (2, 4))),
        ("D5+t1",  [("D", 5), ("t", 1)], True,  (2, 3, 4), ((0, 5),)),
        ("F4",     [("F", 4)],           False, (1, 2, 3, 4), ()),
    ],
    "E7": [
        ("A7",     [("A", 7)],           True, (), ()),
        ("D6+A1",  [("D", 6), ("A", 1)], True, (1, 4, 6), ()),
        ("E6+t1",  [("E", 6), ("t", 1)], True, (1, 2, 3, 4), ()),
    ],
    "E8": [
        ("D8",     [("D", 8)],           True, (), ()),
        ("E7+A1",  [("E", 7), ("A", 1)], True, (1, 2, 3, 4), ()),
    ],
    "F4": [
        ("C3+A1",  [("C", 3), ("A", 1)], True, (), ()),
        ("B4",     [("B", 4)],           True, (1, 2, 3), ()),
    ],
    "G2": [
        ("A1+A1~", [("A", 1), ("A~", 1)], True, (), ()),
    ],
}


@lru_cache(maxsize=None)
def catalog(t: SimpleType) -> tuple[SymmetricPair, ...]:
    """All involution classes of the simple algebra of type t."""
    fam, r = t.family, t.rank
    pairs: list[SymmetricPair] = []
    if fam == "A":
        n = r + 1
        pairs.append(_pair(t, f"so{n}", [("so", n)], inner=(n == 2)))
        if n % 2 == 0 and n >= 4:
            black = tuple(range(0, n - 1, 2))
            pairs.append(_pair(t, f"sp{n}", [("sp", n)], False, black))
        for k in range(1, n // 2 + 1):
            if n == 2:
                break  # s(gl1+gl1) coincides with the so2 class
            l = n - k
            if k < l:
                arrows = tuple((i, n - 2 - i) for i in range(k))
                black = tuple(range(k, n - 1 - k))
            else:
                arrows = tuple((i, n - 2 - i) for i in range(k - 1))
                black = ()
            pairs.append(_pair(t, f"gl{k}+gl{l}", [("gl", k), ("gl", l)],
                               True, black, arrows, traced=True))
    elif fam == "B":
        n = 2 * r + 1
        for s in range(1, r + 1):
            black = tuple(range(s, r))
            pairs.append(_pair(t, f"so{n - s}+so{s}",
                               [("so", n - s), ("so", s)], True, black))
    elif fam == "C":
        n = 2 * r
        pairs.append(_pair(t, f"gl{r}", [("gl", r)], True))
        for k in range(1, r // 2 + 1):
            p = k  # smaller half
            black = tuple(i for i in range(r)
                          if not (i % 2 == 1 and i <= 2 * p - 1))
            pairs.append(_pair(t, f"sp{2 * (r - k)}+sp{2 * k}",
                               [("sp", 2 * (r - k)), ("sp", 2 * k)],
                               True, black))
    elif fam == "D":
        n = 2 * r
        for s in range(1, r + 1):
            if s == r:
                black, arrows = (), ()
            elif s == r - 1:
                black, arrows = (), ((r - 2, r - 1),)
            else:
                black, arrows = tuple(range(s, r)), ()
            pairs.append(_pair(t, f"so{n - s}+so{s}",
                               [("so", n - s), ("so", s)],
                               inner=(s % 2 == 0), black=black,
                               arrows=arrows))
        if r % 2 == 0:
            black = tuple(range(0, r, 2))
            arrows = ()
        else:
            black = tuple(range(0, r - 2, 2))
            arrows = ((r - 2, r - 1),)
        pairs.append(_pair(t, f"gl{r}", [("gl", r)], True, black, arrows))
    else:
        for desc, factors, inner, black, arrows in _EXCEPTIONAL_PAIRS[str(t)]:
            pairs.append(_pair(t, desc, factors, inner, black, arrows))
    return tuple(pairs)


def pair_by_descriptor(t: SimpleType, descriptor: str) -> SymmetricPair:
    descriptor = normalize_descriptor(t, descriptor)
    for p in catalog(t):
        if p.descriptor == descriptor:
            return p
    known = [p.descriptor for p in catalog(t)]
    raise KeyError(f"no involution class {descriptor!r} of {t}; "
                   f"known: {known}")


def normalize_descriptor(t: SimpleType, descriptor: str) -> str:
    """Accept shorthand: 'so8' for 'so8+so1', unsorted sums, s(...) and,
    for classical ambients, Cartan labels such as C3 for sp6."""
    d = descriptor.strip().replace(" ", "")
    if d.startswith("s(") and d.endswith(")"):
        d = d[2:-1]
    parts = d.split("+")
    if not all(parts):
        raise ValueError(f"empty part in fixed-algebra descriptor "
                         f"{descriptor!r}")
    if t.family in "ABCD":
        table = {"B": lambda k: f"so{2 * k + 1}", "D": lambda k: f"so{2 * k}",
                 "C": lambda k: f"sp{2 * k}"}
        parts = [table[p[0]](int(p[1:]))
                 if p[0] in table and p[1:].isdigit() else p
                 for p in parts]
    if t.family in ("B", "D") and len(parts) == 1 and parts[0].startswith("so"):
        n = t.ambient[1]
        k = int(parts[0][2:])
        if k < n:
            parts.append(f"so{n - k}")
    if len(parts) == 2 and all(p[:2] in ("so", "sp", "gl") for p in parts):
        kind = parts[0][:2]
        if parts[1][:2] == kind:
            sizes = sorted((int(parts[0][2:]), int(parts[1][2:])),
                           reverse=(kind != "gl"))
            parts = [f"{kind}{sizes[0]}", f"{kind}{sizes[1]}"]
    return "+".join(parts)


def maximal_rank(t: SimpleType) -> SymmetricPair:
    hits = [p for p in catalog(t) if p.is_maximal_rank]
    if len(hits) != 1:
        raise RuntimeError(f"maximal-rank class of {t} not unique: {hits}")
    return hits[0]


@lru_cache(maxsize=None)
def pi_involution(t: SimpleType) -> SymmetricPair:
    """The principal inner class: the parity split of the principal
    grading, so dim g0 = rank + 2 #{positive roots of even height}.  Its
    odd part contains a regular nilpotent element."""
    heights = build_root_system(t).weighted_heights((1,) * t.rank)
    dim_g0 = t.rank + 2 * sum(1 for h in heights if h % 2 == 0)
    hits = [p for p in catalog(t) if p.inner and p.dim_g0 == dim_g0]
    if len(hits) != 1:
        raise RuntimeError(f"principal inner class of {t} not unique: "
                           f"{[p.descriptor for p in hits]}")
    return hits[0]


def so_pair_ibn(n: int, m: int) -> bool:
    """Whether the (so_{n+m}, so_n + so_m) Satake diagram has only IBN."""
    if n < 1 or m < 1:
        raise ValueError("factor sizes must be positive")
    return abs(n - m) <= 4


def identify_ibn(t: SimpleType, diff: int, inner: bool | None = None,
                 wdd=None) -> SymmetricPair:
    """The IBN class with dim g1 - dim g0 = diff, optionally of the given
    component and meeting the orbit with weighted diagram wdd (which
    separates the D4 triality twins)."""
    hits = [p for p in catalog(t)
            if p.satake.ibn and (inner is None or p.inner == inner)
            and ibn_signature(p.satake) == diff
            and (wdd is None or orbit_meets_g1(wdd, p.satake))]
    if len(hits) == 1:
        return hits[0]
    meets = "" if wdd is None else f" meeting the orbit {wdd.labels}"
    if not hits:
        sigs = sorted((ibn_signature(p.satake), p.descriptor)
                      for p in catalog(t) if p.satake.ibn
                      and (inner is None or p.inner == inner))
        raise KeyError(f"no IBN class of {t} with signature {diff}{meets}; "
                       f"available: {sigs}")
    raise KeyError(f"signature {diff} is ambiguous for {t}{meets}: "
                   f"{[p.descriptor for p in hits]} (triality twins)")


def orbit_meets_g1(wdd, s: SatakeDiagram) -> bool:
    """Antonyan's criterion: the orbit with diagram wdd meets the odd part
    iff black nodes sit at zeros and arrow-joined labels agree."""
    if wdd.type != s.type:
        raise ValueError(f"type mismatch: {wdd.type} vs {s.type}")
    if not s.black <= wdd.zeros:
        return False
    return all(wdd.labels[i] == wdd.labels[j] for i, j in s.arrows)


def max_orbit_meeting_g1(s: SatakeDiagram):
    """Diagram of the largest orbit meeting the odd part: 2 on white
    nodes, 0 on black."""
    from .orbits import WeightedDynkinDiagram
    labels = tuple(0 if i in s.black else 2 for i in range(s.type.rank))
    return WeightedDynkinDiagram(s.type, labels)
