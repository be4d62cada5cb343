"""Catalog of involutions (symmetric pairs) of the simple Lie algebras.

A conjugacy class of involutions is recorded by the isomorphism type of its
fixed subalgebra, an inner/outer flag, and its Satake diagram (black nodes
plus arrows joining white nodes).  Classical families are generated by
closed-form rules; the exceptional classes and their Satake diagrams are
static records following the standard tables (Onishchik--Vinberg Table 4,
Helgason Table VI), transcribed into the node numbering of
`nilorbits.roots`.  Each row of EXCEPTIONAL_ROWS also records the orbit of
an element regular in g0, which `nilorbits.exceptional` reads.

For a diagram with only isolated black nodes (IBN) the difference
dim g1 - dim g0 equals rank - 2*#arrows - 4*#black, and within one simple
type this signature identifies the class (the single exception is D4,
where the gl_4 pair and the so_2+so_6 pair are exchanged by triality and
share the signature -4).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .roots import SimpleType, build_root_system

Factor = tuple[str, int]


def _factor_numbers(f: Factor) -> tuple[int, int, int]:
    """(dim, rank, centre dim) of one factor: so, sp, gl and sl by matrix
    size, t_n an n-dimensional torus, a Cartan label by rank (A~ is a copy
    of A)."""
    kind, n = f
    if kind == "so":
        dim = n * (n - 1) // 2
        return dim, n // 2, dim if n <= 2 else 0  # so1 = 0, so2 = t1
    if kind == "sp":
        return n * (n + 1) // 2, n // 2, 0  # n = matrix size, even
    if kind == "gl":
        return n * n, n, 1
    if kind == "sl":
        return n * n - 1, n - 1, 0
    if kind == "t":
        return n, n, n
    return SimpleType(kind[0], n).dimension, n, 0


def factor_str(f: Factor) -> str:
    kind, n = f
    return f"{kind}{n}" if kind != "A~" else f"A{n}~"


_FACTOR = re.compile(r"(so|sp|gl|sl|t|[A-G])([0-9]+)(~?)")


def parse_factors(text: str) -> tuple[Factor, ...]:
    """Factors of a sum such as 'so8+so1', 'A5+A1', 'A1~' or 't1'; '0' is
    the zero algebra."""
    if text == "0":
        return ()
    factors = []
    for part in text.split("+"):
        if not part:
            raise ValueError(f"empty part in the factor sum {text!r}")
        m = _FACTOR.fullmatch(part)
        if m is None or (m[3] and m[1] != "A"):
            raise ValueError(f"cannot read the factor {part!r} of {text!r}: "
                             "expected so, sp, gl, sl or t with a size, or "
                             "a Cartan label such as A5 or A1~")
        factors.append((m[1] + m[3], int(m[2])))
    return tuple(factors)


@dataclass(frozen=True)
class Reductive:
    """A reductive algebra as a sum of factors; traced cuts a sum of gl's
    by one trace condition, s(gl_k + gl_l + ...).  It is g0 of a pair, the
    reductive centraliser of a classical orbit, or the recorded reductive
    type of an exceptional orbit."""

    factors: tuple[Factor, ...]
    traced: bool = False

    def _sum(self, i: int) -> int:
        return sum(_factor_numbers(f)[i] for f in self.factors) - self.traced

    @cached_property
    def dim(self) -> int:
        return self._sum(0)

    @cached_property
    def rank(self) -> int:
        return self._sum(1)

    @cached_property
    def center_dim(self) -> int:
        return self._sum(2)

    @property
    def is_toral(self) -> bool:
        """A reductive algebra is a torus iff it equals its centre."""
        return self.dim == self.center_dim

    @cached_property
    def descriptor(self) -> str:
        return "+".join(factor_str(f) for f in self.factors)

    def __str__(self):
        if self.dim == 0:
            return "0"
        if self.is_toral:
            return f"t{self.dim}"
        live = [f for f in self.factors if f != ("so", 1)]
        if self.traced and len(live) == 1 and live[0][0] == "gl":
            return f"sl{live[0][1]}"
        body = "+".join(factor_str(f) for f in live)
        return f"s({body})" if self.traced else body


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
        return self.type.isolated(self.black)

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
    g0: Reductive
    inner: bool
    satake: SatakeDiagram

    @property
    def descriptor(self) -> str:
        return self.g0.descriptor

    @property
    def dim_g0(self) -> int:
        return self.g0.dim

    @property
    def dim_g1(self) -> int:
        return self.g.dimension - self.dim_g0

    @property
    def signature(self) -> int:
        return self.dim_g1 - self.dim_g0

    @property
    def is_maximal_rank(self) -> bool:
        return self.signature == self.g.rank

    @cached_property
    def shape(self) -> str | None:
        """How g0 sits in the matrix ambient of a classical g: 'hermitian'
        (gl_r in so_2r or sp_2r), 'twisted' (so_n or sp_n in sl_n, fixed by
        an outer involution) or 'blocks' (a block-diagonal sum); None for
        exceptional g."""
        amb = self.g.ambient
        if amb is None:
            return None
        if len(self.g0.factors) > 1:
            return "blocks"
        return "twisted" if amb[0] == "sl" else "hermitian"

    @property
    def g0_str(self) -> str:
        return f"s({self.descriptor})" if self.g0.traced else self.descriptor

    def __str__(self):
        return f"({self.g}, {self.g0_str})"

    def to_json(self) -> dict:
        return {"g": self.g.to_json(), "g0": self.descriptor,
                "inner": self.inner, "dim_g0": self.dim_g0,
                "dim_g1": self.dim_g1, "ibn": self.satake.ibn,
                "satake": self.satake.to_json()}


def _pair(g, factors, inner, black=(), arrows=(), traced=False):
    sat = SatakeDiagram(g, frozenset(black),
                        frozenset(tuple(sorted(a)) for a in arrows))
    return SymmetricPair(g, Reductive(tuple(factors), traced), inner, sat)


EXCEPTIONAL_ROWS = [
    # type, g0, inner, black nodes, arrows (0-based numbering); then the
    # orbit through an element regular in g0: Bala-Carter label, diagram
    # labels, reductive type, divisible (None: not recorded)
    ("E6", "C4",     False, (), (),
     "E6(a1)", (2, 2, 2, 0, 2, 2), "0", True),
    ("E6", "A5+A1",  True, (), ((0, 5), (2, 4)),
     "E6(a3)", (2, 0, 0, 2, 0, 2), "0", None),
    ("E6", "D5+t1",  True, (2, 3, 4), ((0, 5),),
     "D5", (2, 2, 0, 2, 0, 2), "t1", None),
    ("E6", "F4",     False, (1, 2, 3, 4), (),
     "E6", (2, 2, 2, 2, 2, 2), "0", None),
    ("E7", "A7",     True, (), (),
     "E6(a1)", (2, 0, 0, 2, 0, 2, 0), "t1", True),
    ("E7", "D6+A1",  True, (1, 4, 6), (),
     "E7(a3)", (2, 0, 0, 2, 0, 2, 2), "0", None),
    ("E7", "E6+t1",  True, (1, 2, 3, 4), (),
     "E6", (2, 0, 2, 2, 0, 2, 0), "A1", None),
    ("E8", "D8",     True, (), (),
     "E8(a4)", (2, 0, 0, 2, 0, 2, 0, 2), "0", True),
    ("E8", "E7+A1",  True, (1, 2, 3, 4), (),
     "E8(a3)", (2, 0, 0, 2, 0, 2, 2, 2), "0", None),
    ("F4", "C3+A1",  True, (), (),
     "F4(a2)", (2, 0, 2, 0), "0", None),
    ("F4", "B4",     True, (1, 2, 3), (),
     "F4(a1)", (2, 0, 2, 2), "0", None),
    ("G2", "A1+A1~", True, (), (),
     "G2(a1)", (0, 2), "0", None),
]


@lru_cache(maxsize=None)
def catalog(t: SimpleType) -> tuple[SymmetricPair, ...]:
    """All involution classes of the simple algebra of type t."""
    fam, r = t.family, t.rank
    n = t.ambient[1] if t.ambient else 0  # matrix size of a classical type
    pairs: list[SymmetricPair] = []
    if fam == "A":
        pairs.append(_pair(t, [("so", n)], inner=(n == 2)))
        if n % 2 == 0 and n >= 4:
            black = tuple(range(0, n - 1, 2))
            pairs.append(_pair(t, [("sp", n)], False, black))
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
            pairs.append(_pair(t, [("gl", k), ("gl", l)], True, black,
                               arrows, traced=True))
    elif fam == "B":
        for s in range(1, r + 1):
            black = tuple(range(s, r))
            pairs.append(_pair(t, [("so", n - s), ("so", s)], True, black))
    elif fam == "C":
        pairs.append(_pair(t, [("gl", r)], True))
        for k in range(1, r // 2 + 1):
            p = k  # smaller half
            black = tuple(i for i in range(r)
                          if not (i % 2 == 1 and i <= 2 * p - 1))
            pairs.append(_pair(t, [("sp", 2 * (r - k)), ("sp", 2 * k)],
                               True, black))
    elif fam == "D":
        for s in range(1, r + 1):
            if s == r:
                black, arrows = (), ()
            elif s == r - 1:
                black, arrows = (), ((r - 2, r - 1),)
            else:
                black, arrows = tuple(range(s, r)), ()
            pairs.append(_pair(t, [("so", n - s), ("so", s)],
                               inner=(s % 2 == 0), black=black,
                               arrows=arrows))
        if r % 2 == 0:
            black = tuple(range(0, r, 2))
            arrows = ()
        else:
            black = tuple(range(0, r - 2, 2))
            arrows = ((r - 2, r - 1),)
        pairs.append(_pair(t, [("gl", r)], True, black, arrows))
    else:
        pairs += [_pair(t, parse_factors(g0), inner, black, arrows)
                  for ts, g0, inner, black, arrows, *_ in EXCEPTIONAL_ROWS
                  if ts == str(t)]
    return tuple(pairs)


# Cartan labels of classical factors: B_k = so_2k+1, D_k = so_2k, C_k = sp_2k
_LABEL_SIZES = {"B": ("so", 1), "D": ("so", 0), "C": ("sp", 0)}


def pair_by_descriptor(t: SimpleType, descriptor: str) -> SymmetricPair:
    """The class whose g0 has the given factors, in any order.  Also
    accepted: s(...), Cartan labels such as C3 for sp6 on classical types,
    and a bare 'so8' for so8+so1 on B/D."""
    d = descriptor.strip().replace(" ", "")
    if d.startswith("s(") and d.endswith(")"):
        d = d[2:-1]
    factors = list(parse_factors(d))
    if t.ambient is not None:
        factors = [(_LABEL_SIZES[k][0], 2 * m + _LABEL_SIZES[k][1])
                   if k in _LABEL_SIZES else (k, m) for k, m in factors]
    n = t.ambient[1] if t.family in ("B", "D") else 0
    if len(factors) == 1 and factors[0][0] == "so" and factors[0][1] < n:
        factors.append(("so", n - factors[0][1]))
    key = sorted(factors)
    for p in catalog(t):
        if sorted(p.g0.factors) == key:
            return p
    known = [p.descriptor for p in catalog(t)]
    raise KeyError(f"no involution class {descriptor!r} of {t}; "
                   f"known: {known}")


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


def identify_ibn(t: SimpleType, diff: int, inner: bool, wdd) -> SymmetricPair:
    """The IBN class of the given component with dim g1 - dim g0 = diff
    meeting the orbit with weighted diagram wdd (which separates the D4
    triality twins)."""
    ibn = [(ibn_signature(p.satake), p) for p in catalog(t)
           if p.satake.ibn and p.inner == inner]
    hits = [p for sig, p in ibn
            if sig == diff and orbit_meets_g1(wdd, p.satake)]
    if len(hits) == 1:
        return hits[0]
    meets = f" meeting the orbit {wdd.labels}"
    if not hits:
        sigs = sorted((sig, p.descriptor) for sig, p in ibn)
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

