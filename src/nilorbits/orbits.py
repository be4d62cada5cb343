"""Partition calculus for nilpotent orbits in sl_n, so_n and sp_2n.

Orbits are encoded by partitions (Jordan block sizes): any partition of n
for sl_n, even parts with even multiplicity for so_n, odd parts with even
multiplicity for sp_2n.  Weighted Dynkin diagrams follow the Springer--
Steinberg recipe: sort the union of the weight strings {p-1, p-3, ..., 1-p}
and take successive differences, with one last label per family.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .involutions import Reductive
from .roots import SimpleType, build_root_system
from .sl2 import SL2Module


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 or p != int(p) for p in self.parts):
            raise ValueError("parts must be positive integers")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be weakly decreasing")

    @staticmethod
    def of(*parts: int) -> "Partition":
        return Partition(tuple(sorted(parts, reverse=True)))

    @staticmethod
    def parse(text: str) -> "Partition":
        inner = text.strip().strip("()[]")
        try:
            parts = tuple(int(p) for p in re.split(r"[\s,]+", inner) if p)
        except ValueError:
            raise ValueError(f"cannot parse partition from {text!r}: parts "
                             "must be integers") from None
        return Partition(tuple(sorted(parts, reverse=True)))

    @property
    def n(self) -> int:
        return sum(self.parts)

    @cached_property
    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def dual(self) -> "Partition":
        if not self.parts:
            return self
        return Partition(tuple(sum(1 for p in self.parts if p > i)
                               for i in range(self.parts[0])))

    def weight_string(self) -> list[int]:
        """All h-eigenvalues on the standard representation, sorted desc."""
        values = [p - 1 - 2 * i for p in self.parts for i in range(p)]
        return sorted(values, reverse=True)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def all_partitions(n: int) -> list[Partition]:
    out: list[tuple[int, ...]] = []

    def rec(rest: int, cap: int, acc: tuple[int, ...]):
        if rest == 0:
            out.append(acc)
            return
        for p in range(min(rest, cap), 0, -1):
            rec(rest - p, p, acc + (p,))

    rec(n, n, ())
    return [Partition(p) for p in out]


def paired(kind: str, p: int) -> bool:
    """Whether a Jordan block of size p needs a partner of the same size:
    the invariant form is symmetric on an odd string and alternating on an
    even one, so even blocks pair in so and odd blocks in sp."""
    return (kind, p % 2) in (("so", 0), ("sp", 1))


@dataclass(frozen=True)
class ClassicalOrbit:
    """A nilpotent orbit in sl_n ('sl'), so_n ('so') or sp_n ('sp', n even)."""

    kind: str
    n: int
    partition: Partition

    def __post_init__(self):
        if self.kind not in ("sl", "so", "sp"):
            raise ValueError(f"ambient kind must be sl/so/sp, not {self.kind}")
        if self.partition.n != self.n:
            raise ValueError(f"partition {self.partition} is not a partition "
                             f"of {self.n}")
        if self.kind == "sp" and self.n % 2 == 1:
            raise ValueError("sp requires even matrix size")
        bad = [p for p, m in self.partition.multiplicities.items()
               if m % 2 == 1 and paired(self.kind, p)]
        if bad:
            parity = "even" if self.kind == "so" else "odd"
            raise ValueError(f"{parity} parts {bad} must have even "
                             f"multiplicity in {self.kind}_{self.n}")

    def __str__(self):
        return f"{self.kind}{self.n} {self.partition}"

    @property
    def label(self) -> str:
        return str(self.partition)

    @cached_property
    def wdd(self) -> WeightedDynkinDiagram:
        return wdd_from_partition(self)

    @property
    def red(self) -> Reductive:
        return reductive_type(self)


def valid_partitions(kind: str, n: int) -> list[ClassicalOrbit]:
    out = []
    for lam in all_partitions(n):
        try:
            out.append(ClassicalOrbit(kind, n, lam))
        except ValueError:
            continue
    return out


def is_even(o: ClassicalOrbit) -> bool:
    """An orbit is even iff all parts share one parity."""
    parities = {p % 2 for p in o.partition.parts}
    return len(parities) <= 1


# ---------------------------------------------------------------------------
# Weighted Dynkin diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedDynkinDiagram:
    type: SimpleType
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != self.type.rank:
            raise ValueError("label count must equal the rank")
        if any(v not in (0, 1, 2) for v in self.labels):
            raise ValueError(f"labels must lie in {{0,1,2}}: {self.labels}")

    @cached_property
    def zeros(self) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self.labels) if v == 0)

    def has_only_isolated_zeros(self) -> bool:
        return self.type.isolated(self.zeros)

    @cached_property
    def profile(self) -> tuple[int, ...]:
        """(dim g(0), dim g(1), ...) of the grading cut out by the labels,
        up to the last nonzero layer: g(i) for i > 0 is spanned by the
        positive roots of weighted height <alpha, labels> = i."""
        counts = Counter(
            build_root_system(self.type).weighted_heights(self.labels))
        return (self.type.rank + 2 * counts[0],) + tuple(
            counts[i] for i in range(1, max(counts, default=0) + 1))

    def layer_dim(self, i: int) -> int:
        """dim of the i-layer of the grading cut out by the labels."""
        i = abs(i)
        return self.profile[i] if i < len(self.profile) else 0

    def module(self) -> SL2Module:
        """g under a triple with this characteristic: R(w) with
        multiplicity dim g(w) - dim g(w+2)."""
        return SL2Module({w: self.layer_dim(w) - self.layer_dim(w + 2)
                          for w in range(len(self.profile))})

    def render(self) -> str:
        return render_labelled_diagram(self.type, self.labels)

    def to_json(self) -> dict:
        return {"type": self.type.to_json(), "labels": list(self.labels)}


def render_labelled_diagram(t: SimpleType, labels) -> str:
    """One or two line picture; short-root nodes are shaded as [v]."""
    short = t.short_nodes()

    def node(i):
        return f"[{labels[i]}]" if i in short else f"({labels[i]})"

    if t.family in ("A", "B", "C", "F", "G"):
        # a chain: a_ij a_ji lines per bond, the arrow toward the short node
        a = t.cartan_matrix()
        line = node(0)
        for i in range(1, t.rank):
            sep = "-=≡"[a[i - 1][i] * a[i][i - 1] - 1]
            if sep != "-":
                sep = sep + ">" if i in short else "<" + sep
            line += sep + node(i)
        return line
    if t.family == "D":
        chain = list(range(t.rank - 2))
        top = "-".join(node(i) for i in chain) + "-" + node(t.rank - 2)
        pad = " " * len("-".join(node(i) for i in chain[:-1]) + "-")
        return top + "\n" + pad + node(t.rank - 1)
    # E types: chain 1,3,4,...,n with node 2 below node 4
    chain = [0] + list(range(2, t.rank))
    top = "-".join(node(i) for i in chain)
    pos = len(node(0)) + 1 + len(node(2)) + 1
    return top + "\n" + " " * pos + node(1)


def wdd_from_partition(o: ClassicalOrbit) -> WeightedDynkinDiagram:
    """Differences of the rank-many largest h-weights on V along the
    chain, then one last label per family."""
    t = SimpleType.of_ambient(o.kind, o.n)
    h, m = o.partition.weight_string(), t.rank
    last = {"A": h[m - 1] - h[m], "B": h[m - 1], "C": 2 * h[m - 1],
            "D": h[m - 2] + h[m - 1]}[t.family]
    chain = tuple(h[i] - h[i + 1] for i in range(m - 1))
    return WeightedDynkinDiagram(t, chain + (last,))


# ---------------------------------------------------------------------------
# Centralisers
# ---------------------------------------------------------------------------

def reductive_type(o: ClassicalOrbit) -> Reductive:
    """Reductive part of the centraliser: a gl_m per part of multiplicity m
    (traced) in sl; in so and sp, sp_m for paired parts of multiplicity m
    and so_m for the free ones."""
    mults = sorted(o.partition.multiplicities.items())
    if o.kind == "sl":
        return Reductive(tuple(("gl", m) for _, m in mults), traced=True)
    return Reductive(tuple(("sp" if paired(o.kind, p) else "so", m)
                           for p, m in mults))


def centralizer_dims(o: ClassicalOrbit) -> tuple[int, int, int]:
    """(dim g^e, dim of the reductive part, dim of the nilradical)."""
    dual = o.partition.dual()
    sq = sum(d * d for d in dual.parts)
    odd = sum(1 for p in o.partition.parts if p % 2 == 1)
    if o.kind == "sl":
        total = sq - 1
    elif o.kind == "so":
        total = (sq - odd) // 2
    else:
        total = (sq + odd) // 2
    red = reductive_type(o).dim
    return total, red, total - red


def kostant_dims(profile: tuple[int, ...]) -> tuple[int, int, int]:
    """(dim g^e, dim red, dim nil) read off the layers d(i) = dim g(i) of
    the grading by the characteristic of e (Kostant):
        dim g^e = d(0) + d(1),  dim red = d(0) - d(2),  nil = d(1) + d(2)."""
    d0, d1, d2 = (profile + (0, 0, 0))[:3]
    return d0 + d1, d0 - d2, d1 + d2


# ---------------------------------------------------------------------------
# Divisibility and half-orbits
# ---------------------------------------------------------------------------

def _half(o: ClassicalOrbit) -> ClassicalOrbit | None:
    """The orbit of the same kind whose weight string is half that of o.

    The h-weights on V fix the Jordan type, and the halved weights
    m, m-1, ..., -m of a part 2m+1 are those of the two parts m+1 and m;
    zero parts are dropped.  None when some part is even or the halved
    type is not an orbit of o's kind.
    """
    if any(p % 2 == 0 for p in o.partition.parts):
        return None
    parts = [v for p in o.partition.parts for v in (p // 2 + 1, p // 2) if v]
    try:
        return ClassicalOrbit(o.kind, o.n, Partition.of(*parts))
    except ValueError:
        return None


def is_divisible(o: ClassicalOrbit) -> bool:
    """Whether h/2 is again the characteristic of a nilpotent orbit."""
    return _half(o) is not None


def half_orbit(o: ClassicalOrbit) -> ClassicalOrbit:
    """The orbit with characteristic h/2 (sl, so and sp ambients)."""
    half = _half(o)
    if half is None:
        raise ValueError(f"{o} is not divisible")
    return half
