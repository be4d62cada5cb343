"""Partition calculus for nilpotent orbits in sl_n, so_n and sp_2n.

Orbits are encoded by partitions (Jordan block sizes): any partition of n
for sl_n, even parts with even multiplicity for so_n, odd parts with even
multiplicity for sp_2n.  Weighted Dynkin diagrams follow the Springer--
Steinberg recipe: sort the union of the weight strings {p-1, p-3, ..., 1-p}
and take successive differences (with the type-specific tail rule).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .involutions import factor_dim
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
        parts = tuple(int(p) for p in re.split(r"[\s,]+", inner) if p)
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
        mults = self.partition.multiplicities
        if self.kind == "so":
            bad = [p for p, m in mults.items() if p % 2 == 0 and m % 2 == 1]
            if bad:
                raise ValueError(f"even parts {bad} must have even "
                                 f"multiplicity in so_{self.n}")
        if self.kind == "sp":
            if self.n % 2 == 1:
                raise ValueError("sp requires even matrix size")
            bad = [p for p, m in mults.items() if p % 2 == 1 and m % 2 == 1]
            if bad:
                raise ValueError(f"odd parts {bad} must have even "
                                 f"multiplicity in sp_{self.n}")

    def __str__(self):
        return f"{self.kind}{self.n} {self.partition}"


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

    @property
    def zeros(self) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self.labels) if v == 0)

    def has_only_isolated_zeros(self) -> bool:
        adj = self.type.adjacency()
        z = self.zeros
        return all(not (adj[i] & z) for i in z)

    def halved(self) -> tuple[int, ...] | None:
        if any(v % 2 for v in self.labels):
            return None
        return tuple(v // 2 for v in self.labels)

    @cached_property
    def height_counts(self) -> dict[int, int]:
        """Number of positive roots at each weighted height <alpha, labels>."""
        return Counter(
            build_root_system(self.type).weighted_heights(self.labels))

    def dim_centralizer_of_h(self) -> int:
        """dim of the zero layer of the grading cut out by the labels."""
        return self.type.rank + 2 * self.height_counts.get(0, 0)

    def layer_dim(self, i: int) -> int:
        """dim of the i-layer of the grading cut out by the labels."""
        if i == 0:
            return self.dim_centralizer_of_h()
        return self.height_counts.get(abs(i), 0)

    def module(self) -> SL2Module:
        """g under a triple with this characteristic: R(w) with
        multiplicity dim g(w) - dim g(w+2)."""
        top = max(self.height_counts, default=0)
        return SL2Module({w: self.layer_dim(w) - self.layer_dim(w + 2)
                          for w in range(top + 1)})

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
        bonds = {"A": "-", "B": "=>", "C": "<=", "G": "≡>"}
        line = node(0)
        for i in range(1, t.rank):
            if t.family in ("B", "C") and i == t.rank - 1:
                sep = bonds[t.family]
            elif t.family == "F" and i == 2:
                sep = "<="      # double bond pointing at the short pair
            elif t.family == "G":
                sep = bonds["G"]
            else:
                sep = "-"
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
    t = SimpleType.of_ambient(o.kind, o.n)
    h = o.partition.weight_string()
    m = t.rank
    if o.kind == "sl":
        labels = [h[i] - h[i + 1] for i in range(m)]
    elif o.kind == "sp":
        head = h[:m]
        labels = [head[i] - head[i + 1] for i in range(m - 1)]
        labels.append(2 * head[m - 1])
    elif o.n % 2 == 1:  # B_m
        head = h[:m]
        labels = [head[i] - head[i + 1] for i in range(m - 1)]
        labels.append(head[m - 1])
    else:               # D_m
        head = h[:m]
        labels = [head[i] - head[i + 1] for i in range(m - 2)]
        labels.append(head[m - 2] - head[m - 1])
        labels.append(head[m - 2] + head[m - 1])
    return WeightedDynkinDiagram(t, tuple(labels))


# ---------------------------------------------------------------------------
# Centralisers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductiveCentralizer:
    """Reductive part of the centraliser, as a product of classical factors.

    Factors are (kind, size) with kind 'gl', 'so' or 'sp'; for sl the gl
    product is cut by the trace condition (dim drops by 1).
    """

    factors: tuple[tuple[str, int], ...]
    traced: bool  # sl ambient: overall determinant-one condition

    @property
    def dim(self) -> int:
        return sum(factor_dim(f) for f in self.factors) - self.traced

    @property
    def is_trivial(self) -> bool:
        return self.dim == 0

    @property
    def is_toral(self) -> bool:
        """No simple factors: gl_1, so_1, so_2 and sp_0 only."""
        for kind, m in self.factors:
            if kind == "gl" and m > 1:
                return False
            if kind == "so" and m > 2:
                return False
            if kind == "sp" and m > 0:
                return False
        return True

    def __str__(self):
        if self.is_trivial:
            return "0"
        if self.is_toral:
            return f"t{self.dim}"
        live = [(kind, m) for kind, m in self.factors
                if not (kind == "so" and m <= 1)]
        if self.traced and len(live) == 1 and live[0][0] == "gl":
            return f"sl{live[0][1]}"
        inner = "+".join(f"{kind}{m}" for kind, m in live)
        return f"s({inner})" if self.traced else inner


def reductive_type(o: ClassicalOrbit) -> ReductiveCentralizer:
    mults = sorted(o.partition.multiplicities.items())
    if o.kind == "sl":
        return ReductiveCentralizer(
            tuple(("gl", m) for _, m in mults), traced=True)
    factors = []
    for p, m in mults:
        if o.kind == "so":
            factors.append(("so", m) if p % 2 == 1 else ("sp", m))
        else:
            factors.append(("sp", m) if p % 2 == 1 else ("so", m))
    return ReductiveCentralizer(tuple(factors), traced=False)


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


def is_distinguished(o: ClassicalOrbit) -> bool:
    return reductive_type(o).is_trivial


def is_almost_distinguished(o: ClassicalOrbit) -> bool:
    return reductive_type(o).is_toral


# ---------------------------------------------------------------------------
# Divisibility and half-orbits
# ---------------------------------------------------------------------------

def is_divisible(o: ClassicalOrbit) -> bool:
    parts = o.partition.parts
    if any(p % 2 == 0 for p in parts):
        return False
    if o.kind == "sl":
        return True
    if o.kind == "sp":
        return all(m % 2 == 0 for m in o.partition.multiplicities.values())
    # so: scan consecutive pairs (parts are all odd at this point)
    i = 0
    while i < len(parts):
        a = parts[i]
        if a == 1:
            return True  # tail of ones is unconstrained
        if a % 4 == 3:
            if i + 1 >= len(parts) or parts[i + 1] != a:
                return False
        else:  # a = 4m+1 > 1
            if i + 1 >= len(parts) or parts[i + 1] not in (a, a - 2):
                return False
        i += 2
    return True


def _half_parts_sl(parts: tuple[int, ...]) -> list[int]:
    out = []
    for p in parts:
        m = (p - 1) // 2
        out.extend(v for v in (m + 1, m) if v > 0)
    return sorted(out, reverse=True)


def half_orbit(o: ClassicalOrbit) -> ClassicalOrbit:
    """The orbit with characteristic h/2 (sl and so ambients only).

    For so the transform acts on consecutive pairs of parts:
        (4m+3, 4m+3) -> (2m+2, 2m+2, 2m+1, 2m+1)
        (4m+1, 4m+1) -> (2m+1, 2m+1, 2m, 2m)
        (4m+1, 4m-1) -> (2m+1, 2m, 2m, 2m-1)
    with zero parts dropped; an unpaired trailing part 2m+1 contributes
    (m+1, m).
    """
    if not is_divisible(o):
        raise ValueError(f"{o} is not divisible")
    if o.kind == "sp":
        raise ValueError("no closed-form half-orbit transform for sp; "
                         "use the matrix oracle")
    parts = o.partition.parts
    if o.kind == "sl":
        new = _half_parts_sl(parts)
    else:
        new = []
        i = 0
        while i < len(parts):
            if i + 1 < len(parts):
                a, b = parts[i], parts[i + 1]
                if a % 4 == 3 and b == a:
                    m = (a - 3) // 4
                    new += [2 * m + 2, 2 * m + 2, 2 * m + 1, 2 * m + 1]
                elif a % 4 == 1 and b == a:
                    m = (a - 1) // 4
                    new += [2 * m + 1, 2 * m + 1, 2 * m, 2 * m]
                else:  # (4m+1, 4m-1)
                    m = (a - 1) // 4
                    new += [2 * m + 1, 2 * m, 2 * m, 2 * m - 1]
                i += 2
            else:
                m = (parts[i] - 1) // 2
                new += [m + 1, m]
                i += 1
        new = sorted((v for v in new if v > 0), reverse=True)
    return ClassicalOrbit(o.kind, o.n, Partition(tuple(new)))
