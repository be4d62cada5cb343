"""Static data for exceptional types: selected nilpotent orbits, and for
each symmetric pair the orbit of an element regular in the fixed
subalgebra.

The orbit records (weighted diagram, centraliser dimensions, reductive
type) agree with the standard tables of Dynkin--Bala--Carter data, e.g.
Collingwood--McGovern, "Nilpotent orbits in semisimple Lie algebras", and
the centraliser tables of Lawther--Testerman.  Node numbering follows
`nilorbits.roots` (Bourbaki for E types; short roots first for F4/G2).

Every orbit record is consistent with the layers d(i) of its diagram:
    dim g^e = d(0),  dim red = d(0) - d(2),  nil = dim - red
(tests regenerate this from the root systems, and check that each pair's
diagram is the only even label vector whose layers match the published
M0+M1).

Extension format: add an `ExceptionalOrbit` to ORBITS keyed by
(type string, Bala-Carter label), and, for a symmetric pair, an entry
(type string, fixed-algebra descriptor) -> orbit label to PAIR_ORBITS.
The sl2-modules M0 and M1 are not recorded: M0 is the principal module of
g0 and M0+M1 is `wdd.module()` of the labelled orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .orbits import WeightedDynkinDiagram
from .roots import SimpleType


@dataclass(frozen=True)
class ExceptionalOrbit:
    type: SimpleType
    bala_carter_label: str
    wdd: WeightedDynkinDiagram
    dim_centralizer: int
    red_type: str
    dim_red: int
    dim_nil: int
    divisible: bool | None = None  # None: not recorded

    def __post_init__(self):
        if self.dim_centralizer != self.dim_red + self.dim_nil:
            raise ValueError(
                f"{self.type} {self.bala_carter_label}: dim g^e = "
                f"{self.dim_centralizer} != dim red {self.dim_red} + "
                f"dim nil {self.dim_nil}")


def _orbit(type_str, label, labels, dim, red, dim_red, divisible=None):
    t = SimpleType.parse(type_str)
    return ExceptionalOrbit(
        type=t, bala_carter_label=label,
        wdd=WeightedDynkinDiagram(t, labels),
        dim_centralizer=dim, red_type=red, dim_red=dim_red,
        dim_nil=dim - dim_red, divisible=divisible)


_ORBIT_ROWS = [
    # type, label, diagram labels, dim g^e, red type, dim red, divisible
    ("E6", "E6",     (2, 2, 2, 2, 2, 2), 6,  "0", 0, None),
    ("E6", "E6(a1)", (2, 2, 2, 0, 2, 2), 8,  "0", 0, True),
    ("E6", "E6(a3)", (2, 0, 0, 2, 0, 2), 12, "0", 0, None),
    ("E6", "D5",     (2, 2, 0, 2, 0, 2), 10, "t1", 1, None),
    ("E7", "E6(a1)", (2, 0, 0, 2, 0, 2, 0), 15, "t1", 1, True),
    ("E7", "E7(a3)", (2, 0, 0, 2, 0, 2, 2), 13, "0", 0, None),
    ("E7", "E6",     (2, 0, 2, 2, 0, 2, 0), 13, "A1", 3, None),
    ("E8", "E8(a4)", (2, 0, 0, 2, 0, 2, 0, 2), 16, "0", 0, True),
    ("E8", "E8(b4)", (2, 0, 0, 2, 0, 2, 2, 2), 14, "0", 0, None),
    ("F4", "F4(a2)", (2, 0, 2, 0), 8, "0", 0, None),
    ("F4", "F4(a1)", (2, 0, 2, 2), 6, "0", 0, None),
    ("G2", "G2(a1)", (0, 2), 4, "0", 0, None),
]

ORBITS: dict[tuple[str, str], ExceptionalOrbit] = {
    (row[0], row[1]): _orbit(*row) for row in _ORBIT_ROWS}


def exceptional_lookup(t: SimpleType, label: str) -> ExceptionalOrbit:
    key = (str(t), label)
    if key not in ORBITS:
        known = sorted(lbl for (ts, lbl) in ORBITS if ts == str(t))
        raise KeyError(f"no orbit record {label!r} for {t}; "
                       f"known labels: {known}")
    return ORBITS[key]


# (ambient, fixed-algebra descriptor) -> Bala-Carter label of the orbit
# through an element regular in g0; `gradings.decompose_exceptional` derives
# (M0, M1) from this diagram and the principal diagrams of g0's factors.
PAIR_ORBITS: dict[tuple[str, str], str] = {
    ("E6", "C4"): "E6(a1)",
    ("E6", "A5+A1"): "E6(a3)",
    ("E6", "F4"): "E6",
    ("E6", "D5+t1"): "D5",
    ("E7", "A7"): "E6(a1)",
    ("E7", "D6+A1"): "E7(a3)",
    ("E7", "E6+t1"): "E6",
    ("E8", "D8"): "E8(a4)",
    ("E8", "E7+A1"): "E8(b4)",
    ("F4", "C3+A1"): "F4(a2)",
    ("F4", "B4"): "F4(a1)",
    ("G2", "A1+A1~"): "G2(a1)",
}
