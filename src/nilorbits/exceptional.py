"""Static data for exceptional types: selected nilpotent orbits and the
sl2-decompositions of symmetric pairs at a regular element of the fixed
subalgebra.

The orbit records (weighted diagram, centraliser dimensions, reductive
type) agree with the standard tables of Dynkin--Bala--Carter data, e.g.
Collingwood--McGovern, "Nilpotent orbits in semisimple Lie algebras", and
the centraliser tables of Lawther--Testerman.  Node numbering follows
`nilorbits.roots` (Bourbaki for E types; short roots first for F4/G2).

Every record is internally consistent with the decomposition data: the
diagram is the unique even dominant label vector whose grading layer
dimensions match M0+M1, and dim/red/nil satisfy
    dim g^e = d(0),  dim red = d(0) - d(2),  nil = dim - red
(tests regenerate all of this from the root systems).

Extension format: add an `ExceptionalOrbit` to ORBITS keyed by
(type string, Bala-Carter label), and, for symmetric pairs, an entry
(type string, fixed-algebra descriptor) -> (M0, M1, orbit label) to
PAIR_DECOMPOSITIONS with modules in the text form accepted by
`SL2Module.parse`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .orbits import WeightedDynkinDiagram
from .roots import SimpleType
from .sl2 import SL2Module


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


# ---------------------------------------------------------------------------
# sl2-module structure of g0 and g1 for e regular in g0
# ---------------------------------------------------------------------------

# (ambient, fixed-algebra descriptor) -> (M0, M1, ambient orbit label).
# M0 is the principal decomposition of g0 (one R(2e) per exponent e, plus
# R0 for each central torus dimension); M1 is the complementary module.
PAIR_DECOMPOSITIONS: dict[tuple[str, str], tuple[str, str, str]] = {
    ("E6", "C4"):     ("R2+R6+R10+R14", "R4+R8+R10+R16", "E6(a1)"),
    ("E6", "A5+A1"):  ("2*R2+R4+R6+R8+R10", "R2+2*R4+R6+R8+R10", "E6(a3)"),
    ("E6", "F4"):     ("R2+R10+R14+R22", "R8+R16", "E6"),
    ("E6", "D5+t1"):  ("R0+R2+R6+R8+R10+R14", "2*R4+2*R10", "D5"),
    ("E7", "A7"):     ("R2+R4+R6+R8+R10+R12+R14",
                       "R0+2*R4+2*R8+R10+R12+R16", "E6(a1)"),
    ("E7", "D6+A1"):  ("2*R2+R6+2*R10+R14+R18",
                       "R4+R6+R8+R10+R14+R16", "E7(a3)"),
    ("E7", "E6+t1"):  ("R0+R2+R8+R10+R14+R16+R22",
                       "2*R0+2*R8+2*R16", "E6"),
    ("E8", "D8"):     ("R2+R6+R10+2*R14+R18+R22+R26",
                       "R4+R8+R10+R14+R16+R18+R22+R28", "E8(a4)"),
    ("E8", "E7+A1"):  ("2*R2+R10+R14+R18+R22+R26+R34",
                       "R8+R10+R16+R18+R26+R28", "E8(b4)"),
    ("F4", "C3+A1"):  ("2*R2+R6+R10", "R2+R4+R8+R10", "F4(a2)"),
    ("F4", "B4"):     ("R2+R6+R10+R14", "R4+R10", "F4(a1)"),
    ("G2", "A1+A1~"): ("2*R2", "R2+R4", "G2(a1)"),
}


def pair_decomposition_data(t: SimpleType, descriptor: str
                            ) -> tuple[SL2Module, SL2Module, ExceptionalOrbit]:
    key = (str(t), descriptor)
    if key not in PAIR_DECOMPOSITIONS:
        known = sorted(d for (ts, d) in PAIR_DECOMPOSITIONS if ts == str(t))
        raise KeyError(f"no decomposition record for {t}/{descriptor}; "
                       f"known pairs: {known}")
    m0s, m1s, label = PAIR_DECOMPOSITIONS[key]
    return (SL2Module.parse(m0s), SL2Module.parse(m1s),
            exceptional_lookup(t, label))
