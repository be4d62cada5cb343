"""Static data for exceptional types: selected nilpotent orbits, and for
each symmetric pair the orbit of an element regular in the fixed
subalgebra.

The orbit records (weighted diagram, reductive type) agree with the
standard tables of Dynkin--Bala--Carter data, e.g. Collingwood--McGovern,
"Nilpotent orbits in semisimple Lie algebras", and the centraliser tables
of Lawther--Testerman.  Node numbering follows `nilorbits.roots` (Bourbaki
for E types; short roots first for F4/G2).

The centraliser dimensions are not recorded; they are read from the layers
d(i) of the diagram:
    dim g^e = d(0) + d(1),  dim red = d(0) - d(2),  nil = dim - red
(tests check that each pair's diagram is the only even label vector whose
layers match the published M0+M1).

Extension format: one row per symmetric pair in
`involutions.EXCEPTIONAL_ROWS`, whose last four fields are the Bala-Carter
label of the orbit through an element regular in g0, which must pass the
Bala-Carter rule of the `tables` suite, its diagram labels, its reductive
type and whether it is divisible (None: not recorded).  ORBITS is keyed by
(type, label) and PAIR_ORBITS by (type, g0).  The reductive type is text
that `involutions.parse_factors` reads: '0', 't1', 'A1', 'A2+t1' and so
on.  M0 is the principal module of g0 and M0+M1 is `wdd.module()` of the
labelled orbit; a new pair's published (M0, M1) goes in `verify.E_MODULES`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .involutions import EXCEPTIONAL_ROWS, Reductive, parse_factors
from .orbits import WeightedDynkinDiagram
from .roots import SimpleType


@dataclass(frozen=True)
class ExceptionalOrbit:
    type: SimpleType
    label: str  # Bala-Carter
    wdd: WeightedDynkinDiagram
    red: Reductive
    divisible: bool | None = None  # None: not recorded

    # centraliser dimensions read off the layers d(i) of the diagram
    @property
    def dim_centralizer(self) -> int:
        return self.wdd.layer_dim(0) + self.wdd.layer_dim(1)

    @property
    def dim_red(self) -> int:
        return self.wdd.layer_dim(0) - self.wdd.layer_dim(2)

    @property
    def dim_nil(self) -> int:
        return self.dim_centralizer - self.dim_red


def _orbit(type_str, label, labels, red, divisible):
    t = SimpleType.parse(type_str)
    return ExceptionalOrbit(t, label, WeightedDynkinDiagram(t, labels),
                            Reductive(parse_factors(red)), divisible)


ORBITS: dict[tuple[str, str], ExceptionalOrbit] = {
    (ts, label): _orbit(ts, label, *rest)
    for ts, _, _, _, _, label, *rest in EXCEPTIONAL_ROWS}

# (ambient, fixed-algebra descriptor) -> label of the orbit through an
# element regular in g0, from which `gradings.decompose_exceptional`
# derives (M0, M1)
PAIR_ORBITS = {(ts, g0): label for ts, g0, _, _, _, label, *_
               in EXCEPTIONAL_ROWS}


def exceptional_lookup(t: SimpleType, label: str) -> ExceptionalOrbit:
    key = (str(t), label)
    if key not in ORBITS:
        known = sorted(lbl for (ts, lbl) in ORBITS if ts == str(t))
        raise KeyError(f"no orbit record {label!r} for {t}; "
                       f"known labels: {known}")
    return ORBITS[key]

