"""Mixed grading grids and the involution map sigma -> sigma-check.

Fix an involution with fixed algebra g0 and a nilpotent e in g0 with
normal triple {e,h,f} inside g0.  The pair (h-eigenvalue, sigma-parity)
grades g, and everything here is computed from the sl2-module structure
of g0 and g1: the grid d_j(i) = dim g_j(i), the equalities d_0(0)=d_1(2),
d_0(0)=d_1(4) and d_0(4k+2)=d_1(4k+2), and the signed module counts that
identify the classes of the derived involutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from . import exceptional as exc
from .involutions import (Factor, SymmetricPair, factor_str, identify_ibn,
                          pi_involution)
from .orbits import (ClassicalOrbit, Partition, WeightedDynkinDiagram,
                     is_divisible, half_orbit, is_almost_distinguished,
                     wdd_from_partition)
from .roots import SimpleType
from .sl2 import R, SL2Module, alt2, sym2, tensor


# ---------------------------------------------------------------------------
# Regular elements of classical fixed algebras
# ---------------------------------------------------------------------------

def factor_regular_parts(f: Factor) -> tuple[int, ...]:
    """Jordan type of a regular nilpotent element of the factor, inside its
    defining (matrix) representation."""
    kind, n = f
    if kind == "so":
        if n == 0:
            return ()
        if n % 2 == 1:
            return (n,)
        return (n - 1, 1) if n > 2 else (1, 1)
    if kind in ("gl", "sl", "sp"):
        return (n,)
    raise ValueError(f"no matrix model for factor {f}")


def module_of_parts(parts) -> SL2Module:
    return SL2Module(p - 1 for p in parts)


def factor_jordan_types(pair: SymmetricPair,
                        given: list[Partition] | None = None
                        ) -> list[Partition]:
    """Jordan types of e in the defining representations of the factors of
    g0: regular in each factor unless given (and then checked)."""
    if given is None:
        return [Partition(factor_regular_parts(f)) for f in pair.factors]
    for f, lam in zip(pair.factors, given):
        fkind, fn = f
        if lam.n != fn:
            raise ValueError(f"partition {lam} does not fit factor "
                             f"{factor_str(f)}")
        if fkind in ("so", "sp"):
            ClassicalOrbit(fkind, fn, lam)  # factor validity
    return list(given)


def ambient_jordan_type(pair: SymmetricPair,
                        fparts: list[Partition]) -> Partition:
    """Jordan type of e in the matrix ambient: the factor parts, twice over
    for gl_r acting on W + W* in so_2r/sp_2r."""
    parts = [p for lam in fparts for p in lam.parts]
    if pair.shape == "hermitian":
        parts *= 2
    return Partition(tuple(sorted(parts, reverse=True)))


def regular_e_partition(pair: SymmetricPair) -> Partition:
    """Ambient Jordan type of an element regular in each factor of g0."""
    if pair.g.ambient is None:
        raise ValueError(f"{pair} is exceptional; orbits come from the "
                         "static records")
    return ambient_jordan_type(pair, factor_jordan_types(pair))


# ---------------------------------------------------------------------------
# Decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairDecomposition:
    """sl2-module structure of g0 and g1 for a triple through e in g0."""

    pair: SymmetricPair
    m0: SL2Module
    m1: SL2Module
    ambient_partition: Partition | None = None      # classical ambients
    orbit_label: str | None = None                  # exceptional ambients

    def __post_init__(self):
        if self.m0.dim != self.pair.dim_g0 or self.m1.dim != self.pair.dim_g1:
            raise ValueError(
                f"decomposition dims {self.m0.dim}+{self.m1.dim} do not "
                f"match {self.pair} = {self.pair.dim_g0}+{self.pair.dim_g1}")
        if self.m1 and not (self.m1.weights_all_even()
                            or self.m1.weights_all_odd()):
            raise ValueError("odd-part weights must be all even or all odd")

    @property
    def e_is_even(self) -> bool:
        return self.m0.weights_all_even() and self.m1.weights_all_even()

    def ambient_orbit(self) -> ClassicalOrbit:
        return ClassicalOrbit(*self.pair.g.ambient, self.ambient_partition)

    def ambient_wdd(self) -> WeightedDynkinDiagram:
        if self.pair.g.ambient is None:
            return exc.exceptional_lookup(self.pair.g, self.orbit_label).wdd
        return wdd_from_partition(self.ambient_orbit())


def decompose_classical(pair: SymmetricPair,
                        factor_partitions: list[Partition] | None = None
                        ) -> PairDecomposition:
    """Build (M0, M1) functorially from the factor Jordan types.

    With V_i the sl2-module of the defining representation of the i-th
    factor:
      (sl, so):   M0 = Alt2 V,            M1 = Sym2 V - R0
      (sl, sp):   M0 = Sym2 V,            M1 = Alt2 V - R0
      (sl, glgl): M0 = V1xV1 + V2xV2 - R0, M1 = 2 V1xV2
      (so, soso): M0 = Alt2 V1 + Alt2 V2,  M1 = V1xV2
      (sp, spsp): M0 = Sym2 V1 + Sym2 V2,  M1 = V1xV2
      (sp, gl):   M0 = W x W,             M1 = 2 Sym2 W
      (so, gl):   M0 = W x W,             M1 = 2 Alt2 W
    """
    amb = pair.g.ambient
    if amb is None:
        raise ValueError(f"{pair} is exceptional; use decompose_exceptional")
    kind, n = amb
    fparts = factor_jordan_types(pair, factor_partitions)
    v = [module_of_parts(lam.parts) for lam in fparts]
    if pair.shape == "hermitian":
        w = v[0]
        m0 = tensor(w, w)
        m1 = 2 * (sym2(w) if kind == "sp" else alt2(w))
    elif pair.shape == "twisted":
        if pair.factors[0][0] == "so":
            m0, m1 = alt2(v[0]), sym2(v[0]).subtract(R(0))
        else:
            m0, m1 = sym2(v[0]), alt2(v[0]).subtract(R(0))
    elif kind == "sl":
        m0 = (tensor(v[0], v[0]) + tensor(v[1], v[1])).subtract(R(0))
        m1 = 2 * tensor(v[0], v[1])
    elif kind == "so":
        m0 = alt2(v[0]) + alt2(v[1])
        m1 = tensor(v[0], v[1])
    else:
        m0 = sym2(v[0]) + sym2(v[1])
        m1 = tensor(v[0], v[1])
    lam = ambient_jordan_type(pair, fparts)
    ClassicalOrbit(kind, n, lam)  # validity check of the ambient type
    return PairDecomposition(pair, m0, m1, ambient_partition=lam)


def decompose_exceptional(pair: SymmetricPair) -> PairDecomposition:
    """M0 is the principal module of g0 (n R0 for a torus t_n) and M0+M1
    is g under the triple of the recorded orbit."""
    if pair.g.ambient is not None:
        raise ValueError(f"{pair} is classical; use decompose_classical")
    m0 = SL2Module()
    for kind, n in pair.factors:  # principal diagram: every label 2
        m0 = m0 + (n * R(0) if kind == "t" else WeightedDynkinDiagram(
            SimpleType(kind[0], n), (2,) * n).module())
    label = exc.PAIR_ORBITS[(str(pair.g), pair.descriptor)]
    m1 = exc.exceptional_lookup(pair.g, label).wdd.module().subtract(m0)
    return PairDecomposition(pair, m0, m1, orbit_label=label)


@lru_cache(maxsize=None)
def decompose(pair: SymmetricPair) -> PairDecomposition:
    """Decomposition at an element regular in g0, once per pair and
    process."""
    if pair.g.ambient is None:
        return decompose_exceptional(pair)
    return decompose_classical(pair)


# ---------------------------------------------------------------------------
# The grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixedGrading:
    """The table d_j(i); row j in {0,1}, symmetric in i."""

    row0: tuple[int, ...]  # d_0(0), d_0(1), d_0(2), ...
    row1: tuple[int, ...]

    def d(self, j: int, i: int) -> int:
        row = self.row0 if j % 2 == 0 else self.row1
        i = abs(i)
        return row[i] if i < len(row) else 0

    def total(self, i: int) -> int:
        return self.d(0, i) + self.d(1, i)

    @property
    def m0(self) -> int:
        return max((i for i, v in enumerate(self.row0) if v), default=0)

    @property
    def m1(self) -> int:
        return max((i for i, v in enumerate(self.row1) if v), default=0)

    @property
    def support(self) -> range:
        return range(0, max(len(self.row0), len(self.row1)))

    @property
    def dim_g0(self) -> int:
        return self.row0[0] + 2 * sum(self.row0[1:])

    @property
    def dim_g1(self) -> int:
        return self.row1[0] + 2 * sum(self.row1[1:])

    # centraliser dimensions of e read off the grid
    @property
    def dim_centralizer(self) -> int:
        return self.total(0) + self.total(1)

    @property
    def dim_red(self) -> int:
        return self.total(0) - self.total(2)

    @property
    def dim_nil(self) -> int:
        return self.total(1) + self.total(2)

    def render(self, box: bool = True) -> str:
        hi = self.m1 if self.m1 > self.m0 else self.m0
        step = 1 if any(self.d(j, i) for j in (0, 1)
                        for i in range(1, hi + 1, 2)) else 2
        cols = list(range(0, hi + 1, step))
        rows = [["i"] + [str(i) for i in cols],
                ["d0(i)"] + [str(self.d(0, i)) for i in cols],
                ["d1(i)"] + [str(self.d(1, i)) for i in cols]]
        if box and check_04(self):
            rows[1][1] = f"[{rows[1][1]}]"
            if 4 in cols:
                rows[2][1 + cols.index(4)] = f"[{rows[2][1 + cols.index(4)]}]"
        widths = [max(len(r[c]) for r in rows) for c in range(len(cols) + 1)]
        return "\n".join(" ".join(v.rjust(w) for v, w in zip(r, widths))
                         for r in rows)

    def to_json(self) -> dict:
        return {"d0": {str(i): v for i, v in enumerate(self.row0) if v},
                "d1": {str(i): v for i, v in enumerate(self.row1) if v}}


def grading_grid(pd: PairDecomposition) -> MixedGrading:
    size = max(pd.m0.max_weight, pd.m1.max_weight) + 1
    rows = ([0] * size, [0] * size)
    # R(w) has the eigenvalues w, w-2, ..., -w: one pass over the summands
    for row, module in zip(rows, (pd.m0, pd.m1)):
        for w, m in module.mult.items():
            for i in range(w % 2, w + 1, 2):
                row[i] += m
    return MixedGrading(tuple(rows[0]), tuple(rows[1]))


def check_02(mg: MixedGrading) -> bool:
    return mg.d(0, 0) == mg.d(1, 2)


def check_04(mg: MixedGrading) -> bool:
    return mg.d(0, 0) == mg.d(1, 4)


def check_4k2(mg: MixedGrading) -> bool:
    return all(mg.d(0, i) == mg.d(1, i)
               for i in range(2, max(mg.m0, mg.m1) + 1, 4))


def dim_fixed_check(mg: MixedGrading) -> int:
    """dim of the fixed algebra of the derived inner involution: the
    multiples-of-4 layers of both rows."""
    top = max(mg.m0, mg.m1)
    return mg.total(0) + 2 * sum(mg.total(i) for i in range(4, top + 1, 4))


def dim_fixed_cross(mg: MixedGrading) -> int:
    """dim of the fixed algebra of the product involution: even row at
    multiples of 4 plus odd row at 4k+2."""
    top = max(mg.m0, mg.m1)
    return (mg.d(0, 0) + 2 * sum(mg.d(0, i) for i in range(4, top + 1, 4))
            + 2 * sum(mg.d(1, i) for i in range(2, top + 1, 4)))


# ---------------------------------------------------------------------------
# The involution map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpsilonResult:
    pair: SymmetricPair
    sigma_check: SymmetricPair
    sigma_sigma_check: SymmetricPair
    diff_check: int   # dim fixed - dim anti for sigma-check
    diff_cross: int   # same for sigma * sigma-check

    def to_json(self) -> dict:
        return {"sigma": self.pair.to_json(),
                "sigma_check": self.sigma_check.to_json(),
                "sigma_sigma_check": self.sigma_sigma_check.to_json(),
                "diff_check": self.diff_check,
                "diff_cross": self.diff_cross}


@lru_cache(maxsize=None)
def upsilon(pd: PairDecomposition) -> UpsilonResult:
    """Identify the derived involution classes from the signed module
    counts.

    R(2k) in g0 contributes (-1)^k to both differences; R(2k) in g1
    contributes (-1)^k to the first and (-1)^(k+1) to the second.  The
    class is then the unique IBN class with that dimension difference,
    inner for sigma-check, in the component of sigma for the product.
    """
    if not pd.e_is_even:
        raise ValueError(f"the regular element of g0 in {pd.pair} is not "
                         "even in g; the construction does not apply")
    if pd.m0.max_weight == 0 and pd.m1.max_weight == 0:
        raise ValueError(f"e = 0 in {pd.pair} (g0 is a torus); the derived "
                         "involution degenerates to the identity")
    s0 = pd.m0.signed_count("even_plus")
    diff_check = s0 + pd.m1.signed_count("even_plus")
    diff_cross = s0 + pd.m1.signed_count("odd_flip")
    wdd = pd.ambient_wdd()
    sigma_check = identify_ibn(pd.pair.g, -diff_check, True, wdd)
    sigma_sigma_check = identify_ibn(pd.pair.g, -diff_cross, pd.pair.inner,
                                     wdd)
    # the identified dimensions must reproduce the grid differences
    g = pd.pair.g.dimension
    for q, diff in ((sigma_check, diff_check),
                    (sigma_sigma_check, diff_cross)):
        if 2 * q.dim_g0 != g + diff:
            raise RuntimeError(f"{q} has dim g0 = {q.dim_g0}, but the grid "
                               f"difference {diff} needs {(g + diff) / 2}")
    return UpsilonResult(pd.pair, sigma_check, sigma_sigma_check,
                         diff_check, diff_cross)


# ---------------------------------------------------------------------------
# Divisibility reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivisibilityReport:
    """Consequences of d_0(0) = d_1(4), one flag per claim."""

    pair: SymmetricPair
    grid_equalities: bool       # d0(0)=d0(2)=d1(2)=d1(4) and all 4k+2 ties
    no_r2_in_odd_part: bool
    g0_semisimple: bool
    orbit_divisible: bool
    e_almost_distinguished: bool
    half_almost_distinguished: bool
    half_partition: Partition | None

    @property
    def all_pass(self) -> bool:
        return all((self.grid_equalities, self.no_r2_in_odd_part,
                    self.g0_semisimple, self.orbit_divisible,
                    self.e_almost_distinguished,
                    self.half_almost_distinguished))

    def failures(self) -> list[str]:
        names = ["grid_equalities", "no_r2_in_odd_part", "g0_semisimple",
                 "orbit_divisible", "e_almost_distinguished",
                 "half_almost_distinguished"]
        return [n for n in names if not getattr(self, n)]


def divisibility_report(pd: PairDecomposition,
                     mg: MixedGrading | None = None) -> DivisibilityReport:
    mg = mg or grading_grid(pd)
    if not check_04(mg):
        raise ValueError(f"d0(0)={mg.d(0, 0)} != d1(4)={mg.d(1, 4)}; "
                         "the divisibility criterion does not apply")
    grid_eq = (mg.d(0, 0) == mg.d(0, 2) == mg.d(1, 2) == mg.d(1, 4)
               and check_4k2(mg))
    no_r2 = pd.m1.mult.get(2, 0) == 0
    semis = pd.pair.g0_semisimple
    if pd.pair.g.ambient is not None:
        orbit = pd.ambient_orbit()
        divisible = is_divisible(orbit)
        e_ad = is_almost_distinguished(orbit)
        half = half_orbit(orbit) if divisible and orbit.kind != "sp" else None
        half_ad = is_almost_distinguished(half) if half else False
        half_part = half.partition if half else None
    else:
        rec = exc.exceptional_lookup(pd.pair.g, pd.orbit_label)
        divisible = bool(rec.divisible)
        e_ad = rec.red_type == "0" or rec.red_type.startswith("t")
        # the reductive centraliser of e/2 lives in degree 0 of the halved
        # grading and has dimension d(0) - d(4); the records guarantee it
        # is toral exactly for the divisible cases
        half_ad = divisible
        half_part = None
    return DivisibilityReport(
        pair=pd.pair, grid_equalities=grid_eq, no_r2_in_odd_part=no_r2,
        g0_semisimple=semis, orbit_divisible=divisible,
        e_almost_distinguished=e_ad, half_almost_distinguished=half_ad,
        half_partition=half_part)


def d00_closed_form(ms: tuple[int, ...]) -> tuple[int, int]:
    """(d_0(0), d_1(0)) for the odd partition (2m_1+1, ..., 2m_s+1) of the
    split symmetric pair of sl_n, requiring gaps m_{i-1} - m_i >= 2."""
    s = len(ms)
    if any(a - b < 2 for a, b in zip(ms, ms[1:])):
        raise ValueError("the closed form needs strictly decreasing gaps "
                         ">= 2")
    d00 = sum((2 * j + 1) * m for j, m in enumerate(ms)) + comb(s, 2)
    return d00, d00 + s - 1


# ---------------------------------------------------------------------------
# Kempf collapsing defect
# ---------------------------------------------------------------------------

def collapsing_defect(t: SimpleType) -> tuple[int, bool]:
    """(d, finite-to-one?) where d = dim g^{e} - 2 rank for e regular in
    the fixed algebra of the principal inner involution."""
    d = grading_grid(decompose(pi_involution(t))).dim_centralizer - 2 * t.rank
    return d, d == 0
