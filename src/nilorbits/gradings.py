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
from functools import cached_property, lru_cache
from itertools import zip_longest
from math import comb

from . import exceptional as exc
from .involutions import (Factor, SymmetricPair, factor_str, identify_ibn,
                          pi_involution)
from .orbits import (ClassicalOrbit, Partition, WeightedDynkinDiagram,
                     is_divisible, half_orbit, paired)
from .roots import SimpleType
from .sl2 import R, SL2Module, alt2, sym2, tensor


# ---------------------------------------------------------------------------
# Regular elements of classical fixed algebras
# ---------------------------------------------------------------------------

def factor_regular_parts(f: Factor) -> tuple[int, ...]:
    """Jordan type of a regular nilpotent element of the factor, inside its
    defining (matrix) representation."""
    kind, n = f
    if kind not in ("gl", "sl", "so", "sp"):
        raise ValueError(f"no matrix model for factor {f}")
    return (n - 1, 1) if paired(kind, n) else (n,)


def module_of_parts(parts) -> SL2Module:
    return SL2Module(p - 1 for p in parts)


def factor_jordan_types(pair: SymmetricPair,
                        given: list[Partition] | None = None
                        ) -> list[Partition]:
    """Jordan types of e in the defining representations of the factors of
    g0: regular in each factor unless given (and then checked)."""
    factors = pair.g0.factors
    if given is None:
        return [Partition(factor_regular_parts(f)) for f in factors]
    if len(given) != len(factors):
        raise ValueError(f"{pair}: g0 = {pair.descriptor} takes one "
                         f"Jordan type per factor: {len(factors)} expected, "
                         f"{len(given)} given")
    for f, lam in zip(factors, given):
        fkind, fn = f
        if lam.n != fn:
            raise ValueError(f"partition {lam} does not fit factor "
                             f"{factor_str(f)}")
        if fkind in ("so", "sp"):
            ClassicalOrbit(fkind, fn, lam)  # factor validity
    return list(given)


# ---------------------------------------------------------------------------
# Decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairDecomposition:
    """sl2-module structure of g0 and g1 for a triple through e in g0,
    and the orbit of e in g: a ClassicalOrbit of the matrix ambient or an
    ExceptionalOrbit record.

    The grid, the upsilon result and the parity of e are stored on the
    instance when first computed; read them through `grading_grid(pd)`,
    `upsilon(pd)` and `e_is_even`.  They are not fields, so equality and
    hashing see only the four fields.
    """

    pair: SymmetricPair
    m0: SL2Module
    m1: SL2Module
    orbit: ClassicalOrbit | exc.ExceptionalOrbit

    def __post_init__(self):
        if self.m0.dim != self.pair.dim_g0 or self.m1.dim != self.pair.dim_g1:
            raise ValueError(
                f"decomposition dims {self.m0.dim}+{self.m1.dim} of "
                f"{self.pair} at e = {self.orbit.label} do not match "
                f"{self.pair.dim_g0}+{self.pair.dim_g1}")

    @cached_property
    def e_is_even(self) -> bool:
        return self.m0.weights_all_even() and self.m1.weights_all_even()

    @cached_property
    def _grid(self) -> MixedGrading:
        size = max(self.m0.max_weight, self.m1.max_weight) + 1
        return MixedGrading(_grid_row(self.m0, size),
                            _grid_row(self.m1, size))

    @cached_property
    def _upsilon(self) -> UpsilonResult:
        return _identify_derived(self)


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
    square = {"so": alt2, "sp": sym2}  # so(V) = Alt2 V, sp(V) = Sym2 V
    if pair.shape == "hermitian":
        w = v[0]
        m0, m1 = tensor(w, w), 2 * square[kind](w)
    elif pair.shape == "twisted":  # sl(V) = Alt2 V + Sym2 V - R0
        k0 = pair.g0.factors[0][0]
        k1 = "sp" if k0 == "so" else "so"
        m0, m1 = square[k0](v[0]), square[k1](v[0]).subtract(R(0))
    elif kind == "sl":
        m0 = (tensor(v[0], v[0]) + tensor(v[1], v[1])).subtract(R(0))
        m1 = 2 * tensor(v[0], v[1])
    else:
        m0 = square[kind](v[0]) + square[kind](v[1])
        m1 = tensor(v[0], v[1])
    # e in the matrix ambient: the factor parts, twice over for gl_r acting
    # on W + W* in so_2r/sp_2r
    parts = [p for lam in fparts for p in lam.parts]
    if pair.shape == "hermitian":
        parts *= 2
    orbit = ClassicalOrbit(kind, n, Partition.of(*parts))
    return PairDecomposition(pair, m0, m1, orbit)


def decompose_exceptional(pair: SymmetricPair) -> PairDecomposition:
    """M0 is the principal module of g0 (n R0 for a torus t_n) and M0+M1
    is g under the triple of the recorded orbit."""
    if pair.g.ambient is not None:
        raise ValueError(f"{pair} is classical; use decompose_classical")
    m0 = SL2Module()
    for kind, n in pair.g0.factors:  # principal diagram: every label 2
        m0 = m0 + (n * R(0) if kind == "t" else WeightedDynkinDiagram(
            SimpleType(kind[0], n), (2,) * n).module())
    rec = exc.exceptional_lookup(
        pair.g, exc.PAIR_ORBITS[(str(pair.g), pair.descriptor)])
    return PairDecomposition(pair, m0, rec.wdd.module().subtract(m0), rec)


@lru_cache(maxsize=None)
def decompose(pair: SymmetricPair) -> PairDecomposition:
    """Decomposition at an element regular in g0, once per pair and
    process.  The weights of M1 at a regular element all have one parity."""
    if pair.g.ambient is None:
        pd = decompose_exceptional(pair)
    else:
        pd = decompose_classical(pair)
    if pd.m1 and not (pd.m1.weights_all_even() or pd.m1.weights_all_odd()):
        raise ValueError(f"odd-part weights of {pair} at the regular "
                         f"element e = {pd.orbit.label} of g0 must be all "
                         "even or all odd")
    return pd


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

    @cached_property
    def profile(self) -> tuple[int, ...]:
        """(dim g(0), dim g(1), ...) up to the last nonzero layer."""
        totals = [a + b for a, b in zip_longest(self.row0, self.row1,
                                                fillvalue=0)]
        while totals and not totals[-1]:
            totals.pop()
        return tuple(totals)

    @property
    def dim_g0(self) -> int:
        return self.row0[0] + 2 * sum(self.row0[1:])

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

    def render(self) -> str:
        hi = self.m1 if self.m1 > self.m0 else self.m0
        step = 1 if any(self.d(j, i) for j in (0, 1)
                        for i in range(1, hi + 1, 2)) else 2
        cols = list(range(0, hi + 1, step))
        rows = [["i"] + [str(i) for i in cols],
                ["d0(i)"] + [str(self.d(0, i)) for i in cols],
                ["d1(i)"] + [str(self.d(1, i)) for i in cols]]
        if check_04(self):
            rows[1][1] = f"[{rows[1][1]}]"
            if 4 in cols:
                rows[2][1 + cols.index(4)] = f"[{rows[2][1 + cols.index(4)]}]"
        widths = [max(len(r[c]) for r in rows) for c in range(len(cols) + 1)]
        return "\n".join(" ".join(v.rjust(w) for v, w in zip(r, widths))
                         for r in rows)

    def to_json(self) -> dict:
        return {"d0": {str(i): v for i, v in enumerate(self.row0) if v},
                "d1": {str(i): v for i, v in enumerate(self.row1) if v}}


def _grid_row(module: SL2Module, size: int) -> tuple[int, ...]:
    """dim of the i-eigenspace for i < size: R(w) has the eigenvalues
    w, w-2, ..., -w, so d(i) = mult(i) + d(i+2), one downward pass."""
    row = [0] * (size + 2)
    for w, m in module.mult.items():
        row[w] = m
    for i in range(size - 1, -1, -1):
        row[i] += row[i + 2]
    return tuple(row[:size])


def grading_grid(pd: PairDecomposition) -> MixedGrading:
    """The grid of pd, built once per decomposition."""
    return pd._grid


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


def upsilon(pd: PairDecomposition) -> UpsilonResult:
    """The derived involution classes of pd, identified once per
    decomposition."""
    return pd._upsilon


def _identify_derived(pd: PairDecomposition) -> UpsilonResult:
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
    s0, s1 = pd.m0.signed_count(), pd.m1.signed_count()
    diff_check, diff_cross = s0 + s1, s0 - s1
    wdd = pd.orbit.wdd
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

def divisibility_report(pd: PairDecomposition) -> list[str]:
    """The names of the consequences of d_0(0) = d_1(4) that fail for pd:
    the grid ties d0(0) = d0(2) = d1(2) = d1(4) and d0(4k+2) = d1(4k+2),
    no R2 in M1, g0 semisimple, e divisible, and e and e/2 almost
    distinguished."""
    mg = grading_grid(pd)
    if not check_04(mg):
        raise ValueError(f"d0(0)={mg.d(0, 0)} != d1(4)={mg.d(1, 4)}; "
                         "the divisibility criterion does not apply")
    orbit = pd.orbit
    if pd.pair.g.ambient is not None:
        divisible = is_divisible(orbit)
        half_ad = divisible and half_orbit(orbit).red.is_toral
    else:
        divisible = bool(orbit.divisible)
        # the reductive centraliser of e/2 lives in degree 0 of the halved
        # grading and has dimension d(0) - d(4); a reductive algebra of
        # dimension <= 2 is a torus
        half_ad = mg.total(0) - mg.total(4) <= 2
    holds = {
        "grid_equalities": (mg.d(0, 0) == mg.d(0, 2) == mg.d(1, 2)
                            == mg.d(1, 4) and check_4k2(mg)),
        "no_r2_in_odd_part": pd.m1.mult.get(2, 0) == 0,
        "g0_semisimple": pd.pair.g0.center_dim == 0,
        "orbit_divisible": divisible,
        "e_almost_distinguished": orbit.red.is_toral,
        "half_almost_distinguished": half_ad,
    }
    return [name for name, ok in holds.items() if not ok]


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
