"""Named verification suites over the whole catalog.

Each suite enumerates a family of cases, recomputes both sides of a claim
and reports exact comparisons; nothing is approximate.  The suites are
independent of one another and every case row carries enough context to
re-run it by hand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from . import exceptional as exc
from .gradings import (check_02, check_04, check_4k2,
                       collapsing_defect, d00_closed_form, decompose,
                       decompose_classical, dim_fixed_cross,
                       grading_grid, divisibility_report, upsilon)
from .involutions import (Reductive, catalog, maximal_rank, orbit_meets_g1,
                          pair_by_descriptor, parse_factors, pi_involution)
from .orbits import (Partition, all_partitions,
                     centralizer_dims, half_orbit, is_divisible,
                     valid_partitions)
from .oracle import (centralizer_dim, ker_ad_squared, oracle_grid,
                     oracle_sizes, triple_from_partition)
from .roots import (SimpleType, all_simple_types, build_root_system,
                    coxeter_number, kappa_direct, kappa_root_count,
                    principal_inner_labels)
from .sl2 import SL2Module


@dataclass
class CaseResult:
    case_id: str
    claim: str
    expected: object
    computed: object

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


@dataclass
class VerificationReport:
    suite: str
    cases: list[CaseResult] = field(default_factory=list)

    def add(self, case_id, claim, expected, computed):
        self.cases.append(CaseResult(case_id, claim, expected, computed))

    @property
    def num_failed(self) -> int:
        return sum(1 for c in self.cases if not c.passed)

    @property
    def ok(self) -> bool:
        return self.num_failed == 0 and bool(self.cases)

    def render(self, verbose: bool = False) -> str:
        lines = []
        for c in self.cases:
            if verbose or not c.passed:
                mark = "ok " if c.passed else "FAIL"
                lines.append(f"  {mark} {c.case_id}: {c.claim} "
                             f"expected={c.expected} computed={c.computed}")
        if not self.cases:
            lines.append("  FAIL no cases: a suite with no cases fails")
        lines.append(f"suite {self.suite}: {len(self.cases) - self.num_failed}"
                     f"/{len(self.cases)} passed")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"suite": self.suite,
                "total": len(self.cases),
                "failed": self.num_failed,
                "cases": [{"id": c.case_id, "claim": c.claim,
                           "expected": repr(c.expected),
                           "computed": repr(c.computed),
                           "pass": c.passed} for c in self.cases]}


def swept_types(max_rank: int = 8) -> list[SimpleType]:
    """Simple types for the standard sweeps.  A1 is excluded: its only
    involution has toral fixed algebra, so the regular element of g0 is 0
    and every statement about nonzero nilpotent elements is vacuous."""
    return [t for t in all_simple_types(max_rank) if t != SimpleType("A", 1)]


def swept_pairs(max_rank: int = 8):
    """Catalog pairs of the swept types."""
    return (p for t in swept_types(max_rank) for p in catalog(t))


# ---------------------------------------------------------------------------
# Suite: tables (principal inner involutions and their orbits)
# ---------------------------------------------------------------------------

_TABLE_EXCEPTIONAL = [
    # type, PI fixed algebra, orbit label, dim, red, nil
    ("E6", "A5+A1", "E6(a3)", 12, "0", 12),
    ("E7", "A7", "E6(a1)", 15, "t1", 14),
    ("E8", "D8", "E8(a4)", 16, "0", 16),
    ("F4", "C3+A1", "F4(a2)", 8, "0", 8),
    ("G2", "A1+A1~", "G2(a1)", 4, "0", 4),
]

def _classical_pi_row(t: SimpleType):
    """(partition, labels, dim, red string, nil) predicted by the table of
    principal inner involutions for classical types."""
    fam, r, m, even = t.family, t.rank, (t.rank + 1) // 2, t.rank % 2 == 0
    alt = tuple(2 * (i % 2) for i in range(r))  # 0, 2, 0, 2, ...
    flip = tuple(2 - a for a in alt)  # 2, 0, 2, 0, ...
    if fam == "A":
        n = r + 1
        if even:
            return (m + 1, m), (1,) * r, 2 * n - 2, "t1", 2 * n - 3
        return (m, m), alt, 2 * n - 1, "sl2", 2 * n - 4
    if fam == "B":
        if even:
            return (2 * m + 1, 2 * m - 1, 1), flip, 4 * m, "0", 4 * m
        return (2 * m - 1, 2 * m - 1, 1), alt, 4 * m - 1, "t1", 4 * m - 2
    if fam == "C":
        if even:
            return (2 * m, 2 * m), alt, 4 * m, "t1", 4 * m - 1
        return (2 * m - 1, 2 * m - 1), alt, 4 * m - 1, "sp2", 4 * m - 4
    if even:
        return (2 * m - 1, 2 * m - 1, 1, 1), alt[:-2] + (0, 0), \
            4 * m + 2, "t2", 4 * m
    return (2 * m - 1, 2 * m - 3, 1, 1), flip[:-2] + (0, 0), \
        4 * m - 1, "t1", 4 * m - 2


def suite_tables(max_rank: int = 8) -> VerificationReport:
    rep = VerificationReport("tables")
    for ts, g0, label, dim, red, nil in _TABLE_EXCEPTIONAL:
        t = SimpleType.parse(ts)
        pi = pi_involution(t)
        rep.add(f"{ts} PI", "fixed algebra", g0, pi.descriptor)
        pd = decompose(pi)
        d_sigma = principal_inner_labels(build_root_system(t))
        hits = [lbl for (rts, lbl), rec in exc.ORBITS.items()
                if rts == ts and rec.wdd.labels == d_sigma]
        rep.add(f"{ts} PI orbit", "label of the one record with diagram "
                "<alpha_i, 2 rho_0^vee>", label,
                hits[0] if len(hits) == 1 else None)
        mg = grading_grid(pd)
        rep.add(f"{ts} {label}", "(dim, dim red, nil) of the PI grid",
                (dim, Reductive(parse_factors(red)).dim, nil),
                (mg.dim_centralizer, mg.dim_red, mg.dim_nil))
        rep.add(f"{ts} {label} wdd", "diagram labels: <alpha_i, 2 rho_0^vee> "
                "vs the pair's orbit record", d_sigma, pd.orbit.wdd.labels)
    for rec in exc.ORBITS.values():
        t, m = rec.type, re.fullmatch(r"(.*?)(?:\([ab]([0-9]+)\))?", rec.label)
        try:
            levi = parse_factors(m[1])
            want = (t.rank - Reductive(levi).rank,
                    int(m[2] or 0) if levi == ((t.family, t.rank),) else None)
        except ValueError:
            want = None  # no Levi type to read
        red = rec.red.rank
        rep.add(f"{t} {rec.label} label", "Bala-Carter: rank red = rank g - "
                "rank L, G(a_i) or G(b_i) has i zeros",
                want, (red, None if red else len(rec.wdd.zeros)))
        rep.add(f"{t} {rec.label} red", "dim red = d(0) - d(2) of the "
                "diagram", rec.dim_red, rec.red.dim)
    for t in swept_types(max_rank):
        if t.family not in "ABCD":
            continue
        if t.family == "B" and t.rank == 2:
            continue  # B2 = C2: the gl row applies, not the so row
        lam, labels, dim, red, nil = _classical_pi_row(t)
        orbit = decompose(pi_involution(t)).orbit
        rep.add(f"{t} PI partition", "regular Jordan type", lam,
                orbit.partition.parts)
        total, red_dim, nil_dim = centralizer_dims(orbit)
        rep.add(f"{t} PI dims", "(dim, red, nil)", (dim, red, nil),
                (total, str(orbit.red), nil_dim))
        rep.add(f"{t} PI wdd", "diagram labels", labels, orbit.wdd.labels)
    return rep


# ---------------------------------------------------------------------------
# Suite: grids (the worked dimension tables)
# ---------------------------------------------------------------------------

E_MODULES = {
    # (ambient, g0) in catalog order -> (M0, M1) as published for the
    # regular element of g0 (M0 + M1 is g under the triple)
    ("E6", "C4"):     ("R2+R6+R10+R14", "R4+R8+R10+R16"),
    ("E6", "A5+A1"):  ("2*R2+R4+R6+R8+R10", "R2+2*R4+R6+R8+R10"),
    ("E6", "D5+t1"):  ("R0+R2+R6+R8+R10+R14", "2*R4+2*R10"),
    ("E6", "F4"):     ("R2+R10+R14+R22", "R8+R16"),
    ("E7", "A7"):     ("R2+R4+R6+R8+R10+R12+R14", "R0+2*R4+2*R8+R10+R12+R16"),
    ("E7", "D6+A1"):  ("2*R2+R6+2*R10+R14+R18", "R4+R6+R8+R10+R14+R16"),
    ("E7", "E6+t1"):  ("R0+R2+R8+R10+R14+R16+R22", "2*R0+2*R8+2*R16"),
    ("E8", "D8"):     ("R2+R6+R10+2*R14+R18+R22+R26",
                       "R4+R8+R10+R14+R16+R18+R22+R28"),
    ("E8", "E7+A1"):  ("2*R2+R10+R14+R18+R22+R26+R34",
                       "R8+R10+R16+R18+R26+R28"),
    ("F4", "C3+A1"):  ("2*R2+R6+R10", "R2+R4+R8+R10"),
    ("F4", "B4"):     ("R2+R6+R10+R14", "R4+R10"),
    ("G2", "A1+A1~"): ("2*R2", "R2+R4"),
}

E_GRIDS = {
    # the pairs with d0(0) = d1(4): even layers of rows d0 and d1
    ("E6", "C4"): ((4, 4, 3, 3, 2, 2, 1, 1, 0), (4, 4, 4, 3, 3, 2, 1, 1, 1)),
    ("E7", "A7"): ((7, 7, 6, 5, 4, 3, 2, 1, 0), (8, 7, 7, 5, 5, 3, 2, 1, 1)),
    ("E8", "D8"): ((8, 8, 7, 7, 6, 6, 5, 5, 3, 3, 2, 2, 1, 1, 0),
                   (8, 8, 8, 7, 7, 6, 5, 5, 4, 3, 2, 2, 1, 1, 1)),
}


def suite_grids() -> VerificationReport:
    rep = VerificationReport("grids")
    for (ts, g0), modules in E_MODULES.items():
        pd = decompose(pair_by_descriptor(SimpleType.parse(ts), g0))
        rep.add(f"{ts}/{g0} modules", "(M0, M1)",
                tuple(map(SL2Module.parse, modules)), (pd.m0, pd.m1))
        if (ts, g0) in E_GRIDS:
            mg = grading_grid(pd)
            for j, row in enumerate(E_GRIDS[(ts, g0)]):
                rep.add(f"{ts}/{g0} row d{j}", "even layers", row,
                        tuple(mg.d(j, i) for i in range(0, 2 * len(row), 2)))
            rep.add(f"{ts}/{g0} boxed", "d0(0) = d1(4)", True, check_04(mg))
    # the two-part family in the split pair of sl_2n
    for m, k in [(2, 0), (3, 0), (3, 1), (4, 1), (4, 2), (5, 2), (6, 1)]:
        n = m + k + 1
        pair = pair_by_descriptor(SimpleType("A", 2 * n - 1), f"so{2 * n}")
        lam = Partition.of(2 * m + 1, 2 * k + 1)
        pd = decompose_classical(pair, [lam])
        mg = grading_grid(pd)
        d00, d10 = d00_closed_form((m, k))
        rep.add(f"sl{2*n} {lam} d0(0)", "m+3k+1", m + 3 * k + 1, mg.d(0, 0))
        rep.add(f"sl{2*n} {lam} d1(0)", "m+3k+2", m + 3 * k + 2, mg.d(1, 0))
        rep.add(f"sl{2*n} {lam} closed form", "(d0(0), d1(0))",
                (d00, d10), (mg.d(0, 0), mg.d(1, 0)))
        rep.add(f"sl{2*n} {lam} boxed", "d0(0) = d1(4)", True, check_04(mg))
        rep.add(f"sl{2*n} {lam} tail", "d0(4m-2) = d1(4m-2) = 1", (1, 1),
                (mg.d(0, 4 * m - 2), mg.d(1, 4 * m - 2)))
    return rep


# ---------------------------------------------------------------------------
# Suite: divisible (classification of d0(0) = d1(4))
# ---------------------------------------------------------------------------

def _sl_family_member(parts: tuple[int, ...]) -> bool:
    ms = [(p - 1) // 2 for p in parts]
    return (all(p % 2 == 1 for p in parts)
            and all(a - b >= 2 for a, b in zip(ms, ms[1:])))


def suite_divisible(max_rank: int = 8) -> VerificationReport:
    rep = VerificationReport("divisible")
    hits = set()
    for pair in swept_pairs(max_rank):
        pd = decompose(pair)
        if check_04(grading_grid(pd)):
            hits.add((str(pair.g), pair.descriptor))
    expected = {(ts, g0) for ts, g0 in E_GRIDS
                if SimpleType.parse(ts).rank <= max_rank}
    for n in range(3, max_rank + 2):
        pair = pair_by_descriptor(SimpleType("A", n - 1), f"so{n}")
        if _sl_family_member(decompose(pair).orbit.partition.parts):
            expected.add((str(pair.g), pair.descriptor))
    if swept_types(max_rank):  # no swept pair: no sweep to report
        rep.add("regular sweep", "pairs with d0(0)=d1(4)",
                tuple(sorted(expected)), tuple(sorted(hits)))
    # over the full split family of sl_n: all odd partitions, any n <= 9
    for n in range(3, 10):
        pair = pair_by_descriptor(SimpleType("A", n - 1), f"so{n}")
        for lam in all_partitions(n):
            if any(p % 2 == 0 for p in lam.parts):
                continue
            pd = decompose_classical(pair, [lam])
            rep.add(f"sl{n}/so{n} {lam}", "d0(0)=d1(4) iff gaps >= 2",
                    _sl_family_member(lam.parts),
                    check_04(grading_grid(pd)))
    # consequences where the equality holds
    for ts, g0 in E_GRIDS:
        pd = decompose(pair_by_descriptor(SimpleType.parse(ts), g0))
        rep.add(f"{ts}/{g0} consequences", "divisibility report clean",
                [], divisibility_report(pd))
    pd = decompose_classical(
        pair_by_descriptor(SimpleType("A", 5), "so6"), [Partition.of(5, 1)])
    rep.add("sl6/so6 (5,1) consequences", "divisibility report clean",
            [], divisibility_report(pd))
    rep.add("sl6/so6 (5,1) half", "half Jordan type", (3, 2, 1),
            half_orbit(pd.orbit).partition.parts)
    return rep


# ---------------------------------------------------------------------------
# Suite: balanced (classification of d0(0) = d1(2))
# ---------------------------------------------------------------------------

def suite_balanced(max_rank: int = 8) -> VerificationReport:
    rep = VerificationReport("balanced")
    hits = {}  # (type, g0) -> grid
    for pair in swept_pairs(max_rank):
        mg = grading_grid(decompose(pair))
        if check_02(mg):
            hits[(str(pair.g), pair.descriptor)] = mg
    expected = set()
    for t in swept_types(max_rank):
        if t.family == "C" and t.rank % 2 == 1:
            continue  # the split pair of sp_{4n+2} fails
        mr = maximal_rank(t)
        expected.add((str(t), mr.descriptor))
    for r in range(4, max_rank + 1):  # (so_2k, so_{k+1} + so_{k-1})
        expected.add((f"D{r}", f"so{r + 1}+so{r - 1}"))
    for k in range(2, max_rank // 2 + 1):  # (so_{4k+1}, so_{2k+2}+so_{2k-1})
        expected.add((f"B{2 * k}", f"so{2 * k + 2}+so{2 * k - 1}"))
    if max_rank >= 6:
        expected.add(("E6", "A5+A1"))
    if swept_types(max_rank):
        rep.add("regular sweep", "pairs with d0(0)=d1(2)",
                tuple(sorted(expected)), tuple(sorted(hits)))
    # consequences: |m0 - m1| <= 2 and d0(0) <= d1(0)
    for key, mg in sorted(hits.items()):
        rep.add(f"{key[0]}/{key[1]} m-gap", "|m0-m1| <= 2", True,
                abs(mg.m0 - mg.m1) <= 2)
        rep.add(f"{key[0]}/{key[1]} d-order", "d0(0) <= d1(0)", True,
                mg.d(0, 0) <= mg.d(1, 0))
    return rep


# ---------------------------------------------------------------------------
# Suite: regular (regular elements of g0)
# ---------------------------------------------------------------------------

def suite_regular(max_rank: int = 8) -> VerificationReport:
    rep = VerificationReport("regular")
    for pair in swept_pairs(max_rank):
        pd = decompose(pair)
        mg = grading_grid(pd)
        wdd = pd.orbit.wdd
        cid = f"{pair.g}/{pair.descriptor}"
        rep.add(f"{cid} zeros", "only isolated zeros", True,
                wdd.has_only_isolated_zeros())
        k = len(wdd.zeros)
        rep.add(f"{cid} g^h", "dim g^h = rank + 2#zeros",
                pair.g.rank + 2 * k, mg.total(0))
        rep.add(f"{cid} g^h layers", "grid matches diagram layer dims",
                True, mg.profile == wdd.profile)
        nil = mg.dim_nil
        bound = 2 * pair.g0.rank
        rep.add(f"{cid} nil bound", "dim nil <= 2 rk(g0)", True, nil <= bound)
        if nil == bound:
            rep.add(f"{cid} nil equality", "equality forces g0 semisimple",
                    True, pair.g0.center_dim == 0)
        # parity: even Coxeter number forces e even in g
        c = coxeter_number(build_root_system(pair.g))
        if c % 2 == 0:
            rep.add(f"{cid} parity", "even Coxeter number: e even", True,
                    pd.e_is_even)
        else:
            rep.add(f"{cid} parity", "odd case is inner sl_odd", pair.inner,
                    not pd.e_is_even)
    return rep


# ---------------------------------------------------------------------------
# Suite: kappa
# ---------------------------------------------------------------------------

def suite_kappa(max_rank: int = 12) -> VerificationReport:
    rep = VerificationReport("kappa")
    for t in all_simple_types(max_rank):
        rs = build_root_system(t)
        rep.add(str(t), "root-height count equals the node formula",
                kappa_direct(t), kappa_root_count(rs))
    return rep


# ---------------------------------------------------------------------------
# Suite: oracle
# ---------------------------------------------------------------------------

def suite_oracle(max_n: int = 9) -> VerificationReport:
    rep = VerificationReport("oracle")
    # one triple per orbit, whose ad e blocks its z and kernel cases share;
    # the cases are reported grouped by claim: z, then ker2, then sp half
    z, ker2, sp_half = (VerificationReport("oracle") for _ in range(3))
    for kind, ns in oracle_sizes(max_n).items():
        for n in ns:
            for o in valid_partitions(kind, n):
                tr = triple_from_partition(kind, n, o.partition)
                z.add(f"z {o}", "formula = matrix rank",
                      centralizer_dims(o)[0], centralizer_dim(tr))
                if not is_divisible(o):
                    continue
                half = half_orbit(o)
                if kind == "sp":
                    sp_half.add(f"sp half {o}",
                                "dim ker(ad e)^2 = dim z(half)",
                                centralizer_dims(half)[0], ker_ad_squared(tr))
                    sp_half.add(f"sp half {o} toral",
                                "half never almost distinguished",
                                False, half.red.is_toral)
                    continue
                ker2.add(f"ker2 {o}", "dim ker(ad e)^2 = dim z(half)",
                         centralizer_dims(half)[0], ker_ad_squared(tr))
                ker2.add(f"halfchar {o}", "characteristic of half is h/2",
                         [v // 2 for v in o.partition.weight_string()],
                         half.partition.weight_string())
    rep.cases = z.cases + ker2.cases + sp_half.cases
    for pair in swept_pairs(max_n - 1):
        if pair.g.ambient is None or pair.g.ambient[1] > max_n:
            continue
        rep.add(f"grid {pair.g}/{pair.descriptor}",
                "matrix grid = module grid",
                grading_grid(decompose(pair)), oracle_grid(pair))
    return rep


# ---------------------------------------------------------------------------
# Suite: upsilon
# ---------------------------------------------------------------------------

_TABLE_3 = {
    # diagram involutions: (g, g0) -> (check, cross) descriptors
    ("A3", "sp4"): ("gl2+gl2", "so4"),
    ("A5", "sp6"): ("gl3+gl3", "so6"),
    ("A7", "sp8"): ("gl4+gl4", "so8"),
    ("D4", "so7+so1"): ("so4+so4", "so5+so3"),
    ("D6", "so11+so1"): ("so6+so6", "so7+so5"),
    ("D8", "so15+so1"): ("so8+so8", "so9+so7"),
    ("D5", "so9+so1"): ("so6+so4", "so5+so5"),
    ("D7", "so13+so1"): ("so8+so6", "so7+so7"),
    ("E6", "F4"): ("A5+A1", "C4"),
}

def _pi_upsilon_exceptions(max_rank: int) -> dict[str, str]:
    """Derived classes of the PI involutions that differ from the PI class,
    by type (all such types of rank <= max_rank): four classical series
    and E7."""
    out = {"E7": "D6+A1"}
    for n in range(1, max_rank // 2 + 1):
        out[f"A{4 * n + 1}"] = f"gl{2 * n}+gl{2 * n + 2}"
        out[f"B{4 * n + 1}"] = f"so{4 * n + 3}+so{4 * n}"
        out[f"C{2 * n + 1}"] = f"sp{2 * n + 2}+sp{2 * n}"
        out[f"D{4 * n + 2}"] = f"so{4 * n + 4}+so{4 * n}"
    return out


def suite_upsilon(max_rank: int = 8) -> VerificationReport:
    rep = VerificationReport("upsilon")
    for (ts, g0), (want_check, want_cross) in _TABLE_3.items():
        pair = pair_by_descriptor(SimpleType.parse(ts), g0)
        u = upsilon(decompose(pair))
        rep.add(f"{ts}/{g0}", "(check, cross) classes",
                (want_check, want_cross),
                (u.sigma_check.descriptor, u.sigma_sigma_check.descriptor))
        rep.add(f"{ts}/{g0} inner", "check inner, cross outer",
                (True, False),
                (u.sigma_check.inner, u.sigma_sigma_check.inner))
    # hermitian pairs of so_2n, both parities
    for n in range(4, max_rank + 1):
        pair = pair_by_descriptor(SimpleType("D", n), f"gl{n}")
        u = upsilon(decompose(pair))
        if n % 2 == 1:
            want = (f"so{n + 1}+so{n - 1}", f"gl{n}")
        else:
            want = (f"gl{n}", f"so{n}+so{n}")
        rep.add(f"so{2*n}/gl{n}", "hermitian pair classes", want,
                (u.sigma_check.descriptor, u.sigma_sigma_check.descriptor))
    # the map on principal inner involutions
    exceptions = _pi_upsilon_exceptions(max_rank)
    for t in swept_types(max_rank):
        pair = pi_involution(t)
        pd = decompose(pair)
        if not pd.e_is_even:
            continue  # inner involutions of sl_odd are excluded
        u = upsilon(pd)
        want = exceptions.get(str(t), pair.descriptor)
        rep.add(f"{t} PI", "class of the derived involution", want,
                u.sigma_check.descriptor)
        # the derived involution of a PI-involution is again computable;
        # one application back returns the PI class
        pair2 = u.sigma_check
        u2 = upsilon(decompose(pair2))
        rep.add(f"{t} PI twice", "second application returns PI",
                pair.descriptor, u2.sigma_check.descriptor)
    # maximal rank in so_{8n+5}: conjugacy fails with dimension gap 2
    t = SimpleType("B", 6)
    pair = maximal_rank(t)
    pd = decompose(pair)
    mg = grading_grid(pd)
    u = upsilon(pd)
    rep.add("B6 max rank check", "derived class equals sigma",
            pair.descriptor, u.sigma_check.descriptor)
    rep.add("B6 max rank cross", "product class", "so8+so5",
            u.sigma_sigma_check.descriptor)
    rep.add("B6 dimension gap", "dim g^{cross} - dim g^{sigma}", 2,
            u.sigma_sigma_check.dim_g0 - pair.dim_g0)
    fails = sorted(k for k in range(-(mg.m1 + 2) // 4, (mg.m1 + 2) // 4 + 1)
                   if mg.d(0, 4 * k + 2) != mg.d(1, 4 * k + 2))
    rep.add("B6 failure set", "4k+2 equalities fail exactly at", [-2, 1],
            fails)
    # dimension equality whenever all the 4k+2 layers agree
    for pair in swept_pairs(max_rank):
        pd = decompose(pair)
        if not pd.e_is_even:
            continue
        mg = grading_grid(pd)
        if not check_4k2(mg):
            continue
        u = upsilon(pd)
        rep.add(f"{pair.g}/{pair.descriptor} dim-eq",
                "dim g^sigma = dim g^{cross}",
                pair.dim_g0, u.sigma_sigma_check.dim_g0)
        rep.add(f"{pair.g}/{pair.descriptor} dim-eq grid",
                "cross dim from the grid",
                u.sigma_sigma_check.dim_g0, dim_fixed_cross(mg))
    return rep


# ---------------------------------------------------------------------------
# Suite: meets (coherence of the identified classes)
# ---------------------------------------------------------------------------

def suite_meets(max_rank: int = 8) -> VerificationReport:
    rep = VerificationReport("meets")
    for pair in swept_pairs(max_rank):
        pd = decompose(pair)
        if not pd.e_is_even:
            continue
        u = upsilon(pd)
        wdd = pd.orbit.wdd
        cid = f"{pair.g}/{pair.descriptor}"
        for tag, q in (("check", u.sigma_check),
                       ("cross", u.sigma_sigma_check)):
            rep.add(f"{cid} {tag} meets", "orbit meets the odd part", True,
                    orbit_meets_g1(wdd, q.satake))
            rep.add(f"{cid} {tag} ibn", "Satake diagram has IBN", True,
                    q.satake.ibn)
            rep.add(f"{cid} {tag} blacks", "black nodes among zeros", True,
                    q.satake.black <= wdd.zeros)
    return rep


# ---------------------------------------------------------------------------
# Suite: collapsing
# ---------------------------------------------------------------------------

def suite_collapsing(max_rank: int = 8) -> VerificationReport:
    rep = VerificationReport("collapsing")
    for t in swept_types(max_rank):
        if t.family == "B" and t.rank == 2:
            continue  # B2 = C2 duplicates the C2 row
        d, finite = collapsing_defect(t)
        is_d_even = t.family == "D" and t.rank % 2 == 0
        want_d = 2 if is_d_even else (0 if t.rank % 2 == 0 else 1)
        rep.add(f"{t} defect", "d = dim g^e - 2 rank", want_d, d)
        rep.add(f"{t} finite", "finite-to-one iff rank even and not split "
                "even orthogonal", t.rank % 2 == 0 and not is_d_even, finite)
    return rep


SUITES: dict[str, Callable[..., VerificationReport]] = {
    "tables": suite_tables,
    "grids": suite_grids,
    "divisible": suite_divisible,
    "balanced": suite_balanced,
    "regular": suite_regular,
    "kappa": suite_kappa,
    "oracle": suite_oracle,
    "upsilon": suite_upsilon,
    "meets": suite_meets,
    "collapsing": suite_collapsing,
}

# suites whose classical sweep honours the --max-rank bound
_RANK_BOUNDED = {"tables", "divisible", "balanced", "regular", "upsilon",
                 "meets", "collapsing"}


def run_suite(name: str, max_rank: int = 8) -> VerificationReport:
    """The report of one suite.  A suite that raises reports one failed
    case, so that the suites after it still run."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: "
                       f"{sorted(SUITES)}")
    try:
        if name in _RANK_BOUNDED:
            return SUITES[name](max_rank)
        return SUITES[name]()
    except Exception as ex:
        rep = VerificationReport(name)
        rep.add(f"{name} raised", "the suite runs to its end",
                "no exception", f"{type(ex).__name__}: {ex}")
        return rep
