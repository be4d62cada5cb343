"""
Symmetric pairs and Satake combinatorics
========================================

Every involution class is recorded with its fixed algebra, dimensions and
Satake diagram.  For diagrams with only isolated black nodes (IBN) the
difference dim g1 - dim g0 equals rank - 2 #arrows - 4 #black, and that
signature identifies the class: upsilon reads it off the signed module
counts of a pair's decomposition.
"""

from nilorbits.exceptional import exceptional_lookup
from nilorbits.gradings import decompose, upsilon
from nilorbits.involutions import (catalog, ibn_signature, orbit_meets_g1,
                                   pair_by_descriptor, pi_involution,
                                   so_pair_ibn)
from nilorbits.roots import SimpleType

for name in ("A3", "B3", "D5", "E6", "E7"):
    t = SimpleType.parse(name)
    print(f"involutions of {t}:")
    for p in catalog(t):
        tag = "max-rank" if p.is_maximal_rank else \
            ("PI" if p == pi_involution(t) else "")
        print(f"  {p.descriptor:12s} dim g0 = {p.dim_g0:3d}  "
              f"{'inner' if p.inner else 'outer'}  "
              f"{'IBN' if p.satake.ibn else '   '}  "
              f"{p.satake.render():28s} {tag}")
    print()

print("signature identification through upsilon(decompose(pair)):")
for name, g0 in [("D5", "gl5"), ("E7", "A7")]:
    u = upsilon(decompose(pair_by_descriptor(SimpleType.parse(name), g0)))
    for role, q, diff in (("sigma-check", u.sigma_check, u.diff_check),
                          ("sigma sigma-check", u.sigma_sigma_check,
                           u.diff_cross)):
        print(f"  {name}/{g0} {role + ':':18s} dim g1 - dim g0 = "
              f"{-diff:3d} -> {q.descriptor} "
              f"(check: {ibn_signature(q.satake)})")

print()
print("so-pair IBN rule: |n - m| <= 4")
print("  so5+so3:", so_pair_ibn(5, 3), "  so9+so3:", so_pair_ibn(9, 3))

print()
e7 = SimpleType("E", 7)
sat = pair_by_descriptor(e7, "D6+A1").satake
d = exceptional_lookup(e7, "E7(a3)").wdd
print(f"does the E7(a3) orbit meet the odd part of the D6+A1 pair? "
      f"{orbit_meets_g1(d, sat)}")
