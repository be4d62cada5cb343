"""
Symmetric pairs and Satake combinatorics
========================================

Every involution class is recorded with its fixed algebra, dimensions and
Satake diagram.  For diagrams with only isolated black nodes (IBN) the
difference dim g1 - dim g0 equals rank - 2 #arrows - 4 #black, and that
signature identifies the class.
"""

from nilorbits.exceptional import exceptional_lookup
from nilorbits.involutions import (catalog, ibn_signature, identify_ibn,
                                   orbit_meets_g1, pair_by_descriptor,
                                   pi_involution, so_pair_ibn)
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

print("signature identification:")
for t, sig in [(SimpleType("D", 5), 3), (SimpleType("E", 7), -5)]:
    p = identify_ibn(t, sig)
    print(f"  {t}, dim g1 - dim g0 = {sig:3d} -> {p.descriptor} "
          f"(check: {ibn_signature(p.satake)})")

print()
print("so-pair IBN rule: |n - m| <= 4")
print("  so5+so3:", so_pair_ibn(5, 3), "  so9+so3:", so_pair_ibn(9, 3))

print()
e7 = SimpleType("E", 7)
sat = pair_by_descriptor(e7, "D6+A1").satake
d = exceptional_lookup(e7, "E7(a3)").wdd
print(f"does the E7(a3) orbit meet the odd part of the D6+A1 pair? "
      f"{orbit_meets_g1(d, sat)}")
