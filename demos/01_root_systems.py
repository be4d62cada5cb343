"""
Root systems in exact arithmetic
================================

Builds positive systems by closure from the Cartan matrix, and shows the
height combinatorics that drive everything else: Coxeter numbers, the
maximal number of pairwise disjoint diagram nodes, and the long height-4
root that completes the height-2 layer for the even subalgebra.
"""

from nilorbits.roots import (SimpleType, all_simple_types, beta_root,
                             build_root_system, coxeter_number, kappa_direct,
                             kappa_root_count, principal_layer)

for name in ("A2", "G2", "F4", "E6", "E8"):
    t = SimpleType.parse(name)
    rs = build_root_system(t)
    print(f"{t}: {len(rs.positive_roots)} positive roots, "
          f"highest root {rs.highest_root} (height "
          f"{sum(rs.highest_root)}), Coxeter number {coxeter_number(rs)}")

print()
print("kappa(g): node-count formula vs count of roots at height "
      "floor((c+1)/2)")
for t in all_simple_types(8):
    rs = build_root_system(t)
    assert kappa_direct(t) == kappa_root_count(rs)
print("  identical for every simple type of rank <= 8")

print()
print("layer sizes of the principal grading (layer 1 = simple roots, "
      "layer 2 has rank-1 roots):")
rs = build_root_system(SimpleType("E", 6))
for i in (1, 2, 3, 4):
    print(f"  E6 layer {i}: {len(principal_layer(rs, i))} roots")

print()
print("the completing root beta (long, height 4, not a sum of two "
      "height-2 roots):")
for name in ("B4", "D5", "E7", "F4", "G2"):
    rs = build_root_system(SimpleType.parse(name))
    print(f"  {name}: beta = {beta_root(rs)}")
