"""
Mixed grading grids
===================

For a pair (g, g0) and a nilpotent e regular in g0, the joint eigenvalues
of the triple element h and the involution slice g into the grid
d_j(i) = dim g_j(i).  The demo prints the three exceptional grids with
their boxed d_0(0) = d_1(4) cells, the two-part family grids of the split
pair of sl_2n, and the equality checks that drive the classifications.
"""

from nilorbits.gradings import (check_02, check_04, check_4k2,
                                d00_closed_form, decompose,
                                decompose_classical, grading_grid,
                                divisibility_report)
from nilorbits.involutions import pair_by_descriptor
from nilorbits.orbits import Partition
from nilorbits.roots import SimpleType

for ts, g0 in [("E6", "C4"), ("E7", "A7"), ("E8", "D8")]:
    pair = pair_by_descriptor(SimpleType.parse(ts), g0)
    pd = decompose(pair)
    mg = grading_grid(pd)
    print(f"{pair}, orbit {pd.orbit.label}")
    print(f"  M0 = {pd.m0}")
    print(f"  M1 = {pd.m1}")
    print("  " + mg.render().replace("\n", "\n  "))
    print("  divisibility consequences all hold: "
          f"{not divisibility_report(pd)}")
    print()

print("split pair of sl_2n with two odd Jordan blocks (2m+1, 2k+1):")
for m, k in [(2, 0), (4, 1), (5, 2)]:
    n = m + k + 1
    pair = pair_by_descriptor(SimpleType("A", 2 * n - 1), f"so{2 * n}")
    lam = Partition.of(2 * m + 1, 2 * k + 1)
    mg = grading_grid(decompose_classical(pair, [lam]))
    d00, d10 = d00_closed_form((m, k))
    print(f"  sl{2 * n} {lam}: d0(0) = {mg.d(0, 0)} (closed form {d00}), "
          f"d1(0) = {mg.d(1, 0)} (closed form {d10}), "
          f"d1(4) = {mg.d(1, 4)}")

print()
print("the equality checks on a few pairs:")
for ts, g0 in [("E6", "C4"), ("B4", "so8"), ("G2", "A1+A1~"),
               ("C3", "gl3")]:
    pair = pair_by_descriptor(SimpleType.parse(ts), g0)
    mg = grading_grid(decompose(pair))
    print(f"  {str(pair):22s} d0(0)=d1(2): {str(check_02(mg)):5s} "
          f"d0(0)=d1(4): {str(check_04(mg)):5s} "
          f"all 4k+2 layers tie: {check_4k2(mg)}")
