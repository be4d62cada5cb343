"""
The matrix oracle
=================

Everything the combinatorial layers compute can be recomputed from
explicit integer matrices: triples from Jordan strings, involutions as
conjugations or form twists, centralisers as kernels of ad e.  The demo
runs both paths side by side and finishes with the half-orbits of sp_2n,
checked against the kernel of (ad e)^2.
"""

from nilorbits.gradings import decompose, grading_grid
from nilorbits.involutions import pair_by_descriptor
from nilorbits.orbits import (ClassicalOrbit, Partition, centralizer_dims,
                              half_orbit, valid_partitions, is_divisible)
from nilorbits.oracle import (centralizer_dim, ker_ad_squared, oracle_grid,
                              triple_from_partition)
from nilorbits.roots import SimpleType

lam = Partition.parse("(5,3,1)")
t = triple_from_partition("so", 9, lam)
print(f"so9 {lam}: triple relations hold: {t.check_relations()}")
print(f"  h eigenvalues: {t.h}")
print(f"  dim z(e): matrix rank -> {centralizer_dim(t)}, "
      f"partition formula -> {centralizer_dims(ClassicalOrbit('so', 9, lam))[0]}")

print()
lam = Partition.parse("(5,1)")
t = triple_from_partition("sl", 6, lam)
half = Partition.parse("(3,2,1)")
print(f"sl6 {lam}: dim ker(ad e)^2 = {ker_ad_squared(t)} agrees with "
      f"dim z of the half-orbit {half} = "
      f"{centralizer_dims(ClassicalOrbit('sl', 6, half))[0]}")

print()
pair = pair_by_descriptor(SimpleType("D", 5), "gl5")
print(f"{pair}: matrix grid equals the module-theoretic grid: "
      f"{oracle_grid(pair) == grading_grid(decompose(pair))}")

print()
print("sp half-orbits: dim ker(ad e)^2 = dim z(half)?")
for n in (6, 8):
    for o in valid_partitions("sp", n):
        if is_divisible(o):
            half = half_orbit(o)
            k2 = ker_ad_squared(triple_from_partition("sp", n, o.partition))
            print(f"  sp{n} {o.partition} -> {half.partition}: "
                  f"{k2 == centralizer_dims(half)[0]}")
