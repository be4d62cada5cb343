"""
Nilpotent orbits from partitions
================================

Partitions classify nilpotent orbits of the classical algebras; the demo
computes weighted Dynkin diagrams (short nodes are drawn as [v]),
centraliser dimensions, the evenness and divisibility predicates, and
half-orbits of divisible orbits.
"""

from nilorbits.exceptional import exceptional_lookup
from nilorbits.orbits import (ClassicalOrbit, Partition, centralizer_dims,
                              half_orbit, is_divisible, is_even,
                              reductive_type, wdd_from_partition)
from nilorbits.roots import SimpleType

for kind, n, lam in [("so", 9, "(5,3,1)"), ("sp", 8, "(4,4)"),
                     ("sl", 5, "(3,2)"), ("so", 12, "(5,5,1,1)")]:
    o = ClassicalOrbit(kind, n, Partition.parse(lam))
    wdd = wdd_from_partition(o)
    total, red, nil = centralizer_dims(o)
    print(f"{o}:")
    print("  " + wdd.render().replace("\n", "\n  "))
    print(f"  dim z(e) = {total}, reductive part {reductive_type(o)} "
          f"(dim {red}), nilradical {nil}")
    print(f"  even: {is_even(o)}, divisible: {is_divisible(o)}")
    if is_divisible(o):
        print(f"  half-orbit: {half_orbit(o).partition}")
    print()

print("half-orbits: each odd part 2m+1 halves to the parts m+1 and m")
for kind, lam in [("so", "(7,7)"), ("so", "(5,3,1)"), ("sp", "(3,3)"),
                  ("sl", "(5,1)")]:
    p = Partition.parse(lam)
    o = ClassicalOrbit(kind, p.n, p)
    print(f"  {o} -> {half_orbit(o).partition}")

print()
rec = exceptional_lookup(SimpleType("E", 8), "E8(a4)")
print(f"static record E8(a4): dim z = {rec.dim_centralizer}, "
      f"red = {rec.red}, nil = {rec.dim_nil}")
print(rec.wdd.render())
