"""
sl2-module multiset arithmetic
==============================

Modules are multisets of highest weights; R(k) has dimension k+1.  The
demo multiplies characters the Clebsch-Gordan way, takes symmetric and
exterior squares, prints the grid of eigenvalue dimensions of the E6/C4
modules, and reads off the signed counts used to identify derived
involutions.
"""

from nilorbits.gradings import decompose, grading_grid
from nilorbits.involutions import pair_by_descriptor
from nilorbits.roots import SimpleType
from nilorbits.sl2 import R, SL2Module, alt2, sym2, tensor
from nilorbits.verify import E_MODULES

print("Clebsch-Gordan products:")
print(f"  R2 x R2 = {tensor(R(2), R(2))}")
print(f"  R4 x R2 = {tensor(R(4), R(2))}")

print()
print("squares:")
print(f"  Sym2 R2 = {sym2(R(2))}   Alt2 R2 = {alt2(R(2))}")
print(f"  Alt2(R4 + R2) = {alt2(SL2Module.parse('R4+R2'))}")

print()
m0, m1 = map(SL2Module.parse, E_MODULES[("E6", "C4")])  # the C4 pair of E6
print(f"M0 = {m0} (dim {m0.dim}),  M1 = {m1} (dim {m1.dim})")
print("eigenvalue dimensions: dj(i) = dim of the i-eigenspace of Mj "
      "([ ] marks d0(0) = d1(4))")
pd = decompose(pair_by_descriptor(SimpleType("E", 6), "C4"))
print(grading_grid(pd).render())

print()
s0, s1 = m0.signed_count(), m1.signed_count()
print("signed counts, R(2k) weighed by (-1)^k:")
print(f"  s0 = {s0},  s1 = {s1}")
print(f"  sigma-check:        s0 + s1 = {s0 + s1}")
print(f"  sigma sigma-check:  s0 - s1 = {s0 - s1}")
