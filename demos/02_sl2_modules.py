"""
sl2-module multiset arithmetic
==============================

Modules are multisets of highest weights; R(k) has dimension k+1.  The
demo multiplies characters the Clebsch-Gordan way, takes symmetric and
exterior squares, and reads off eigenvalue dimensions and the signed
counts used to identify derived involutions.
"""

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
print("eigenvalue dimensions d(i) of M0:",
      [m0.eigen_dim(i) for i in range(0, 16, 2)])
print("eigenvalue dimensions d(i) of M1:",
      [m1.eigen_dim(i) for i in range(0, 18, 2)])

print()
s0, s1 = m0.signed_count(), m1.signed_count()
print("signed counts, R(2k) weighed by (-1)^k:")
print(f"  s0 = {s0},  s1 = {s1}")
print(f"  sigma-check:        s0 + s1 = {s0 + s1}")
print(f"  sigma sigma-check:  s0 - s1 = {s0 - s1}")
