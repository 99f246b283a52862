"""Invariants of abelian covers branched on disjoint nodal curves.

A rank-r subgroup of 2-torsion relations among m nodal curves produces a
2^r-sheeted cover branched exactly on those curves.  The holomorphic Euler
characteristic, K^2 and topological Euler number of the cover follow from
closed formulas; contracting the preimages of the branch curves (each a
disjoint union of exceptional curves) gives a second, smooth model.  The
same layer houses the numerical bounds that drive the case analyses: the
minimum branch count per rank, the isotropic rank bound, and the
Bogomolov-Miyaoka-Yau node bound.
"""

from nodalcodes.covers import (
    CoverSpec,
    SurfaceInvariants,
    cover_invariants,
    double_cover_nodes,
    isotropic_bound,
    min_m_for_r,
    miyaoka_max_nodes,
)

print("== double cover of a K^2 = 4 surface branched on 4 nodal curves ==")
base = SurfaceInvariants(chi=1, K2=4, kodaira="two")
out = cover_invariants(base, CoverSpec(r=1, m=4))
print(f"cover:      {out.cover._asdict()}")
print(f"contracted: {out.contracted._asdict()}")
print(f"exceptional curves blown down: {out.blowdowns}")

print()
print("== rank-3 cover of a K^2 = 0 surface branched on 7 curves ==")
base = SurfaceInvariants(chi=1, K2=0)
out = cover_invariants(base, CoverSpec(r=3, m=7))
print(f"cover:      {out.cover._asdict()}")
print(f"contracted: {out.contracted._asdict()}")

print()
print("== non-integral Euler characteristics are contradictions ==")
try:
    cover_invariants(SurfaceInvariants(chi=1, K2=4), CoverSpec(r=1, m=2))
except ValueError as exc:
    print(f"rejected: {exc}")

print()
print("== weight counting forces a minimum branch count ==")
for r in range(1, 9):
    print(f"rank {r}: need at least {min_m_for_r(r)} branch curves")

print()
print("== rank bound from isotropy ==")
for k, rho in ((4, 6), (6, 8), (7, 8), (8, 10)):
    print(f"k={k} curves at Picard rank {rho}: code rank >= "
          f"{isotropic_bound(k, rho)}")

print()
print("== node bounds ==")
for k2, c2 in ((0, 12), (4, 8), (2, 10)):
    nb = miyaoka_max_nodes(k2, c2)
    print(f"K^2={k2}, c2={c2}: at most {nb.max_nodes} nodes "
          f"(assumes {', '.join(nb.assumptions)})")

print()
print("== nodes forced on the quotient of a fixed-point-free-in-"
      "codimension-one involution ==")
# the drop between chi upstairs and twice chi downstairs counts the
# isolated fixed points (each contributes a quarter)
print(f"chi upstairs 1, chi downstairs 1: {double_cover_nodes(1, 1)} nodes")
print(f"chi upstairs 2, chi downstairs 1: {double_cover_nodes(2, 1)} nodes "
      f"(an honestly free quotient)")
