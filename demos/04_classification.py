"""The finite case analyses, end to end.

Two classification problems reduce to the code/cover machinery plus short
exact computations: which rational surfaces of Picard rank rho can carry
rho - 1 or rho - 2 disjoint nodal curves, and which involutions can exist
on a minimal surface of general type with p_g = 0 and K^2 = 8 or 9.  Every
answer below is produced by exhaustive search or exact arithmetic — no
case is entered by hand.
"""

from nodalcodes.classify import (
    classify_involution,
    feasible_kr_pairs,
    fiber_budget,
    saturated_node_sweep,
    small_rho_cases,
    solve_md,
    standard_example_invariants,
)

print("== k = rho - 1 nodal curves on a rational surface ==")
for rho in range(2, 15):
    row = saturated_node_sweep(rho)
    verdict = "SURVIVES" if row.survives else "eliminated"
    print(f"rho={rho:2d} (k={row.k:2d}, K^2={row.K2_Y:3d}, "
          f"rank >= {row.r_min}): {verdict} -- {row.tag}")

print()
print("== k = rho - 2: the feasible (k, r, m) triples ==")
for k, r, m in sorted(feasible_kr_pairs()):
    print(f"k={k}, code rank {r}, support {m}")

print()
print("== and the surfaces realizing small rho ==")
for rho in (2, 3, 4):
    for case in small_rho_cases(rho):
        print(f"rho={rho}, k={case.k}: {case.description}")

print()
print("== the doubled-code examples ==")
for n in (1, 3, 5):
    ex = standard_example_invariants(n)
    print(f"n={n}: rho={ex.rho}, k={ex.k}, code dim {ex.code.dim}")

print()
print("== involutions with K^2 = 9 ==")
(case,) = classify_involution(9)
print(case.Y_description)
for step in case.derivation:
    print(f"  - {step.claim}")

print()
print("== involutions with K^2 = 8: the five cases ==")
for case in classify_involution(8):
    if case.label == "contradiction":
        print(f"[eliminated] {case.Y_description}")
        continue
    genus = (f", pencil genus {case.genus_of_pencil}"
             if case.genus_of_pencil else "")
    print(f"({case.label}) k={case.k}, rho_Y={case.rho_Y}, "
          f"K^2_Y={case.K2_Y}{genus}")
    print(f"      {case.Y_description}")

print()
print("== the arithmetic backing the elliptic case ==")
multisets = fiber_budget(12, 8)
print(f"fiber multisets fitting Euler number 12 with 8 nodal curves, as "
      f"counts per fiber kind: {list(multisets)}")

print()
print("== the pencil equation for the rational cases ==")
for sol in solve_md():
    print(f"m={sol.m}, d={sol.d}: hyperelliptic pencil of genus {sol.genus}")
