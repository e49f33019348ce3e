#!/usr/bin/env python3
"""Tour of the constant-time burning-number formulas.

Shows the square-root law for paths and cycles, the exceptional pairs and
triples where a linear forest needs one extra round, and cross-checks a
slice of each family against the exact solver.
"""

from burnkit import (
    b_path,
    b_three_paths,
    b_two_paths,
    build,
    burning_number_exact,
    ceil_sqrt,
    enumerate_sweep,
    format_spec,
)
from burnkit.formulas import forest_exceptional

print("Paths and cycles burn in ceil(sqrt(n)) rounds:")
print("  n      :", " ".join(f"{n:2d}" for n in range(1, 18)))
print("  b(P_n) :", " ".join(f"{b_path(n):2d}" for n in range(1, 18)))

print("\nTwo-path forests: one extra round exactly on the (t*t-2, 2) pairs.")
for a1 in range(2, 36):
    if forest_exceptional((a1, 2)):
        total = a1 + 2
        print(f"  P_{a1} + P_2: total {total}, "
              f"root bound {ceil_sqrt(total)}, actual {b_two_paths(a1, 2)}")

print("\nThree-path forests with total at most 20 that need the extra round:")
for desc in enumerate_sweep("forest3", 20):
    a1, a2, a3 = desc.parts
    if forest_exceptional(desc.parts):
        print(f"  {format_spec(desc):18s} -> {b_three_paths(a1, a2, a3)} "
              f"(root bound {ceil_sqrt(a1 + a2 + a3)})")

print("\nCross-check against the exact solver (every forest with total <= 16):")
checked = 0
for cls in ("forest2", "forest3"):
    for desc in enumerate_sweep(cls, 16):
        parts = desc.parts
        formula = b_two_paths(*parts) if len(parts) == 2 else b_three_paths(*parts)
        exact = burning_number_exact(build(desc)).value
        assert formula == exact, (desc, formula, exact)
        checked += 1
print(f"  {checked} instances, all agree.")
