#!/usr/bin/env python3
"""The unicyclic classifications in action.

For a cycle with one or two pendant arms the burning number is q or q+1,
where n = q*q + r. This script prints the classification for a band of
one-arm instances, shows the exceptional parameter families flipping the
answer to q+1, and cross-validates a slice against both independent
oracles (direct search and the spanning-tree minimum).
"""

from burnkit import (
    b_unicyclic_t1,
    b_unicyclic_t2,
    build,
    burning_number_exact,
    enumerate_sweep,
    format_spec,
    qr_decompose,
    structural,
    t_unicyclic_bounds,
    unicyclic_spanning_upper,
)

print("One-arm instances at n = 11 (q = 3, r = 2):")
for g in range(3, 11):
    a = 11 - g
    res = b_unicyclic_t1(g, a)
    print(f"  cycle {g:2d}, arm {a:2d}: b = {res.value}  [{res.method}]")

print("\nThe exceptional pair (7, 4) against its neighbors:")
for g, a in [(7, 3), (7, 4), (7, 5), (6, 4), (8, 4)]:
    res = b_unicyclic_t1(g, a)
    n = g + a
    qr = qr_decompose(n)
    print(f"  g={g} a={a} (n={n}=q^2+r with q={qr.q}, r={qr.r}) -> {res.value}")

print("\nTwo-arm lookups with the bound sandwich:")
for spec in ("uni:4;4,4", "uni:9;10,2", "uni:8;5,4", "uni:12;7,6"):
    desc_g, arms = spec.split(";")
    g = int(desc_g.split(":")[1])
    a1, a2 = (int(x) for x in arms.split(","))
    res = b_unicyclic_t2(g, a1, a2)
    n = g + a1 + a2
    lower, upper = t_unicyclic_bounds(n, 2)
    print(f"  {spec:12s} n={n:2d}: {lower} <= b = {res.value} <= {upper}")

print("\nCross-validation on every two-arm instance with n <= 16:")
agree = 0
for desc in enumerate_sweep("uni2", 16):
    graph = build(desc)
    table = b_unicyclic_t2(desc.g, *desc.arms).value
    exact = burning_number_exact(graph).value
    spanning = unicyclic_spanning_upper(graph)
    lower = structural.lower_bound(desc.arms, desc.g)
    assert table == exact == spanning and lower <= exact, format_spec(desc)
    agree += 1
print(f"  {agree} instances: table = direct search = spanning-tree minimum.")
