#!/usr/bin/env python3
"""Walk through the Witt group of (D, rho): the three orthogonal generator
classes, the single symplectic class, and the derived anisotropic-dimension
table, with a seeded random survey confirming the group orders."""

from hermiwitt.padic import FieldConfig
from hermiwitt.quaternion import QuaternionElement as Q
from hermiwitt import randgen as rg
from hermiwitt import wittclass as wc

p = 5
cfg = FieldConfig(p, 32)
print(f"F = Q_{p}, L = F(u) with u^2 = {cfg.nonresidue_r}, D = L + L*pi_D\n")

one, pi = Q.one(cfg), Q.pi_D(cfg)
alpha = Q.make(cfg, cfg.alpha)
print("canonical non-square unit alpha of L:", alpha.a.residue_pair(),
      "(residue coordinates)")

print("\nrank-1 classes (eps = +1):")
for name, d in (("<1>", one), ("<alpha>", alpha), ("<pi_D>", pi),
                ("<pi_F>", one.scale_f(cfg.pi())), ("<-1>", -one)):
    print(f"  {name:9s} -> {wc.classify_line(d, 1)}")

skew = Q.u_elem(cfg) * pi
print("\nrank-1 classes (eps = -1):")
print(f"  <u pi_D>  -> {wc.classify_line(skew, -1)}")

print("\nseeded random survey (2000 symmetric lines):")
r = rg.rng(1)
seen = {wc.classify_line(rg.rand_symmetric(cfg, r), 1).coords
        for _ in range(2000)}
group = set(seen)
changed = True
while changed:
    changed = False
    for a in list(group):
        for b in list(group):
            if a ^ b not in group:
                group.add(a ^ b)
                changed = True
print(f"  distinct line classes: {len(seen)}  XOR-closure: {len(group)} "
      "(an elementary 2-group of order 8)")

print("\nderived anisotropic dimensions:")
from itertools import combinations
for k in range(4):
    for names in combinations(("g1", "galpha", "gpi"), k):
        c = wc.WittClassD.of(1, *names)
        print(f"  dim {c.sorted_names()} = {wc.anisotropic_dim(cfg, c)}")
