#!/usr/bin/env python3
"""Witt decomposition in action: diagonalize a scrambled form, split off
hyperbolic planes, certify the anisotropic kernel, and check invariance
under a random change of basis."""

from hermiwitt.hermitian import HermitianForm, congruence
from hermiwitt.padic import FieldConfig
from hermiwitt.quaternion import QuaternionElement as Q
from hermiwitt import randgen as rg
from hermiwitt import wittclass as wc
from hermiwitt.wittclass import witt_decompose

cfg = FieldConfig(7, 32)
r = rg.rng(42)

one, pi = Q.one(cfg), Q.pi_D(cfg)
alpha = Q.make(cfg, cfg.alpha)

base = HermitianForm.diagonal(1, [one, -one, pi])
print("base form: diag(1, -1, pi_D), eps = +1")
idx, aniso = witt_decompose(base)
print(f"  witt index = {idx}, anisotropic rank = {len(aniso.entries)}, "
      f"class = {wc.class_of_diagonal(aniso)}")

S = rg.rand_invertible(cfg, r, 3)
scrambled = HermitianForm.from_rows(1, congruence(base.rows(), S, S))
idx2, aniso2 = witt_decompose(scrambled)
print("after a random congruence rho(S)^T M S:")
print(f"  witt index = {idx2}, class = {wc.class_of_diagonal(aniso2)} "
      "(unchanged)")

print("\na maximal anisotropic example: diag(1, alpha, pi_D)")
maximal = HermitianForm.diagonal(1, [one, alpha, pi])
idx3, aniso3 = witt_decompose(maximal)
print(f"  witt index = {idx3}, anisotropic rank = {len(aniso3.entries)}"
      f" (rank-3 anisotropic kernel, the largest possible)")

print("\nsymplectic side: every rank-2 skew form is hyperbolic")
skew = Q.u_elem(cfg) * pi
f = HermitianForm.diagonal(-1, [skew, skew.scale_f(cfg.f(3))])
idx4, aniso4 = witt_decompose(f)
print(f"  diag(u pi_D, 3 u pi_D): witt index = {idx4}, "
      f"anisotropic rank = {len(aniso4.entries)}")
