"""Seeded random generators for elements, forms and congruences.

Every suite in this package takes an explicit seed so parallel shards are
reproducible.
"""

from __future__ import annotations

import random

from .errors import Singular
from .hermitian import (
    HermitianForm,
    congruence,
    dmat_sub,
    row_reduce,
    sigma_h_adjoint,
)
from .padic import FElement, FieldConfig, QuadExtElement
from .quaternion import QuaternionElement


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def rand_f(cfg: FieldConfig, r: random.Random, min_val=-2, max_val=3,
           nonzero=True) -> FElement:
    v = r.randint(min_val, max_val)
    rel = cfg.precision - max(v, 0)
    unit = r.randrange(1, cfg.p ** max(rel, 1))
    while unit % cfg.p == 0:
        unit += 1
    x = cfg.f(unit).shift(v)
    if not nonzero and r.random() < 0.15:
        return cfg.f_zero()
    return x


def rand_l(cfg: FieldConfig, r: random.Random, min_val=-1, max_val=2) -> QuadExtElement:
    a = rand_f(cfg, r, min_val, max_val)
    b = rand_f(cfg, r, min_val, max_val)
    if r.random() < 0.15:
        b = cfg.f_zero()
    return cfg.l(a, b)


def rand_quat(cfg: FieldConfig, r: random.Random, min_val=-1, max_val=2) -> QuaternionElement:
    return QuaternionElement(rand_l(cfg, r, min_val, max_val),
                             rand_l(cfg, r, min_val, max_val))


def rand_symmetric(cfg: FieldConfig, r: random.Random) -> QuaternionElement:
    """Random nonzero rho-symmetric element a + b pi_D, b in F."""
    a = rand_l(cfg, r)
    b = cfg.l(rand_f(cfg, r, -1, 2), 0)
    if r.random() < 0.2:
        b = cfg.L_field.zero()
    d = QuaternionElement(a, b)
    return d if not d.is_zero() else QuaternionElement.one(cfg)


def rand_skew(cfg: FieldConfig, r: random.Random) -> QuaternionElement:
    c = rand_f(cfg, r, -1, 2)
    return QuaternionElement(cfg.L_field.zero(), cfg.l(0, c))


def rand_line_entry(cfg: FieldConfig, r: random.Random, epsilon: int) -> QuaternionElement:
    return rand_symmetric(cfg, r) if epsilon == 1 else rand_skew(cfg, r)


def rand_diagonal_form(cfg: FieldConfig, r: random.Random, epsilon: int,
                       rank: int) -> HermitianForm:
    return HermitianForm.diagonal(
        epsilon, [rand_line_entry(cfg, r, epsilon) for _ in range(rank)])


def rand_invertible(cfg: FieldConfig, r: random.Random, n: int):
    """Random invertible n x n matrix over D with integral entries."""
    for _ in range(50):
        S = [[rand_quat(cfg, r, 0, 1) for _ in range(n)] for _ in range(n)]
        try:
            row_reduce([list(row) for row in S], n, full_rank=True)
            return S
        except Singular:
            continue
    raise AssertionError("failed to draw an invertible matrix")


def rand_form(cfg: FieldConfig, r: random.Random, epsilon: int, rank: int) -> HermitianForm:
    """Random nondegenerate form: a congruence-scrambled diagonal form."""
    diag = rand_diagonal_form(cfg, r, epsilon, rank)
    S = rand_invertible(cfg, r, rank)
    return HermitianForm.from_rows(epsilon, congruence(diag.rows(), S, S))


def rand_eform(data, r: random.Random, eps: int, t: int):
    """Random eps-hermitian t x t matrix over the field E of a SplitData,
    with F-integral entries: drawn row by row above the diagonal, the
    diagonal sigma-fixed (eps = 1) or in F times the generator (eps = -1)."""
    cfg, E = data.cfg, data.E
    rows = []
    for i in range(t):
        row = []
        for j in range(t):
            if j < i:
                x = rows[j][i].sigma()
                row.append(x if eps == 1 else -x)
            elif j == i:
                d = rand_f(cfg, r, 0, 1)
                row.append(E.from_f(d) if eps == 1 else E.gen().scale_f(d))
            else:
                row.append(E.el(rand_f(cfg, r, 0, 1, nonzero=False),
                                rand_f(cfg, r, 0, 1, nonzero=False)))
        rows.append(row)
    return rows


def rand_skew_adjoint(cfg: FieldConfig, r: random.Random, form: HermitianForm):
    """sigma_h-skew-adjoint X with entries of positive nu_D: X = Y - sigma_h(Y)."""
    n = form.rank
    Y = [[rand_quat(cfg, r, 1, 2) for _ in range(n)] for _ in range(n)]
    return dmat_sub(Y, sigma_h_adjoint(form.rows(), Y))
