#!/usr/bin/env python3
"""The hermitian category equivalence at work: split E (x) D, round-trip a
form through the equivalence, evaluate its Witt tower at two idempotents,
and watch the maximal anisotropic tower collapse under the trace transfer."""

from hermiwitt.hermitian import dmat_is_zero, dmat_sub
from hermiwitt.padic import FieldConfig
from hermiwitt import morita as mo
from hermiwitt import wittclass as wc

cfg = FieldConfig(5, 32)

for delta, name in ((cfg.f(cfg.nonresidue_r), "E = L (unramified)"),
                    (cfg.pi(), "E = F[pi_D] (ramified)")):
    data = mo.split(cfg, delta)
    E = data.E
    print(f"{name}: split E(x)D = M_2(E), reference pair "
          f"(u1, u2) = ({data.u1!r}, {data.u2!r})")

    hE = [[E.from_f(cfg.f(3)), E.zero()], [E.zero(), E.from_f(cfg.f(1))]]
    ed = mo.functor_Ge(hE, data, 1)
    back = mo.functor_Fe(ed, data.e1())
    print("  F_e1 o G_e1 returns the input Gram:",
          dmat_is_zero(dmat_sub(back, hE)))

    h, beta = mo.realize_instance(ed)
    tower = mo.witt_tower_of(h, beta)
    print(f"  tower at e1: parity={tower.class_at_e1.rank_parity} "
          f"anis_dim={tower.class_at_e1.anisotropic_dim}")

    f = data.idempotent_from_line([E.el(1, 1), E.el(0, 1)])
    s, _ = mo.similitude_scale(data.e1(), f)
    print("  second idempotent: scale-law value == direct value:",
          tower.value_at(f) == tower.value_at_direct(f))

    print("  trace class of the tower over D:", tower.trace_class())

    ma = mo.max_anisotropic_edform(data, 1)
    print("  maximal anisotropic tower -> trace class",
          wc.class_of_form(mo.trace_transfer(ma)), "(hyperbolic)")
    print()
