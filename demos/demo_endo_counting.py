#!/usr/bin/env python3
"""Endo-parameter bookkeeping: build a small parameter, inspect its lift and
degree, then enumerate all parameters sharing the lift and compare with the
closed counting formula 2^(#I_0 - [null present])."""

import json

from hermiwitt.wittclass import WittClassD
from hermiwitt import endo as en
from hermiwitt import serialize as sz

t1 = en.EndoClassToken("c1", "simple_nonnull", 2, e_parity=1, f_parity=0,
                       min_tag="unram", aniso_parity=1,
                       wtd_odd=frozenset({"g1"}))
t2 = en.EndoClassToken("c2", "simple_nonnull", 2, e_parity=0, f_parity=1,
                       min_tag="ram", aniso_parity=1,
                       wtd_odd=frozenset({"gpi"}))
null = en.EndoClassToken("c0", "simple_null", 1)

fm = en.EndoParameter(
    1, 7, WittClassD.of(1, "galpha"),
    ((t1, 0, en.WittType.simple(t1, 1, 0)),
     (t2, 0, en.WittType.simple(t2, 1, 1)),
     (null, 2, en.WittType.null({"g1", "galpha", "gpi"}))))
ok, diags = en.validate(fm)
print("constructed parameter valid:", ok, diags)
print("GL-lift:", en.lift(fm))
print("degree:", en.degree(fm), "= 2m with m =", fm.m)

entries = [en.LiftEntry(t1, 1), en.LiftEntry(t2, 1), en.LiftEntry(null, 10)]
out = en.enumerate_parameters(entries, 1, 7, fm.h_class)
print(f"\nparameters sharing this lift: {len(out)} "
      f"(closed form: {en.closed_form_count(entries)})")
for i, p in enumerate(out):
    towers = []
    for tok, f1, f2 in p.support:
        if tok.kind != "simple_nonnull":
            continue
        towers.append(f"{tok.id}:{sz.witt_type_to_json(f2)['tower']}")
    print(f"  #{i}: " + "  ".join(towers))

print("\nfirst parameter as JSON:")
print(json.dumps(sz.parameter_to_json(out[0]), indent=1, sort_keys=True))
