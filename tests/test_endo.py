import hashlib
import json

import pytest

from hermiwitt.errors import IncomparableTokens, InfeasibleLift, InvalidParameter
from hermiwitt.wittclass import WittClassD
from hermiwitt import endo as en
from hermiwitt import randgen as rg
from hermiwitt import serialize as sz
from hermiwitt import selftest as st


def tok_nn(i, parity, wtd, tag="m"):
    return en.EndoClassToken(f"c{i}", "simple_nonnull", 2, e_parity=1,
                             f_parity=0, min_tag=tag, aniso_parity=parity,
                             wtd_odd=frozenset(wtd))


def test_norm_containment_table():
    assert en.norm_containment(0, 0)
    assert not en.norm_containment(0, 1)
    assert not en.norm_containment(1, 0)
    assert not en.norm_containment(1, 1)


def test_token_validation():
    with pytest.raises(InvalidParameter):
        en.EndoClassToken("x", "simple_null", 2)
    with pytest.raises(InvalidParameter):
        en.EndoClassToken("x", "simple_nonnull", 3)
    with pytest.raises(InvalidParameter):
        en.EndoClassToken("x", "weird", 1)


def test_witt_type_equiv_bullets():
    t1 = tok_nn(1, 1, {"g1"})
    t2 = tok_nn(2, 1, {"g1"}, tag="m")
    assert en.witt_type_equiv(en.WittType.hyperbolic(), en.WittType.hyperbolic(), 1)
    a = en.WittType.simple(t1, 1, 0)
    assert en.witt_type_equiv(a, en.WittType.simple(t2, 1, 0), 1)
    assert not en.witt_type_equiv(a, en.WittType.simple(t2, 1, 1), 1)
    t3 = tok_nn(3, 1, {"gpi"}, tag="m")
    assert not en.witt_type_equiv(a, en.WittType.simple(t3, 1, 0), 1)
    t4 = tok_nn(4, 1, {"g1"}, tag="other")
    with pytest.raises(IncomparableTokens):
        en.witt_type_equiv(a, en.WittType.simple(t4, 1, 0), 1)
    nz = en.WittType.null({"g1"})
    assert en.witt_type_equiv(nz, en.WittType.null({"g1"}), 1)
    assert not en.witt_type_equiv(nz, en.WittType.null({"gpi"}), 1)
    assert not en.witt_type_equiv(nz, a, 1)
    assert en.WittType.null(set()).is_hyp


def test_lift_examples():
    t = tok_nn(1, 1, {"g1"})
    fm = en.EndoParameter(1, 7, WittClassD.of(1, "g1"),
                          ((t, 3, en.WittType.simple(t, 1, 0)),))
    assert en.lift(fm) == {"c1": 7}
    assert en.degree(fm) == 14
    tp = en.EndoClassToken("p", "nonsimple_pair", 3)
    fm2 = en.EndoParameter(1, 6, WittClassD.zero(1),
                           ((tp, 2, en.WittType.hyperbolic()),))
    assert en.lift(fm2) == {"p#1": 2, "p#2": 2}
    assert en.degree(fm2) == 12
    t0 = tok_nn(9, 0, set())
    fm3 = en.EndoParameter(1, 0, WittClassD.zero(1), ())
    assert en.degree(fm3) == 0


def test_degree_additivity():
    t1, t2 = tok_nn(1, 1, {"g1"}), tok_nn(2, 0, set(), tag="n")
    a = en.EndoParameter(1, 0, WittClassD.zero(1),
                         ((t1, 2, en.WittType.simple(t1, 1, 0)),))
    b = en.EndoParameter(1, 0, WittClassD.zero(1),
                         ((t2, 1, en.WittType.hyperbolic()),))
    both = en.EndoParameter(1, 0, WittClassD.zero(1), a.support + b.support)
    assert en.degree(both) == en.degree(a) + en.degree(b)


def test_wt_d_selector_flip_equal():
    t = tok_nn(1, 1, {"galpha"})
    w0 = en.WittType.simple(t, 1, 0)
    w1 = en.WittType.simple(t, 1, 1)
    assert w0.wt_d(1) == w1.wt_d(1) == WittClassD.of(1, "galpha")
    assert en.WittType.hyperbolic().wt_d(1) == WittClassD.zero(1)
    t2 = tok_nn(2, 0, set())
    assert en.WittType.simple(t2, 2).wt_d(1) == WittClassD.zero(1)


def test_validate_diagnostics():
    t = tok_nn(1, 1, {"g1"})
    good = en.EndoParameter(1, 7, WittClassD.of(1, "g1"),
                            ((t, 3, en.WittType.simple(t, 1, 0)),))
    ok, diags = en.validate(good)
    assert ok and not diags
    bad_deg = en.EndoParameter(1, 8, WittClassD.of(1, "g1"), good.support)
    ok, diags = en.validate(bad_deg)
    assert not ok and "degree" in diags
    bad_sum = en.EndoParameter(1, 7, WittClassD.of(1, "gpi"), good.support)
    ok, diags = en.validate(bad_sum)
    assert not ok and "witt_sum" in diags


def test_validate_diagnostics_each_rule():
    """Each per-token rule of validate on one parameter that breaks it
    alone (m and h_class chosen so that the global constraints hold, except
    where f1 < 0 makes the degree negative), with validate's exact list.
    The per-class rules parity on a tower's diman and
    null_tower_must_be_class without null_needs_zero_beta are not tested:
    each needs a raw WittType(...) that WittType.simple refuses, and a raw
    WittType(None, (1, 0)) even makes validate raise AttributeError in
    wt_d, so no public constructor builds those states."""
    t = tok_nn(1, 1, {"g1"})
    null = en.EndoClassToken("n", "simple_null", 1)
    pair = en.EndoClassToken("p", "nonsimple_pair", 1)
    hyp, g1 = en.WittType.hyperbolic(), WittClassD.of(1, "g1")
    cases = [
        (1, g1, (t, -1, en.WittType.simple(t, 1, 0)), ["f1_negative:c1", "degree"]),
        (2, g1, (pair, 2, en.WittType.null({"g1"})), ["nonsimple_needs_zero_type:p"]),
        (1, WittClassD.zero(1), (pair, 1, hyp), ["divisibility:p"]),
        (1, WittClassD.zero(1), (null, 1, hyp), ["divisibility:n"]),
        (1, g1, (null, 0, en.WittType.simple(t, 1, 0)),
         ["null_needs_zero_beta:n", "null_tower_must_be_class:n"]),
        (2, WittClassD.zero(1), (t, 1, hyp), ["parity:c1"]),
    ]
    for m, h_class, item, want in cases:
        assert en.validate(en.EndoParameter(1, m, h_class, (item,))) == (False, want)


def test_enumerate_spec_examples():
    t1 = tok_nn(1, 1, {"g1"})
    t2 = tok_nn(2, 1, {"gpi"}, tag="n")
    h = WittClassD.of(1, "g1") + WittClassD.of(1, "gpi")
    out = en.enumerate_parameters([en.LiftEntry(t1, 1), en.LiftEntry(t2, 1)],
                                  1, 2, h)
    assert len(out) == 4
    # three fixed classes, one null -> 4
    t0 = en.EndoClassToken("a0", "simple_null", 1)
    entries = [en.LiftEntry(t1, 1), en.LiftEntry(t2, 1), en.LiftEntry(t0, 6)]
    hh = h + WittClassD.of(1, "galpha")
    out = en.enumerate_parameters(entries, 1, 5, hh)
    assert len(out) == 4
    for fm in out:
        ok, diags = en.validate(fm)
        assert ok, diags
    # only nonsimple pairs -> 1
    tp = en.EndoClassToken("p", "nonsimple_pair", 1)
    out = en.enumerate_parameters([en.LiftEntry(tp, 2)], 1, 2,
                                  WittClassD.zero(1))
    assert len(out) == 1


def test_counting_closed_form_examples():
    toks = [tok_nn(i, 1, {"g1"}, tag=f"t{i}") for i in range(3)]
    h = WittClassD.of(1, "g1")  # xor of three copies of {g1}
    entries = [en.LiftEntry(t, 1) for t in toks]
    assert en.count_parameters(entries, 1, 3, h) == 8
    t0 = en.EndoClassToken("a0", "simple_null", 1)
    out = en.count_parameters([en.LiftEntry(t0, 4)], 1, 2, WittClassD.zero(1))
    assert out == 1
    tp = en.EndoClassToken("p", "nonsimple_pair", 2)
    assert en.count_parameters([en.LiftEntry(tp, 1)], 1, 2,
                               WittClassD.zero(1)) == 1


def test_infeasible_lift():
    t1 = tok_nn(1, 1, {"g1"})
    with pytest.raises(InfeasibleLift):
        en.enumerate_parameters([en.LiftEntry(t1, 2)], 1, 2,
                                WittClassD.zero(1))  # parity mismatch
    with pytest.raises(InfeasibleLift):
        # witt sum cannot match without a null block
        en.enumerate_parameters([en.LiftEntry(t1, 1)], 1, 1,
                                WittClassD.of(1, "gpi"))


def test_enumerate_deterministic_order():
    t1 = tok_nn(1, 1, {"g1"})
    t2 = tok_nn(2, 1, {"gpi"}, tag="n")
    h = WittClassD.of(1, "g1") + WittClassD.of(1, "gpi")
    entries = [en.LiftEntry(t2, 1), en.LiftEntry(t1, 1)]
    out1 = en.enumerate_parameters(entries, 1, 2, h)
    out2 = en.enumerate_parameters(list(reversed(entries)), 1, 2, h)
    assert [sz.parameter_to_json(f) for f in out1] == \
        [sz.parameter_to_json(f) for f in out2]


def test_random_configs_match_closed_form(cfg5):
    r = rg.rng(127)
    for _ in range(50):
        entries, eps, m, h = st._random_token_config(cfg5, r)
        out = en.enumerate_parameters(entries, eps, m, h)
        assert len(out) == en.closed_form_count(entries)
        for fm in out:
            ok, diags = en.validate(fm)
            assert ok, diags


def _damaged_lifts(cfg, seed, n):
    """n seeded lifts from selftest's random configurations; one in three
    is damaged: a lift value set to 0, -1 or an odd number, h_class moved
    by one generator, the last value raised by 1, or a second null block."""
    r = rg.rng(seed)
    for i in range(n):
        entries, eps, m, h = st._random_token_config(cfg, r)
        if i % 3 == 0:
            kind = r.randrange(4)
            k = r.randrange(len(entries))
            if kind == 0:
                f = r.choice([0, -1, 2 * r.randint(0, 3) + 1])
                entries[k] = en.LiftEntry(entries[k].token, f)
            elif kind == 1:
                gens = ["g1", "galpha", "gpi"] if eps == 1 else ["gskew"]
                h = h + WittClassD.of(eps, r.choice(gens))
            elif kind == 2:
                entries[-1] = en.LiftEntry(entries[-1].token, entries[-1].f + 1)
            else:
                entries.append(en.LiftEntry(
                    en.EndoClassToken("z2", "simple_null", 1), 2 * r.randint(1, 3)))
        yield entries, eps, m, h


def test_enumeration_outcomes_pinned(cfg5):
    """The JSON of every parameter enumerate_parameters returns on 1500
    seeded lifts, a third of them damaged, or the class and message of its
    refusal, hashes to the recorded digest: a rewrite of the enumeration
    keeps every parameter, their order and every refusal."""
    out = []
    for entries, eps, m, h in _damaged_lifts(cfg5, 23, 1500):
        try:
            res = en.enumerate_parameters(entries, eps, m, h)
            out.append([json.dumps(sz.parameter_to_json(fm), sort_keys=True)
                        for fm in res])
        except (InvalidParameter, InfeasibleLift) as exc:
            out.append((type(exc).__name__, str(exc)))
    messages = ("at most one null class can occur",
                "lift value must be positive on support",
                "divisibility fails on", "lift parity contradicts",
                "no parity assignment matches the lift")
    refused = [o[1] for o in out if isinstance(o, tuple)]
    assert {m for m in messages for msg in refused
            if msg.startswith(m)} == set(messages)
    assert len(refused) == 500
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "233d878c1bbfa5f97f16c2e2fc82f05aeb0d666a92ec8142341b182074becd23"


def test_parameter_json_roundtrip():
    t1 = tok_nn(1, 1, {"g1"})
    t0 = en.EndoClassToken("a0", "simple_null", 1)
    fm = en.EndoParameter(
        1, 4, WittClassD.of(1, "g1", "galpha"),
        ((t1, 1, en.WittType.simple(t1, 1, 1)),
         (t0, 0, en.WittType.null({"galpha"}))))
    ok, diags = en.validate(fm)
    assert ok, diags
    j = json.dumps(sz.parameter_to_json(fm), sort_keys=True)
    back = sz.parameter_from_json(json.loads(j))
    assert back == fm


def test_wt_d_element_level_cross_check(cfg5):
    # the token-level trace class agrees with the one computed through the
    # category equivalence and the trace transfer, for quadratic generators
    # realized inside D, and is the same for both odd towers
    from hermiwitt import morita as mo
    from hermiwitt import wittclass as wc

    for delta in (cfg5.f(cfg5.nonresidue_r), cfg5.pi()):
        data = mo.split(cfg5, delta)
        E = data.E
        u1inv = data.u1.inv()
        for eps in (1, -1):
            classes = []
            for d in (cfg5.f(1), cfg5.pi() if not E.ramified
                      else cfg5.f(cfg5.nonresidue_r)):
                # the two odd towers differ by a non-norm scaling of the line
                entry = E.from_f(d * u1inv) if eps == 1 \
                    else E.gen().scale_f(d * u1inv)
                ed = mo.EDForm(data, eps, ((entry,),))
                cls = mo.e_witt_class(ed.rows(), E, eps)
                assert cls.anisotropic_dim == 1
                classes.append((cls.i_is_norm,
                                wc.class_of_form(mo.trace_transfer(ed))))
            (n0, c0), (n1, c1) = classes
            assert n0 != n1          # genuinely the two distinct odd towers
            assert c0 == c1          # equal trace classes
            tok = en.EndoClassToken(
                "c", "simple_nonnull", 2,
                e_parity=1 if not E.ramified else 0,
                f_parity=0 if not E.ramified else 1,
                min_tag="x", aniso_parity=1, wtd_odd=c0.coords)
            for sel in (0, 1):
                assert en.WittType.simple(tok, 1, sel).wt_d(eps) == c0
