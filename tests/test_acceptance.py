"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Counts and tolerances are pinned here; run with `pytest -s` to see
the report lines."""

import time

import pytest

from hermiwitt.errors import DegenerateForm
from hermiwitt.hermitian import HermitianForm, dmat_is_zero, dmat_sub
from hermiwitt.padic import FieldConfig
from hermiwitt import endo as en
from hermiwitt import morita as mo
from hermiwitt import randgen as rg
from hermiwitt import selftest as st
from hermiwitt import wittclass as wc
from hermiwitt.wittclass import witt_decompose

SEED = 20240901


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion-{num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def cfg():
    return FieldConfig(5, 32)


def test_criterion_1_witt_group_orders():
    worst = 0.0
    for p in (3, 5, 7, 13):
        cfg = FieldConfig(p, 32)
        r = rg.rng(SEED + p)
        t0 = time.time()
        seen = set()
        for _ in range(2000):
            seen.add(wc.classify_line(rg.rand_symmetric(cfg, r), 1).coords)
        group = set(seen)
        changed = True
        while changed:
            changed = False
            for a in list(group):
                for b in list(group):
                    if a ^ b not in group:
                        group.add(a ^ b)
                        changed = True
        skew = {wc.classify_line(rg.rand_skew(cfg, r), -1).coords
                for _ in range(2000)}
        skew_group = skew | {frozenset()}
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        assert len(seen) == 3, f"p={p}: {len(seen)} line classes"
        assert len(group) == 8, f"p={p}: closure size {len(group)}"
        assert len(skew_group) == 2, f"p={p}: skew group size {len(skew_group)}"
        assert elapsed < 10.0, f"p={p}: {elapsed:.1f}s"
    report(1, True, f"orders 3/8 and 2 over p in {{3,5,7,13}}, "
                    f"worst prime {worst:.2f}s < 10s")


def test_criterion_2_scaling_invariance(cfg):
    # one symmetric and one skew pair per draw
    res = st.wittclass_scaling(cfg, SEED + 2, n=500)
    ok = res["passed"] == 2 * 500 and res["failed"] == 0
    report(2, ok, f"500 pairs per epsilon, {res['failed']} failures")


def test_criterion_3_congruence_invariance(cfg):
    res = st.wittclass_congruence(cfg, SEED + 3, n=500)
    ok = res["passed"] == 500 and res["failed"] == 0
    report(3, ok, f"500 congruent pairs, {res['failed']} failures")


def test_criterion_4_oracle_concordance(cfg):
    total = 500
    res = st.wittclass_oracle(cfg, SEED + 4, n=total)
    inconclusive = res["inconclusive"]
    # two checks per conclusive pair: is_isotropic and equivalence_oracle
    # each agree with classify_line, both ways
    ok = (res["failed"] == 0 and res["passed"] == 2 * (total - inconclusive)
          and inconclusive <= total * 0.01)
    report(4, ok, f"{total} pairs, {res['failed']} contradictions, "
                  f"{inconclusive} inconclusive (<= 1% allowed)")


def test_criterion_5_reduced_norm(cfg):
    # two checks per isometry: is_isometry, and Nrd = 1 to >= N-8 digits
    total = 1000
    res = st.hermitian_nrd1(cfg, SEED + 5, n=total)
    ok = res["passed"] == 2 * total and res["failed"] == 0
    report(5, ok,
           f"{total} Cayley isometries over eps in {{+-1}}, ranks 1-3, "
           f"Nrd = 1 to precision >= N-8, {res['failed']} failures")


def test_criterion_6_trace_lift(cfg):
    res = st.hermitian_trace_lift(cfg, SEED + 6, n=20)
    ok = res["passed"] == 20 + 20 * 50 and res["failed"] == 0
    report(6, ok, f"20 forms x 50 vector pairs, exact at tracked precision, "
                  f"{res['failed']} failures")


def test_criterion_7_morita_roundtrip(cfg):
    r = rg.rng(SEED + 7)
    failures = 0
    for delta in (cfg.f(cfg.nonresidue_r), cfg.pi()):
        data = mo.split(cfg, delta)
        E = data.E
        for i in range(100):
            eps = 1 if i % 2 else -1
            t = r.randint(1, 2)
            hE = rg.rand_eform(data, r, eps, t)
            ed = mo.functor_Ge(hE, data, eps)
            back = mo.functor_Fe(ed, data.e1())
            if not dmat_is_zero(dmat_sub(back, hE)):
                failures += 1
        # scaling law on 20 idempotent pairs
        done = 0
        while done < 20:
            x = [E.el(rg.rand_f(cfg, r, 0, 1), rg.rand_f(cfg, r, 0, 1)),
                 E.el(rg.rand_f(cfg, r, 0, 1), rg.rand_f(cfg, r, 0, 1))]
            try:
                f = data.idempotent_from_line(x)
            except Exception:
                continue
            s, g = mo.similitude_scale(data.e1(), f)
            ed = mo.functor_Ge(rg.rand_eform(data, r, 1, 2), data, 1)
            c_e = mo.e_witt_class(mo.functor_Fe(ed, data.e1()), E, 1)
            c_f = mo.e_witt_class(mo.functor_Fe(ed, f), E, 1)
            if c_f != c_e.scale(s.inv()):
                failures += 1
            done += 1
    # splitting independence on 50 forms
    d1 = mo.split(cfg, cfg.f(cfg.nonresidue_r), w_choice=0)
    d2 = mo.split(cfg, cfg.f(cfg.nonresidue_r), w_choice=1)
    done = 0
    while done < 50:
        eps = 1 if r.random() < 0.5 else -1
        t = r.randint(1, 2)
        H = rg.rand_eform(d1, r, eps, t)
        try:
            ed1 = mo.EDForm(d1, eps, tuple(tuple(x) for x in H))
            ed2 = mo.EDForm(d2, eps, tuple(tuple(x) for x in H))
        except DegenerateForm:
            continue
        c1 = mo.e_witt_class(mo.functor_Fe(ed1, d1.e1()), d1.E, eps)
        c2 = mo.e_witt_class(mo.functor_Fe(ed2, d2.e1()), d2.E, eps)
        if c1.anisotropic_dim != c2.anisotropic_dim or \
                c1.is_hyperbolic() != c2.is_hyperbolic():
            failures += 1
        done += 1
    report(7, failures == 0,
           f"F_e o G_e identity (2x100 forms), scaling law (2x20 pairs), "
           f"splitting independence (50 forms), {failures} failures")


def test_criterion_8_trace_transfer_collapse(cfg):
    r = rg.rng(SEED + 8)
    failures = 0
    for i in range(50):
        delta = cfg.f(cfg.nonresidue_r) if i % 2 else cfg.pi()
        data = mo.split(cfg, delta)
        eps = 1 if i % 4 < 2 else -1
        ma = mo.max_anisotropic_edform(data, eps)
        if not wc.class_of_form(mo.trace_transfer(ma)).is_hyperbolic():
            failures += 1
        ed = mo.functor_Ge(rg.rand_eform(data, r, eps, 2), data, eps)
        c1 = wc.class_of_form(mo.trace_transfer(ed))
        c2 = wc.class_of_form(mo.trace_transfer(ed.orthogonal_sum(ma)))
        if c1 != c2:
            failures += 1
    report(8, failures == 0,
           f"50 instances: same-parity towers transfer equally, "
           f"maximal anisotropic -> hyperbolic, {failures} failures")


def test_criterion_9_counting_formula(cfg):
    t0 = time.time()
    res = st.endo_count_closed_form(cfg, SEED + 9, n=200)
    elapsed = time.time() - t0
    ok = res["passed"] == 400 and res["failed"] == 0 and elapsed < 5.0
    report(9, ok, f"200 token configurations, {res['failed']} failures, "
                  f"{elapsed:.2f}s < 5s")


def _build_element_level_instance(cfg, r, idx):
    """Endo-parameter built by the classification recipe from an
    element-level instance with quadratic beta and m <= 3, plus the declared
    GL-lift."""
    eps = 1 if r.random() < 0.5 else -1
    support, entries = [], []
    m = 0
    h_class = wc.WittClassD.zero(eps)
    deltas = [cfg.f(cfg.nonresidue_r), cfg.pi()]
    r.shuffle(deltas)
    n_simple = r.randint(1, 2)
    budget = 3
    for i in range(n_simple):
        data = mo.split(cfg, deltas[i])
        E = data.E
        t = r.randint(1, min(2, budget - (n_simple - 1 - i)))
        budget -= t
        ed = mo.functor_Ge(rg.rand_eform(data, r, eps, t), data, eps)
        cls = mo.e_witt_class(mo.functor_Fe(ed, data.e1()), E, eps)
        # token attributes derived from the element level
        e_par, f_par = (1, 0) if not E.ramified else (0, 1)
        tag = "unram" if not E.ramified else \
            f"ram{(E.delta / cfg.pi()).residue() in _squares(cfg.p)}"
        u1inv = data.u1.inv()
        if eps == 1:
            odd_h = [[E.from_f(u1inv)]]
        else:
            odd_h = [[E.gen().scale_f(u1inv)]]
        odd_ed = mo.EDForm(data, eps, tuple(tuple(x) for x in odd_h))
        wtd = wc.class_of_form(mo.trace_transfer(odd_ed)).coords
        tok = en.EndoClassToken(f"c{idx}_{i}", "simple_nonnull", 2,
                                e_parity=e_par, f_parity=f_par, min_tag=tag,
                                aniso_parity=t % 2, wtd_odd=wtd)
        dim = cls.anisotropic_dim
        f1 = (t - dim) // 2
        if dim == 0:
            f2 = en.WittType.hyperbolic()
        elif dim == 2:
            f2 = en.WittType.simple(tok, 2)
        else:
            f2 = en.WittType.simple(tok, 1, 0 if cls.i_is_norm else 1)
        support.append((tok, f1, f2))
        entries.append(en.LiftEntry(tok, t))
        m += t
        h_class = h_class + wc.class_of_form(mo.trace_transfer(ed))
    if budget > 0 and r.random() < 0.6:
        d = rg.rand_line_entry(cfg, r, eps)
        h0 = HermitianForm.diagonal(eps, [d])
        widx, an = witt_decompose(h0)
        cls0 = wc.class_of_diagonal(an)
        tok0 = en.EndoClassToken(f"z{idx}", "simple_null", 1)
        support.append((tok0, 2 * widx, en.WittType.null(cls0.coords)))
        entries.append(en.LiftEntry(tok0, 2))
        m += 1
        h_class = h_class + cls0
    fm = en.EndoParameter(eps, m, h_class, tuple(support))
    return fm, entries


def _squares(p):
    return {a * a % p for a in range(1, p)}


def test_criterion_10_lift_degree_consistency(cfg):
    r = rg.rng(SEED + 10)
    failures = 0
    for idx in range(30):
        fm, entries = _build_element_level_instance(cfg, r, idx)
        ok, diags = en.validate(fm)
        if not ok:
            failures += 1
            continue
        lifted = en.lift(fm)
        declared = {e.token.id: e.f for e in entries}
        if lifted != declared:
            failures += 1
        if en.degree(fm) != 2 * fm.m:
            failures += 1
    report(10, failures == 0,
           f"30 constructed instances (beta quadratic, m <= 3): recipe "
           f"validates and lift is recovered, {failures} failures")
