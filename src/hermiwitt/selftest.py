"""Seeded invariant suites for every module, used by the CLI selftest and
reused by the test suite.

A suite is a generator ``fn(cfg, r, n=...)`` decorated with ``@_suite``: it
draws its inputs from the seeded ``random.Random`` r and yields one bool per
check.  ``@_suite`` turns it into ``fn(cfg, seed, **kw)``, which seeds r with
``randgen.rng(seed)``, tallies the checks into ``{name, passed, failed}`` and
merges in the dict the generator returns, if any (``wittclass_oracle``
returns its ``inconclusive`` count).  It also appends the suite to
``ALL_SUITES``, so ``run_all`` runs the suites in definition order; to add a
suite, define it below the others."""

from __future__ import annotations

import functools
import random
from math import gcd

from .errors import DegenerateForm, HermiwittError, OracleInconclusive
from .hermitian import (
    DiagonalForm,
    HermitianForm,
    cayley_isometry,
    congruence,
    is_isometry,
    reduced_norm,
    trace_lift_hL,
    hL_evaluate,
    l_coordinates,
    twist,
)
from .padic import FieldConfig, tau_conj
from .quaternion import QuaternionElement, congruent_mod_nuD
from .wittclass import witt_decompose
from . import endo as en
from . import morita as mo
from . import randgen as rg
from . import wittclass as wc

ALL_SUITES = []


def _suite(fn):
    @functools.wraps(fn)
    def suite(cfg: FieldConfig, seed: int, **kw):
        checks = fn(cfg, rg.rng(seed), **kw)
        record = {"name": fn.__name__, "passed": 0, "failed": 0}
        while True:
            try:
                ok = next(checks)
            except StopIteration as done:
                return record | (done.value or {})
            record["passed" if ok else "failed"] += 1
    ALL_SUITES.append(suite)
    return suite


@_suite
def padic_arith(cfg: FieldConfig, r: random.Random, n=1000):
    for _ in range(n):
        x, y = rg.rand_f(cfg, r), rg.rand_f(cfg, r)
        yield (x * y).valuation() == x.valuation() + y.valuation()
        s = x + y
        if not s.is_zero():
            v = s.valuation()
            ok = v >= min(x.valuation(), y.valuation())
            if x.valuation() != y.valuation():
                ok = ok and v == min(x.valuation(), y.valuation())
            yield ok


@_suite
def padic_tau_norm(cfg: FieldConfig, r: random.Random, n=1000):
    for _ in range(n):
        x = rg.rand_l(cfg, r)
        yield tau_conj(tau_conj(x)).same(x)
        yield (x * tau_conj(x)).b.is_zero()
        yield (x + tau_conj(x)).b.is_zero()


@_suite
def padic_squares(cfg: FieldConfig, r: random.Random, n=300):
    for _ in range(n):
        x = rg.rand_f(cfg, r)
        sq = x * x
        yield sq.is_square()
        y = sq.sqrt()
        yield (y * y - sq).is_zero()
        a, b = rg.rand_f(cfg, r, 0, 0), rg.rand_f(cfg, r, 0, 0)
        yield (a * b).is_square() == (a.is_square() == b.is_square())


@_suite
def quaternion_rho(cfg: FieldConfig, r: random.Random, n=1000):
    for _ in range(n):
        x, y = rg.rand_quat(cfg, r), rg.rand_quat(cfg, r)
        yield ((x * y).rho() - y.rho() * x.rho()).is_zero()
        yield (x.rho().rho() - x).is_zero()


@_suite
def quaternion_nrd(cfg: FieldConfig, r: random.Random, n=500):
    for _ in range(n):
        x, y = rg.rand_quat(cfg, r), rg.rand_quat(cfg, r)
        yield ((x * y).nrd() - x.nrd() * y.nrd()).is_zero()
        yield (x.trd() - x.rho().trd()).is_zero()
        yield (x.nrd() - x.rho().nrd()).is_zero()
        yield x.nu_D() == x.nrd().valuation()


@_suite
def quaternion_decomp(cfg: FieldConfig, r: random.Random, n=200):
    half = cfg.f(1) / 2
    for _ in range(n):
        x = rg.rand_quat(cfg, r)
        s = (x + x.rho()).scale_f(half)
        k = (x - x.rho()).scale_f(half)
        yield (s + k - x).is_zero()
        yield s.symmetry_type() in ("symmetric",) or s.is_zero()
        yield k.symmetry_type() in ("skew",) or k.is_zero()
    basis = [QuaternionElement.one(cfg), QuaternionElement.u_elem(cfg),
             QuaternionElement.pi_D(cfg)]
    yield all(b.symmetry_type() == "symmetric" for b in basis)
    yield (QuaternionElement.u_elem(cfg)
           * QuaternionElement.pi_D(cfg)).symmetry_type() == "skew"


@_suite
def hermitian_congruence(cfg: FieldConfig, r: random.Random, n=500):
    for _ in range(n):
        eps = 1 if r.random() < 0.5 else -1
        rank = r.randint(1, 3)
        diag = rg.rand_diagonal_form(cfg, r, eps, rank)
        S = rg.rand_invertible(cfg, r, rank)
        f2 = HermitianForm.from_rows(eps, congruence(diag.rows(), S, S))
        i1, a1 = witt_decompose(diag)
        i2, a2 = witt_decompose(f2)
        yield (i1 == i2
               and wc.class_of_diagonal(a1) == wc.class_of_diagonal(a2))


@_suite
def hermitian_hyperbolic(cfg: FieldConfig, r: random.Random, n=100):
    for _ in range(n):
        eps = 1 if r.random() < 0.5 else -1
        rank = r.randint(1, 2)
        f = rg.rand_diagonal_form(cfg, r, eps, rank)
        i1, a1 = witt_decompose(f)
        g = f.orthogonal_sum(HermitianForm.hyperbolic_plane(cfg, eps))
        i2, a2 = witt_decompose(g)
        yield (i2 == i1 + 1
               and wc.class_of_diagonal(a1) == wc.class_of_diagonal(a2))


@_suite
def hermitian_nrd1(cfg: FieldConfig, r: random.Random, n=200):
    for _ in range(n):
        eps = 1 if r.random() < 0.5 else -1
        rank = r.randint(1, 3)
        form = rg.rand_form(cfg, r, eps, rank)
        X = rg.rand_skew_adjoint(cfg, r, form)
        g = cayley_isometry(X, form)
        yield is_isometry(g, form)
        nrd = reduced_norm(g)
        diff = nrd - 1
        yield diff.is_zero() or diff.valuation() >= cfg.precision - 8


@_suite
def hermitian_twist(cfg: FieldConfig, r: random.Random, n=100):
    # a scalar gamma is sigma_h-(skew-)adjoint only when the Gram entries
    # commute with it, so the suite twists F-entry diagonal forms
    skew = QuaternionElement.u_elem(cfg) * QuaternionElement.pi_D(cfg)
    for _ in range(n):
        rank = r.randint(1, 2)
        f = HermitianForm.diagonal(
            1, [QuaternionElement.make(cfg, cfg.l(rg.rand_f(cfg, r), 0))
                for _ in range(rank)])
        g = twist(f, skew)
        yield g.epsilon == -1
        back = twist(g, skew)
        yield (back.epsilon == 1
               and wc.class_of_form(back) == wc.class_of_form(f))


@_suite
def hermitian_trace_lift(cfg: FieldConfig, r: random.Random, n=20):
    for _ in range(n):
        eps = 1 if r.random() < 0.5 else -1
        rank = r.randint(1, 3)
        form = rg.rand_form(cfg, r, eps, rank)
        hL = trace_lift_hL(form)
        yield len(hL) == 2 * rank
        for _ in range(50):
            v = [rg.rand_quat(cfg, r) for _ in range(rank)]
            w = [rg.rand_quat(cfg, r) for _ in range(rank)]
            lhs = hL_evaluate(hL, l_coordinates(v), l_coordinates(w)).trace()
            rhs = form.evaluate(v, w).trd()
            yield (lhs - rhs).is_zero()


@_suite
def wittclass_closure(cfg: FieldConfig, r: random.Random, n=2000):
    seen = set()
    for _ in range(n):
        d = rg.rand_symmetric(cfg, r)
        seen.add(wc.classify_line(d, 1).coords)
    group = set(seen)
    changed = True
    while changed:
        changed = False
        for a in list(group):
            for b in list(group):
                c = a ^ b
                if c not in group:
                    group.add(c)
                    changed = True
    seen_skew = set()
    for _ in range(200):
        d = rg.rand_skew(cfg, r)
        seen_skew.add(wc.classify_line(d, -1).coords)
    skew_group = set(seen_skew) | {frozenset()}
    yield from (len(seen) == 3, len(group) == 8, len(skew_group) == 2)


@_suite
def wittclass_scaling(cfg: FieldConfig, r: random.Random, n=500):
    for _ in range(n):
        d = rg.rand_symmetric(cfg, r)
        x = rg.rand_f(cfg, r)
        yield wc.classify_line(d, 1) == wc.classify_line(d.scale_f(x), 1)
        dk = rg.rand_skew(cfg, r)
        yield wc.classify_line(dk, -1) == wc.classify_line(dk.scale_f(x), -1)


def _perturb(cfg, r, d):
    """d' = d(1 + z) with nu_D(z) >= 1: add a same-type element of strictly
    larger nu_D."""
    s = rg.rand_symmetric(cfg, r) if d.symmetry_type() == "symmetric" \
        else rg.rand_skew(cfg, r)
    need = d.nu_D() + 1 - s.nu_D()
    k = max(0, (need + 1) // 2) + r.randint(0, 1)
    s = s.scale_f(cfg.f(cfg.p) ** k)
    return d + s


@_suite
def wittclass_congruence(cfg: FieldConfig, r: random.Random, n=500):
    for _ in range(n):
        eps = 1 if r.random() < 0.7 else -1
        d = rg.rand_line_entry(cfg, r, eps)
        d2 = _perturb(cfg, r, d)
        yield (congruent_mod_nuD(d, d2)
               and wc.classify_line(d, eps) == wc.classify_line(d2, eps))


@_suite
def wittclass_oracle(cfg: FieldConfig, r: random.Random, n=500):
    inconclusive = 0
    for _ in range(n):
        d, d2 = rg.rand_symmetric(cfg, r), rg.rand_symmetric(cfg, r)
        same = wc.classify_line(d, 1) == wc.classify_line(d2, 1)
        try:
            iso = wc.is_isotropic(DiagonalForm(1, (d, -d2), 0))
            yield iso == same
            eq = wc.equivalence_oracle(d, d2)
            yield eq == same
        except OracleInconclusive:
            inconclusive += 1
    return {"inconclusive": inconclusive}


@_suite
def wittclass_form_invariance(cfg: FieldConfig, r: random.Random, n=200):
    for _ in range(n):
        eps = 1 if r.random() < 0.5 else -1
        rank = r.randint(1, 3)
        d = rg.rand_diagonal_form(cfg, r, eps, rank)
        S = rg.rand_invertible(cfg, r, rank)
        f2 = HermitianForm.from_rows(eps, congruence(d.rows(), S, S))
        yield wc.class_of_form(d) == wc.class_of_form(f2)


@_suite
def morita_phi_relations(cfg: FieldConfig, r: random.Random):
    for delta in (cfg.f(cfg.nonresidue_r), cfg.pi()):
        data = mo.split(cfg, delta)
        yield data.validate()
        yield data.e1().validate() and data.e2().validate()


@_suite
def morita_fe_sums(cfg: FieldConfig, r: random.Random, n=100):
    data = mo.split(cfg, cfg.f(cfg.nonresidue_r))
    E = data.E
    for _ in range(n):
        eps = 1 if r.random() < 0.5 else -1
        t1, t2 = r.randint(1, 2), r.randint(1, 2)
        h1 = mo.functor_Ge(rg.rand_eform(data, r, eps, t1), data, eps)
        h2 = mo.functor_Ge(rg.rand_eform(data, r, eps, t2), data, eps)
        s = h1.orthogonal_sum(h2)
        c = mo.e_witt_class(mo.functor_Fe(s, data.e1()), E, eps)
        c1 = mo.e_witt_class(mo.functor_Fe(h1, data.e1()), E, eps)
        c2 = mo.e_witt_class(mo.functor_Fe(h2, data.e1()), E, eps)
        yield c == c1 + c2


@_suite
def morita_independence(cfg: FieldConfig, r: random.Random, n=50):
    d1 = mo.split(cfg, cfg.f(cfg.nonresidue_r), w_choice=0)
    d2 = mo.split(cfg, cfg.f(cfg.nonresidue_r), w_choice=1)
    for _ in range(n):
        eps = 1 if r.random() < 0.5 else -1
        t = r.randint(1, 2)
        H = rg.rand_eform(d1, r, eps, t)
        try:
            ed1 = mo.EDForm(d1, eps, tuple(tuple(x) for x in H))
            ed2 = mo.EDForm(d2, eps, tuple(tuple(x) for x in H))
        except DegenerateForm:
            continue
        h1 = mo.trace_transfer(ed1)
        h2 = mo.trace_transfer(ed2)
        c1 = mo.e_witt_class(mo.functor_Fe(ed1, d1.e1()), d1.E, eps)
        c2 = mo.e_witt_class(mo.functor_Fe(ed2, d2.e1()), d2.E, eps)
        yield c1.anisotropic_dim == c2.anisotropic_dim
        yield wc.class_of_form(h1) == wc.class_of_form(h2)


@_suite
def morita_trl(cfg: FieldConfig, r: random.Random, n=20):
    data = mo.split(cfg, cfg.f(cfg.nonresidue_r))
    for _ in range(n):
        eps = 1 if r.random() < 0.5 else -1
        t = r.randint(1, 2)
        ed = mo.functor_Ge(rg.rand_eform(data, r, eps, t), data, eps)
        base = wc.class_of_form(mo.trace_transfer(ed))
        for c in (1, 3, int(cfg.p) + 1):
            scaled = wc.class_of_form(mo.trace_transfer(ed, cfg.f(c)))
            yield scaled == base


@_suite
def endo_count_closed_form(cfg: FieldConfig, r: random.Random, n=200):
    for _ in range(n):
        entries, eps, m, h = _random_token_config(cfg, r)
        out = en.enumerate_parameters(entries, eps, m, h)
        yield len(out) == en.closed_form_count(entries)
        yield en.count_parameters(entries, eps, m, h) == len(out)


def _random_token_config(cfg, r):
    eps = 1 if r.random() < 0.7 else -1
    gens = ["g1", "galpha", "gpi"] if eps == 1 else ["gskew"]
    entries = []
    total_deg = 0
    hsum = wc.WittClassD.zero(eps)
    n_nonnull = r.randint(0, 3)
    for i in range(n_nonnull):
        deg = r.choice([2, 4])
        parity = r.randint(0, 1)
        wtd = frozenset(r.sample(gens, r.randint(0, min(2, len(gens)))))
        tok = en.EndoClassToken(f"c{i}", "simple_nonnull", deg,
                                e_parity=r.randint(0, 1), f_parity=r.randint(0, 1),
                                min_tag=f"t{i}", aniso_parity=parity,
                                wtd_odd=wtd)
        f = 2 * r.randint(1, 3) + parity
        entries.append(en.LiftEntry(tok, f))
        total_deg += f * deg
        if parity:
            hsum = hsum + wc.WittClassD(eps, wtd)
    for j in range(r.randint(0, 2)):
        deg = r.randint(1, 3)
        tok = en.EndoClassToken(f"p{j}", "nonsimple_pair", deg)
        fac = en.DEG_D // gcd(deg, en.DEG_D)
        f = fac * r.randint(1, 2)
        entries.append(en.LiftEntry(tok, f))
        total_deg += 2 * f * deg
    if r.random() < 0.5 or not entries:
        tok = en.EndoClassToken("z", "simple_null", 1)
        extra = frozenset(r.sample(gens, r.randint(0, len(gens))))
        hsum = hsum + wc.WittClassD(eps, extra)
        f = 2 * (2 * r.randint(0, 2) + len(extra))
        if f == 0:
            f = 4
        entries.append(en.LiftEntry(tok, f))
        total_deg += f
    m = total_deg // 2
    return entries, eps, m, hsum


@_suite
def endo_equiv_relation(cfg: FieldConfig, r: random.Random, n=200):
    toks = []
    for i in range(3):
        toks.append(en.EndoClassToken(
            f"c{i}", "simple_nonnull", 2, e_parity=i % 2, f_parity=(i + 1) % 2,
            min_tag=f"m{i % 2}", aniso_parity=i % 2,
            wtd_odd=frozenset({"g1"} if i % 2 else set())))
    pool = [en.WittType.hyperbolic()]
    for t in toks:
        if t.aniso_parity:
            pool += [en.WittType.simple(t, 1, 0), en.WittType.simple(t, 1, 1)]
        else:
            pool += [en.WittType.simple(t, 2)]
    pool += [en.WittType.null({"g1"}), en.WittType.null({"gpi"})]
    for _ in range(n):
        a, b, c = r.choice(pool), r.choice(pool), r.choice(pool)
        try:
            ab = en.witt_type_equiv(a, b, 1)
            yield en.witt_type_equiv(a, a, 1)
            yield ab == en.witt_type_equiv(b, a, 1)
            if ab and en.witt_type_equiv(b, c, 1):
                yield en.witt_type_equiv(a, c, 1)
        except en.IncomparableTokens:
            yield True


@_suite
def endo_selector_flip(cfg: FieldConfig, r: random.Random, n=100):
    for _ in range(n):
        entries, eps, m, h = _random_token_config(cfg, r)
        out = en.enumerate_parameters(entries, eps, m, h)
        for fm in out:
            for idx, (tok, f1, f2) in enumerate(fm.support):
                if tok.kind != "simple_nonnull" or f2.is_hyp:
                    continue
                if f2.tower[0] != 1:
                    continue
                flipped = en.WittType.simple(tok, 1, 1 - f2.tower[1])
                supp = list(fm.support)
                supp[idx] = (tok, f1, flipped)
                fm2 = en.EndoParameter(eps, m, h, tuple(supp))
                yield en.validate(fm2)[0]


def run_all(cfg: FieldConfig, seed: int):
    results = []
    for fn in ALL_SUITES:
        try:
            results.append(fn(cfg, seed))
        except HermiwittError as ex:
            results.append({"name": fn.__name__, "passed": 0, "failed": 1,
                            "error": f"{type(ex).__name__}: {ex}"})
    return results
