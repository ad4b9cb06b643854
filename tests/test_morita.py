import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermiwitt.errors import (
    DegenerateForm,
    HermiwittError,
    NotQuadratic,
    NotSkewAdjoint,
    Singular,
)
from hermiwitt.hermitian import (
    HermitianForm,
    congruence,
    dmat_inv,
    dmat_is_zero,
    dmat_mul,
    dmat_scalar,
    dmat_sub,
    validate as form_validate,
    vec_apply,
)
from hermiwitt.padic import FElement, FieldConfig, QuadExtField
from hermiwitt.quaternion import QuaternionElement as Q
from hermiwitt import morita as mo
from hermiwitt import randgen as rg
from hermiwitt import wittclass as wc
from oracle import (coords, digest, echelon_add, honest, htilde_tensor,
                    known_to, lift, matrix_of_tensor)


def test_split_validates(cfg5):
    r = cfg5.nonresidue_r
    for delta in (cfg5.f(r), cfg5.pi(), cfg5.f(-5 * r)):   # u, pi_D, u pi_D
        data = mo.split(cfg5, delta)
        assert data.validate()
        assert data.e1().validate() and data.e2().validate()
    with pytest.raises(NotQuadratic):
        mo.split(cfg5, cfg5.f(4))   # a unit square: sqrt(4) generates F


def _split_coords(data):
    """Every F-coordinate of imgs, mphi_inv, u1 and u2, in that order."""
    xs = [x for g in data.imgs for row in g for x in row]
    xs += [x for row in data.mphi_inv for x in row]
    return [c for x in xs for c in coords(x)] + [data.u1, data.u2]


def test_split_is_precision_honest():
    """For exact delta in {r, p, r p} and both w_choice, every digit that
    the splitting claims for imgs, mphi_inv, u1 and u2 agrees with the same
    splitting built at 4N; for delta = r, u1, u2 and every image coordinate
    are known to all N digits."""
    for p, N in ((3, 10), (5, 32), (7, 20), (13, 128)):
        cfg, big = FieldConfig(p, N), FieldConfig(p, 4 * N)
        r = cfg.nonresidue_r
        for d in (r, p, r * p):
            for w in (0, 1):
                data = mo._build_split(cfg, cfg.f(d), w)
                ref = mo._build_split(big, big.f(d), w)
                for c, x in zip(_split_coords(data), _split_coords(ref)):
                    assert honest(c, lift(x, p)[0], p)
                if d == r:
                    known = [data.u1, data.u2] + [
                        c for g in data.imgs for row in g for x in row
                        for c in coords(x)]
                    assert all(c.prec == N for c in known)


def test_warm_tower_reuses_its_split(cfg5, monkeypatch):
    """The split cache is keyed on delta itself: a second tower of the same
    (h, beta) builds no splitting and solves for no beta0."""
    data = mo.split(cfg5, cfg5.pi())
    h, beta = mo.realize_instance(mo.functor_Ge([[data.E.one()]], data, 1))
    first = mo.witt_tower_of(h, beta)
    calls = []
    for name in ("find_beta0", "_build_split"):
        fn = getattr(mo, name)
        monkeypatch.setattr(mo, name, lambda *a, fn=fn, name=name:
                            calls.append(name) or fn(*a))
    assert mo.witt_tower_of(h, beta).split is first.split
    assert calls == []


def test_phi_unital(cfg5):
    data = mo.split(cfg5, cfg5.f(cfg5.nonresidue_r))
    one = data.embed_quat(Q.one(cfg5))
    assert dmat_is_zero(dmat_sub(one, dmat_scalar(data.E.one(), 2)))


def test_functor_fe_rank_and_roundtrip(cfg5):
    r = rg.rng(73)
    for delta in (cfg5.f(cfg5.nonresidue_r), cfg5.pi()):
        data = mo.split(cfg5, delta)
        for eps in (1, -1):
            for _ in range(10):
                t = r.randint(1, 2)
                hE = rg.rand_eform(data, r, eps, t)
                ed = mo.functor_Ge(hE, data, eps)
                back = mo.functor_Fe(ed, data.e1())
                assert len(back) == t
                assert dmat_is_zero(dmat_sub(back, hE))


def _rows_matrix(E, t, i, row):
    """The t x 2 coordinate matrix whose row i is ``row``, zero elsewhere."""
    X = [[E.zero(), E.zero()] for _ in range(t)]
    X[i] = list(row)
    return X


def _agrees_and_claims_as_much(closed, defined):
    """closed equals defined at their shared precision, coordinate by
    coordinate, and claims at least defined's precision."""
    return all(c.same(d) and c.prec >= d.prec for c, d in zip(closed, defined))


def _check_closed_forms(ed, idem):
    """functor_Fe and trace_transfer against the definition h~ = EDForm.value
    on every frame pair where the definition answers: tr_E h~(r_i eps,
    r_j eps) for eps the first nonzero row of e, and lambda applied to the
    tensor coordinates of h~(r_i, r_j).  F_e may refuse only where the
    definition's Gram is not certified nondegenerate either.  Returns how
    many F_e entries were compared."""
    data, E, t = ed.split, ed.split.E, ed.t
    tr = mo.trace_transfer(ed)
    for i in range(t):
        for j in range(t):
            r_i = _rows_matrix(E, t, i, (E.one(), E.zero()))
            r_j = _rows_matrix(E, t, j, (E.one(), E.zero()))
            lam = mo.tensor_lambda_apply(
                data.cfg, data.to_tensor(ed.value(r_i, r_j)))
            assert _agrees_and_claims_as_much(mo.quat_f_coords(tr.gram[i][j]),
                                              mo.quat_f_coords(lam))
    eps = next(row for row in idem.mat
               if not (row[0].is_zero() and row[1].is_zero()))
    defined = [[None] * t for _ in range(t)]
    for i in range(t):
        for j in range(t):
            try:
                v = ed.value(_rows_matrix(E, t, i, eps), _rows_matrix(E, t, j, eps))
                defined[i][j] = v[0][0] + v[1][1]
            except HermiwittError:
                pass
    try:
        fe = mo.functor_Fe(ed, idem)
    except HermiwittError:
        if all(x is not None for row in defined for x in row):
            with pytest.raises(HermiwittError):
                mo.cmat_inv(defined)
        return 0
    pairs = [(fe[i][j], defined[i][j]) for i in range(t) for j in range(t)
             if defined[i][j] is not None]
    for f, d in pairs:
        assert _agrees_and_claims_as_much((f.a, f.b), (d.a, d.b))
    return len(pairs)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_closed_forms_match_the_definition(p):
    """F_e and Tr_lambda read their Gram matrices off H; on random forms of
    rank t <= 3 over both E, at both signs, under e1, e2 and idempotents of
    random lines (whose entries can have negative valuation), they agree with
    the definition wherever it answers and claim as much precision."""
    cfg = FieldConfig(p, 32)
    r = rg.rng(137 + p)
    answered = 0
    for delta in (cfg.f(cfg.nonresidue_r), cfg.pi()):
        data = mo.split(cfg, delta)
        E = data.E
        idems = [data.e1(), data.e2()]
        while len(idems) < 5:
            x = [E.el(rg.rand_f(cfg, r, -2, 3), rg.rand_f(cfg, r, -2, 3))
                 for _ in range(2)]
            try:
                idems.append(data.idempotent_from_line(x))
            except DegenerateForm:
                continue
        for eps in (1, -1):
            for idem in idems:
                t = r.randint(1, 3)
                ed = mo.EDForm(data, eps, tuple(
                    tuple(row) for row in rg.rand_eform(data, r, eps, t)))
                answered += _check_closed_forms(ed, idem)
    assert answered > 0


def test_fe_keeps_the_definitions_multiplication_order():
    """A line idempotent with entries p^-2 unit + O(p^2) at (3, 10), over
    E = F(pi_D), on a skew rank-1 form: the definition answers, and so must
    F_e.  Multiplying sum_k u_k sigma(eps_k) eps_k first and H after runs
    out of digits on this input."""
    cfg = FieldConfig(3, 10)
    data = mo.split(cfg, cfg.pi())
    E = data.E
    idem = data.idempotent_from_line([E.el(3 * 14731, 19976),
                                      E.el(9 * 3272, 51322)])
    assert {x.a.val for row in idem.mat for x in row} == {-2}
    ed = mo.EDForm(data, -1, ((E.gen().scale_f(cfg.f(3 * 3706)),),))
    assert _check_closed_forms(ed, idem) == 1


def test_ge_block_formula(cfg5):
    # the value of G(h_E) on module pairs matches the displayed 2x2 block
    # with u2 u1^(-1) in the second row
    r = rg.rng(79)
    data = mo.split(cfg5, cfg5.f(cfg5.nonresidue_r))
    E = data.E
    hE = [[E.from_f(rg.rand_f(cfg5, r, 0, 0))]]
    ed = mo.functor_Ge(hE, data, 1)
    ratio = data.u2 / data.u1
    for _ in range(10):
        w = [E.el(rg.rand_f(cfg5, r, 0, 1), rg.rand_f(cfg5, r, 0, 1)),
             E.el(rg.rand_f(cfg5, r, 0, 1), rg.rand_f(cfg5, r, 0, 1))]
        v = [E.el(rg.rand_f(cfg5, r, 0, 1), rg.rand_f(cfg5, r, 0, 1)),
             E.el(rg.rand_f(cfg5, r, 0, 1), rg.rand_f(cfg5, r, 0, 1))]
        X = [[w[0], w[1]]]
        Y = [[v[0], v[1]]]
        val = ed.value(X, Y)
        he = lambda a, b: a.sigma() * hE[0][0] * b
        assert (val[0][0] - he(w[0], v[0])).is_zero()
        assert (val[0][1] - he(w[0], v[1])).is_zero()
        assert (val[1][0] - ratio * he(w[1], v[0])).is_zero()
        assert (val[1][1] - ratio * he(w[1], v[1])).is_zero()


def test_similitude_examples(cfg5):
    data = mo.split(cfg5, cfg5.f(cfg5.nonresidue_r))
    E = data.E
    s, g = mo.similitude_scale(data.e1(), data.e1())
    assert (s - 1).is_zero()
    r = rg.rng(83)
    for _ in range(10):
        x = [E.el(rg.rand_f(cfg5, r, 0, 1), rg.rand_f(cfg5, r, 0, 1)),
             E.el(rg.rand_f(cfg5, r, 0, 1), rg.rand_f(cfg5, r, 0, 1))]
        try:
            f = data.idempotent_from_line(x)
        except Exception:
            continue
        s, g = mo.similitude_scale(data.e1(), f)
        # scaling law on a test form
        hE = rg.rand_eform(data, r, 1, 2)
        ed = mo.functor_Ge(hE, data, 1)
        c_e = mo.e_witt_class(mo.functor_Fe(ed, data.e1()), E, 1)
        c_f = mo.e_witt_class(mo.functor_Fe(ed, f), E, 1)
        assert c_f == c_e.scale(s.inv())


def test_splitting_independence(cfg5):
    r = rg.rng(89)
    d1 = mo.split(cfg5, cfg5.f(cfg5.nonresidue_r), w_choice=0)
    d2 = mo.split(cfg5, cfg5.f(cfg5.nonresidue_r), w_choice=1)
    for _ in range(15):
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
        assert c1.anisotropic_dim == c2.anisotropic_dim
        assert c1.is_hyperbolic() == c2.is_hyperbolic()
        assert wc.class_of_form(mo.trace_transfer(ed1)) == \
            wc.class_of_form(mo.trace_transfer(ed2))


def test_edform_is_checked_when_built(cfg5):
    """An E(x)D form whose H is not eps-hermitian, or is singular at tracked
    precision, is refused when it is built, and so is one whose eps is not
    +1 or -1 or whose H is empty, with HermitianForm's messages."""
    data = mo.split(cfg5, cfg5.f(2))
    E = data.E
    with pytest.raises(DegenerateForm, match="^H is not eps-hermitian nondegenerate over E$"):
        mo.EDForm(data, 1, ((E.el(1), E.el(2)), (E.el(3), E.el(1))))
    zero = E.from_f(FElement(cfg5, None, 0, 3))  # known to 3 digits only
    with pytest.raises(DegenerateForm, match="^H is not eps-hermitian nondegenerate over E$"):
        mo.EDForm(data, 1, ((zero,),))
    with pytest.raises(ValueError, match="^epsilon must be \\+1 or -1$"):
        mo.EDForm(data, 2, ((E.gen(),),))  # gen is skew, but 2 is no sign
    with pytest.raises(ValueError, match="^a form needs a non-empty Gram matrix$"):
        mo.EDForm(data, 1, ())


def test_htilde_beta_identities(cfg5):
    r = rg.rng(97)
    for delta in (cfg5.f(cfg5.nonresidue_r), cfg5.pi()):
        data = mo.split(cfg5, delta)
        E = data.E
        for eps in (1, -1):
            hE = rg.rand_eform(data, r, eps, 2)
            ed = mo.functor_Ge(hE, data, eps)
            h, beta = mo.realize_instance(ed)
            assert form_validate(h)
            ht = mo.compute_htilde_beta(h, beta)
            n = h.rank
            # defining identity (lambda (x) id) o h~ = h on 50 random pairs
            for _ in range(50):
                v = [rg.rand_quat(cfg5, r) for _ in range(n)]
                w = [rg.rand_quat(cfg5, r) for _ in range(n)]
                lhs = mo.tensor_lambda_apply(cfg5, ht.pair(v, w))
                assert (lhs - h.evaluate(v, w)).is_zero()
            # beta-sesquilinearity
            for _ in range(10):
                v = [rg.rand_quat(cfg5, r) for _ in range(n)]
                w = [rg.rand_quat(cfg5, r) for _ in range(n)]
                bw = vec_apply([list(row) for row in ht.beta], w)
                lhs = [E.gen() * c for c in ht.pair(v, w)]
                rhs = ht.pair(v, bw)
                assert all((a - b).is_zero() for a, b in zip(lhs, rhs))
            # h_beta = tr_E o h~_beta, via lambda o tr_E = trd o (lambda (x) id)
            for _ in range(10):
                v = [rg.rand_quat(cfg5, r) for _ in range(n)]
                w = [rg.rand_quat(cfg5, r) for _ in range(n)]
                val = data.to_matrix(ht.pair(v, w))
                trE = val[0][0] + val[1][1]
                assert (trE.a - h.evaluate(v, w).trd()).is_zero()


def test_htilde_beta_multiply_count(cfg5, quaternion_products):
    """The h~_beta Gram loop forms the row bar(g_i)^T h once per frame
    vector and takes its dot with g_j and with beta g_j from the frame
    search, the candidates' d A and d B are formed once for every e_i, and
    the skew test of beta needs no Gram inverse: a rank-3 pair takes 234
    quaternion multiplies.  The double sum sum_kl (bar(g_ik) h_kl) g_jl
    per entry, with d A and d B formed anew for each e_i, took 371, and
    certifying h by a row_reduce that cleared its settled pivot columns
    too took 252."""
    r = rg.rng(7)
    data = mo.split(cfg5, cfg5.f(cfg5.nonresidue_r))
    ed = mo.functor_Ge(rg.rand_eform(data, r, 1, 3), data, 1)
    h, beta = mo.realize_instance(ed)
    assert quaternion_products(mo.compute_htilde_beta, h, beta) == 234


def _realized_pairs(p, N):
    """Seeded realize_instance pairs (h, beta) at (p, N) over both E, both
    eps and t <= 3 (three of each), each with its conjugate by a random
    invertible S: h -> rho(S)^T h S, beta -> S^(-1) beta S."""
    cfg = FieldConfig(p, N)
    r = rg.rng(p * 1000 + N)
    for delta in (cfg.f(cfg.nonresidue_r), cfg.pi()):
        data = mo.split(cfg, delta)
        for eps in (1, -1):
            for t in (1, 2, 3, 1, 2, 3, 1, 2, 3):
                ed = mo.functor_Ge(rg.rand_eform(data, r, eps, t), data, eps)
                h, beta = mo.realize_instance(ed)
                S = rg.rand_invertible(cfg, r, t)
                hS = HermitianForm.from_rows(eps, congruence(h.rows(), S, S))
                yield h, beta, hS, dmat_mul(dmat_inv(S), dmat_mul(beta, S))


def test_htilde_beta_pinned():
    """The (val, unit, prec) of every edform.H entry that compute_htilde_beta
    returns, or the class of the exception it raises, on the plain and
    conjugated pairs at (3, 8), (5, 10), (7, 20) and (13, 40), hashes to
    the recorded digest: a rewrite of the frame search or of the skew test
    keeps every digit and every refusal class."""
    out = []
    for p, N in ((3, 8), (5, 10), (7, 20), (13, 40)):
        for h, beta, hS, bS in _realized_pairs(p, N):
            for form, b in ((h, beta), (hS, bS)):
                try:
                    H = mo.compute_htilde_beta(form, b).edform.H
                except HermiwittError as exc:
                    out.append(type(exc).__name__)
                    continue
                out.append(tuple(digest(x) for row in H for x in row))
    assert len(out) == 288
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "e40d6d7a3e49b1b12c53e1737caddf1e293a41d4645e9540b90f5dc9e626489c"


_ORACLE_CONFIGS = [FieldConfig(3, 8), FieldConfig(5, 10), FieldConfig(13, 40)]


def _f_draw(draw, cfg, low=False):
    """An F-element: a zero known to 1, 2 or N digits, or p^v * unit with
    v = -2..4 known to N - 0..3 digits or, one time in four, to 1..3.  A
    low one is a zero known to 1 digit or p^v * unit with v = -2..0 known
    to 1..2 digits, whose products refuse in both ways."""
    p, N = cfg.p, cfg.precision
    if draw(st.integers(0, 5 - 3 * low)) == 0:
        return FElement._zeroish(cfg, 1 if low else draw(st.sampled_from((1, 2, N))))
    unit = draw(st.integers(0, p ** (N + 1))) * p + draw(st.integers(1, p - 1))
    if low:
        return FElement._make(cfg, draw(st.integers(-2, 0)), unit,
                              draw(st.integers(1, 2)))
    k = draw(st.integers(1, 3)) if draw(st.integers(0, 3)) == 0 \
        else N - draw(st.integers(0, 3))
    return FElement._make(cfg, draw(st.integers(-2, 4)), unit, k)


def _field_draw(draw):
    """A config and E = F(sqrt(r)) or F(sqrt(p)), delta known to N - 0..2
    digits."""
    cfg, ramified = draw(st.sampled_from(_ORACLE_CONFIGS)), draw(st.booleans())
    delta = FElement._make(cfg, int(ramified), 1 if ramified else cfg.nonresidue_r,
                           cfg.precision - draw(st.integers(0, 2)))
    return cfg, QuadExtField(cfg, delta, "E")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HermiwittError as exc:
        return type(exc), str(exc)


@st.composite
def _phi_operands(draw):
    """A config, E by _field_draw, the SplitData of that E or None, the
    images Phi reads (the split's, or drawn, with entries like the
    tensor's) and a tensor of four E-elements drawn by _f_draw, in one case
    in four all of them low, so that products in one entry refuse with
    different messages."""
    cfg, E = _field_draw(draw)
    low = draw(st.integers(0, 3)) == 0

    def e():
        return E.el(_f_draw(draw, cfg, low), _f_draw(draw, cfg, low))

    if draw(st.booleans()):
        data = mo.split(cfg, E.delta)
        E, imgs = data.E, data.imgs
    else:
        data = None
        imgs = [None] + [((e(), e()), (e(), e())) for _ in range(3)]
    return cfg, E, data, imgs, tuple(e() for _ in range(4))


def _first_entry_case(ta, tb, ga, gb):
    """A _phi_operands case at (3, 8) over E = F(sqrt(2)) whose only
    refusing products are those of ten[1] = ta + tb w with the (0, 0) entry
    ga + gb w of its image: every other coordinate is a zero known to N
    digits, or 1."""
    cfg = _ORACLE_CONFIGS[0]
    E = QuadExtField(cfg, cfg.f(2), "E")
    f = lambda v, k: FElement._make(cfg, v, 1, k) if v is not None \
        else FElement._zeroish(cfg, k)
    z = E.zero()
    g1 = ((E.el(f(*ga), f(*gb)), z), (z, z))
    return cfg, E, None, [None, g1, ((z, z), (z, z)), ((z, z), (z, z))], \
        (E.one(), E.el(f(*ta), f(*tb)), E.one(), E.one())


# (val, prec) of ta, tb, ga, gb.  In the a-coordinate t.a*g.a refuses with
# "zero known to <= 0 digits" and t.b*g.b with "result precision <= 0"; in
# the b-coordinate t.a*g.b and t.b*g.a refuse so, and the a-coordinate's
# products answer: the fold's order picks the message
@example(_first_entry_case((None, 1), (-1, 1), (-1, 1), (-1, 1)))
@example(_first_entry_case((None, 1), (-2, 2), (0, 1), (-1, 3)))
@settings(deadline=None)
@given(_phi_operands())
def test_phi_on_triples_is_the_object_fold(case):
    """Phi on coordinate pairs (SplitData.to_matrix, or _matrix_of_tensor
    on drawn images) gives, triple for triple, the matrix that the fold of
    E-objects gives, or the same refusal, class and message: each
    coordinate is one _f_sum of the fold's products, formed in its order."""
    cfg, E, data, imgs, ten = case
    if data is not None:
        ours = _outcome(data.to_matrix, ten)
    else:
        ours = _outcome(mo._matrix_of_tensor, cfg, E.delta._t,
                        [None] + [[[x.c for x in row] for row in g]
                                  for g in imgs[1:]],
                        [x.c for x in ten])
        if isinstance(ours, list):
            ours = [[E.of(c) for c in row] for row in ours]
    ref = _outcome(matrix_of_tensor, imgs, ten)
    if isinstance(ref, tuple):
        assert ours == ref
    else:
        assert digest(ours) == digest(ref)


@st.composite
def _lift_operands(draw):
    """A config, E by _field_draw, and the four F-coordinates of each of
    h0 and h1, drawn by _f_draw, low in one case in four."""
    cfg, E = _field_draw(draw)
    low = draw(st.integers(0, 3)) == 0
    h0, h1 = ([_f_draw(draw, cfg, low) for _ in range(4)] for _ in range(2))
    return cfg, E, h0, h1


@settings(deadline=None)
@given(_lift_operands())
def test_lift_tensor_on_triples_is_the_object_sum(case):
    """1 (x) h0 + w (x) h1 on triples (_htilde_tensor) gives the tensor
    that the sum over E-objects gives, triple for triple: among others the
    zero known to N + v(h1_k) digits that w (h1_k, 0) adds to h0_k."""
    cfg, E, h0, h1 = case
    ours = _outcome(mo._htilde_tensor, cfg, [x._t for x in h0], [x._t for x in h1])
    ref = _outcome(htilde_tensor, E, h0, h1)
    if isinstance(ref, tuple):
        assert ours == ref
    else:
        assert digest([E.of(c) for c in ours]) == digest(ref)


@st.composite
def _echelon_operands(draw):
    """A config and 1-6 vectors of 1-8 F-elements for the frame search:
    drawn by _f_draw, or c*x + y for earlier vectors x, y and a drawn c,
    so that some are dependent at tracked precision."""
    cfg = draw(st.sampled_from(_ORACLE_CONFIGS))
    m = draw(st.integers(1, 8))
    vecs = []
    for _ in range(draw(st.integers(1, 6))):
        if vecs and draw(st.booleans()):
            x, y = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            c = _f_draw(draw, cfg)
            try:
                vecs.append([c * a + b for a, b in zip(x, y)])
                continue
            except HermiwittError:
                pass
        vecs.append([_f_draw(draw, cfg) for _ in range(m)])
    return cfg, vecs


@settings(deadline=None)
@given(_echelon_operands())
def test_echelon_on_triples_is_the_object_search(case):
    """The frame search's echelon step on triples makes the accept/reject
    decision of the FElement search on every vector, or the same refusal,
    and keeps the same remainder, with its lead index and the inverse of
    its lead unit."""
    cfg, vecs = case
    ref, ours = [], []
    for vec in vecs:
        got = _outcome(mo._echelon_add, cfg, ours, [x._t for x in vec])
        assert got == _outcome(echelon_add, ref, vec)
        if isinstance(got, tuple):
            break
        if got:
            row, lead, inv = ours[-1]
            assert row == [x._t for x in ref[-1]]
            assert lead == next(i for i, x in enumerate(ref[-1]) if not x.is_zero())
            v, u, k = row[lead]
            assert u * inv % cfg.ppow(k - v) == 1


def _known_to(cfg, x, k=None):
    """The quaternion over cfg that knows the coordinates of x, an element
    with more digits, to at most k digits (k = cfg.precision if not given)."""
    k = cfg.precision if k is None else k
    cs = [known_to(cfg, q, min(c.prec, k))
          for c, q in zip(coords(x), lift(x, cfg.p))]
    return Q(cfg.l(*cs[:2]), cfg.l(*cs[2:]))


def test_htilde_beta_is_precision_honest():
    """For the realized pairs and their conjugates built at 4N and truncated
    to N, every digit that compute_htilde_beta claims at N agrees with its
    result at 4N, which answers whenever the N-digit pair does.  A pair
    conjugated at N is not lifted to 4N: its beta^2 is scalar only mod p^N."""
    for p, N in ((3, 8), (5, 10), (13, 40)):
        cfg = FieldConfig(p, N)
        answered = 0
        for pair in _realized_pairs(p, 4 * N):
            for form, b in (pair[:2], pair[2:]):
                low = HermitianForm.from_rows(
                    form.epsilon, [[_known_to(cfg, x) for x in row]
                                   for row in form.gram])
                try:
                    H = mo.compute_htilde_beta(
                        low, [[_known_to(cfg, x) for x in row] for row in b]
                    ).edform.H
                except HermiwittError:
                    continue
                answered += 1
                ref = mo.compute_htilde_beta(form, b).edform.H
                assert all(honest(c, q, p)
                           for row, rrow in zip(H, ref) for x, y in zip(row, rrow)
                           for c, q in zip(coords(x), lift(y, p)))
        assert answered >= 60, (p, N, answered)


def _damaged_pairs(p, N, draws):
    """The realized pairs built at 4N and their conjugates, each drawn
    `draws` times with every Gram entry cut to N - 0..3 digits and every
    beta entry to N - 0..2 (random.Random(5))."""
    cfg, rnd = FieldConfig(p, N), random.Random(5)
    for pair in _realized_pairs(p, 4 * N):
        for form, b in (pair[:2], pair[2:]):
            for _ in range(draws):
                low = HermitianForm.from_rows(form.epsilon, [
                    [_known_to(cfg, x, N - rnd.randint(0, 3)) for x in row]
                    for row in form.gram])
                yield low, [[_known_to(cfg, x, N - rnd.randint(0, 2)) for x in row]
                            for row in b]


def _refusal(f, *args):
    """f(*args), or the class and message of the HermiwittError it raises."""
    try:
        return f(*args)
    except HermiwittError as exc:
        return type(exc).__name__, str(exc)


def _htilde_outcomes(p, N, draws):
    """compute_htilde_beta on _damaged_pairs: per input the digests of H and
    of the frame, or the exception's class and message."""
    out = []
    for low, lb in _damaged_pairs(p, N, draws):
        ht = _refusal(mo.compute_htilde_beta, low, lb)
        out.append(ht if isinstance(ht, tuple)
                   else (digest(ht.edform.H), digest(ht.frame)))
    return out


def _tower_outcomes(p, N, draws):
    """witt_tower_of on _damaged_pairs, then trace_class: per input the
    tower's (rank_parity, i_is_norm, anisotropic_dim) at e1 and the trace
    class's sorted names, each replaced by the class and message of its
    refusal."""
    out = []
    for low, lb in _damaged_pairs(p, N, draws):
        tower = _refusal(mo.witt_tower_of, low, lb)
        if isinstance(tower, tuple):
            out.append(tower)
            continue
        c = tower.class_at_e1
        out.append(((c.rank_parity, c.i_is_norm, c.anisotropic_dim),
                    _refusal(lambda: tower.trace_class().sorted_names())))
    return out


def test_htilde_beta_outcomes_pinned():
    """Every answer (the digits of H and of the frame) and every refusal
    (class and message) of compute_htilde_beta on damaged inputs, two per
    plain or conjugated realized pair at (3, 8), (5, 10), (7, 12) and
    (13, 40), hashes to the recorded digest: a rewrite of the lift, of Phi
    or of the frame search moves no digit, no frame vector and no
    refusal."""
    out = []
    for p, N in ((3, 8), (5, 10), (7, 12), (13, 40)):
        out += _htilde_outcomes(p, N, 2)
    assert len(out) == 576
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "d50825e1fcbc0dcd27fd16fcc7dccdf791c7cffcdbc505b89e667851bae53924"


def test_tower_outcomes_pinned():
    """Every Witt tower at e1 and trace class, and every refusal (class and
    message) of either, that witt_tower_of gives on the damaged inputs of
    test_htilde_beta_outcomes_pinned hashes to the recorded digest: a
    change to F_e or to the checks of its Gram moves no class and no
    refusal."""
    out = []
    for p, N in ((3, 8), (5, 10), (7, 12), (13, 40)):
        out += _tower_outcomes(p, N, 2)
    assert len(out) == 576
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "7c83c82a714be77d6b31fc2912aeb39bc9929a010a8ed3b1337494c6ff622978"


def test_conjugated_pairs_keep_their_tower():
    """At (3, 8), where digits run out first, a pair conjugated by S has the
    Witt tower and trace class of the plain pair whenever both answer (over
    the same E, whose delta may be known to fewer digits)."""
    compared = 0
    for h, beta, hS, bS in _realized_pairs(3, 8):
        try:
            t1, t2 = mo.witt_tower_of(h, beta), mo.witt_tower_of(hS, bS)
            c1, c2 = t1.trace_class(), t2.trace_class()
        except HermiwittError:
            continue
        assert t1.class_at_e1 == t2.class_at_e1
        assert c1 == c2
        compared += 1
    assert compared >= 25


def test_public_classifiers_refuse_non_hermitian_gram(cfg5):
    """A Gram matrix that is not eps-hermitian is refused when its form is
    built, so no classifier sees it, and e_witt_class refuses one at either
    sign."""
    one, pi = Q.one(cfg5), Q.pi_D(cfg5)
    with pytest.raises(DegenerateForm):
        HermitianForm.from_rows(1, [[one, pi], [-pi, one]])
    E = mo.split(cfg5, cfg5.f(cfg5.nonresidue_r)).E
    for eps in (1, -1):
        H = [[E.one(), E.gen()], [E.gen(), E.one()]]
        with pytest.raises(DegenerateForm):
            mo.e_witt_class(H, E, eps)


def test_beta_must_be_skew(cfg5):
    form = HermitianForm.diagonal(1, [Q.one(cfg5)])
    with pytest.raises(NotSkewAdjoint):
        mo.compute_htilde_beta(form, Q.u_elem(cfg5))


def test_beta_skew_test_refuses_a_degenerate_gram(cfg5):
    """beta = u is skew for diag(pi_D, 0) by bar(beta)^T M + M beta = 0, but
    that test means sigma_h-skew only for an invertible M: the Gram is
    refused as singular."""
    form = HermitianForm.diagonal(1, [Q.pi_D(cfg5), Q.zero(cfg5)])
    with pytest.raises(Singular, match="^matrix not invertible at tracked precision$"):
        mo.compute_htilde_beta(form, Q.u_elem(cfg5))


def test_trace_transfer_collapse(cfg5):
    r = rg.rng(101)
    for delta in (cfg5.f(cfg5.nonresidue_r), cfg5.pi()):
        data = mo.split(cfg5, delta)
        for eps in (1, -1):
            ma = mo.max_anisotropic_edform(data, eps)
            assert wc.class_of_form(mo.trace_transfer(ma)).is_hyperbolic()
            for _ in range(5):
                ed = mo.functor_Ge(rg.rand_eform(data, r, eps, 2), data, eps)
                c1 = wc.class_of_form(mo.trace_transfer(ed))
                c2 = wc.class_of_form(mo.trace_transfer(ed.orthogonal_sum(ma)))
                assert c1 == c2


def test_trace_transfer_lambda_independence(cfg5):
    r = rg.rng(103)
    data = mo.split(cfg5, cfg5.f(cfg5.nonresidue_r))
    for _ in range(10):
        ed = mo.functor_Ge(rg.rand_eform(data, r, 1, 2), data, 1)
        base = wc.class_of_form(mo.trace_transfer(ed))
        for c in (2, 3, 7):
            assert wc.class_of_form(mo.trace_transfer(ed, cfg5.f(c))) == base


def test_witt_tower_evaluation_consistency():
    """value_at (the class at e1 scaled by the similitude factor) equals
    value_at_direct (F_f of the form, classified) at random idempotents f,
    over E = F(sqrt(r)), F(sqrt(p)) and F(sqrt(p r)), eps = +-1 and
    t = 1..3, at p = 3, 5, 7, 13.  An odd t takes EWittClass.scale's
    odd-rank branch, whose norm test moves the class at some f."""
    compared = moved = 0
    for p in (3, 5, 7, 13):
        cfg = FieldConfig(p, 32)
        r = rg.rng(107 + p)
        for delta in (cfg.f(cfg.nonresidue_r), cfg.pi(), cfg.f(p * cfg.nonresidue_r)):
            data = mo.split(cfg, delta)
            E = data.E
            for eps in (1, -1):
                for t in (1, 2, 3):
                    ed = mo.functor_Ge(rg.rand_eform(data, r, eps, t), data, eps)
                    wt = mo.witt_tower_of(*mo.realize_instance(ed))
                    for _ in range(4):
                        x = [E.el(rg.rand_f(cfg, r, 0, 1), rg.rand_f(cfg, r, 0, 1))
                             for _ in range(2)]
                        try:
                            f = data.idempotent_from_line(x)
                        except DegenerateForm:
                            continue
                        value = wt.value_at(f)
                        assert value == wt.value_at_direct(f)
                        compared += 1
                        moved += value != wt.class_at_e1
    assert compared >= 250 and moved >= 20


def test_beta_normalize_rescales():
    """beta and p^k beta (k = 1, 2) give one Witt tower: _beta_normalize
    scales p^k beta, whose square has valuation 2k or 2k + 1, back by
    pi_F^(-k), so the class at e1 and the trace class agree, over F(u) and
    F(pi_D), eps = +-1, t = 1..3, at p = 3, 5, 13 and N = 40."""
    for p in (3, 5, 13):
        cfg = FieldConfig(p, 40)
        r = rg.rng(p * 1000 + 40)
        for delta in (cfg.f(cfg.nonresidue_r), cfg.pi()):
            data = mo.split(cfg, delta)
            for eps in (1, -1):
                for t in (1, 2, 3):
                    ed = mo.functor_Ge(rg.rand_eform(data, r, eps, t), data, eps)
                    h, beta = mo.realize_instance(ed)
                    base = mo.witt_tower_of(h, beta)
                    for k in (1, 2):
                        pk = cfg.f(p ** k)
                        scaled = mo.witt_tower_of(
                            h, [[q.scale_f(pk) for q in row] for row in beta])
                        assert scaled.class_at_e1 == base.class_at_e1
                        assert scaled.trace_class() == base.trace_class()


def test_tower_conjugation_remark(cfg5):
    # isometric h with conjugated beta gives a matching (equal) tower
    r = rg.rng(109)
    data = mo.split(cfg5, cfg5.f(cfg5.nonresidue_r))
    ed = mo.functor_Ge(rg.rand_eform(data, r, 1, 1), data, 1)
    h, beta = mo.realize_instance(ed)
    X = rg.rand_skew_adjoint(cfg5, r, h)
    from hermiwitt.hermitian import cayley_isometry, dmat_inv, dmat_mul

    g = cayley_isometry(X, h)
    beta2 = dmat_mul(g, dmat_mul([list(row) for row in beta], dmat_inv(g)))
    t1 = mo.witt_tower_of(h, beta)
    t2 = mo.witt_tower_of(h, beta2)
    assert t1.class_at_e1 == t2.class_at_e1
    assert t1.trace_class() == t2.trace_class()


def test_hyperbolic_tower_value(cfg5):
    data = mo.split(cfg5, cfg5.f(cfg5.nonresidue_r))
    E = data.E
    hE = [[E.zero(), E.one()], [E.one(), E.zero()]]
    ed = mo.functor_Ge(hE, data, 1)
    h, beta = mo.realize_instance(ed)
    wt = mo.witt_tower_of(h, beta)
    assert wt.class_at_e1.is_hyperbolic()
    assert wt.trace_class().is_hyperbolic()


def test_edform_json_roundtrip(cfg5):
    from hermiwitt import serialize as sz

    r = rg.rng(113)
    data = mo.split(cfg5, cfg5.pi())
    ed = mo.functor_Ge(rg.rand_eform(data, r, 1, 2), data, 1)
    back = sz.edform_from_json(cfg5, sz.edform_to_json(ed))
    assert back.epsilon == ed.epsilon and back.t == ed.t
    assert dmat_is_zero(dmat_sub(back.rows(), ed.rows()))


def test_trace_transfer_e_to_f(cfg5):
    # hyperbolic stays hyperbolic: the isotropic vector survives composition
    data = mo.split(cfg5, cfg5.f(cfg5.nonresidue_r))
    E = data.E
    hE = [[E.zero(), E.one()], [E.one(), E.zero()]]
    G = mo.trace_transfer_e_to_f(hE, E)
    assert len(G) == 4
    # e_1 is isotropic for hE, and its F-coordinates stay isotropic for G
    v = [cfg5.f(1), cfg5.f_zero(), cfg5.f_zero(), cfg5.f_zero()]
    val = None
    for i in range(4):
        for j in range(4):
            term = v[i] * G[i][j] * v[j]
            val = term if val is None else val + term
    assert val.is_zero()
    # defining identity: lambda(h_E(x, y)) on basis pairs matches the Gram
    x = [E.one(), E.gen()]
    y = [E.el(2, 1), E.one()]
    lhs = None
    for i in range(2):
        for j in range(2):
            t = x[i].sigma() * hE[i][j] * y[j]
            lhs = t if lhs is None else lhs + t
    coords_x = [x[0].a, x[1].a, x[0].b, x[1].b]
    # decompose x = sum a_i e_i + sum b_i (e_i w): coordinates are (a, b)
    coords_y = [y[0].a, y[1].a, y[0].b, y[1].b]
    rhs = None
    for i in range(4):
        for j in range(4):
            t = coords_x[i] * G[i][j] * coords_y[j]
            rhs = t if rhs is None else rhs + t
    assert (lhs.a - rhs).is_zero()


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("gen,eps", [(Q.u_elem, 1), (Q.u_elem, -1),
                                     (Q.pi_D, 1), (Q.pi_D, -1)],
                         ids=["u+1", "u-1", "piD+1", "piD-1"])
def test_e_witt_class_group_laws(p, gen, eps):
    # h perp (-h) is hyperbolic and adding a split plane fixes the class;
    # forms with zero diagonal take diagonalize's hyperbolic-pair branch.
    # At p = 7 the ramified E = F(pi_D) has -1 as a non-norm, so the sign
    # that each hyperbolic pair puts into the discriminant matters.
    cfg = FieldConfig(p, 32)
    r = rg.rng(131)
    g = gen(cfg)
    data = mo.split(cfg, (g * g).a.a)
    E = data.E
    z = E.zero()
    # the eps-hermitian split plane: antidiag(1, eps) over E
    plane = [[z, E.one()], [E.from_f(cfg.f(eps)), z]]
    for k in range(20):
        t = r.randint(1, 2) if k % 3 else 2
        H = rg.rand_eform(data, r, eps, t)
        if k % 3 == 0:
            H[0][0] = H[1][1] = z
        negH = [[-x for x in row] for row in H]
        double = [list(row) + [z] * t for row in H]
        double += [[z] * t + list(row) for row in negH]
        assert mo.e_witt_class(double, E, eps).is_hyperbolic()
        padded = [list(row) + [z, z] for row in H]
        padded += [[z] * t + list(row) for row in plane]
        assert mo.e_witt_class(padded, E, eps) == mo.e_witt_class(H, E, eps)
    assert mo.e_witt_class(plane, E, eps).is_hyperbolic()
