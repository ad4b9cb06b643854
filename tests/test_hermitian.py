import hashlib
import random
from fractions import Fraction

import pytest

from hermiwitt.errors import (
    DegenerateForm,
    HermiwittError,
    IndistinguishableZero,
    NotSelfAdjoint,
    NotSkewAdjoint,
    PrecisionExhausted,
    Singular,
)
from hermiwitt.hermitian import (
    DiagonalForm,
    HermitianForm,
    cayley_isometry,
    congruence_basis,
    diagonalize,
    dmat_identity,
    dmat_inv,
    dmat_is_zero,
    dmat_mul,
    dmat_bar_t,
    dmat_solve,
    dmat_sub,
    hL_evaluate,
    is_isometry,
    l_coordinates,
    lmat_det,
    reduced_norm,
    row_reduce,
    sesquilinear,
    sigma_h_adjoint,
    trace_lift_hL,
    twist,
    validate,
    vec_apply,
)
from hermiwitt.padic import FElement, FieldConfig, QuadExtElement, QuadExtField
from hermiwitt.quaternion import QuaternionElement as Q
from hermiwitt import randgen as rg
from hermiwitt import wittclass as wc
from hermiwitt.wittclass import witt_decompose
from oracle import (
    ExactD,
    coords,
    digest,
    exact_inverse,
    exact_l_det,
    exact_matrix_rep,
    exact_mul,
    honest,
    known_to,
    lift,
    rep_coords,
    truncated,
)


def test_validate_examples(cfg5):
    one = Q.one(cfg5)
    assert validate(HermitianForm.diagonal(1, [one]))
    # 1 is not skew: the form is refused when it is built
    with pytest.raises(DegenerateForm, match="^not an eps-hermitian Gram matrix$"):
        HermitianForm.diagonal(-1, [one])
    skew = Q.u_elem(cfg5) * Q.pi_D(cfg5)
    assert validate(HermitianForm.diagonal(-1, [skew]))
    with pytest.raises(ValueError, match="^a form needs a non-empty Gram matrix$"):
        HermitianForm.from_rows(1, [])
    with pytest.raises(ValueError, match="^a form needs a non-empty Gram matrix$"):
        HermitianForm.diagonal(1, [])


def test_diagonalize_examples(cfg5):
    one, pi = Q.one(cfg5), Q.pi_D(cfg5)
    f = HermitianForm.diagonal(1, [one, pi])
    dg = diagonalize(f)
    assert dg.hyperbolic_pairs == 0
    assert [wc.classify_line(e, 1) for e in dg.entries] == \
        [wc.classify_line(one, 1), wc.classify_line(pi, 1)]
    hyp = HermitianForm.hyperbolic_plane(cfg5, 1)
    dg = diagonalize(hyp)
    assert dg.hyperbolic_pairs == 1 and not dg.entries
    assert wc.class_of_form(hyp).is_hyperbolic()
    # only diagonalize's result carries the steps congruence_basis replays
    with pytest.raises(ValueError, match="result of diagonalize"):
        congruence_basis(DiagonalForm(1, dg.entries, dg.hyperbolic_pairs))


def test_diagonalize_congruence_postcondition(cfg5):
    r = rg.rng(31)
    for _ in range(25):
        eps = 1 if r.random() < 0.5 else -1
        n = r.randint(1, 3)
        form = rg.rand_form(cfg5, r, eps, n)
        dg = diagonalize(form)
        _assert_congruence_postcondition(form, congruence_basis(dg), dg)


def _to_tracked(cfg, x):
    def f(q):
        if not q:
            return cfg.f_zero()
        assert q.denominator == 1
        return cfg.f(q.numerator)
    return Q(cfg.l(f(x[0]), f(x[1])), cfg.l(f(x[2]), f(x[3])))


def _rand_exact_form(X: ExactD, r: random.Random, eps, n, zero_diag):
    """An exactly eps-hermitian Gram matrix: a random upper triangle, the
    lower triangle eps * rho(upper), and an eps-symmetric diagonal whose
    coordinates have valuation 0 to 2 (zero when zero_diag is set)."""
    def coord():
        if r.random() < 0.2:
            return Fraction(0)
        return Fraction(r.randrange(1, X.p ** 12) * X.p ** r.randint(0, 2))

    M = [[None] * n for _ in range(n)]
    for i in range(n):
        if zero_diag:
            M[i][i] = X.zero
        elif eps == 1:
            M[i][i] = (coord(), coord(), coord(), Fraction(0))
            if not any(M[i][i]):
                M[i][i] = X.one
        else:
            M[i][i] = (Fraction(0),) * 3 + (coord() or Fraction(1),)
        for j in range(i + 1, n):
            M[i][j] = tuple(coord() for _ in range(4))
            lo = X.rho(M[i][j])
            M[j][i] = lo if eps == 1 else X.sub(X.zero, lo)
    return M


@pytest.mark.parametrize("p,N", [(3, 10), (5, 12), (5, 32)])
def test_diagonalize_precision_honest(p, N):
    """Every digit diagonalize claims, in T and in the diagonal entries,
    agrees with exact rational Gram-Schmidt under the same pivot rule, and
    rho(T)^T M T is the claimed block-diagonal form."""
    cfg = FieldConfig(p, N)
    X = ExactD(p, cfg.nonresidue_r)
    r = random.Random(1000 * p + N)
    forms = refused = hyperbolic = 0
    for n in range(2, 6):
        for eps in (1, -1):
            for t in range(6):
                M = _rand_exact_form(X, r, eps, n, zero_diag=(t % 3 == 0))
                form = HermitianForm.from_rows(
                    eps, [[_to_tracked(cfg, x) for x in row] for row in M])
                forms += 1
                try:
                    dg = diagonalize(form)
                except HermiwittError:
                    refused += 1
                    continue
                T = congruence_basis(dg)
                T_ex, entries_ex = X.diagonalize(M, eps)
                hyperbolic += dg.hyperbolic_pairs
                assert len(dg.entries) == len(entries_ex)
                pairs = list(zip(sum(T, []), sum(T_ex, [])))
                pairs += list(zip(dg.entries, entries_ex))
                for got, want in pairs:
                    for x, q in zip(coords(got), want):
                        assert honest(x, q, p), (p, N, n, eps, t)
                _assert_congruence_postcondition(form, T, dg)
    assert hyperbolic > 0
    assert refused * 4 < forms, (refused, forms)


def _assert_congruence_postcondition(form, T, dg):
    cfg, n, eps = form.cfg, form.rank, form.epsilon
    got = dmat_mul(dmat_bar_t(T), dmat_mul(form.rows(), T))
    want = [[Q.zero(cfg) for _ in range(n)] for _ in range(n)]
    k = len(dg.entries)
    for i, d in enumerate(dg.entries):
        want[i][i] = d
    one = Q.one(cfg)
    for j in range(dg.hyperbolic_pairs):
        a, b = k + 2 * j, k + 2 * j + 1
        want[a][b] = one
        want[b][a] = one if eps == 1 else -one
    assert dmat_is_zero(dmat_sub(got, want))


def test_diagonalize_multiply_count(quaternion_products):
    """Congruence updates of the Gram matrix alone keep diagonalize at ~n^3
    quaternion multiplies: 140 at rank 6, where re-evaluating h(v, w) from
    scratch took 3129 and carrying the change of basis along took 230.
    congruence_basis builds that basis with the 90 multiplies left out."""
    cfg = FieldConfig(5, 32)
    form = rg.rand_form(cfg, rg.rng(6), 1, 6)
    assert quaternion_products(diagonalize, form) == 140
    assert quaternion_products(congruence_basis, diagonalize(form)) == 90


def test_classifiers_build_no_basis(quaternion_products, quadext_products):
    """witt_decompose and class_of_form read the entries off diagonalize and
    never build its change of basis: each makes exactly diagonalize's 140
    quaternion multiplies on the rank-6 form above.  Over E, e_witt_class
    makes exactly diagonalize's 140 E-multiplies, plus the n^2 of its twist
    by the generator's inverse when eps = -1."""
    from hermiwitt import morita as mo

    cfg = FieldConfig(5, 32)
    form = rg.rand_form(cfg, rg.rng(6), 1, 6)
    assert quaternion_products(witt_decompose, form) == 140
    assert quaternion_products(wc.class_of_form, form) == 140
    for delta in (cfg.f(cfg.nonresidue_r), cfg.pi()):
        data = mo.split(cfg, delta)
        E = data.E
        for eps in (1, -1):
            H = rg.rand_eform(data, rg.rng(6), eps, 6)
            twisted = H if eps == 1 else [[E.gen().inv() * e for e in row]
                                          for row in H]
            assert quadext_products(
                diagonalize, HermitianForm.from_rows(1, twisted)) == 140
            assert quadext_products(mo.e_witt_class, H, E, eps) == \
                140 + (36 if eps == -1 else 0)


def test_random_congruence_class_invariance(cfg5):
    r = rg.rng(37)
    alpha = Q.make(cfg5, cfg5.alpha)
    base = HermitianForm.diagonal(1, [Q.one(cfg5), alpha])
    for _ in range(10):
        S = rg.rand_invertible(cfg5, r, 2)
        M = dmat_mul(dmat_bar_t(S), dmat_mul(base.rows(), S))
        f = HermitianForm.from_rows(1, M)
        assert wc.class_of_form(f) == wc.class_of_form(base)


def test_witt_decompose_examples(cfg5):
    one, pi = Q.one(cfg5), Q.pi_D(cfg5)
    idx, an = witt_decompose(HermitianForm.diagonal(1, [one, -one]))
    assert idx == 1 and not an.entries
    idx, an = witt_decompose(HermitianForm.diagonal(1, [one]))
    assert idx == 0 and len(an.entries) == 1
    idx, an = witt_decompose(HermitianForm.diagonal(1, [one, pi]))
    assert idx == 0 and len(an.entries) == 2
    assert not wc.is_isotropic(an)


def test_degenerate_raises(cfg5):
    z = Q.zero(cfg5)
    with pytest.raises(DegenerateForm):
        diagonalize(HermitianForm.from_rows(1, [[z]]))


def test_twist_examples(cfg5, quaternion_products):
    one = Q.one(cfg5)
    skew = Q.u_elem(cfg5) * Q.pi_D(cfg5)
    f = HermitianForm.diagonal(1, [one])
    g = twist(f, skew)
    assert g.epsilon == -1 and validate(g)
    assert g.gram[0][0].same(skew)
    assert twist(f, one).epsilon == 1
    h = twist(g, skew)
    assert h.epsilon == 1
    # (u pi_D)^2 = -r pi_F lands in F
    sq = h.gram[0][0]
    assert sq.b.is_zero() and sq.a.in_f()
    with pytest.raises(NotSelfAdjoint):
        twist(f, Q.u_elem(cfg5) + skew)
    # a singular gamma is refused before any sign verdict
    zero = Q.zero(cfg5)
    with pytest.raises(Singular):
        twist(HermitianForm.diagonal(1, [one, one]), [[zero, one], [zero, zero]])
    # M^(-1) has entries of valuation -4, so its product with the coordinate
    # of gamma known mod 5^2 keeps no digit; bar(gamma)^T M = s M gamma
    # needs no M^(-1) and shows gamma to be neither self- nor skew-adjoint
    m = HermitianForm.from_rows(1, [[2 * one, 25 * one], [25 * one, zero]])
    known_mod_25 = Q(cfg5.l(2, 0), cfg5.l(FElement._zeroish(cfg5, 2), 0))
    with pytest.raises(NotSelfAdjoint):
        twist(m, [[one, zero], [zero, known_mod_25]])
    # M gamma is formed once, for the sign test and as the new Gram; forming
    # it twice took 135 quaternion multiplies on this rank-3 form, and
    # certifying M and gamma by row_reduces that cleared their settled
    # pivot columns too took 108
    form = rg.rand_form(cfg5, rg.rng(5), 1, 3)
    assert quaternion_products(twist, form, one) == 72


def test_trace_lift_examples(cfg5):
    one = Q.one(cfg5)
    f = HermitianForm.diagonal(1, [one])
    hL = trace_lift_hL(f)
    assert len(hL) == 2
    v = l_coordinates([one])
    assert hL_evaluate(hL, v, v).trace().same(2)


def test_trace_lift_defining_identity(cfg5):
    r = rg.rng(41)
    for _ in range(8):
        eps = 1 if r.random() < 0.5 else -1
        n = r.randint(1, 3)
        form = rg.rand_form(cfg5, r, eps, n)
        hL = trace_lift_hL(form)
        assert len(hL) == 2 * n
        for _ in range(10):
            v = [rg.rand_quat(cfg5, r) for _ in range(n)]
            w = [rg.rand_quat(cfg5, r) for _ in range(n)]
            lhs = hL_evaluate(hL, l_coordinates(v), l_coordinates(w)).trace()
            assert (lhs - form.evaluate(v, w).trd()).is_zero()


def test_cayley_examples(cfg5):
    r = rg.rng(43)
    form = rg.rand_form(cfg5, r, 1, 2)
    n = form.rank
    zeros = [[Q.zero(cfg5)] * n for _ in range(n)]
    g = cayley_isometry(zeros, form)
    assert dmat_is_zero(dmat_sub(g, dmat_identity(cfg5, n)))
    X = rg.rand_skew_adjoint(cfg5, r, form)
    g = cayley_isometry(X, form)
    assert is_isometry(g, form)
    nrd = reduced_norm(g)
    assert (nrd - 1).is_zero() or (nrd - 1).valuation() >= cfg5.precision - 8
    for _ in range(5):
        v = [rg.rand_quat(cfg5, r) for _ in range(n)]
        w = [rg.rand_quat(cfg5, r) for _ in range(n)]
        gv = [sum_q([g[i][j] * v[j] for j in range(n)]) for i in range(n)]
        gw = [sum_q([g[i][j] * w[j] for j in range(n)]) for i in range(n)]
        assert (form.evaluate(gv, gw) - form.evaluate(v, w)).is_zero()
    with pytest.raises(NotSkewAdjoint):
        cayley_isometry(dmat_identity(cfg5, n), form)
    # diag(1, -1) is sigma_h-skew on the hyperbolic plane, but 1 - X is
    # diag(0, 2)
    one, zero = Q.one(cfg5), Q.zero(cfg5)
    with pytest.raises(Singular, match="^1 - X is not invertible$"):
        cayley_isometry([[one, zero], [zero, -one]],
                        HermitianForm.hyperbolic_plane(cfg5, 1))


def test_cayley_refuses_a_degenerate_gram(cfg5):
    """X = 0 passes bar(X)^T M + M X = 0 for any M, but sigma_h is defined
    only for an invertible M: diag(1, 0) is refused as singular."""
    one, zero = Q.one(cfg5), Q.zero(cfg5)
    form = HermitianForm.diagonal(1, [one, zero])
    with pytest.raises(Singular, match="^matrix not invertible at tracked precision$"):
        cayley_isometry([[zero, zero], [zero, zero]], form)


def test_cayley_isometry_multiply_count(cfg5, quaternion_products):
    """The skew test bar(X)^T M + M X = 0 certifies M by row_reduce on M
    alone, not on [M | I], and g = (1 - X)^(-1)(1 + X) is one row_reduce on
    [1 - X | 1 + X], with no inverse formed and then multiplied: a rank-3
    Cayley isometry takes 99 quaternion multiplies (9 + 54 for the skew
    test, 36 for the solve), since row_reduce leaves the settled pivot
    columns stale.  Clearing them too took 135 (27 + 54 + 54), inverting
    1 - X and multiplying 162, and testing skewness through sigma_h's
    M^(-1) as well 189.  Checking the result with is_isometry,
    bar(g)^T (M g), takes 54."""
    r = rg.rng(11)
    form = rg.rand_form(cfg5, r, 1, 3)
    X = rg.rand_skew_adjoint(cfg5, r, form)
    assert quaternion_products(cayley_isometry, X, form) == 99
    g = cayley_isometry(X, form)
    assert quaternion_products(is_isometry, g, form) == 54


def sum_q(items):
    s = items[0]
    for x in items[1:]:
        s = s + x
    return s


def test_hyperbolic_plane_addition(cfg5):
    r = rg.rng(47)
    for _ in range(20):
        eps = 1 if r.random() < 0.5 else -1
        f = rg.rand_diagonal_form(cfg5, r, eps, r.randint(1, 2))
        i1, a1 = witt_decompose(f)
        g = f.orthogonal_sum(HermitianForm.hyperbolic_plane(cfg5, eps))
        i2, a2 = witt_decompose(g)
        assert i2 == i1 + 1
        assert wc.class_of_diagonal(a1) == wc.class_of_diagonal(a2)


def test_reduced_norm_via_L_matches_quaternion_nrd(cfg5):
    r = rg.rng(53)
    for _ in range(30):
        x = rg.rand_quat(cfg5, r)
        assert (reduced_norm([[x]]) - x.nrd()).is_zero()


def _ring_elements(cfg, ring):
    """A draw of integral elements of F, L, ramified E = F(sqrt p) or D."""
    E = QuadExtField(cfg, cfg.pi(), "E")
    return {
        "F": lambda r: rg.rand_f(cfg, r, 0, 2),
        "L": lambda r: rg.rand_l(cfg, r, 0, 2),
        "E": lambda r: E.el(rg.rand_f(cfg, r, 0, 2), rg.rand_f(cfg, r, 0, 2)),
        "D": lambda r: rg.rand_quat(cfg, r, 0, 2),
    }[ring]


@pytest.mark.parametrize("ring", ["F", "L", "E", "D"])
def test_elimination_kernel(cfg5, ring):
    """One kernel for every ring: dmat_inv inverts, dmat_solve(A, B) solves
    A Z = B for a B of another width, both refuse a rank-deficient matrix,
    and the pivot map of row_reduce yields a nullspace vector."""
    draw = _ring_elements(cfg5, ring)
    r = rg.rng(61)
    for n in (1, 2, 3, 4):
        A = [[draw(r) for _ in range(n)] for _ in range(n)]
        one = A[0][0] ** 0
        I = [[one if i == j else one - one for j in range(n)] for i in range(n)]
        assert dmat_is_zero(dmat_sub(dmat_mul(dmat_inv(A), A), I))
        B = [[draw(r) for _ in range(n + 1)] for _ in range(n)]
        assert dmat_is_zero(dmat_sub(dmat_mul(A, dmat_solve(A, B)), B))
        if n > 1:
            c = draw(r)
            deficient = A[:-1] + [[c * e for e in A[0]]]
            with pytest.raises(Singular):
                dmat_inv(deficient)
            with pytest.raises(Singular):
                dmat_solve(deficient, B)
        # a 3 x 4 system has a nonzero right kernel vector
        M = [[draw(r) for _ in range(4)] for _ in range(3)]
        R = [row[:] for row in M]
        pivots = row_reduce(R, 4)
        f = next(c for c in range(4) if c not in pivots)
        x = [one - one] * 4
        x[f] = one
        for col, row in pivots.items():
            x[col] = -R[row][f]
        assert all(e.is_zero() for e in vec_apply(M, x))
    if ring == "D":
        for _ in range(10):
            x = draw(r)
            assert (reduced_norm([[x]]) - x.nrd()).is_zero()


@pytest.mark.parametrize("ring", ["F", "L", "E", "D"])
def test_row_reduce_free_column_before_pivot(cfg5, ring):
    """Column 1 is column 0 times c, known to 12 digits only, so the pivots
    are {0, 2, 3}, the free column comes before two pivot columns and pivot
    rows no longer match pivot columns.  The nullspace vector read off the
    pivot map must kill every row, and every digit the reduced free column
    claims must agree with B^-1 A_1 in exact arithmetic, B the pivot columns
    of the exact matrix that the input truncates."""
    draw = _ring_elements(cfg5, ring)
    kind = {"E": "E_pi"}.get(ring, ring)
    p, rr = cfg5.p, cfg5.nonresidue_r
    digits12 = FElement._make(cfg5, 0, 1, 12)
    r = rg.rng(67)
    for _ in range(10):
        M = [[draw(r) for _ in range(4)] for _ in range(3)]
        c = draw(r)
        for row in M:
            row[1] = (row[0] * c).scale_f(digits12)
        R = [row[:] for row in M]
        pivots = row_reduce(R, 4)
        assert set(pivots) == {0, 2, 3}
        one = M[0][0] ** 0
        x = [one - one] * 4
        x[1] = one
        for col, row in pivots.items():
            x[col] = -R[row][1]
        assert all(e.is_zero() for e in vec_apply(M, x))
        exact = [[lift(e, p) for e in row] for row in M]
        B = exact_matrix_rep(kind, p, rr, [[row[j] for j in (0, 2, 3)]
                                           for row in exact])
        Z = exact_mul(exact_inverse(B),
                      exact_matrix_rep(kind, p, rr, [[row[1]] for row in exact]))
        for i, col in enumerate((0, 2, 3)):
            assert all(honest(t, q, p) for t, q in
                       zip(coords(R[pivots[col]][1]), rep_coords(kind, p, Z, i)))


def test_dmat_inv_multiply_count(cfg5, quaternion_products):
    """row_reduce scales and clears only the columns of [A | I] that are not
    pivot columns yet, and leaves the settled ones stale: a rank-3 D
    inverse takes 36 quaternion multiplies, where clearing whole rows took
    54."""
    r = rg.rng(3)
    A = [[rg.rand_quat(cfg5, r) for _ in range(3)] for _ in range(3)]
    assert quaternion_products(dmat_inv, A) == 36


def _tracked_and_exact(cfg, r, kind, n, cols=None, draw=truncated):
    """An n x cols (n x n) matrix over F, L or D of coordinates drawn by
    draw(cfg, r), with the exact coordinate tuples that it truncates."""
    width = {"F": 1, "D": 4}.get(kind, 2)
    exact, tracked = [], []
    for _ in range(n):
        erow, trow = [], []
        for _ in range(cols or n):
            qs, fs = zip(*(draw(cfg, r) for _ in range(width)))
            erow.append(qs)
            if kind == "F":
                trow.append(fs[0])
            elif kind == "L":
                trow.append(QuadExtElement(cfg.L_field, *fs))
            else:
                trow.append(Q(QuadExtElement(cfg.L_field, *fs[:2]),
                              QuadExtElement(cfg.L_field, *fs[2:])))
        exact.append(erow)
        tracked.append(trow)
    return exact, tracked


_REFUSALS = (PrecisionExhausted, IndistinguishableZero, Singular)


def _honest_matrix(kind, p, got, R):
    """Every F-coordinate of the tracked matrix got over F, L or D agrees
    with the exact matrix whose block representation is R."""
    n = len(got)
    return all(honest(c, q, p) for i in range(n) for j in range(n)
               for c, q in zip(coords(got[i][j]), rep_coords(kind, p, R, i, j)))


def _dishonest_inverses_and_norms(p, N):
    """Each (ring, rank) of a dmat_inv result over F, L or D, or of a
    reduced_norm result ("Nrd"), on a matrix of truncated coordinates, that
    claims an F-coordinate to prec k differing mod p^k from the exact
    result for the exact matrix it truncates; and the number checked."""
    cfg = FieldConfig(p, N)
    r = random.Random(p * 11 + N)
    rr = cfg.nonresidue_r
    bad, checked = [], 0
    for n in (1, 2, 3):
        for kind, ring in (("F", "F"), ("L", "L"), ("D", "D"), ("Nrd", "D")):
            for _ in range(12):
                exact, A = _tracked_and_exact(cfg, r, ring, n)
                try:
                    got = reduced_norm(A) if kind == "Nrd" else dmat_inv(A)
                except _REFUSALS:
                    continue
                checked += 1
                if kind == "Nrd":
                    # l_embedding's blocks [[A, B pi_F], [tau(B), tau(A)]]
                    top = [[(a0, a1) for a0, a1, _, _ in row]
                           + [(p * b0, p * b1) for _, _, b0, b1 in row]
                           for row in exact]
                    bot = [[(b0, -b1) for _, _, b0, b1 in row]
                           + [(a0, -a1) for a0, a1, _, _ in row]
                           for row in exact]
                    det = exact_l_det(top + bot, rr)
                    ok = det[1] == 0 and honest(got, det[0], p)
                else:
                    X = exact_inverse(exact_matrix_rep(kind, p, rr, exact))
                    ok = X is not None and _honest_matrix(kind, p, got, X)
                if not ok:
                    bad.append((kind, n))
    return bad, checked


def test_dmat_inv_and_reduced_norm_are_precision_honest():
    """Every F-coordinate that dmat_inv(A) over F, L or D, or
    reduced_norm(X), claims to prec k agrees mod p^k with exact arithmetic
    on the exact matrix that A or X truncates, at ranks 1-3."""
    for p, N in ((3, 10), (5, 32), (13, 128)):
        bad, checked = _dishonest_inverses_and_norms(p, N)
        assert checked >= 40
        assert not bad, (p, N, bad)


def _dishonest_adjoints_and_cayleys(p, N):
    """Each (operation, rank) of a result on an exactly eps-hermitian
    integral form (its Gram M) that claims an F-coordinate to prec k
    differing mod p^k from exact arithmetic: sigma_h_adjoint(M, X) for X of
    truncated coordinates, and cayley_isometry(X, form) for X a truncation
    of an exactly sigma_h-skew-adjoint Y - sigma_h(Y); a cayley_isometry
    that calls such an X not skew-adjoint counts too.  And the number
    checked."""
    cfg = FieldConfig(p, N)
    ex = ExactD(p, cfg.nonresidue_r)
    r = random.Random(p * 17 + N)

    def adjoint(M, C):
        rho_t = [[ex.rho(C[j][i]) for j in range(len(C))] for i in range(len(C))]
        return ex.solve(M, ex.matmul(rho_t, M))

    def honest_d(got, want):
        return want is not None and all(
            honest(c, q, p) for grow, wrow in zip(got, want)
            for g, w in zip(grow, wrow) for c, q in zip(coords(g), w))

    bad, checked = [], 0
    for n in (1, 2, 3):
        for _ in range(12):
            eps = r.choice((1, -1))
            exF = _rand_exact_form(ex, r, eps, n, zero_diag=False)
            form = HermitianForm.from_rows(
                eps, [[_to_tracked(cfg, x) for x in row] for row in exF])
            exX, X = _tracked_and_exact(cfg, r, "D", n)
            try:
                got = sigma_h_adjoint(form.rows(), X)
            except _REFUSALS:
                pass
            else:
                checked += 1
                if not honest_d(got, adjoint(exF, exX)):
                    bad.append(("sigma_h_adjoint", n))
            Y = [[tuple(map(Fraction, (p * r.randrange(p ** N),
                                       p * r.randrange(p ** N),
                                       r.randrange(p ** N), r.randrange(p ** N))))
                  for _ in range(n)] for _ in range(n)]
            adj = adjoint(exF, Y)
            if adj is None:
                continue
            exX = [[ex.sub(y, a) for y, a in zip(ry, ra)] for ry, ra in zip(Y, adj)]
            k = N - r.randint(0, 3)
            X = [[Q(*(cfg.l(known_to(cfg, c[t], k), known_to(cfg, c[t + 1], k))
                      for t in (0, 2))) for c in row] for row in exX]
            try:
                got = cayley_isometry(X, form)
            except NotSkewAdjoint:
                bad.append(("cayley_isometry rejects X", n))
                continue
            except _REFUSALS:
                continue
            checked += 1
            I = [[ex.one if i == j else ex.zero for j in range(n)]
                 for i in range(n)]
            minus, plus = ([[f(a, x) for a, x in zip(ra, rx)]
                            for ra, rx in zip(I, exX)] for f in (ex.sub, ex.add))
            if not honest_d(got, ex.solve(minus, plus)):
                bad.append(("cayley_isometry", n))
    return bad, checked


def test_sigma_h_adjoint_and_cayley_are_precision_honest():
    """Every F-coordinate that sigma_h_adjoint(M, X) or cayley_isometry(X,
    form) claims to prec k agrees mod p^k with exact arithmetic on the
    exact inputs that M, X and form truncate, at ranks 1-3; and a
    truncation of an exactly skew-adjoint X passes cayley_isometry's check."""
    for p, N in ((3, 10), (5, 32), (13, 128)):
        bad, checked = _dishonest_adjoints_and_cayleys(p, N)
        assert checked >= 40, (p, N, checked)
        assert not bad, (p, N, bad)


def _mostly_known(cfg, r):
    """oracle.truncated with nineteen in twenty of its 1-2-digit zeros
    drawn again: as drawn, they make most sesquilinear evaluations refuse
    (360 of 450 here, against 89)."""
    while True:
        q, c = truncated(cfg, r)
        if not c.is_zero() or c.prec > 2 or r.random() < 0.05:
            return q, c


def _double_sum(M, x, y):
    """bar(x)^T M y summed term by term, (bar(x_i) M_ij) y_j, i outer and
    j inner: the evaluator before the row bar(x)^T M was factored out."""
    s = None
    for xi, row in zip(x, M):
        for m, yj in zip(row, y):
            t = (xi.bar() * m) * yj
            s = t if s is None else s + t
    return s


def test_sesquilinear_is_precision_honest():
    """Every F-coordinate that sesquilinear(M, x, y) claims over D agrees
    with exact arithmetic on the exact M, x, y it truncates, at ranks 1-3;
    and against the term-by-term double sum it claims no coordinate to
    fewer digits and refuses nothing that the double sum answers."""
    for p, N in ((3, 10), (5, 32), (13, 128)):
        cfg = FieldConfig(p, N)
        ex = ExactD(p, cfg.nonresidue_r)
        r = random.Random(p * 23 + N)
        answered = 0
        for n in (1, 2, 3):
            for _ in range(50):
                exM, M = _tracked_and_exact(cfg, r, "D", n, draw=_mostly_known)
                (exx,), (x,) = _tracked_and_exact(cfg, r, "D", 1, n, _mostly_known)
                (exy,), (y,) = _tracked_and_exact(cfg, r, "D", 1, n, _mostly_known)
                try:
                    ref = _double_sum(M, x, y)
                except _REFUSALS:
                    ref = None
                try:
                    got = sesquilinear(M, x, y)
                except _REFUSALS:
                    assert ref is None, (p, N, n)
                    continue
                answered += 1
                want = ex.h(exM, exx, exy)
                assert all(honest(c, q, p) for c, q in zip(coords(got), want))
                if ref is not None:
                    assert all(c.prec >= d.prec
                               for c, d in zip(coords(got), coords(ref)))
        assert answered >= 100, (p, N, answered)


def _pinned_f(cfg, r, coarse):
    """An F-coordinate: truncated (see oracle.truncated) when coarse, else
    integral and known to the full precision."""
    return truncated(cfg, r)[1] if coarse else rg.rand_f(cfg, r, 0, 1)


def _pinned_quat(cfg, r, coarse):
    return Q(*(cfg.l(_pinned_f(cfg, r, coarse), _pinned_f(cfg, r, coarse))
               for _ in range(2)))


def _pinned_herm(cfg, r, eps, n, coarse, zero_diag=False):
    """An eps-hermitian n x n Gram: a random upper triangle, the lower one
    eps * rho(upper), the diagonal eps-symmetric (or zero)."""
    M = [[None] * n for _ in range(n)]
    for i in range(n):
        c = _pinned_f(cfg, r, coarse)
        if zero_diag:
            M[i][i] = Q.zero(cfg)
        elif eps == 1:
            M[i][i] = Q(cfg.l(c, _pinned_f(cfg, r, coarse)),
                        cfg.l(_pinned_f(cfg, r, coarse), 0))
        else:
            M[i][i] = Q(cfg.L_field.zero(), cfg.l(0, c))
        for j in range(i + 1, n):
            M[i][j] = _pinned_quat(cfg, r, coarse)
            M[j][i] = M[i][j].rho() if eps == 1 else -M[i][j].rho()
    return M


def _form_layer_cases(p, N):
    """Seeded thunks (name, fn) at (p, N), on inputs of truncated and of
    full-precision coordinates: the sigma_h-adjoint, Cayley isometries of
    random and of skew X = M^(-1) K, twists by random, self- and
    skew-adjoint gamma = M^(-1) K and by scalars, diagonalize on forms that
    split hyperbolic planes (zero diagonal, and diag + H scrambled by a
    random invertible S), and similitude_scale between idempotents of lines
    over both E."""
    from hermiwitt import morita as mo
    from hermiwitt.hermitian import congruence, dmat_blockdiag

    cfg = FieldConfig(p, N)
    r = random.Random(7 * p + N)
    cases = []

    def over_inverse(M, K):
        try:
            return dmat_mul(dmat_inv(M), K)
        except HermiwittError:
            return K

    for coarse in (True, False):
        for n in (1, 2, 3):
            for eps in (1, -1):
                form = HermitianForm.from_rows(
                    eps, _pinned_herm(cfg, r, eps, n, coarse))
                M = form.rows()
                X = [[_pinned_quat(cfg, r, coarse) for _ in range(n)]
                     for _ in range(n)]
                skew = over_inverse(M, _pinned_herm(cfg, r, -eps, n, coarse))
                gammas = [X] + [over_inverse(
                    M, _pinned_herm(cfg, r, s * eps, n, coarse)) for s in (1, -1)]
                gammas += [rg.rand_symmetric(cfg, r), rg.rand_skew(cfg, r)]
                cases.append(("sigma_h_adjoint",
                              lambda M=M, X=X: sigma_h_adjoint(M, X)))
                for Y in (X, skew):
                    cases.append(("cayley", lambda Y=Y, f=form: cayley_isometry(Y, f)))
                for g in gammas:
                    cases.append(("twist", lambda g=g, f=form: (
                        lambda t: (t.epsilon, t.gram))(twist(f, g))))
    for n in (2, 3, 4):
        for eps in (1, -1):
            forms = [_pinned_herm(cfg, r, eps, n, coarse, zero_diag=True)
                     for coarse in (True, False)]
            k = n - 2
            diag = rg.rand_diagonal_form(cfg, r, eps, k).rows() if k else []
            hyp = HermitianForm.hyperbolic_plane(cfg, eps).rows()
            S = rg.rand_invertible(cfg, r, n)
            forms.append(congruence(dmat_blockdiag(diag, hyp) if k else hyp, S, S))
            for G in forms:
                f = HermitianForm.from_rows(eps, G)
                cases.append(("diagonalize", lambda f=f: (
                    lambda d: (congruence_basis(d), d.entries, d.hyperbolic_pairs))(
                        diagonalize(f))))
    for delta in (cfg.f(cfg.nonresidue_r), cfg.pi()):
        data = mo.split(cfg, delta)
        E = data.E

        def line(coarse):
            return [E.el(_pinned_f(cfg, r, coarse), _pinned_f(cfg, r, coarse))
                    for _ in range(2)]

        for coarse in (True, False, True, False):
            x, y = line(coarse), line(coarse)

            def sim(x=x, y=y, data=data):
                e = data.idempotent_from_line(x)
                return mo.similitude_scale(e, data.idempotent_from_line(y))

            cases.append(("similitude", sim))
            cases.append(("similitude", lambda y=y, data=data: mo.similitude_scale(
                data.e1(), data.idempotent_from_line(y))))
    return cases


def test_form_layer_pinned():
    """The (val, unit, prec) of every output of sigma_h_adjoint,
    cayley_isometry, twist, diagonalize and similitude_scale on seeded
    low-precision inputs at (3, 8), (5, 10) and (13, 40), or the class and
    message of the exception raised, hashes to the recorded digest: a
    rewrite of the inverses, solves and adjointness tests behind them keeps
    every digit and every refusal."""
    out = []
    for p, N in ((3, 8), (5, 10), (13, 40)):
        for name, fn in _form_layer_cases(p, N):
            try:
                out.append((name, digest(fn())))
            except HermiwittError as exc:
                out.append((name, type(exc).__name__, str(exc)))
    assert len(out) == 3 * (12 * 8 + 18 + 16)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "76604b4a5656f5bd4ff8c601bdff0b47913ec0d42e3fb20b282217cd33edbedb"


def _elimination_cases(p, N):
    """Seeded thunks (name, fn) at (p, N), on inputs of truncated and of
    full-precision coordinates at ranks 1-3: dmat_inv and dmat_solve (a
    right block one column wider) over F, L, E = F(sqrt p),
    E = F(sqrt(p r)) and D; lmat_det over the commutative four;
    reduced_norm over D; and diagonalize, with its congruence_basis, of
    eps-hermitian forms over L, both E and D, on a zero diagonal too."""
    cfg = FieldConfig(p, N)
    r = random.Random(5 * p + N)
    rings = {"L": cfg.L_field, "E_pi": QuadExtField(cfg, cfg.pi(), "E"),
             "E_pir": QuadExtField(cfg, cfg.f(p * cfg.nonresidue_r), "E")}

    def element(ring, coarse):
        if ring == "F":
            return _pinned_f(cfg, r, coarse)
        if ring == "D":
            return _pinned_quat(cfg, r, coarse)
        return rings[ring].el(_pinned_f(cfg, r, coarse), _pinned_f(cfg, r, coarse))

    def herm(ring, eps, n, coarse, zero_diag):
        if ring == "D":
            return _pinned_herm(cfg, r, eps, n, coarse, zero_diag)
        E = rings[ring]
        M = [[None] * n for _ in range(n)]
        for i in range(n):
            c = _pinned_f(cfg, r, coarse)
            M[i][i] = E.zero() if zero_diag else E.el(c, 0) if eps == 1 else E.el(0, c)
            for j in range(i + 1, n):
                M[i][j] = element(ring, coarse)
                M[j][i] = M[i][j].bar() if eps == 1 else -M[i][j].bar()
        return M

    cases = []
    for coarse in (True, False):
        for n in (1, 2, 3):
            for ring in ("F", "L", "E_pi", "E_pir", "D"):
                for _ in range(2):
                    A = [[element(ring, coarse) for _ in range(n)] for _ in range(n)]
                    B = [[element(ring, coarse) for _ in range(n + 1)]
                         for _ in range(n)]
                    cases.append(("dmat_inv", lambda A=A: dmat_inv(A)))
                    cases.append(("dmat_solve", lambda A=A, B=B: dmat_solve(A, B)))
                    if ring == "D":
                        cases.append(("reduced_norm", lambda A=A: reduced_norm(A)))
                    else:
                        cases.append(("lmat_det", lambda A=A: lmat_det(A)))
                if ring == "F":
                    continue
                for eps in (1, -1):
                    for zero_diag in ((False, True) if n > 1 else (False,)):
                        f = HermitianForm.from_rows(
                            eps, herm(ring, eps, n, coarse, zero_diag))
                        cases.append(("diagonalize", lambda f=f: (
                            lambda d: (congruence_basis(d), d.entries,
                                       d.hyperbolic_pairs))(diagonalize(f))))
    return cases


def test_elimination_outcomes_pinned():
    """The (val, unit, prec) of every output of dmat_inv, dmat_solve,
    lmat_det, reduced_norm and diagonalize on seeded low-precision inputs
    at (3, 8), (5, 10) and (13, 40), or the class and message of the
    exception raised, hashes to the recorded digest: a rewrite of the
    elimination updates keeps every digit and every refusal."""
    out = []
    for p, N in ((3, 8), (5, 10), (13, 40)):
        for name, fn in _elimination_cases(p, N):
            try:
                out.append((name, digest(fn())))
            except HermiwittError as exc:
                out.append((name, type(exc).__name__, str(exc)))
    assert len(out) == 3 * (2 * 3 * 5 * 2 * 3 + 2 * 4 * 2 * 5)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "ec2cc88234161561793d8a2d4e16825041ff7584fb00d79581f87008d062c483"


def test_form_json_roundtrip(cfg5):
    from hermiwitt import serialize as sz

    r = rg.rng(59)
    f = rg.rand_form(cfg5, r, -1, 2)
    back = sz.form_from_json(cfg5, sz.form_to_json(f))
    assert back.epsilon == f.epsilon
    assert dmat_is_zero(dmat_sub(back.rows(), f.rows()))
