"""Splitting E (x)_F D = M_2(E) for a quadratic subfield E of D, the
hermitian category equivalence and its inverse, similitude scaling, Witt
towers, the h~_beta construction, and trace transfers.

Elements of E (x) D are handled in two coordinate systems: "tensor"
coordinates (four E-coefficients over the D-basis {1, u, pi_D, u pi_D}) and
2x2 matrices over E through the splitting isomorphism Phi.  Phi is chosen so
that the involution sigma_E (x) rho pushes forward to
X -> u_mat sigma_E(X)^T u_mat^(-1) with a diagonal sigma_E-symmetric pair
u_mat = diag(u1, u2).

The splitting forms three inverses: C = B^(-1) of the involution Gram B,
m^(-1) of the change to a C-orthogonal basis, and mphi_inv (tensor
coordinates of a matrix).  The first splitting Phi0 reads the left-E
coordinates of x rho(d) off one solve per candidate complement w; the
transported involution Phi0 theta Phi0^(-1) needs no inverse, since
theta = sigma_E (x) rho is diagonal on the D-basis (signs _RHO_SIGNS); and
quat_of_row solves against the first rows of the images when it is asked.

Phi runs on (val, unit, prec) triples: _matrix_of_tensor forms each
F-coordinate of each entry as one _f_sum of the products that the fold over
E-objects forms, in the fold's order, so no digit and no refusal moves.
h~_beta builds its tensors and searches its frame on triples too.  The frame
search (_echelon_add) keeps its greedy rule, the first candidate independent
of those taken gets in, each row led by its first entry not
indistinguishable from zero: row_reduce's least-valuation pivot would pick
another frame at low precision and so move digits of H.

Forms over E (x) D live on sums of t copies of the simple right module
(rows E^(1x2)); in the standard frame such a form is encoded by a t x t
matrix H over E with H = eps sigma(H)^T, the pairing being
h~(X, Y) = u_mat sigma(X)^T H Y for t x 2 coordinate matrices X, Y.  Free
modules correspond to even t, with Gram over E (x) D recoverable blockwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DegenerateForm,
    NoSimilitudeFound,
    NotASquare,
    NotInD,
    NotQuadratic,
    NotSkewAdjoint,
    Singular,
)
from .padic import (
    FElement,
    FieldConfig,
    QuadExtElement,
    QuadExtField,
    _f_add,
    _f_div,
    _f_lmul,
    _f_mul,
    _f_neg,
    _f_sum,
    _f_zero,
    solve_norm_equation,
)
from .quaternion import QuaternionElement
from .hermitian import (
    HermitianForm,
    bar_row,
    congruence,
    diagonalize,
    dmat_add,
    dmat_bar_t,
    dmat_blockdiag,
    dmat_inv,
    dmat_is_zero,
    dmat_mul,
    dmat_of,
    dmat_scalar,
    dmat_solve,
    dmat_sub,
    is_eps_hermitian,
    row_dot,
    row_reduce,
    sesquilinear,
    sigma_h_signs,
    vec_apply,
)
from .wittclass import class_of_form

# rho acts on the D-basis (1, u, pi_D, u pi_D) by these signs
_RHO_SIGNS = (1, 1, 1, -1)


def cmat_inv(A):
    """Inverse of a matrix over E or F: dmat_inv under its own name, so that
    inverses on the E side are counted apart from those over D."""
    return dmat_inv(A)


def _fixed_to_f(e: QuadExtElement) -> FElement:
    if not e.in_f():
        raise AssertionError("expected a sigma-fixed element of E")
    return e.a


def quat_f_coords(q: QuaternionElement):
    return [FElement(q.cfg, *t) for t in q.c]


def quat_from_f_coords(cfg: FieldConfig, c) -> QuaternionElement:
    return QuaternionElement(cfg.l(c[0], c[1]), cfg.l(c[2], c[3]))


# ---------------------------------------------------------------------------
# tensor coordinates for E (x) D
# ---------------------------------------------------------------------------

def tensor_from_quat(E: QuadExtField, d: QuaternionElement):
    """1 (x) d in tensor coordinates."""
    return tuple(E.from_f(c) for c in quat_f_coords(d))


def tensor_lambda_apply(cfg: FieldConfig, ten, lam_scale: FElement | None = None):
    """(lambda_beta (x) id_D): kill the beta-part of each E-coefficient and
    reassemble the quaternion; optionally post-scale by an F-unit (every
    admissible equivariant lambda is an F-multiple of lambda_beta)."""
    q = quat_from_f_coords(cfg, [c.a for c in ten])
    return q.scale_f(lam_scale) if lam_scale is not None else q


# ---------------------------------------------------------------------------
# the splitting
# ---------------------------------------------------------------------------

def find_beta0(cfg: FieldConfig, delta: FElement) -> QuaternionElement:
    """A pure quaternion with square delta (delta normalized: valuation 0
    non-residue, or valuation 1)."""
    if delta.valuation() == 0:
        ratio = delta / cfg.nonresidue_r
        return QuaternionElement.make(cfg, cfg.u().scale_f(ratio.sqrt()))
    w = delta / cfg.pi()
    l = solve_norm_equation(cfg.L_field, w)
    return QuaternionElement.make(cfg, 0, l)


@dataclass(frozen=True)
class SplitData:
    """Explicit isomorphism E (x)_F D = M_2(E) adapted to sigma_E (x) rho."""

    cfg: FieldConfig
    E: QuadExtField
    imgs: tuple                   # Phi-images of 1(x)d, d in (1, u, pi_D, u pi_D)
    mphi_inv: tuple               # inverse of the tensor->matrix matrix, over E
    u1: FElement
    u2: FElement

    # -- conversions ---------------------------------------------------------
    @cached_property
    def _imgs_c(self):
        """imgs as coordinate pairs, the operands of _matrix_of_tensor."""
        return tuple(tuple(tuple(e.c for e in row) for row in g) for g in self.imgs)

    def to_matrix(self, ten):
        E = self.E
        out = _matrix_of_tensor(self.cfg, E.delta._t, self._imgs_c,
                                [e.c for e in ten])
        return [[E.of(c) for c in row] for row in out]

    def to_tensor(self, X):
        return _tensor_of_matrix(self.mphi_inv, X)

    def embed_quat(self, d: QuaternionElement):
        return self.to_matrix(tensor_from_quat(self.E, d))

    @property
    def u_mat(self):
        E = self.E
        return [[E.from_f(self.u1), E.zero()], [E.zero(), E.from_f(self.u2)]]

    def theta_is(self, X, Y) -> bool:
        """Whether theta(X) = Y, tested as u_mat sigma(X)^T = Y u_mat."""
        u = self.u_mat
        return dmat_is_zero(dmat_sub(dmat_mul(u, dmat_bar_t(X)), dmat_mul(Y, u)))

    def e1(self) -> IdempotentE:
        E = self.E
        return IdempotentE(self, ((E.one(), E.zero()), (E.zero(), E.zero())))

    def e2(self) -> IdempotentE:
        E = self.E
        return IdempotentE(self, ((E.zero(), E.zero()), (E.zero(), E.one())))

    def quat_of_row(self, row) -> QuaternionElement:
        """The x in D whose matrix has the given first row (an E^2 pair),
        solved against the first rows of the images of the D-basis."""
        cols = [(g[0][0].a, g[0][0].b, g[0][1].a, g[0][1].b) for g in self.imgs]
        sol = dmat_solve([[c[i] for c in cols] for i in range(4)],
                         [[row[0].a], [row[0].b], [row[1].a], [row[1].b]])
        return quat_from_f_coords(self.cfg, [x for x, in sol])

    def idempotent_from_line(self, x) -> IdempotentE:
        """b-orthogonal projection onto the anisotropic line spanned by the
        row vector x."""
        u = self.u_mat
        col = dmat_mul(u, dmat_bar_t([list(x)]))      # 2x1
        q = row_dot(list(x), [col[0][0], col[1][0]])
        if q.is_zero():
            raise DegenerateForm("line is isotropic for the reference form")
        qi = q.inv()
        mat = [[col[0][0] * qi * x[0], col[0][0] * qi * x[1]],
               [col[1][0] * qi * x[0], col[1][0] * qi * x[1]]]
        return IdempotentE(self, tuple(tuple(r) for r in mat))

    def validate(self) -> bool:
        E, cfg = self.E, self.cfg
        _, Gu, Gpi, _ = self.imgs
        r = E.from_f(cfg.f(cfg.nonresidue_r))
        pf = E.from_f(cfg.pi())
        # theta_is needs u_mat invertible
        checks = [not (self.u1.is_zero() or self.u2.is_zero())]
        checks.append(dmat_is_zero(dmat_sub(dmat_mul(Gu, Gu), dmat_scalar(r, 2))))
        checks.append(dmat_is_zero(dmat_sub(dmat_mul(Gpi, Gpi), dmat_scalar(pf, 2))))
        checks.append(dmat_is_zero(dmat_add(dmat_mul(Gpi, Gu), dmat_mul(Gu, Gpi))))
        # pushforward identity theta(Phi(d_k)) = s_k Phi(d_k) on the basis,
        # and involutivity of theta
        for s, X in zip(_RHO_SIGNS[1:], self.imgs[1:]):
            checks.append(self.theta_is(X, X if s == 1 else
                                        [[-e for e in row] for row in X]))
        checks.append(self.theta_is(self.e1().mat, self.e1().mat))
        # round trip tensor <-> matrix
        ten = tensor_from_quat(E, QuaternionElement.make(cfg, cfg.l(1, 2), cfg.l(3, 4)))
        checks.append(all((a - b).is_zero()
                          for a, b in zip(self.to_tensor(self.to_matrix(ten)), ten)))
        return all(checks)


def _basis_images(E: QuadExtField, Gu, Gpi):
    """[I, Gu, Gpi, Gu Gpi]: Phi on the D-basis (1, u, pi_D, u pi_D), from
    the images Gu, Gpi of 1 (x) u and 1 (x) pi_D."""
    return [dmat_scalar(E.one(), 2), Gu, Gpi, dmat_mul(Gu, Gpi)]


def _matrix_of_tensor(cfg: FieldConfig, d: tuple, imgs, ten):
    """Phi in tensor coordinates, ten[0] + ten[1] Gu + ten[2] Gpi +
    ten[3] Gu Gpi, on coordinate pairs: ten holds the four (a, b) pairs of
    its E-coefficients, E = F[w] with w^2 = d, and imgs those of the entries
    of _basis_images(E, Gu, Gpi).  Each F-coordinate of an entry is one
    _f_sum of the products the E-object fold forms: ten[0]'s coordinate on
    the diagonal and a zero known to N digits off it, then for k = 1, 2, 3
    t.a*g.a and d*(t.b*g.b) for the a-coordinate, t.a*g.b and t.b*g.a for
    the b-coordinate (t = ten[k], g its image's entry).  The products are
    formed k by k and entry by entry, as the fold forms them, so the first
    to refuse is the fold's; a sum's class mod p^(least precision) does not
    depend on its bracketing, so every digit is the fold's too."""
    lmul, (t0a, t0b), zero = _f_lmul, ten[0], _f_zero(cfg, cfg.precision)
    acc = [[([t0a], [t0b]) if i == j else ([zero], [zero]) for j in (0, 1)]
           for i in (0, 1)]
    for (ta, tb), g in zip(ten[1:], imgs[1:]):
        for row, grow in zip(acc, g):
            for (sa, sb), (ga, gb) in zip(row, grow):
                sa += (lmul(cfg, ta, ga), lmul(cfg, d, lmul(cfg, tb, gb)))
                sb += (lmul(cfg, ta, gb), lmul(cfg, tb, ga))
    return [[(_f_sum(cfg, sa), _f_sum(cfg, sb)) for sa, sb in row] for row in acc]


def _tensor_of_matrix(mphi_inv, X):
    """Phi^(-1) through the inverse of Phi's matrix on tensor coordinates."""
    return tuple(vec_apply(mphi_inv, [X[0][0], X[0][1], X[1][0], X[1][1]]))


_SPLIT_CACHE: dict = {}


def split(cfg: FieldConfig, delta: FElement, w_choice: int = 0) -> SplitData:
    """SplitData for E = F(sqrt(delta)), delta a non-square unit or of
    valuation 1 (QuadExtField raises NotQuadratic otherwise).  Splittings
    are cached per (delta's val, unit and prec, w_choice), so a cache hit
    computes nothing."""
    key = (cfg, delta.val, delta.unit, delta.prec, w_choice)
    if key not in _SPLIT_CACHE:
        _SPLIT_CACHE[key] = _build_split(cfg, delta, w_choice)
    return _SPLIT_CACHE[key]


def _build_split(cfg: FieldConfig, delta: FElement, w_choice: int) -> SplitData:
    E = QuadExtField(cfg, delta, "E")   # checks delta before any arithmetic
    beta0 = find_beta0(cfg, delta)
    one = QuaternionElement.one(cfg)
    u, pi = QuaternionElement.u_elem(cfg), QuaternionElement.pi_D(cfg)
    # left-E basis {1, w} of D, with scalars acting by left multiplication:
    # one solve per candidate w gives the left-E coordinates of x rho(d),
    # x in {1, w}, d in {u, pi_D}, i.e. the operators x -> x rho(d)
    chosen = []
    for w in (u, pi, u * pi):
        basis = [quat_f_coords(x) for x in (one, beta0, w, beta0 * w)]
        rhs = [quat_f_coords(x * d.rho()) for d in (u, pi) for x in (one, w)]
        try:
            sol = dmat_solve([[c[i] for c in basis] for i in range(4)],
                             [[c[i] for c in rhs] for i in range(4)])
        except Singular:
            continue
        chosen.append(sol)
        if len(chosen) > w_choice:
            break
    if len(chosen) <= w_choice:
        raise NotInD("no independent complement basis found")
    sol = chosen[w_choice]
    G0u, G0pi = ([[QuadExtElement(E, sol[2 * i][k], sol[2 * i + 1][k])
                   for k in (c, c + 1)] for i in range(2)] for c in (0, 2))
    imgs0 = _basis_images(E, G0u, G0pi)
    # solve B Psi0(X) = sigma(X)^T B on the generating images, where
    # Psi0 = Phi0 theta Phi0^(-1) is X -> s_k X on X = Phi0(d_k): theta is
    # diagonal on the D-basis
    rows, zero = [], E.zero()
    for s, X in zip(_RHO_SIGNS[1:], imgs0[1:]):
        P = X if s == 1 else [[-e for e in row] for row in X]
        S = dmat_bar_t(X)
        for i in range(2):
            for j in range(2):
                coeff = [zero, zero, zero, zero]
                for b in range(2):
                    coeff[2 * i + b] = coeff[2 * i + b] + P[b][j]
                for a in range(2):
                    coeff[2 * a + j] = coeff[2 * a + j] - S[i][a]
                rows.append(coeff)
    sol = _nullspace_vector(rows, E)
    B = [[sol[0], sol[1]], [sol[2], sol[3]]]
    # make B hermitian: sigma(B)^T = mu B with mu sigma(mu) = 1
    Bs = dmat_bar_t(B)
    mu = None
    for i in range(2):
        for j in range(2):
            if not B[i][j].is_zero():
                mu = Bs[i][j] / B[i][j]
                break
        if mu:
            break
    if not (mu - E.one()).is_zero():
        lam = E.one() + mu
        if lam.is_zero():
            lam = E.gen()
        B = [[lam * e for e in row] for row in B]
    if not is_eps_hermitian(B, 1):
        raise AssertionError("could not symmetrize the involution Gram")
    C = cmat_inv(B)
    S = _e_gram_schmidt_basis(C, E)
    u_entries = [_fixed_to_f(sesquilinear(C, v, v)) for v in S]
    # S lists the orthogonal basis; m, whose rows are sigma(v) for v in S,
    # makes m C sigma(m)^T = diag(u1, u2)
    m = [[x.bar() for x in v] for v in S]
    minv = cmat_inv(m)
    Gu = dmat_mul(m, dmat_mul(G0u, minv))
    Gpi = dmat_mul(m, dmat_mul(G0pi, minv))
    imgs = _basis_images(E, Gu, Gpi)
    # Phi's matrix on tensor coordinates: column k is imgs[k], read row-major
    mphi_inv = cmat_inv([[g[i // 2][i % 2] for g in imgs] for i in range(4)])

    data = SplitData(
        cfg=cfg, E=E,
        imgs=tuple(tuple(tuple(r) for r in g) for g in imgs),
        mphi_inv=tuple(tuple(r) for r in mphi_inv),
        u1=u_entries[0], u2=u_entries[1])
    if not data.validate():
        raise AssertionError("splitting construction failed its relation checks")
    return data


def _nullspace_vector(rows, E: QuadExtField):
    """One nonzero solution of a homogeneous system over E (4 unknowns)."""
    M = [row[:] for row in rows]
    pivots = row_reduce(M, 4)
    free = [c for c in range(4) if c not in pivots]
    if not free:
        raise AssertionError("involution transport system has no kernel")
    f = free[0]
    sol = [E.zero()] * 4
    sol[f] = E.one()
    for col, rr in pivots.items():
        sol[col] = -M[rr][f]
    return sol


def _e_gram_schmidt_basis(C, E: QuadExtField):
    """Orthogonal basis (list of column vectors) for the hermitian form
    sigma(x)^T C y on E^2."""
    def q(v):
        return sesquilinear(C, v, v)

    basis = [[E.one(), E.zero()], [E.zero(), E.one()]]
    v1 = None
    for v in basis:
        if not q(v).is_zero():
            v1 = v
            break
    if v1 is None:
        for c in (E.one(), E.gen(), E.one() + E.gen()):
            v = [E.one(), c]
            if not q(v).is_zero():
                v1 = v
                break
    if v1 is None:
        raise DegenerateForm("reference hermitian form is degenerate")
    other = basis[1] if v1 is not basis[1] else basis[0]
    coef = sesquilinear(C, v1, other) / q(v1)
    v2 = [o - coef * w for o, w in zip(other, v1)]
    if q(v2).is_zero():
        raise DegenerateForm("reference hermitian form is degenerate")
    return [v1, v2]


# ---------------------------------------------------------------------------
# idempotents and forms over E (x) D
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdempotentE:
    """Rank-1 idempotent of E (x) D fixed by sigma_E (x) rho, as a 2x2
    matrix over E."""

    split: SplitData
    mat: tuple

    def line(self):
        """The first row not indistinguishable from zero: it spans V e."""
        for row in self.mat:
            if not (row[0].is_zero() and row[1].is_zero()):
                return list(row)
        raise DegenerateForm("zero idempotent")

    def validate(self) -> bool:
        X = [list(r) for r in self.mat]
        if not dmat_is_zero(dmat_sub(dmat_mul(X, X), X)):
            return False
        if not self.split.theta_is(X, X):
            return False
        tr = X[0][0] + X[1][1]
        return (tr - self.split.E.one()).is_zero()


@dataclass(frozen=True)
class EDForm:
    """eps-hermitian form over E (x) D on t copies of the simple module,
    encoded by the t x t matrix H over E (H = eps sigma(H)^T), eps-hermitian
    and inverted by cmat_inv at tracked precision by construction."""

    split: SplitData
    epsilon: int
    H: tuple

    def __post_init__(self):
        if is_eps_hermitian(self.rows(), self.epsilon):
            try:
                cmat_inv(self.rows())
                return
            except Singular:
                pass
        raise DegenerateForm("H is not eps-hermitian nondegenerate over E")

    @property
    def t(self) -> int:
        return len(self.H)

    def rows(self):
        return [list(r) for r in self.H]

    def value(self, X, Y):
        """h~(X, Y) as a 2x2 matrix over E, for t x 2 coordinate matrices."""
        return dmat_mul(self.split.u_mat, congruence(self.rows(), X, Y))

    def orthogonal_sum(self, other: EDForm) -> EDForm:
        assert other.split is self.split and other.epsilon == self.epsilon
        rows = dmat_blockdiag(self.H, other.H)
        return EDForm(self.split, self.epsilon, tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# E-side Witt machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EWittClass:
    """Witt class of an eps-hermitian form over (E, sigma_E): complete
    invariants are the rank parity and the norm class of
    disc * (-1)^floor(n/2)."""

    field: QuadExtField
    epsilon: int
    rank_parity: int
    i_is_norm: bool

    def __eq__(self, other):  # the same E whatever digits each knows of delta
        return (isinstance(other, EWittClass) and self.field.same_field(other.field)
                and (self.epsilon, self.rank_parity, self.i_is_norm)
                == (other.epsilon, other.rank_parity, other.i_is_norm))

    def __hash__(self):
        return hash((self.epsilon, self.rank_parity, self.i_is_norm))

    def is_hyperbolic(self) -> bool:
        return self.rank_parity == 0 and self.i_is_norm

    @property
    def anisotropic_dim(self) -> int:
        if self.rank_parity:
            return 1
        return 0 if self.i_is_norm else 2

    def __add__(self, other: EWittClass):
        assert self.field.same_field(other.field) and self.epsilon == other.epsilon
        par = self.rank_parity ^ other.rank_parity
        i = self.i_is_norm == other.i_is_norm
        if self.rank_parity and other.rank_parity:
            i = i == self.field.is_norm(self.field.cfg.f(-1))
        return EWittClass(self.field, self.epsilon, par, i)

    def scale(self, s: FElement) -> EWittClass:
        if self.rank_parity == 0:
            return self
        return EWittClass(self.field, self.epsilon, 1,
                          self.i_is_norm == self.field.is_norm(s))


def e_witt_class(H, field: QuadExtField, epsilon: int) -> EWittClass:
    """Witt class of an eps-hermitian Gram matrix over (E, sigma_E), read off
    its diagonalization; each hyperbolic pair counts as <1> perp <-1>.  Skew
    forms are classified through the fixed twist by the generator of E."""
    if epsilon == -1:
        winv = field.gen().inv()
        H = [[winv * e for e in row] for row in H]
    diag = diagonalize(HermitianForm.from_rows(1, H))
    disc = field.cfg.f((-1) ** diag.hyperbolic_pairs)
    for e in diag.entries:
        disc = disc * _fixed_to_f(e)
    if (diag.rank // 2) % 2:
        disc = -disc
    return EWittClass(field, epsilon, diag.rank % 2, field.is_norm(disc))


def max_anisotropic_edform(data: SplitData, epsilon: int) -> EDForm:
    """Rank-2 form whose E-side class is the unique maximal anisotropic one."""
    cfg, E = data.cfg, data.E
    w0 = cfg.pi() if not E.ramified else cfg.f(cfg.nonresidue_r)
    assert not E.is_norm(w0)
    d1, d2 = cfg.f(1), -w0
    u1inv = data.u1.inv()
    if epsilon == 1:
        h = [[E.from_f(d1 * u1inv), E.zero()], [E.zero(), E.from_f(d2 * u1inv)]]
    else:
        g = E.gen()
        h = [[g.scale_f(d1 * u1inv), E.zero()], [E.zero(), g.scale_f(d2 * u1inv)]]
    form = EDForm(data, epsilon, tuple(tuple(r) for r in h))
    assert e_witt_class(form.rows(), E, epsilon).anisotropic_dim == 2 or epsilon == -1
    return form


# ---------------------------------------------------------------------------
# the category equivalence
# ---------------------------------------------------------------------------

def _echelon_add(cfg: FieldConfig, echelon, vec) -> bool:
    """Reduce vec, a list of F-triples, against the echelon rows, each
    clearing the entry at its lead index, its first entry not
    indistinguishable from zero, by a - c*b with c = vec[lead] / row[lead];
    append the remainder to echelon and return True unless it is
    indistinguishable from zero.  A row is kept as (row, lead, the inverse
    of its lead unit), the inverse taken once."""
    red = vec
    for row, lead, inv in echelon:
        x = red[lead]
        if x[0] is not None:
            c = _f_div(cfg, x, row[lead], inv)
            red = [_f_add(cfg, a, _f_neg(cfg, _f_mul(cfg, c, b)))
                   for a, b in zip(red, row)]
    lead = next((i for i, t in enumerate(red) if t[0] is not None), None)
    if lead is None:
        return False
    v, u, k = red[lead]
    echelon.append((red, lead, pow(u, -1, cfg.ppow(k - v))))
    return True


def functor_Fe(form: EDForm, idem: IdempotentE):
    """F_e: the E-valued form tr_E o h~ restricted to V e.  Returns the
    t x t Gram matrix over E.  e has rank 1, so V e has the E-basis
    r_i eps, eps the first row of e not indistinguishable from zero, and
    tr_E h~(r_i eps, r_j eps) = sum_k u_k (sigma(eps_k) (H_ij eps_k)): the
    definition u_mat sigma(X)^T (H Y) without its zero and unit factors,
    multiplied in the same order.  e_witt_class checks the Gram: its
    HermitianForm refuses one not eps-hermitian, diagonalize a degenerate one."""
    data = form.split
    x1, x2 = idem.line()
    s1, s2 = x1.sigma(), x2.sigma()
    return [[(s1 * (h * x1)).scale_f(data.u1) + (s2 * (h * x2)).scale_f(data.u2)
             for h in row] for row in form.H]


def functor_Ge(hE, data: SplitData, epsilon: int) -> EDForm:
    """G_e1: inverse functor on the canonical idempotent; on the standard
    frame it is H = u1^(-1) hE."""
    u1inv = data.u1.inv()
    H = [[x.scale_f(u1inv) for x in row] for row in hE]
    return EDForm(data, epsilon, tuple(tuple(r) for r in H))


def similitude_scale(e: IdempotentE, f: IdempotentE):
    """Similitude g with g e g^(-1) = f and g theta(g) = s in E^x (here s
    lands in the sigma-fixed subfield F).  Returns (s, g)."""
    data = e.split
    E = data.E
    u = data.u_mat

    def b(x, y):
        col = dmat_mul(u, dmat_bar_t([y]))
        return row_dot(x, [col[0][0], col[1][0]])

    def perp(x):
        col = dmat_mul(u, dmat_bar_t([x]))
        return [col[1][0], -col[0][0]]

    x, y = e.line(), f.line()
    qx, qy = _fixed_to_f(b(x, x)), _fixed_to_f(b(y, y))
    xp, yp = perp(x), perp(y)
    qxp, qyp = _fixed_to_f(b(xp, xp)), _fixed_to_f(b(yp, yp))
    mu = qx / qy
    target = mu * qyp / qxp
    try:
        c = solve_norm_equation(E, target)
    except NotASquare:
        raise NoSimilitudeFound("norm equation for the similitude is unsolvable")
    g = dmat_solve([y, yp], [x, [c * v for v in xp]])
    # verify g u sigma(g)^T = mu u, and g e = f g for an invertible g
    s_mat = dmat_mul(g, dmat_mul(u, dmat_bar_t(g)))
    if not dmat_is_zero(dmat_sub(s_mat, [[E.from_f(mu) * a for a in r] for r in u])):
        raise NoSimilitudeFound("similitude verification failed")
    row_reduce([list(r) for r in g], 2, full_rank=True)
    if not dmat_is_zero(dmat_sub(dmat_mul(g, e.mat), dmat_mul(f.mat, g))):
        raise NoSimilitudeFound("conjugation verification failed")
    return mu, g


# ---------------------------------------------------------------------------
# h~_beta, trace transfer, Witt towers
# ---------------------------------------------------------------------------

def _beta_normalize(cfg: FieldConfig, form: HermitianForm, beta):
    """(beta, delta): beta as a matrix, skew by sigma_h_signs, with
    beta^2 = delta in F, both scaled by pi_F^(-k), k = floor(v(delta) / 2),
    so that delta has valuation 0 or 1."""
    beta = dmat_of(beta, form.rank)
    if -1 not in sigma_h_signs(form.rows(), beta):
        raise NotSkewAdjoint("beta must be skew for sigma_h")
    sq = dmat_mul(beta, beta)
    d00 = sq[0][0]
    if not d00.in_f():
        raise NotQuadratic("beta^2 must be a scalar in F")
    if not dmat_is_zero(dmat_sub(sq, dmat_scalar(d00, form.rank))):
        raise NotQuadratic("beta^2 must be a scalar matrix")
    delta = d00.a.a
    k = delta.valuation() // 2
    if k:
        delta = delta * cfg.pi() ** (-2 * k)
        sc = cfg.pi() ** (-k)
        beta = [[q.scale_f(sc) for q in row] for row in beta]
    return beta, delta


@dataclass(frozen=True)
class HtildeBeta:
    """The unique sesquilinear lift h~_beta together with its frame data."""

    form: HermitianForm
    beta: tuple                 # n x n matrix over D, beta^2 = delta
    split: SplitData
    edform: EDForm
    frame: tuple                # E-basis g_1..g_n of V e1 (D-coordinate vectors)

    def pair(self, v, w):
        """h~_beta(v, w) = 1 (x) h(v, w) + beta (x) h(v, beta w)/delta in
        tensor coordinates."""
        E = self.split.E
        dinv, left = E.delta.inv(), bar_row(self.form.gram, v)
        bw = vec_apply(self.beta, w)
        h0 = row_dot(left, w)
        h1 = row_dot(left, bw).scale_f(dinv)
        return tuple(E.of(c) for c in _htilde_tensor(E.cfg, h0.c, h1.c))


def _htilde_tensor(cfg: FieldConfig, h0: tuple, h1: tuple):
    """1 (x) h0 + w (x) h1 in tensor coordinates, as four (a, b) pairs of
    E-coordinates, from the D-coordinates of h0 and h1: the digits and
    refusals of 1 (x) h0 + w (1 (x) h1) over E-objects.  w (x, 0) is
    (0*x + d*(1*0), 0*0 + 1*x); the kernel calls dropped here give zeros
    known to N digits or more, which cap nothing.  0*x is a zero known to
    N + v(x) digits, so it caps h0's coordinate when v(x) < 0, and 1*x caps
    x at N + v(x)."""
    zero, one = _f_zero(cfg, cfg.precision), (0, 1, cfg.precision)
    return tuple((_f_add(cfg, a, _f_lmul(cfg, zero, x)), _f_mul(cfg, one, x))
                 for a, x in zip(h0, h1))


def compute_htilde_beta(form: HermitianForm, beta) -> HtildeBeta:
    """Construct h~_beta for a skew beta generating a quadratic field.  The
    E-basis g_1..g_n of V e1 is picked by an echelon search from the images
    e1 (d e_i), d in (1, u, pi_D, u pi_D), each built in closed form, and
    H_ij is the e1-entry of h~_beta(g_i, g_j) over u1.  Both run on
    F-triples: the search on the candidates' coordinates, greedily (the
    first independent candidate gets in, as the pinned frames require), and
    each entry through _htilde_tensor and Phi on coordinate pairs, all four
    entries of Phi read and the three off e1 checked to vanish."""
    cfg = form.cfg
    beta, delta = _beta_normalize(cfg, form, beta)
    data = split(cfg, delta)
    E = data.E
    n = form.rank

    # the D-basis (1, u, pi_D, u pi_D) of the tensor coordinates
    u, pi = QuaternionElement.u_elem(cfg), QuaternionElement.pi_D(cfg)
    dbasis = [QuaternionElement.one(cfg), u, pi, u * pi]

    def flat(v):
        return [t for q in v for t in q.c]

    # e1 = sum_k (a_k + b_k w) (x) d_k acts as v -> v A + (beta v) B, so it
    # maps d e_i to e_i (d A) + beta_{:,i} (d B); its tensor coordinates are
    # the first column of mphi_inv
    e1_tensor = [r[0] for r in data.mphi_inv]
    A = quat_from_f_coords(cfg, [c.a for c in e1_tensor])
    B = quat_from_f_coords(cfg, [c.b for c in e1_tensor])
    dAB = [(d * A, d * B) for d in dbasis]
    cands = ([r[i] * dB + dA if k == i else r[i] * dB for k, r in enumerate(beta)]
             for i in range(n) for dA, dB in dAB)
    frame, echelon = [], []
    for v in cands:
        if not _echelon_add(cfg, echelon, flat(v)):
            continue
        bv = vec_apply(beta, v)
        frame.append((v, bv))
        if len(frame) == n:
            break
        _echelon_add(cfg, echelon, flat(bv))    # the generator of E acting on v
    if len(frame) < n:
        raise DegenerateForm("frame extraction failed")

    u1inv, dinv, d = data.u1.inv(), delta.inv(), E.delta._t
    H = []
    for gi, _ in frame:
        left = bar_row(form.gram, gi)
        row = []
        for gj, bgj in frame:
            ten = _htilde_tensor(cfg, row_dot(left, gj).c,
                                 row_dot(left, bgj).scale_f(dinv).c)
            (x, x01), (x10, x11) = _matrix_of_tensor(cfg, d, data._imgs_c, ten)
            if any(t[0] is not None for t in (*x01, *x10, *x11)):
                raise DegenerateForm("frame vectors are not e1-adapted")
            row.append(E.of(x).scale_f(u1inv))
        H.append(row)
    ed = EDForm(data, form.epsilon, tuple(tuple(r) for r in H))
    return HtildeBeta(form, tuple(tuple(r) for r in beta), data, ed,
                      tuple(tuple(v) for v, _ in frame))


def trace_transfer(form: EDForm, lam_scale: FElement | None = None) -> HermitianForm:
    """Tr_lambda: the D-valued form (lambda (x) id_D) o h~ on the standard
    D-basis r_1..r_t of the underlying module, r_i having (1, 0) in row i
    and zeros elsewhere.  h~(r_i, r_j) = [[u1 H_ij, 0], [0, 0]] has the
    tensor coordinates c_k (u1 H_ij), c = Phi^(-1)(E_00) the first column
    of mphi_inv, so the Gram entry is lambda(c (u1 H_ij)).
    lambda = lam_scale * lambda_beta
    (lam_scale = None means lambda_beta itself)."""
    data = form.split
    cfg = data.cfg
    col = [r[0] for r in data.mphi_inv]
    gram = []
    for row in form.H:
        xs = [h.scale_f(data.u1) for h in row]
        gram.append([tensor_lambda_apply(cfg, tuple(c * x for c in col), lam_scale)
                     for x in xs])
    return HermitianForm.from_rows(form.epsilon, gram)


def trace_transfer_e_to_f(hE, field: QuadExtField):
    """Tr_lambda on an E-valued form, lambda = lambda_beta: the composed
    F-bilinear form on the underlying F-space of E^t, as its 2t x 2t Gram
    matrix over F in the basis (e_1, ..., e_t, e_1 w, ..., e_t w)."""
    t = len(hE)
    basis = dmat_scalar(field.one(), t) + dmat_scalar(field.gen(), t)
    return [[row_dot(left, w).a for w in basis]
            for left in (bar_row(hE, v) for v in basis)]


def realize_instance(form: EDForm):
    """Turn an abstract E (x) D form into an element-level pair (h, beta):
    h = Tr_{lambda_beta}(form) on the standard D-frame and beta the matrix of
    the E-generator action in that frame."""
    data, t = form.split, form.t
    h = trace_transfer(form)
    gen_row = [data.E.gen(), data.E.zero()]
    return h, dmat_scalar(data.quat_of_row(gen_row), t)


@dataclass(frozen=True)
class WittTowerValue:
    """A Witt tower: the E-side class at the canonical idempotent plus the
    scaling cocycle for any other idempotent."""

    split: SplitData
    epsilon: int
    class_at_e1: EWittClass
    edform: EDForm

    def value_at(self, idem: IdempotentE) -> EWittClass:
        s, _ = similitude_scale(self.split.e1(), idem)
        return self.class_at_e1.scale(s.inv())

    def value_at_direct(self, idem: IdempotentE) -> EWittClass:
        gram = functor_Fe(self.edform, idem)
        return e_witt_class(gram, self.split.E, self.epsilon)

    def trace_class(self):
        return class_of_form(trace_transfer(self.edform))


def witt_tower_of(form: HermitianForm, beta) -> WittTowerValue:
    ht = compute_htilde_beta(form, beta)
    gram = functor_Fe(ht.edform, ht.split.e1())
    cls = e_witt_class(gram, ht.split.E, form.epsilon)
    return WittTowerValue(ht.split, form.epsilon, cls, ht.edform)
