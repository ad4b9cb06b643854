"""Epsilon-hermitian Gram forms over D: validation, congruence
diagonalization, twisting, the trace lift to L, and Cayley isometries.
The Witt decomposition, which needs the Witt classes of lines, lives in
wittclass.

Conventions: V is a right D-space with coordinate columns, so
h(v, w) = rho(x)^T M y for coordinate vectors x, y, a congruence acts as
M -> rho(S)^T M S, and the hermitian axiom reads M = eps * rho(M)^T.

The form layer (involution-transpose, the eps-hermitian predicate, the
sigma_h-adjoint, congruence, the sesquilinear evaluator and diagonalize)
serves forms over (E, sigma_E) as well: it applies the involution through
each element's bar(), which is rho on D and sigma on E.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DegenerateForm,
    NotSelfAdjoint,
    NotSkewAdjoint,
    PrecisionExhausted,
    Singular,
)
from .padic import FieldConfig, QuadExtElement, _d_dot, _e_mul, tau_conj
from .quaternion import QuaternionElement


# ---------------------------------------------------------------------------
# matrix helpers and the elimination kernel, shared by D (non-commutative)
# and by F, L and E (commutative)
# ---------------------------------------------------------------------------

def dmat_scalar(x, n: int):
    """x times the n x n identity matrix, over F, L, E or D; the zeros are
    the ring's full-precision zero."""
    one = x ** 0
    zero = one - one
    return [[x if i == j else zero for j in range(n)] for i in range(n)]


def dmat_of(x, n: int):
    """x as an n x n matrix over D: a quaternion stands for x times the
    identity, a matrix is copied."""
    if isinstance(x, QuaternionElement):
        return dmat_scalar(x, n)
    return [list(r) for r in x]


def dmat_blockdiag(A, B):
    """The block-diagonal matrix diag(A, B), over F, L, E or D."""
    one = A[0][0] ** 0
    zero = one - one
    return ([list(r) + [zero] * len(B) for r in A]
            + [[zero] * len(A) + list(r) for r in B])


def dmat_identity(cfg: FieldConfig, n: int):
    return dmat_scalar(QuaternionElement.one(cfg), n)


def dmat_mul(A, B):
    return [[row_dot(row, col) for col in zip(*B)] for row in A]


def dmat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def dmat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def dmat_bar_t(A):
    """Entrywise involution (rho over D, sigma over E) followed by transpose."""
    n, m = len(A), len(A[0])
    return [[A[j][i].bar() for j in range(n)] for i in range(m)]


def dmat_is_zero(A) -> bool:
    return all(e.is_zero() for row in A for e in row)


def _pivot(cands):
    """The pivot rule shared by every elimination here: the index of the
    entry of least valuation among (index, element) pairs, skipping entries
    indistinguishable from zero; ties go to the first.  None if all vanish."""
    piv, pv = None, None
    for i, e in cands:
        if e.is_zero():
            continue
        v = e.valuation()
        if pv is None or v < pv:
            piv, pv = i, v
    return piv


def row_reduce(M, ncols: int, full_rank: bool = False) -> dict:
    """Gauss-Jordan elimination, in place, of the rows of M on its first
    ncols columns, over F, L, E or D alike.  Each column's pivot is chosen
    by _pivot among the rows not yet used, moved up, scaled to 1 from the
    left and cleared from every other row by e - c*f (_axpy), whatever c
    reads: an entry indistinguishable from zero is only known mod p^prec.
    Only columns not yet pivot columns are updated, so pivot columns are
    stale on return; no caller reads them.  A column without pivot is
    skipped or, when full_rank is set, raises Singular before any further
    arithmetic.  Returns {pivot column: row}."""
    pivots, r = {}, 0
    for col in range(ncols):
        piv = _pivot((i, M[i][col]) for i in range(r, len(M)))
        if piv is None:
            if full_rank:
                raise Singular("matrix not invertible at tracked precision")
            continue
        M[r], M[piv] = M[piv], M[r]
        pr, inv = M[r], M[r][col].inv()
        live = [j for j in range(len(pr)) if j != col and j not in pivots]
        for j in live:
            pr[j] = inv * pr[j]
        for row in M:
            if row is not pr:
                nc = -row[col]
                for j in live:
                    row[j] = _axpy(row[j], nc, pr[j])
        pivots[col] = r
        r += 1
    return pivots


def dmat_solve(A, B):
    """A^(-1) B for a square A over F, L, E or D by one row_reduce on [A | B].
    Raises Singular when a column of A has no pivot at tracked precision."""
    n = len(A)
    M = [list(a) + list(b) for a, b in zip(A, B)]
    row_reduce(M, n, full_rank=True)
    return [row[n:] for row in M]


def dmat_inv(A):
    """Inverse of a square matrix over F, L, E or D: dmat_solve(A, I)."""
    return dmat_solve(A, dmat_scalar(A[0][0] ** 0, len(A)))


def lmat_det(A):
    """Determinant of a matrix over L (or any commutative field element type
    with the same interface), by fraction-producing forward elimination with
    the _pivot rule.  Unlike row_reduce it never normalizes the pivot row,
    which keeps the determinant's certified digits.  Each pivot is inverted
    and negated once, and every row below it is cleared on the columns
    right of it, the ones read again, by e - c*f (_axpy)."""
    n = len(A)
    M = [row[:] for row in A]
    det = None
    sign = 1
    for col in range(n):
        piv = _pivot((r, M[r][col]) for r in range(col, n))
        if piv is None:
            raise Singular("matrix over L not invertible at tracked precision")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            sign = -sign
        d = M[col][col]
        det = d if det is None else det * d
        ndinv = -d.inv() if col + 1 < n else None
        for r in range(col + 1, n):
            nc = M[r][col] * ndinv
            M[r][col + 1:] = [_axpy(e, nc, f) for e, f in
                              zip(M[r][col + 1:], M[col][col + 1:])]
    return det if sign == 1 else -det


def _axpy(e, x, y):
    """e + x*y over F, L, E or D, the one accumulate rule of the form layer:
    one _d_dot over D or _e_mul over L and E with e as the addend, one
    reduction per coordinate, and e + x*y over F.  The elimination update
    e - c*f is _axpy(e, -c, f): -c keeps c's valuation and precision, so
    every digit and refusal is e - c*f's.  The ring is read from e alone."""
    if type(e) is QuaternionElement:
        L = e.field
        return e._of(_d_dot(L.cfg, L.delta._t, (x.c,), (y.c,), e.c))
    if type(e) is QuadExtElement:
        E = e.field
        return e._of(_e_mul(E.cfg, E.delta._t, x.c, y.c, e.c))
    return e + x * y


def vec_apply(A, x):
    return [row_dot(row, x) for row in A]


def row_dot(row, x):
    """sum_k row[k] * x[k], over F, L, E or D, the ring read from row[0].  A
    D dot reduces each output coordinate once (padic._d_dot, whose one pair
    is D's product): a sum's class mod p^(least precision) does not depend
    on its bracketing, so no digit and no refusal moves.  Any other dot
    folds s = _axpy(s, a, b) after its first product: over L and E one
    fused _e_mul per term, triple for triple the fold s + a*b."""
    if type(row[0]) is QuaternionElement:
        L = row[0].field
        return row[0]._of(_d_dot(L.cfg, L.delta._t, [a.c for a in row],
                                 [b.c for b in x]))
    s = row[0] * x[0]
    for a, b in zip(row[1:], x[1:]):
        s = _axpy(s, a, b)
    return s


# ---------------------------------------------------------------------------
# the form layer, shared by (D, rho) and (E, sigma_E)
# ---------------------------------------------------------------------------

def is_eps_hermitian(M, epsilon: int) -> bool:
    """Whether M = eps * bar(M)^T at tracked precision: the one check of
    every form's Gram matrix, over D and over E.  Raises ValueError when
    eps is not +1 or -1, or when M is empty."""
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    if not M:
        raise ValueError("a form needs a non-empty Gram matrix")
    combine = dmat_sub if epsilon == 1 else dmat_add
    return dmat_is_zero(combine(M, dmat_bar_t(M)))


def sigma_h_adjoint(M, X):
    """sigma_h(X) = M^(-1) bar(X)^T M, the adjoint of X for the form with
    Gram matrix M; a solve against bar(X)^T M refuses some inputs it answers."""
    return dmat_mul(dmat_inv(M), dmat_mul(dmat_bar_t(X), M))


def _signs_and_product(M, X):
    """(sigma_h_signs(M, X), M X): the signs and the product they tested."""
    row_reduce([list(r) for r in M], len(M), full_rank=True)
    XM, MX = dmat_mul(dmat_bar_t(X), M), dmat_mul(M, X)
    return {s for s, combine in ((1, dmat_sub), (-1, dmat_add))
            if dmat_is_zero(combine(XM, MX))}, MX


def sigma_h_signs(M, X) -> set:
    """The signs s in {+1, -1} with sigma_h(X) = s X, tested as
    bar(X)^T M = s M X with no M^(-1).  That holds for invertible M only, so
    row_reduce certifies a copy of M first as dmat_inv(M) would."""
    return _signs_and_product(M, X)[0]


def congruence(M, X, Y):
    """bar(X)^T (M Y): the values of the form M between the columns of X and
    those of Y; congruence(M, S, S) is the Gram matrix in the basis S."""
    return dmat_mul(dmat_bar_t(X), dmat_mul(M, Y))


def bar_row(M, x):
    """bar(x)^T M as a row: sum_k bar(x_k) M_kl for each l, k in order."""
    bx = [xi.bar() for xi in x]
    return [row_dot(bx, col) for col in zip(*M)]


def sesquilinear(M, x, y):
    """bar(x)^T M y for coordinate vectors, as sum_l (bar(x)^T M)_l y_l: a
    sum factored out of its products claims no digit fewer than the terms
    (bar(x_k) M_kl) y_l summed one by one."""
    return row_dot(bar_row(M, x), y)


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HermitianForm:
    """eps-hermitian form given by its Gram matrix over D (or over E, where
    the E-side Witt class diagonalizes one), checked by is_eps_hermitian
    when built; diagonalize certifies nondegeneracy."""

    epsilon: int
    gram: tuple  # tuple of tuples of QuaternionElement

    def __post_init__(self):
        if not validate(self):
            raise DegenerateForm("not an eps-hermitian Gram matrix")

    @staticmethod
    def from_rows(epsilon: int, rows) -> HermitianForm:
        return HermitianForm(epsilon, tuple(tuple(r) for r in rows))

    @staticmethod
    def diagonal(epsilon: int, entries) -> HermitianForm:
        entries = list(entries)
        zero = QuaternionElement.zero(entries[0].cfg) if entries else None
        n = len(entries)
        return HermitianForm.from_rows(
            epsilon,
            [[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def hyperbolic_plane(cfg: FieldConfig, epsilon: int) -> HermitianForm:
        one = QuaternionElement.one(cfg)
        zero = QuaternionElement.zero(cfg)
        eps = one if epsilon == 1 else -one
        return HermitianForm.from_rows(epsilon, [[zero, one], [eps, zero]])

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def cfg(self) -> FieldConfig:
        return self.gram[0][0].cfg

    def rows(self):
        return [list(r) for r in self.gram]

    def evaluate(self, x, y) -> QuaternionElement:
        """h(v, w) for coordinate vectors of quaternions."""
        return sesquilinear(self.gram, x, y)

    def orthogonal_sum(self, other: HermitianForm) -> HermitianForm:
        if other.epsilon != self.epsilon:
            raise ValueError("epsilon mismatch in orthogonal sum")
        return HermitianForm.from_rows(self.epsilon,
                                       dmat_blockdiag(self.gram, other.gram))


@dataclass(frozen=True)
class DiagonalForm:
    """Diagonal entries plus split-off standard hyperbolic pairs.

    Every entry is symmetric (eps = +1) or skew (eps = -1) for the
    involution and distinguishable from zero; each hyperbolic pair stands
    for an antidiag(1, eps) block.  moves is (one, steps) on a result of
    diagonalize, the ring's one and each step's (scale, pivots, sols) that
    congruence_basis replays, and None on any other DiagonalForm."""

    epsilon: int
    entries: tuple
    hyperbolic_pairs: int = 0
    moves: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def rank(self) -> int:
        return len(self.entries) + 2 * self.hyperbolic_pairs


def validate(form: HermitianForm) -> bool:
    """Whether the Gram matrix is eps-hermitian: every form's build check."""
    return is_eps_hermitian(form.rows(), form.epsilon)


def _columns(G, rows, pivots, sols):
    """b_k <- b_k - sum_t b_{pivots[t]} * sols[k][t] for each k in sols,
    applied to the columns of G in the given rows: G E for the step's E."""
    for k, s in sols.items():
        for q, c in zip(pivots, s):
            nc = -c
            for a in rows:
                G[a][k] = _axpy(G[a][k], G[a][q], nc)


def _eliminate(G, pivots, sols):
    """The congruence of _columns applied to the Gram matrix G alone as
    bar(E)^T (G E): a column pass over the pivot rows as well, then a row
    pass that reads the pivot rows just updated.  Every step is tracked
    arithmetic, the products by entries indistinguishable from zero
    included, so G stays honest."""
    rest = list(sols)
    _columns(G, pivots + rest, pivots, sols)
    for j, s in sols.items():
        for q, c in zip(pivots, s):
            nrc = -c.bar()
            for k in rest:
                G[j][k] = _axpy(G[j][k], nrc, G[q][k])


def diagonalize(form: HermitianForm) -> DiagonalForm:
    """Congruence-diagonalize a Gram matrix M over D or over E alike: the
    DiagonalForm blockdiag(entries..., antidiag(1, eps) pairs...) that is
    bar(T)^T M T for the change of basis T = congruence_basis(result).

    The pivot is the basis vector minimizing the valuation of h(v, v)
    (ties: lowest index).  When every diagonal candidate is
    indistinguishable from zero a hyperbolic plane is split off from the
    first non-orthogonal pair.  A remaining block indistinguishable from
    zero is DegenerateForm when every entry is known to the full precision
    N, and PrecisionExhausted when some entry has lost digits.

    Only the Gram matrix of the current basis is carried along, each step
    a congruence M <- bar(E)^T M E, so no h(v, w) is evaluated from scratch
    and a rank-6 form costs 140 quaternion multiplies.  The basis is not
    formed: the result keeps the steps that congruence_basis replays."""
    G = form.rows()  # G[i][j] = h(b_i, b_j) for the current basis b
    one, active, entries, steps = G[0][0] ** 0, list(range(form.rank)), [], []
    while active:
        piv = _pivot((i, G[i][i]) for i in active)
        if piv is not None:
            d = G[piv][piv]
            dinv = d.inv()
            active.remove(piv)
            sols = {k: (dinv * G[piv][k],) for k in active}
            steps.append((None, [piv], sols))
            _eliminate(G, [piv], sols)
            entries.append(d)
            continue
        # all diagonal candidates vanish: split a hyperbolic plane
        pair = next(((i, j) for ii, i in enumerate(active)
                     for j in active[ii + 1:] if not G[i][j].is_zero()), None)
        if pair is None:  # degenerate, unless the block has lost digits
            lost = any(G[a][b].prec < form.cfg.precision
                       for a in active for b in active)
            raise (PrecisionExhausted if lost else DegenerateForm)(
                "remaining block is indistinguishable from zero")
        i, j = pair
        c = G[i][j].inv()  # b_j <- b_j c: column j by c, row j by bar(c)
        rc = c.bar()
        for a in active:
            G[a][j] = G[a][j] * c
            G[j][a] = rc * G[j][a]
        # orthogonalize the rest against the plane: one solve by its 2x2 block
        active = [k for k in active if k not in pair]
        sol = dmat_solve([[G[i][i], G[i][j]], [G[j][i], G[j][j]]],
                         [[G[i][k] for k in active], [G[j][k] for k in active]])
        sols = {k: (sol[0][t], sol[1][t]) for t, k in enumerate(active)}
        steps.append(((j, c), [i, j], sols))
        _eliminate(G, [i, j], sols)
    return DiagonalForm(form.epsilon, tuple(entries), len(steps) - len(entries),
                        (one, steps))


def congruence_basis(diag: DiagonalForm):
    """The T with bar(T)^T M T = diag for diag = diagonalize(form), M the
    form's Gram matrix: diagonalize's steps replayed on the identity, each
    b_j <- b_j c and b_k <- b_k - b_q c with the same c, in the same order;
    T's columns are the entries' vectors, then the pairs'.  Only a
    DiagonalForm made by diagonalize carries those steps."""
    if diag.moves is None:
        raise ValueError("congruence_basis needs the result of diagonalize")
    one, steps = diag.moves
    T = dmat_scalar(one, diag.rank)  # column k: b_k in the original basis
    for scale, pivots, sols in steps:
        if scale:
            j, c = scale
            for row in T:
                row[j] = row[j] * c
        _columns(T, range(diag.rank), pivots, sols)
    order = [pv[0] for scale, pv, _ in steps if not scale]
    order += [q for scale, pv, _ in steps if scale for q in pv]
    return [[row[j] for j in order] for row in T]


def twist(form: HermitianForm, gamma) -> HermitianForm:
    """h^gamma(v, w) := h(v, gamma w).  gamma must be invertible (checked
    first) and sigma_h-self- or skew-adjoint; epsilon flips when it is skew."""
    G = dmat_of(gamma, form.rank)
    M = form.rows()
    try:
        signs, MG = _signs_and_product(M, G)
        row_reduce([list(r) for r in G], len(G), full_rank=True)
    except Singular:
        raise Singular("twist needs an invertible gamma and form")
    if not signs:
        raise NotSelfAdjoint("gamma is neither self- nor skew-adjoint for sigma_h")
    new_eps = form.epsilon if 1 in signs else -form.epsilon
    return HermitianForm.from_rows(new_eps, MG)


# ---------------------------------------------------------------------------
# trace lift to L and reduced norms of D-matrices
# ---------------------------------------------------------------------------

def l_embedding(X):
    """The 2n x 2n matrix over L of a D-matrix X acting on V with L-basis
    (e_1..e_n, e_1 pi_D .. e_n pi_D): blocks [[A, B pi_F], [tau(B), tau(A)]]
    for X = A + B pi_D."""
    pf = X[0][0].cfg.pi()
    top, bot = [], []
    for row in X:
        ab = [(x.a, x.b) for x in row]
        top.append([a for a, _ in ab] + [b.scale_f(pf) for _, b in ab])
        bot.append([tau_conj(b) for _, b in ab] + [tau_conj(a) for a, _ in ab])
    return top + bot


def reduced_norm(X):
    """Nrd of a matrix over D, computed through the splitting over L."""
    det = lmat_det(l_embedding(X))
    # the determinant lies in F; return its F-part after checking
    if not det.in_f():
        raise AssertionError("reduced norm computation left L \\ F")
    return det.a


def trace_lift_hL(form: HermitianForm):
    """The unique L-bilinear eps-symmetric form h_L with
    tr_{L|F} o h_L = trd_{D|F} o h; returned as its 2n x 2n Gram matrix over
    L in the basis (e_1..e_n, e_1 pi_D .. e_n pi_D)."""
    # l_embedding's blocks, with its lower block row scaled by pi_F
    n = len(form.gram)
    pf = form.cfg.pi()
    rows = l_embedding(form.gram)
    return rows[:n] + [[x.scale_f(pf) for x in r] for r in rows[n:]]


def hL_evaluate(hL, x, y):
    """Evaluate the lifted bilinear form on L-coordinate vectors: x . (hL y)
    through the shared dot, 4n^2 + 2n L-products at rank n."""
    return row_dot(x, vec_apply(hL, y))


def l_coordinates(vec):
    """L-coordinates (a_1..a_n, tau(b_1)..tau(b_n)) of a D-coordinate
    vector, matching the basis used by trace_lift_hL."""
    return [q.a for q in vec] + [tau_conj(q.b) for q in vec]


def cayley_isometry(X, form: HermitianForm):
    """g = (1 - X)^(-1)(1 + X), one solve (the factors commute), for a
    sigma_h-skew-adjoint X; g is an isometry of the form with Nrd(g) = 1."""
    if -1 not in sigma_h_signs(form.rows(), X):
        raise NotSkewAdjoint("X is not sigma_h-skew-adjoint")
    I = dmat_identity(form.cfg, form.rank)
    try:
        return dmat_solve(dmat_sub(I, X), dmat_add(I, X))
    except Singular:
        raise Singular("1 - X is not invertible")


def is_isometry(g, form: HermitianForm) -> bool:
    M = form.rows()
    return dmat_is_zero(dmat_sub(congruence(M, g, g), M))
