"""Exact rational arithmetic for precision-honesty checks.

An element of F, L, E or D with known coordinates in Z[1/p] is represented
by its regular representation as a rational matrix; products, inverses and
determinants are then computed exactly with Fractions, and a tracked result
is honest when every coordinate it claims to prec k agrees with the exact
value mod p^k.  ExactD computes over D directly, on coordinate tuples, for
matrices over D too large for their regular representation.
"""

from fractions import Fraction

from hermiwitt.hermitian import dmat_scalar
from hermiwitt.padic import FElement


def exact_rep(kind, p, r, c):
    """The regular representation of an exact element as a rational matrix:
    t + s*g in F[g], g^2 = d, is [[t, d*s], [s, t]], and a + b*pi_D in D is
    [[A, p*B], [tau(B), tau(A)]] with L-blocks A, B."""
    if kind == "F":
        return [[c[0]]]
    if kind != "D":
        d = {"L": r, "E_u": r, "E_pi": p}[kind]
        return [[c[0], d * c[1]], [c[1], c[0]]]
    A, B = exact_rep("L", p, r, c[:2]), exact_rep("L", p, r, c[2:])
    tA, tB = (exact_rep("L", p, r, (t[0], -t[1])) for t in (c[:2], c[2:]))
    return [A[i] + [p * x for x in B[i]] for i in range(2)] + \
        [tB[i] + tA[i] for i in range(2)]


def rep_coords(kind, p, R, i=0, j=0):
    """The coordinates of the element whose regular representation is the
    block of R at block row i and block column j; they sit in the first
    column of each L-block (or F-block)."""
    k = {"F": 1, "D": 4}.get(kind, 2)
    B = [row[k * j:k * j + k] for row in R[k * i:k * i + k]]
    if kind == "D":
        return (B[0][0], B[1][0], B[0][2] / p, B[1][2] / p)
    return tuple(row[0] for row in B)


def exact_matrix_rep(kind, p, r, C):
    """The block matrix of exact_rep over a matrix of coordinate tuples."""
    blocks = [[exact_rep(kind, p, r, c) for c in row] for row in C]
    return [sum((b[t] for b in brow), []) for brow in blocks
            for t in range(len(brow[0]))]


def exact_mul(A, B):
    """The product of two rational matrices."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def exact_inverse(A):
    """The inverse of a rational matrix by Gauss-Jordan; None if singular."""
    n = len(A)
    M = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    for col in range(n):
        piv = next((i for i in range(col, n) if M[i][col]), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [inv * e for e in M[col]]
        for i in range(n):
            if i != col and M[i][col]:
                c = M[i][col]
                M[i] = [e - c * f for e, f in zip(M[i], M[col])]
    return [row[n:] for row in M]


def exact_l_det(A, r):
    """The determinant of a matrix over L = Q(sqrt r), entries as exact pairs
    (x, y) = x + y sqrt(r), by Gaussian elimination."""
    def mul(a, b):
        return (a[0] * b[0] + r * a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def inv(a):
        n = a[0] * a[0] - r * a[1] * a[1]
        return (a[0] / n, -a[1] / n)

    M = [list(row) for row in A]
    det = (Fraction(1), Fraction(0))
    for col in range(len(M)):
        piv = next((i for i in range(col, len(M)) if any(M[i][col])), None)
        if piv is None:
            return (Fraction(0), Fraction(0))
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = (-det[0], -det[1])
        det = mul(det, M[col][col])
        dinv = inv(M[col][col])
        for row in M[col + 1:]:
            c = mul(row[col], dinv)
            for j in range(col, len(M)):
                t = mul(c, M[col][j])
                row[j] = (row[j][0] - t[0], row[j][1] - t[1])
    return det


class ExactD:
    """D over Q as 4-tuples (a0, a1, b0, b1) of Fractions standing for
    (a0 + a1 u) + (b0 + b1 u) pi_D, with u^2 = r, pi_D^2 = p and
    pi_D x = tau(x) pi_D; matrices over D are lists of rows of such tuples."""

    def __init__(self, p, r):
        self.p, self.r = p, r
        self.zero = (Fraction(0),) * 4
        self.one = (Fraction(1),) + (Fraction(0),) * 3

    def mul(self, x, y):
        p, r = self.p, self.r
        a0, a1, b0, b1 = x
        c0, c1, d0, d1 = y
        return (a0 * c0 + r * a1 * c1 + p * (b0 * d0 - r * b1 * d1),
                a0 * c1 + a1 * c0 + p * (b1 * d0 - b0 * d1),
                a0 * d0 + r * a1 * d1 + b0 * c0 - r * b1 * c1,
                a0 * d1 + a1 * d0 + b1 * c0 - b0 * c1)

    @staticmethod
    def add(x, y):
        return tuple(s + t for s, t in zip(x, y))

    @staticmethod
    def sub(x, y):
        return tuple(s - t for s, t in zip(x, y))

    @staticmethod
    def rho(x):
        return (x[0], x[1], x[2], -x[3])

    def inv(self, x):
        a0, a1, b0, b1 = x
        n = a0 * a0 - self.r * a1 * a1 - self.p * (b0 * b0 - self.r * b1 * b1)
        return (a0 / n, -a1 / n, -b0 / n, -b1 / n)

    def matmul(self, A, B):
        """The product of two matrices over D."""
        out = []
        for row in A:
            out.append([])
            for col in zip(*B):
                s = self.zero
                for a, b in zip(row, col):
                    s = self.add(s, self.mul(a, b))
                out[-1].append(s)
        return out

    def solve(self, A, B):
        """A^(-1) B by Gauss-Jordan on [A | B], rows scaled and combined on
        the left; None if A is singular."""
        n = len(A)
        M = [list(ra) + list(rb) for ra, rb in zip(A, B)]
        for col in range(n):
            piv = next((i for i in range(col, n) if any(M[i][col])), None)
            if piv is None:
                return None
            M[col], M[piv] = M[piv], M[col]
            inv = self.inv(M[col][col])
            M[col] = [self.mul(inv, e) for e in M[col]]
            for i in range(n):
                if i != col and any(M[i][col]):
                    c = M[i][col]
                    M[i] = [self.sub(e, self.mul(c, f))
                            for e, f in zip(M[i], M[col])]
        return [row[n:] for row in M]

    def nu_D(self, x):
        va = [2 * vp_q(c, self.p) for c in x[:2] if c]
        vb = [2 * vp_q(c, self.p) + 1 for c in x[2:] if c]
        return min(va + vb)

    def h(self, M, x, y):
        s = self.zero
        for i, xi in enumerate(x):
            rx = self.rho(xi)
            for j, yj in enumerate(y):
                t = self.mul(self.mul(rx, M[i][j]), yj)
                s = tuple(a + b for a, b in zip(s, t))
        return s

    def diagonalize(self, M, eps):
        """Gram-Schmidt from scratch with the pivot rule of diagonalize:
        min nu_D of h(v, v), ties to the lowest index, else a hyperbolic
        plane from the first non-orthogonal pair."""
        n = len(M)
        basis = [[self.one if i == j else self.zero for i in range(n)]
                 for j in range(n)]
        h = lambda i, j: self.h(M, basis[i], basis[j])
        axpy = lambda k, q, c: [self.sub(x, self.mul(y, c))
                                for x, y in zip(basis[k], basis[q])]
        active, entry_cols, pair_cols, entries = list(range(n)), [], [], []
        while active:
            cands = [(self.nu_D(h(i, i)), i) for i in active if any(h(i, i))]
            if cands:
                piv = min(cands)[1]
                d = h(piv, piv)
                dinv = self.inv(d)
                active.remove(piv)
                for k in active:
                    basis[k] = axpy(k, piv, self.mul(dinv, h(piv, k)))
                entries.append(d)
                entry_cols.append(basis[piv])
                continue
            i, j = next((i, j) for ii, i in enumerate(active)
                        for j in active[ii + 1:] if any(h(i, j)))
            c = self.inv(h(i, j))
            basis[j] = [self.mul(x, c) for x in basis[j]]
            active.remove(i)
            active.remove(j)
            # the plane's Gram block is antidiag(1, eps), its own inverse
            # up to the swap of 1 and eps
            for k in active:
                s_i, s_j = h(j, k), h(i, k)
                if eps == -1:
                    s_i = self.sub(self.zero, s_i)
                basis[k] = axpy(k, i, s_i)
                basis[k] = axpy(k, j, s_j)
            pair_cols.extend([basis[i], basis[j]])
        cols = entry_cols + pair_cols
        return [[cols[j][i] for j in range(n)] for i in range(n)], entries


def matrix_of_tensor(imgs, ten):
    """Phi in tensor coordinates over E-objects, ten[0] + ten[1] Gu +
    ten[2] Gpi + ten[3] Gu Gpi folded term by term: the reference for
    morita._matrix_of_tensor, which runs on coordinate pairs."""
    out = dmat_scalar(ten[0], 2)
    for c, g in zip(ten[1:], imgs[1:]):
        out = [[out[i][j] + c * g[i][j] for j in range(2)] for i in range(2)]
    return out


def htilde_tensor(E, h0, h1):
    """1 (x) h0 + w (1 (x) h1) over E-objects, w the generator of E, from
    the four F-coordinates of each of h0 and h1: the reference for
    morita._htilde_tensor, which runs on triples."""
    wh1 = [E.gen() * E.from_f(x) for x in h1]
    return [E.from_f(a) + x for a, x in zip(h0, wh1)]


def echelon_add(echelon, vec) -> bool:
    """The frame search's echelon step over FElements: reduce vec against
    the echelon rows, each clearing the entry at its first index not
    indistinguishable from zero; append the remainder to echelon and return
    True unless it is indistinguishable from zero.  The reference for
    morita._echelon_add, which runs on triples."""
    red = vec[:]
    for prow in echelon:
        lead = next(i for i, x in enumerate(prow) if not x.is_zero())
        if not red[lead].is_zero():
            c = red[lead] / prow[lead]
            red = [a - c * b for a, b in zip(red, prow)]
    if all(x.is_zero() for x in red):
        return False
    echelon.append(red)
    return True


def digest(x):
    """(val, unit, prec) of every F-coordinate, nested like the element, and
    a list of digests for a list or tuple; bool, int and str stay as they
    are."""
    if isinstance(x, FElement):
        return (x.val, x.unit, x.prec)
    if isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, (list, tuple)):
        return [digest(e) for e in x]
    return (digest(x.a), digest(x.b))


def coords(x):
    """The F-coordinates of an element, or of each element of a list in
    turn, in the order of its digest."""
    if isinstance(x, list):
        return [c for e in x for c in coords(e)]
    return [x] if isinstance(x, FElement) else coords(x.a) + coords(x.b)


def lift(x, p):
    """The exact coordinates that a tracked element truncates, each read as
    unit * p^val with no further digits (a zeroish coordinate as 0)."""
    return tuple(Fraction(0) if c.is_zero() else c.unit * Fraction(p) ** c.val
                 for c in coords(x))


def vp_q(q: Fraction, p: int) -> int:
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def honest(c: FElement, q: Fraction, p: int) -> bool:
    """The tracked F-coordinate c agrees with the exact q mod p^c.prec."""
    diff = q if c.is_zero() else q - c.unit * Fraction(p) ** c.val
    return not diff or vp_q(diff, p) >= c.prec


def known_to(cfg, q, k):
    """The F-element knowing the exact q in Z_(p)[1/p] mod p^k."""
    p = cfg.p
    v = vp_q(q, p) if q else k
    if v >= k:
        return FElement._zeroish(cfg, k)
    u = q / Fraction(p) ** v
    unit = u.numerator * pow(u.denominator, -1, p ** (k - v))
    return FElement._make(cfg, v, unit, k)


def truncated(cfg, r):
    """An exact coordinate in Z[1/p] and the F-element knowing it to a capped
    precision; one in six is known to 1-2 digits only and reads as zero."""
    p, N = cfg.p, cfg.precision
    if r.random() < 0.17:
        k = r.choice((1, 2))
        q = Fraction(p ** k * r.randrange(p ** N))
        return q, FElement._zeroish(cfg, k)
    q = Fraction(r.randrange(1, p ** N)) * Fraction(p) ** r.randint(-1, 2)
    k = N - r.randint(0, 3)
    v = vp_q(q, p)
    unit = q / Fraction(p) ** v
    return q, FElement._make(cfg, v, unit.numerator, k)
