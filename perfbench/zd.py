"""Exact arithmetic for the benchmark's inputs and answer checks.

Nothing here imports hermiwitt.  The benchmark builds its inputs and checks
the program's answers with this module alone, so a change to the program's
element types or to its random generators cannot silently change a workload
or its expected answers.

D = L + L*pi_D with L = F(u), u^2 = r (the smallest quadratic non-residue
mod p), pi_D^2 = p and pi_D*x = tau(x)*pi_D.  A quaternion is a 4-tuple of
integers (a0, a1, b0, b1) standing for (a0 + a1 u) + (b0 + b1 u) pi_D,
reduced modulo p^N.  Matrices are lists of rows of such tuples.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    """Seeded generator of the benchmark's own: the inputs depend on the
    seed and on this code only, not on any library's random module."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection."""
        bits = max(n - 1, 1).bit_length()
        while True:
            x = 0
            for _ in range((bits + 63) // 64):
                x = (x << 64) | self.next64()
            x &= (1 << bits) - 1
            if x < n:
                return x

    def choice(self, seq):
        return seq[self.below(len(seq))]


def squares_mod(p: int) -> set:
    return {x * x % p for x in range(1, p)}


def nonresidue(p: int) -> int:
    sq = squares_mod(p)
    return next(r for r in range(2, p) if r not in sq)


def vp(n: int, p: int, k: int):
    """p-adic valuation of n known modulo p^k; None when n = 0 mod p^k."""
    n %= p**k
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class Zd:
    """Z[u, pi_D] modulo p^N, and the residue field F_{p^2} = F_p[u]."""

    def __init__(self, p: int, N: int):
        self.p, self.N, self.P = p, N, p**N
        self.r = nonresidue(p)

    # -- constants ----------------------------------------------------------
    ONE = (1, 0, 0, 0)
    ZERO = (0, 0, 0, 0)
    U = (0, 1, 0, 0)
    PI = (0, 0, 1, 0)
    UPI = (0, 0, 0, 1)

    # -- L = F(u) -----------------------------------------------------------
    def lmul(self, x0, x1, y0, y1):
        P = self.P
        return (x0 * y0 + self.r * x1 * y1) % P, (x0 * y1 + x1 * y0) % P

    # -- D ------------------------------------------------------------------
    def mul(self, x, y):
        """(a + b pi)(c + d pi) = (ac + p b tau(d)) + (ad + b tau(c)) pi."""
        P, p = self.P, self.p
        a0, a1, b0, b1 = x
        c0, c1, d0, d1 = y
        ac0, ac1 = self.lmul(a0, a1, c0, c1)
        bd0, bd1 = self.lmul(b0, b1, d0, -d1)
        ad0, ad1 = self.lmul(a0, a1, d0, d1)
        bc0, bc1 = self.lmul(b0, b1, c0, -c1)
        return ((ac0 + p * bd0) % P, (ac1 + p * bd1) % P,
                (ad0 + bc0) % P, (ad1 + bc1) % P)

    def add(self, x, y):
        P = self.P
        return tuple((a + b) % P for a, b in zip(x, y))

    def sub(self, x, y):
        P = self.P
        return tuple((a - b) % P for a, b in zip(x, y))

    def scale(self, c: int, x):
        """c * x for an integer c of F."""
        P = self.P
        return tuple(c * a % P for a in x)

    def rho(self, x):
        """The anti-involution a + b pi -> a + tau(b) pi."""
        return (x[0], x[1], x[2], -x[3] % self.P)

    def nrd(self, x) -> int:
        a0, a1, b0, b1 = x
        r = self.r
        return (a0 * a0 - r * a1 * a1 - self.p * (b0 * b0 - r * b1 * b1)) % self.P

    def inv_unit(self, x):
        """Inverse of a unit of O_D: conj(x) / nrd(x)."""
        n = self.nrd(x)
        if n % self.p == 0:
            raise ValueError("not a unit of O_D")
        ninv = pow(n, -1, self.P)
        P = self.P
        return (x[0] * ninv % P, -x[1] * ninv % P,
                -x[2] * ninv % P, -x[3] * ninv % P)

    # -- matrices over D ----------------------------------------------------
    def identity(self, n):
        return [[self.ONE if i == j else self.ZERO for j in range(n)]
                for i in range(n)]

    def diag(self, entries):
        n = len(entries)
        return [[entries[i] if i == j else self.ZERO for j in range(n)]
                for i in range(n)]

    def mat_mul(self, A, B):
        out = []
        for row in A:
            out_row = []
            for j in range(len(B[0])):
                s = self.ZERO
                for a, brow in zip(row, B):
                    s = self.add(s, self.mul(a, brow[j]))
                out_row.append(s)
            out.append(out_row)
        return out

    def mat_add(self, A, B):
        return [[self.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]

    def mat_sub(self, A, B):
        return [[self.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]

    def mat_rho_t(self, A):
        return [[self.rho(A[j][i]) for j in range(len(A))]
                for i in range(len(A[0]))]

    def congruence(self, S, M):
        """rho(S)^T M S."""
        return self.mat_mul(self.mat_rho_t(S), self.mat_mul(M, S))

    def unipotent_inverse(self, S):
        """Inverse of an upper unipotent S = I + N: sum of (-N)^k."""
        n = len(S)
        I = self.identity(n)
        negN = self.mat_sub(I, S)
        out, term = I, I
        for _ in range(n - 1):
            term = self.mat_mul(term, negN)
            out = self.mat_add(out, term)
        return out

    # -- the residue field F_{p^2} ---------------------------------------------
    def fp2_is_square(self, x0: int, x1: int) -> bool:
        """Euler's criterion in F_p[u]/(u^2 - r) for a nonzero residue."""
        p = self.p
        x0, x1 = x0 % p, x1 % p
        if x0 == 0 and x1 == 0:
            raise ValueError("zero has no square class")
        e = (p * p - 1) // 2
        acc, base = (1, 0), (x0, x1)
        while e:
            if e & 1:
                acc = self._fp2_mul(acc, base)
            base = self._fp2_mul(base, base)
            e >>= 1
        return acc == (1, 0)

    def _fp2_mul(self, x, y):
        p = self.p
        return ((x[0] * y[0] + self.r * x[1] * y[1]) % p,
                (x[0] * y[1] + x[1] * y[0]) % p)

    # -- Witt classes of lines -------------------------------------------------
    def line_class(self, q, eps: int, k: int | None = None):
        """Witt class name of the rank-1 form <q> for q known modulo p^k.

        A skew line is "gskew".  A symmetric a + b pi_D (a in L, b in F) has
        nu_D = min(2 nu(a), 2 nu(b) + 1); odd nu_D gives "gpi", even nu_D
        gives "g1" or "galpha" as the residue of a / p^nu(a) is or is not a
        square in F_{p^2}.  Returns None when q has the wrong symmetry or its
        leading term is not known at precision k.
        """
        p = self.p
        k = self.N if k is None else k
        q = [c % p**k for c in q]
        a0, a1, b0, b1 = (vp(c, p, k) for c in q)
        if eps == -1:
            if (a0, a1, b0) != (None, None, None) or b1 is None:
                return None
            return "gskew"
        if b1 is not None:
            return None
        va = min((v for v in (a0, a1) if v is not None), default=None)
        if va is None and b0 is None:
            return None
        if va is None or (b0 is not None and 2 * b0 + 1 < 2 * va):
            return "gpi"
        unit = (q[0] // p**va, q[1] // p**va)
        return "g1" if self.fp2_is_square(*unit) else "galpha"
