"""Exact truncated arithmetic in F = Q_p (odd p) and quadratic extensions.

Elements are tracked with an absolute precision: an element with
``known_precision = k`` is known modulo p^k.  Every operation records its
worst-case precision loss; nothing is ever rounded silently.  An element all
of whose known digits vanish is "indistinguishable from zero" and refuses to
answer valuation or classification queries.

``QuadExt`` is the one ring layer of a + b*w that the quadratic extensions
L and E (``QuadExtElement``) and the quaternions D (``quaternion``) share.
An L or E element holds its two F-coordinates, a D element its four, as one
flat tuple ``c`` of (val, unit, prec) int triples, and all their arithmetic
runs on ``c`` through the ``_f_*`` kernel, which holds F's precision rules
once: ``_e_mul`` is the product of L and E, and the dot product ``_d_dot``
that of D, a single product being the one-pair dot; both take an addend e,
one more term of the sum, for an elimination update e - c*f.  A product in them
that only feeds a sum or a product keeps its unit unreduced (``_f_lmul``)
for the sum to reduce once; no such unit leaves the kernel.  ``_d_dot``
reduces each output coordinate once, by ``_f_sum``: a sum's class mod
p^(least precision) does not depend on its bracketing, so one product has
the digits and refusals of its straight-line fold.  When every coordinate
and constant (r, pi_F, the delta of E or L) is integral and known to N
digits, ``_d_dot`` and ``_e_mul`` compute each output coordinate as one
integer mod p^N, and claim exactly the digits of their tracked paths:
for x, y integral and known to N, ``_f_lmul`` gives k = min(N, v + min(N -
xv, N - yv)) = N; its zero branches give N + v >= N, capped at N; the
pi_F scaling gives min(k + 1, v + N), capped at N.  So every term the sum
sees is known to N digits, nothing can raise, and the sum's class mod p^N
does not depend on its bracketing.  Any other input takes the tracked
path, ``_d_dot_tracked`` or ``_e_mul_tracked``.

The involution, trace, inverse and ``in_f`` of L, E and D exist once, in
``QuadExt``; only a result is built as an object.  An F division inverts
the divisor's unit, and an inverse conj(x) / N(x) inverts the norm's unit
once and divides every coordinate by it through ``_f_div``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DivisionByIndistinguishableZero,
    IndistinguishableZero,
    NotASquare,
    NotQuadratic,
    PrecisionExhausted,
    WrongBase,
)


# Miller-Rabin on the first 13 primes as bases decides primality exactly
# below this bound, the least strong pseudoprime to all of them; the first
# 12 alone are fooled by 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n is prime, for n < _MR_BOUND: deterministic Miller-Rabin."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# -- the F kernel on (val, unit, prec) int triples ---------------------------
# FElement's precision rules, once: its arithmetic wraps these helpers, and
# the L, E and D products run on triples and wrap only their result.

def _f_zero(cfg: FieldConfig, prec: int) -> tuple:
    if prec <= 0:
        raise PrecisionExhausted("zero known to <= 0 digits")
    n = cfg.precision
    return (None, 0, prec if prec < n else n)


def _f_make(cfg: FieldConfig, val: int, unit: int, prec: int) -> tuple:
    if prec > cfg.precision:
        prec = cfg.precision
    if prec <= 0:
        raise PrecisionExhausted("result precision <= 0")
    if val >= prec:
        return _f_zero(cfg, prec)
    return _f_reduce(cfg, val, unit, prec)


def _f_add(cfg: FieldConfig, x: tuple, y: tuple) -> tuple:
    xv, xu, xk = x
    yv, yu, yk = y
    k = xk if xk < yk else yk
    if xv is None or yv is None:
        v, u = (yv, yu) if xv is None else (xv, xu)
        return (_f_zero(cfg, k) if v is None or v >= k
                else (v, u % cfg.ppow(k - v), k))
    ppow = cfg.ppow
    if xv < yv:
        v, s = xv, xu + yu * ppow(yv - xv)
    else:
        v, s = yv, yu + xu * ppow(xv - yv)
    s %= ppow(k - v)
    if s == 0:
        return _f_zero(cfg, k)
    w = _vp(s, cfg.p)
    return (v + w, s // ppow(w) if w else s, k)


def _f_neg(cfg: FieldConfig, x: tuple) -> tuple:
    v, u, k = x
    return x if v is None else (v, cfg.ppow(k - v) - u, k)


def _f_lmul(cfg: FieldConfig, x: tuple, y: tuple) -> tuple:
    """x * y by F's product rule, its unit xu * yu left unreduced: only for
    an operand of _f_add or of another _f_lmul, which reduce it."""
    xv, xu, xk = x
    yv, yu, yk = y
    if xv is None:
        return _f_zero(cfg, xk + (yk if yv is None else yv))
    if yv is None:
        return _f_zero(cfg, yk + xv)
    rx, ry = xk - xv, yk - yv
    v = xv + yv
    k = v + (rx if rx < ry else ry)
    if k > cfg.precision:
        k = cfg.precision
    if k <= 0:
        raise PrecisionExhausted("result precision <= 0")
    return _f_zero(cfg, k) if v >= k else (v, xu * yu, k)


def _f_mul(cfg: FieldConfig, x: tuple, y: tuple) -> tuple:
    v, u, k = t = _f_lmul(cfg, x, y)
    return t if v is None else (v, u % cfg.ppow(k - v), k)


def _f_div(cfg: FieldConfig, x: tuple, y: tuple, yinv: int) -> tuple:
    """x / y for y not indistinguishable from 0, given yinv, the inverse of
    y's unit mod p^(prec - val): x times 1/y = (-val, yinv, prec - 2*val),
    which knows 1/y to y's relative precision."""
    v, _, k = y
    return _f_mul(cfg, x, (-v, yinv, k - 2 * v))


def _f_shift(cfg: FieldConfig, x: tuple, k: int) -> tuple:
    """x times the exact power p^k."""
    v, u, prec = x
    if v is None:
        return _f_zero(cfg, prec + k)
    return _f_make(cfg, v + k, u, prec + k)


def _f_ints(cfg: FieldConfig, ts) -> list | None:
    """The integer p^val * unit of each triple (0 for a zero) when every one
    is integral and known to N digits, where F's product rule keeps all N
    digits of every product and sum (module docstring); else None."""
    n, ppow, out = cfg.precision, cfg.ppow, []
    for v, u, k in ts:
        if k != n or v is not None and v < 0:
            return None
        out.append(0 if v is None else u * ppow(v) if v else u)
    return out


def _f_reduce(cfg: FieldConfig, v: int, s: int, k: int) -> tuple:
    """p^v * s known to k > v digits: s mod p^(k - v), stripped of p once."""
    ppow, p = cfg.ppow, cfg.p
    s %= ppow(k - v)
    if s % p:
        return (v, s, k)
    if s == 0:
        return _f_zero(cfg, k)
    w = _vp(s, p)
    return (v + w, s // ppow(w), k)


def _e_mul(cfg: FieldConfig, d: tuple, x: tuple, y: tuple,
           e: tuple | None = None) -> tuple:
    """(x0 + x1*w)(y0 + y1*w) with w^2 = d on coordinate pairs of F-triples,
    plus the addend e when given, as integers mod p^N when d, x, y and e
    are integral and known to N digits, else by _e_mul_tracked."""
    m = _f_ints(cfg, (*x, *y, d))
    es = (0, 0) if e is None else _f_ints(cfg, e)
    if m is None or es is None:
        return _e_mul_tracked(cfg, d, x, y, e)
    (x0, x1, y0, y1, d), (e0, e1) = m, es
    return (_f_reduce(cfg, 0, e0 + x0 * y0 + d * (x1 * y1), cfg.precision),
            _f_reduce(cfg, 0, e1 + x0 * y1 + x1 * y0, cfg.precision))


def _e_mul_tracked(cfg: FieldConfig, d: tuple, x: tuple, y: tuple,
                   e: tuple | None = None) -> tuple:
    """_e_mul by F's precision rules: x0*y0 + d*(x1*y1), x0*y1 + x1*y0, in
    this order, each then added to e's coordinate when e is given."""
    x0, x1 = x
    y0, y1 = y
    t = (_f_add(cfg, _f_lmul(cfg, x0, y0), _f_lmul(cfg, d, _f_lmul(cfg, x1, y1))),
         _f_add(cfg, _f_lmul(cfg, x0, y1), _f_lmul(cfg, x1, y0)))
    return t if e is None else (_f_add(cfg, e[0], t[0]), _f_add(cfg, e[1], t[1]))


def _e_norm(cfg: FieldConfig, d: tuple, x: tuple) -> tuple:
    """N(x0 + x1*w) = x0*x0 - (d*x1)*x1 with w^2 = d, in this order."""
    return _f_add(cfg, _f_lmul(cfg, x[0], x[0]),
                  _f_neg(cfg, _f_mul(cfg, _f_lmul(cfg, d, x[1]), x[1])))


def _f_sum(cfg: FieldConfig, terms: list) -> tuple:
    """The left fold of _f_add over two or more terms, exactly, with one
    reduction: every term aligned to the least valuation, added, reduced
    mod p^(k - v) for k the least precision, and stripped of p once.
    Terms may be zeros or lazy _f_lmul units."""
    k, v = cfg.precision, None
    for tv, _, tk in terms:
        if tk < k:
            k = tk
        if tv is not None and (v is None or tv < v):
            v = tv
    if v is None or v >= k:
        return _f_zero(cfg, k)
    ppow = cfg.ppow
    s = 0
    for tv, u, _ in terms:
        if tv is not None:
            s += u if tv == v else u * ppow(tv - v)
    return _f_reduce(cfg, v, s, k)


def _d_dot(cfg: FieldConfig, r: tuple, xs: list, ys: list,
           e: tuple | None = None) -> tuple:
    """e + sum_i xs[i] * ys[i] on D-coordinates (a0, a1, b0, b1), e = 0 if
    not given: D's one product kernel (x * y is the one-pair dot, an update
    e - c*f is e + (-c)*f).  Each pair is (A + B*pi_D)(C + G*pi_D)
    = (A*C + (B*tau(G))*pi_F) + (A*G + B*tau(C))*pi_D over L = F[u], u^2 = r.
    When r, e and every coordinate are integral and known to N digits, each
    output coordinate is one integer polynomial mod p^N (pi_F = p is too),
    started at e's integer; else _d_dot_tracked."""
    ms = [_f_ints(cfg, (*x, *y, r)) for x, y in zip(xs, ys)]
    es = (0, 0, 0, 0) if e is None else _f_ints(cfg, e)
    if None in ms or es is None:
        return _d_dot_tracked(cfg, r, xs, ys, e)
    (s0, s1, s2, s3), p, n = es, cfg.p, cfg.precision
    for a0, a1, b0, b1, c0, c1, g0, g1, r in ms:
        s0 += a0 * c0 + r * a1 * c1 + p * (b0 * g0 - r * b1 * g1)
        s1 += a0 * c1 + a1 * c0 + p * (b1 * g0 - b0 * g1)
        s2 += a0 * g0 + r * a1 * g1 + b0 * c0 - r * b1 * c1
        s3 += a0 * g1 + a1 * g0 + b1 * c0 - b0 * c1
    return (_f_reduce(cfg, 0, s0, n), _f_reduce(cfg, 0, s1, n),
            _f_reduce(cfg, 0, s2, n), _f_reduce(cfg, 0, s3, n))


def _d_dot_tracked(cfg: FieldConfig, r: tuple, xs: list, ys: list,
                   e: tuple | None = None) -> tuple:
    """_d_dot by F's precision rules: each pair's F-products in this fixed
    order, and each output coordinate one _f_sum, the exact fold of _f_add,
    led by e's coordinate if given.  B*tau(G) is summed before its pi_F
    scaling, whose precision depends on the sum's valuation."""
    lmul, pi = _f_lmul, cfg._pi._t
    s0, s1, s2, s3 = ([], [], [], []) if e is None else ([t] for t in e)
    for (a0, a1, b0, b1), (c0, c1, g0, g1) in zip(xs, ys):
        ng1, nc1 = _f_neg(cfg, g1), _f_neg(cfg, c1)
        s0 += (lmul(cfg, a0, c0), lmul(cfg, r, lmul(cfg, a1, c1)))
        s1 += (lmul(cfg, a0, c1), lmul(cfg, a1, c0))
        t0 = _f_add(cfg, lmul(cfg, b0, g0), lmul(cfg, r, lmul(cfg, b1, ng1)))
        t1 = _f_add(cfg, lmul(cfg, b0, ng1), lmul(cfg, b1, g0))
        s0.append(lmul(cfg, t0, pi))
        s1.append(lmul(cfg, t1, pi))
        s2 += (lmul(cfg, a0, g0), lmul(cfg, r, lmul(cfg, a1, g1)))
        s3 += (lmul(cfg, a0, g1), lmul(cfg, a1, g0))
        s2 += (lmul(cfg, b0, c0), lmul(cfg, r, lmul(cfg, b1, nc1)))
        s3 += (lmul(cfg, b0, nc1), lmul(cfg, b1, c0))
    return (_f_sum(cfg, s0), _f_sum(cfg, s1), _f_sum(cfg, s2), _f_sum(cfg, s3))


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod_p(a: int, p: int) -> int:
    """Square root modulo an odd prime (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise NotASquare(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


class _Powers(dict):
    """p**k by k, each computed on first use."""

    def __init__(self, p: int):
        self.p = p

    def __missing__(self, k: int) -> int:
        v = self[k] = self.p**k
        return v


@dataclass(frozen=True)
class FieldConfig:
    """Ambient data: the odd prime p and the absolute precision budget N.

    ``nonresidue_r`` is the smallest positive integer that is a quadratic
    non-residue mod p; L = F[u] with u^2 = nonresidue_r is the fixed
    unramified quadratic extension.
    """

    p: int
    precision: int = 32

    def __post_init__(self):
        if self.p >= _MR_BOUND:
            raise ValueError(f"p must be below {_MR_BOUND}, got {self.p}")
        if not _is_prime(self.p) or self.p < 3:
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.precision < 1:
            raise ValueError("precision must be positive")

    @cached_property
    def nonresidue_r(self) -> int:
        r = 2
        while legendre(r, self.p) != -1:
            r += 1
        return r

    @cached_property
    def ppow(self):
        """k -> p**k, each power computed once."""
        return _Powers(self.p).__getitem__

    # -- F constructors -------------------------------------------------
    def f(self, n: int | FElement) -> FElement:
        if isinstance(n, FElement):
            return n
        return FElement.from_int(self, n)

    def f_zero(self) -> FElement:
        return FElement._zeroish(self, self.precision)

    @cached_property
    def _pi(self) -> FElement:
        return self.f(self.p)

    def pi(self) -> FElement:
        """The fixed uniformizer of F (pi_F = p), built once per config."""
        return self._pi

    # -- L constructors --------------------------------------------------
    @cached_property
    def L_field(self) -> QuadExtField:
        return QuadExtField(self, self.f(self.nonresidue_r), "L")

    def l(self, a, b=0) -> QuadExtElement:
        return self.L_field.el(a, b)

    def u(self) -> QuadExtElement:
        return self.L_field.gen()

    @cached_property
    def alpha(self) -> QuadExtElement:
        return find_nonsquare_unit_L(self)


class Ring:
    """What every element type derives from its own ``+``, negation,
    ``*``, ``inv`` and ``_coerce`` (an operand in the same ring, or None):
    F's ``FElement`` and the ``QuadExt`` algebras L, E and D."""

    __slots__ = ()

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = self._coerce(1)
        for _ in range(n):
            out = out * self
        return out

    def same(self, other) -> bool:
        """Indistinguishable from ``other`` at the shared precision."""
        o = self._coerce(other)
        return (self - o).is_zero()


class FElement(Ring):
    """Element of F = Q_p known modulo p^prec.

    ``val is None`` encodes an element indistinguishable from 0 (all known
    digits vanish); otherwise x = p^val * unit with unit a p-unit stored
    modulo p^(prec - val).  Instances are immutable by convention; each
    division inverts the divisor's unit mod p^(prec - val) afresh.
    """

    __slots__ = ("cfg", "val", "unit", "prec")

    base = "F"

    def __init__(self, cfg: FieldConfig, val: int | None, unit: int, prec: int):
        self.cfg = cfg
        self.val = val
        self.unit = unit
        self.prec = prec

    def __eq__(self, other):
        if not isinstance(other, FElement):
            return NotImplemented
        return (self.cfg, self.val, self.unit, self.prec) == \
            (other.cfg, other.val, other.unit, other.prec)

    def __hash__(self):
        return hash((self.val, self.unit, self.prec))

    # -- construction ----------------------------------------------------
    @property
    def _t(self) -> tuple:
        return (self.val, self.unit, self.prec)

    @staticmethod
    def _zeroish(cfg: FieldConfig, prec: int) -> FElement:
        return FElement(cfg, *_f_zero(cfg, prec))

    @staticmethod
    def _make(cfg: FieldConfig, val: int, unit: int, prec: int) -> FElement:
        return FElement(cfg, *_f_make(cfg, val, unit, prec))

    @classmethod
    def from_int(cls, cfg: FieldConfig, n: int) -> FElement:
        return cls(cfg, *_f_reduce(cfg, 0, n, cfg.precision))

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return self.val is None

    def valuation(self) -> int:
        if self.val is None:
            raise IndistinguishableZero(
                f"element is 0 mod p^{self.prec}; valuation undefined")
        return self.val

    @property
    def rel_prec(self) -> int:
        return self.prec - (self.val or 0)

    def residue(self) -> int:
        """First digit of the unit part (requires a distinguishable unit part)."""
        if self.val is None:
            raise IndistinguishableZero("no residue for an indistinguishable zero")
        return self.unit % self.cfg.p

    def digits(self) -> list[int]:
        """Base-p digits of the unit part, little-endian."""
        if self.val is None:
            return []
        out, u, p = [], self.unit, self.cfg.p
        for _ in range(self.rel_prec):
            u, d = divmod(u, p)
            out.append(d)
        return out

    # -- arithmetic --------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, int):
            return FElement.from_int(self.cfg, other)
        if isinstance(other, FElement):
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FElement(self.cfg, *_f_add(self.cfg, self._t, o._t))

    __radd__ = __add__

    def __neg__(self):
        return FElement(self.cfg, *_f_neg(self.cfg, self._t))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FElement(self.cfg, *_f_mul(self.cfg, self._t, o._t))

    __rmul__ = __mul__
    scale_f = __mul__  # F is its own scalar ring (see QuadExt.scale_f)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        cfg = self.cfg
        if o.val is None:
            raise DivisionByIndistinguishableZero(f"divisor is 0 mod p^{o.prec}")
        inv = pow(o.unit, -1, cfg.ppow(o.rel_prec))
        return FElement(cfg, *_f_div(cfg, self._t, o._t, inv))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inv(self) -> FElement:
        return 1 / self

    def shift(self, k: int) -> FElement:
        """Multiply by the exact power p^k."""
        return FElement(self.cfg, *_f_shift(self.cfg, self._t, k))

    def unit_part(self) -> FElement:
        """x * p^(-val); costs val digits of absolute precision for val > 0."""
        return self.shift(-self.valuation())

    # -- squares -----------------------------------------------------------
    def is_square(self) -> bool:
        v = self.valuation()
        if self.rel_prec < 1:
            raise PrecisionExhausted("no residue digit available")
        if v % 2:
            return False
        return legendre(self.unit, self.cfg.p) == 1

    def sqrt(self) -> FElement:
        if not self.is_square():
            raise NotASquare("element is not a square in F")
        p, rel = self.cfg.p, self.rel_prec
        s = sqrt_mod_p(self.unit % p, p)
        k, m = 1, p
        while k < rel:
            k = min(2 * k, rel)
            m = p**k
            s = (s + self.unit % m * pow(s, -1, m)) * pow(2, -1, m) % m
        if s % p > p - s % p:
            s = m - s
        return FElement._make(self.cfg, self.val // 2, s, self.val // 2 + rel)

    # -- display -----------------------------------------------------------
    def __repr__(self):
        if self.val is None:
            return f"O(p^{self.prec})"
        return f"p^{self.val}*{self.unit} + O(p^{self.prec})"


@dataclass(frozen=True)
class QuadExtField:
    """Quadratic extension F[w] with w^2 = delta.

    delta must be normalized: either a unit whose residue is a non-residue
    (unramified case; L is the instance with delta = nonresidue_r) or of
    valuation 1 (ramified case).  This is the one place where delta is
    checked: any other delta raises NotQuadratic.
    """

    cfg: FieldConfig
    delta: FElement
    name: str = "E"

    def __post_init__(self):
        v = self.delta.valuation()
        if v not in (0, 1):
            raise NotQuadratic(f"delta must have valuation 0 or 1, not {v}")
        if v == 0 and legendre(self.delta.residue(), self.cfg.p) != -1:
            raise NotQuadratic("delta is a unit square: F(sqrt(delta)) is F, "
                               "not a quadratic extension")

    @cached_property
    def ramified(self) -> bool:
        return self.delta.valuation() == 1

    def same_field(self, other: QuadExtField) -> bool:
        """Whether other is this field: its delta agrees at the shared precision."""
        return other is self or other.delta.same(self.delta)

    def el(self, a, b=0) -> QuadExtElement:
        return QuadExtElement(self, self.cfg.f(a), self.cfg.f(b))

    def zero(self) -> QuadExtElement:
        return QuadExtElement(self, self.cfg.f_zero(), self.cfg.f_zero())

    def one(self) -> QuadExtElement:
        return self.el(1)

    def gen(self) -> QuadExtElement:
        return self.el(0, 1)

    def from_f(self, x: FElement) -> QuadExtElement:
        return QuadExtElement(self, x, self.cfg.f_zero())

    def of(self, c: tuple) -> QuadExtElement:
        """The element whose F-coordinates are the pair c of triples."""
        x = object.__new__(QuadExtElement)
        x.field, x.c = self, c
        return x

    def is_norm(self, x: FElement) -> bool:
        """Decide x in N_{E|F}(E^x)."""
        v = x.valuation()
        if not self.ramified:
            return v % 2 == 0
        if v % 2:
            return self.is_norm(x / (-self.delta))
        return legendre(x.unit_part().residue(), self.cfg.p) == 1


class QuadExt(Ring):
    """a + b*w over a commutative base K, with w^2 = delta in F and
    w*x = theta(x)*w.  L and E are K = F with theta = id; D is K = L with
    theta = tau and delta = pi_F, which makes it ramified over L.

    An element holds ``field`` (E for E, L for D) and the F-coordinates of
    a and then of b as one flat tuple ``c`` of (val, unit, prec) triples: two
    for L and E, four for D.  A subclass gives ``__mul__``, ``norm``,
    ``ramified`` and ``_coerce`` (an operand in the same algebra, or None).
    """

    __slots__ = ("field", "c")

    def _of(self, c: tuple):
        """The element of the same algebra with coordinates c."""
        x = object.__new__(type(self))
        x.field, x.c = self.field, c
        return x

    @property
    def cfg(self) -> FieldConfig:
        return self.field.cfg

    @property
    def prec(self) -> int:
        """Absolute precision: the minimum over the F-coordinates."""
        return min(t[2] for t in self.c)

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        for t in self.c:
            if t[0] is not None:
                return False
        return True

    def in_f(self) -> bool:
        """Every F-coordinate but the first is indistinguishable from 0."""
        return all(t[0] is None for t in self.c[1:])

    def valuation_bound(self) -> int:
        """The normalized valuation at which the known digits end: an
        element indistinguishable from 0 has at least this valuation."""
        r, s = (2, 1) if self.ramified else (1, 0)
        h = len(self.c) // 2
        return min(r * t[2] + (s if i >= h else 0) for i, t in enumerate(self.c))

    def valuation(self) -> int:
        """Normalized valuation (image Z): min(2 v(a), 2 v(b) + 1) when the
        extension is ramified (w has valuation 1), min(v(a), v(b)) when not.
        For D, v(a) and v(b) are valuations in L, each certified on its own."""
        r, s = (2, 1) if self.ramified else (1, 0)
        c = self.c
        h = len(c) // 2
        cands = []
        for part, off in ((c[:h], 0), (c[h:], s)):
            vals = [t[0] for t in part if t[0] is not None]
            if vals:
                v = min(vals)
                if v >= min(t[2] for t in part):
                    raise PrecisionExhausted(
                        "valuation not certified: zeroish coordinate dominates")
                cands.append(r * v + off)
        if not cands:
            raise IndistinguishableZero("element indistinguishable from 0")
        v = min(cands)
        if v >= self.valuation_bound():
            raise PrecisionExhausted(
                "valuation not certified: zeroish coordinate dominates")
        return v

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        cfg = self.cfg
        return self._of(tuple([_f_add(cfg, x, y) for x, y in zip(self.c, o.c)]))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        cfg = self.cfg
        return self._of(tuple([_f_add(cfg, x, _f_neg(cfg, y))
                               for x, y in zip(self.c, o.c)]))

    def __neg__(self):
        cfg = self.cfg
        return self._of(tuple([_f_neg(cfg, x) for x in self.c]))

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def conj(self):
        """a + b*w -> a - b*w on L and E, x -> trd(x) - x on D: the first
        F-coordinate kept, the others negated."""
        cfg, c = self.cfg, self.c
        return self._of((c[0], *[_f_neg(cfg, t) for t in c[1:]]))

    def trace(self) -> FElement:
        """Tr down to F (trd on D): twice the first F-coordinate."""
        cfg, a = self.cfg, self.c[0]
        return FElement(cfg, *_f_add(cfg, a, a))

    def inv(self):
        """conj(x) / N(x), with one modular inverse of the norm's unit."""
        n = self.norm()
        if n.val is None:
            raise DivisionByIndistinguishableZero("norm indistinguishable from 0")
        cfg, nt = self.cfg, n._t
        ninv = pow(n.unit, -1, cfg.ppow(n.rel_prec))
        return self._of(tuple([_f_div(cfg, t, nt, ninv) for t in self.conj().c]))

    def scale_f(self, x):
        """Multiply every F-coordinate by the F-scalar x."""
        cfg = self.cfg
        x = cfg.f(x)._t
        return self._of(tuple([_f_mul(cfg, t, x) for t in self.c]))

    def shift(self, k: int):
        """Multiply by the exact power p^k."""
        cfg = self.cfg
        return self._of(tuple([_f_shift(cfg, t, k) for t in self.c]))


class QuadExtElement(QuadExt):
    """a + b*w in a quadratic extension, with F-coordinates c = (a, b)."""

    __slots__ = ()

    def __init__(self, field: QuadExtField, a: FElement, b: FElement):
        self.field = field
        self.c = (a._t, b._t)

    @property
    def a(self) -> FElement:  # built on each read: hot paths read c
        return FElement(self.field.cfg, *self.c[0])

    @property
    def b(self) -> FElement:
        return FElement(self.field.cfg, *self.c[1])

    def __eq__(self, other):
        if not isinstance(other, QuadExtElement):
            return NotImplemented
        return (self.field, self.c) == (other.field, other.c)

    def __hash__(self):
        return hash(self.c)

    @property
    def base(self) -> str:
        return self.field.name

    @property
    def ramified(self) -> bool:
        return self.field.ramified

    # -- arithmetic -----------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, QuadExtElement):
            if self.field.same_field(other.field):
                return other
            return None
        if isinstance(other, (int, FElement)):
            return self.field.from_f(self.cfg.f(other))
        return None

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        return self._of(_e_mul(field.cfg, field.delta._t, self.c, o.c))

    # the automorphism a + bw -> a - bw (tau for E = L): the involution of
    # (E, sigma_E) that the form layer uses
    sigma = bar = QuadExt.conj

    def norm(self) -> FElement:
        return FElement(self.cfg, *_e_norm(self.cfg, self.field.delta._t, self.c))

    # -- unit/residue structure -------------------------------------------------
    def unit_part(self) -> QuadExtElement:
        """x * w^(-valuation); the result has valuation 0."""
        v = self.valuation()
        if not self.field.ramified:
            return self.shift(-v)
        x = self
        if v % 2:
            # divide by w once, then by delta^((v-1)/2)
            x = QuadExtElement(self.field, x.b, x.a / self.field.delta)
            v -= 1
        k = v // 2
        return x.scale_f(self.field.delta ** (-k)) if k else x

    def residue_pair(self) -> tuple[int, int]:
        """Residue coordinates of a valuation-0 element."""
        if self.valuation() != 0:
            raise ValueError("residue_pair needs a unit")
        p = self.cfg.p
        ra = 0 if self.a.is_zero() or self.a.val > 0 else self.a.residue()
        rb = 0 if self.b.is_zero() or self.b.val > 0 else self.b.residue()
        return (ra % p, rb % p)

    def residue_is_square(self) -> bool:
        """Square test for the residue of a unit, in kappa (F_{p^2} or F_p)."""
        p = self.cfg.p
        if self.field.ramified:
            ra, _ = self.residue_pair()
            return legendre(ra, p) == 1
        ra, rb = self.residue_pair()
        dres = self.field.delta.residue()
        n = (ra * ra - dres * rb * rb) % p
        return legendre(n, p) == 1

    def is_square(self) -> bool:
        v = self.valuation()
        if v % 2:
            return False
        return self.unit_part().residue_is_square()

    def sqrt(self) -> QuadExtElement:
        if not self.is_square():
            raise NotASquare("element is not a square in the extension")
        v = self.valuation()
        w = self.unit_part()
        y = self._sqrt_unit(w)
        # multiply back the uniformizer power: v is even; sqrt shifts by v/2
        k = v // 2
        if self.field.ramified:
            if k % 2:
                y = y * self.field.gen()
                k -= 1
            if k:
                y = y.scale_f(self.field.delta ** (k // 2))
        else:
            y = y.shift(k)
        return self._normalize_sqrt_sign(y)

    def _sqrt_unit(self, w: QuadExtElement) -> QuadExtElement:
        p = self.cfg.p
        ra, rb = w.residue_pair()
        if self.field.ramified:
            seed = self.field.el(sqrt_mod_p(ra, p), 0)
        else:
            dres = self.field.delta.residue()
            if rb == 0:
                if legendre(ra, p) == 1:
                    seed = self.field.el(sqrt_mod_p(ra, p), 0)
                else:
                    seed = self.field.el(0, sqrt_mod_p(ra * pow(dres, -1, p) % p, p))
            else:
                s = sqrt_mod_p((ra * ra - dres * rb * rb) % p, p)
                inv2d = pow(2 * dres, -1, p)
                y2 = None
                for sg in (s, p - s):
                    z = (ra + sg) * inv2d % p
                    if legendre(z, p) == 1:
                        y2 = z
                        break
                yv = sqrt_mod_p(y2, p)
                xv = rb * pow(2 * yv, -1, p) % p
                seed = self.field.el(xv, yv)
        y = seed
        half = self.cfg.f(1) / 2
        for _ in range(self.cfg.precision.bit_length() + 4):
            err = y * y - w
            if err.is_zero():
                break
            y = (y + w / y).scale_f(half)
        else:
            raise PrecisionExhausted("sqrt Newton iteration did not stabilize")
        return y

    def _normalize_sqrt_sign(self, y: QuadExtElement) -> QuadExtElement:
        p = self.cfg.p
        pair = y.unit_part().residue_pair()
        neg = ((-pair[0]) % p, (-pair[1]) % p)
        return -y if neg < pair else y

    def __repr__(self):
        return f"({self.a!r}) + ({self.b!r})*w[{self.base}]"


def field_arith(x, y, op: str):
    """Dispatch {add, sub, mul, div} on two elements of the same base."""
    if isinstance(x, QuadExtElement) != isinstance(y, QuadExtElement) and \
            not isinstance(y, int):
        raise WrongBase("operands live over different bases")
    table = {"add": lambda: x + y, "sub": lambda: x - y,
             "mul": lambda: x * y, "div": lambda: x / y}
    if op not in table:
        raise ValueError(f"unknown operation {op!r}")
    return table[op]()


def valuation(x) -> int:
    return x.valuation()


def tau_conj(x: QuadExtElement) -> QuadExtElement:
    """Galois conjugation on L = F[u]: a + bu -> a - bu."""
    if x.base != "L":
        raise WrongBase("tau_conj expects an L-element")
    return x.sigma()


def norm_trace_L(x: QuadExtElement) -> tuple[FElement, FElement]:
    if x.base != "L":
        raise WrongBase("norm_trace_L expects an L-element")
    return x.norm(), x.trace()


def find_nonsquare_unit_L(cfg: FieldConfig) -> QuadExtElement:
    """Deterministic canonical non-square unit alpha of L.

    When -1 is a square in F (p = 1 mod 4) the scan runs over the tau-skew
    family c*u (c = 1, 2, ...), every member of which is a non-square, so
    alpha = u; otherwise no skew non-square unit exists at all and the scan
    runs over 1+u, 2+u, ...
    """
    p = cfg.p
    if legendre(-1, p) == 1:
        for c in range(1, p):
            cand = cfg.l(0, c)
            if not cand.residue_is_square():
                return cand
    for k in range(1, p):
        cand = cfg.l(k, 1)
        if not cand.residue_is_square():
            return cand
    raise AssertionError("no non-square unit found; unreachable for odd p")


def solve_norm_equation(field: QuadExtField, w: FElement) -> QuadExtElement:
    """Find y in E with N_{E|F}(y) = w.  Requires w in N(E^x)."""
    if not field.is_norm(w):
        raise NotASquare("target is not a norm from the extension")
    cfg, p = field.cfg, field.cfg.p
    v = w.valuation()
    if field.ramified:
        if v % 2:
            y = solve_norm_equation(field, w / (-field.delta))
            return y * field.gen()
        # even valuation, square residue: w is a square of F
        return field.from_f(w.sqrt())
    # unramified: v is even; reduce to a unit target
    w0 = w.shift(-v)
    # scan residues for s^2 - delta t^2 = w0 with s != 0 mod p
    dres = field.delta.residue()
    w0res = w0.residue()
    for t in range(p):
        c = (w0res + dres * t * t) % p
        if c != 0 and legendre(c, p) == 1:
            # Newton-lift s from s^2 = w0 + delta t^2 with t fixed
            target = w0 + field.delta * cfg.f(t) * cfg.f(t)
            return QuadExtElement(field, target.sqrt(), cfg.f(t)).shift(v // 2)
    raise AssertionError("norm residue equation unsolvable; unreachable")
