"""Arithmetic in the non-split quaternion algebra D = L + L*pi_D.

The defining relations are pi_D^2 = pi_F (= p) and pi_D * x = tau(x) * pi_D
for x in L.  The orthogonal anti-involution rho fixes L pointwise and fixes
pi_D; its symmetric space is L + F*pi_D (dimension 3) and its skew space is
the line F*u*pi_D.
"""

from __future__ import annotations

from .errors import IndistinguishableZero, PrecisionExhausted
from .padic import FElement, FieldConfig, QuadExtElement, tau_conj


class QuaternionElement:
    """a + b*pi_D with a, b in L."""

    __slots__ = ("a", "b")

    def __init__(self, a: QuadExtElement, b: QuadExtElement):
        self.a = a
        self.b = b

    @property
    def cfg(self) -> FieldConfig:
        return self.a.cfg

    # -- constructors -------------------------------------------------------
    @staticmethod
    def make(cfg: FieldConfig, a=0, b=0) -> QuaternionElement:
        conv = lambda x: x if isinstance(x, QuadExtElement) else cfg.l(x)
        return QuaternionElement(conv(a), conv(b))

    @staticmethod
    def zero(cfg: FieldConfig) -> QuaternionElement:
        return QuaternionElement.make(cfg)

    @staticmethod
    def one(cfg: FieldConfig) -> QuaternionElement:
        return QuaternionElement.make(cfg, 1)

    @staticmethod
    def pi_D(cfg: FieldConfig) -> QuaternionElement:
        return QuaternionElement.make(cfg, 0, 1)

    @staticmethod
    def u_elem(cfg: FieldConfig) -> QuaternionElement:
        return QuaternionElement.make(cfg, cfg.u())

    # -- basic structure ------------------------------------------------------
    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def _coerce(self, other):
        if isinstance(other, QuaternionElement):
            return other
        if isinstance(other, (int, FElement, QuadExtElement)):
            return QuaternionElement.make(self.cfg, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuaternionElement(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuaternionElement(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        pi_f = self.cfg.pi()
        a = self.a * o.a + (self.b * tau_conj(o.b)).scale_f(pi_f)
        b = self.a * o.b + self.b * tau_conj(o.a)
        return QuaternionElement(a, b)

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = QuaternionElement.one(self.cfg)
        for _ in range(n):
            out = out * self
        return out

    def conj(self) -> QuaternionElement:
        """Canonical (main) involution: x -> trd(x) - x."""
        return QuaternionElement(tau_conj(self.a), -self.b)

    def rho(self) -> QuaternionElement:
        """The orthogonal anti-involution: a + b*pi_D -> a + tau(b)*pi_D."""
        return QuaternionElement(self.a, tau_conj(self.b))

    bar = rho  # the involution of (D, rho) that the form layer uses

    def trd(self) -> FElement:
        return self.a.trace()

    def nrd(self) -> FElement:
        return self.a.norm() - self.cfg.pi() * self.b.norm()

    def inv(self) -> QuaternionElement:
        n = self.nrd()
        c = self.conj()
        return QuaternionElement(
            QuadExtElement(c.a.field, c.a.a / n, c.a.b / n),
            QuadExtElement(c.b.field, c.b.a / n, c.b.b / n))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def scale_f(self, x) -> QuaternionElement:
        x = self.cfg.f(x)
        return QuaternionElement(self.a.scale_f(x), self.b.scale_f(x))

    def same(self, other) -> bool:
        o = self._coerce(other)
        return (self - o).is_zero()

    # -- valuation -----------------------------------------------------------
    def nu_D(self) -> int:
        """min(2 nu_L(a), 2 nu_L(b) + 1); pi_D has nu_D = 1."""
        cands, bound = [], None
        if self.a.is_zero():
            bound = 2 * min(self.a.a.prec, self.a.b.prec)
        else:
            cands.append(2 * self.a.valuation())
        if self.b.is_zero():
            kb = 2 * min(self.b.a.prec, self.b.b.prec) + 1
            bound = kb if bound is None else min(bound, kb)
        else:
            cands.append(2 * self.b.valuation() + 1)
        if not cands:
            raise IndistinguishableZero("quaternion indistinguishable from 0")
        v = min(cands)
        if bound is not None and v >= bound:
            raise PrecisionExhausted("nu_D not certified at tracked precision")
        return v

    valuation = nu_D  # so the elimination kernel treats D like F, L and E

    def symmetry_type(self) -> str:
        """'symmetric' iff rho(x) = x, 'skew' iff rho(x) = -x, else 'neither'."""
        if (self.rho() - self).is_zero():
            return "symmetric"
        if (self.rho() + self).is_zero():
            return "skew"
        return "neither"

    def scale_piD(self, k: int) -> QuaternionElement:
        """pi_D^(-k) * x * pi_D^(-k) for k >= 0: an exact nu_D-shift by -2k."""
        a, b = self.a, self.b
        if k % 2:
            a, b = tau_conj(a), tau_conj(b)
        shift = lambda e: QuadExtElement(e.field, e.a.shift(-k), e.b.shift(-k))
        return QuaternionElement(shift(a), shift(b))

    def __repr__(self):
        return f"[{self.a!r}] + [{self.b!r}]*piD"


def quat_mul(x: QuaternionElement, y: QuaternionElement) -> QuaternionElement:
    return x * y


def trd_nrd(x: QuaternionElement):
    return x.trd(), x.nrd()


def congruent_mod_nuD(d: QuaternionElement, d2: QuaternionElement) -> bool:
    """d = d' mod nu_D, i.e. nu_D(d - d') > nu_D(d) (equivalently
    d*d'^(-1) in 1 + p_D)."""
    v = d.nu_D()
    diff = d - d2
    if diff.is_zero():
        ka = 2 * min(diff.a.a.prec, diff.a.b.prec)
        kb = 2 * min(diff.b.a.prec, diff.b.b.prec) + 1
        if min(ka, kb) <= v:
            raise PrecisionExhausted("congruence window exceeds precision")
        return True
    return diff.nu_D() > v
