"""Arithmetic in the non-split quaternion algebra D = L + L*pi_D.

The defining relations are pi_D^2 = pi_F (= p) and pi_D * x = tau(x) * pi_D
for x in L, so D is the quadratic extension ``padic.QuadExt`` of K = L with
w = pi_D, w^2 = pi_F and theta = tau, ramified over L.  An element holds L
as its ``field`` and the F-coordinates (a0, a1, b0, b1) of a = a0 + a1*u and
b = b0 + b1*u.  Its ring layer, nu_D, ``conj``, ``trd`` and the inverse
conj(x) / Nrd(x) are the shared ones; this module adds the twisted product
(the one-pair ``padic._d_dot``), Nrd and the orthogonal anti-involution rho,
which fixes L and pi_D: symmetric space L + F*pi_D, skew space F*u*pi_D.
"""

from __future__ import annotations

from .errors import PrecisionExhausted
from .padic import (FElement, FieldConfig, QuadExt, QuadExtElement, _d_dot,
                    _e_norm, _f_add, _f_mul, _f_neg, tau_conj)


class QuaternionElement(QuadExt):
    """a + b*pi_D with a, b in L, as the coordinates c = (a0, a1, b0, b1)."""

    __slots__ = ()

    ramified = True

    def __init__(self, a: QuadExtElement, b: QuadExtElement):
        self.field = a.field  # L
        self.c = a.c + b.c

    @property
    def a(self) -> QuadExtElement:  # built on each read: hot paths read c
        return self.field.of(self.c[:2])

    @property
    def b(self) -> QuadExtElement:
        return self.field.of(self.c[2:])

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

    # -- arithmetic -----------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, QuaternionElement):
            return other
        # the product reads coordinates with L's structure constants
        if isinstance(other, (int, FElement)) or (
                isinstance(other, QuadExtElement)
                and self.field.same_field(other.field)):
            return QuaternionElement.make(self.cfg, other)
        return None

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        L = self.field
        return self._of(_d_dot(L.cfg, L.delta._t, (self.c,), (o.c,)))

    def rho(self) -> QuaternionElement:
        """The orthogonal anti-involution: a + b*pi_D -> a + tau(b)*pi_D."""
        a0, a1, b0, b1 = self.c
        return self._of((a0, a1, b0, _f_neg(self.cfg, b1)))

    bar = rho  # the involution of (D, rho) that the form layer uses

    trd = QuadExt.trace

    def nrd(self) -> FElement:  # N(a) - pi_F * N(b), in this order
        cfg, c, r = self.cfg, self.c, self.field.delta._t
        return FElement(cfg, *_f_add(cfg, _e_norm(cfg, r, c[:2]), _f_neg(
            cfg, _f_mul(cfg, cfg._pi._t, _e_norm(cfg, r, c[2:])))))

    norm = nrd

    # conj(x) / Nrd(x) and nu_D = min(2 nu_L(a), 2 nu_L(b) + 1), named in this
    # class body, where the layer tracer reads them; pi_D has nu_D = 1
    inv = QuadExt.inv
    nu_D = valuation = QuadExt.valuation

    def symmetry_type(self) -> str:
        """'symmetric' iff rho(x) = x, 'skew' iff rho(x) = -x, else 'neither'."""
        if (self.rho() - self).is_zero():
            return "symmetric"
        if (self.rho() + self).is_zero():
            return "skew"
        return "neither"

    def scale_piD(self, k: int) -> QuaternionElement:
        """pi_D^(-k) * x * pi_D^(-k) for k >= 0: an exact nu_D-shift by -2k."""
        x = QuaternionElement(tau_conj(self.a), tau_conj(self.b)) if k % 2 else self
        return x.shift(-k)

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
        if diff.valuation_bound() <= v:
            raise PrecisionExhausted("congruence window exceeds precision")
        return True
    return diff.nu_D() > v
