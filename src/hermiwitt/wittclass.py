"""The Witt group of (D, rho, eps).

For eps = +1 the group is an elementary 2-group of order 8 with generator
classes <1>, <alpha>, <pi_D> (coordinates "g1", "galpha", "gpi"); for
eps = -1 it is cyclic of order two with the nontrivial class <u pi_D>
(coordinate "gskew").  Composite anisotropic dimensions are derived at
startup from the isotropy oracle, never assumed.  The Witt decomposition of
a form cancels its diagonal lines by class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    EpsilonMismatch,
    IndistinguishableZero,
    OracleInconclusive,
    PrecisionExhausted,
    WrongSymmetryType,
)
from .hermitian import DiagonalForm, HermitianForm, diagonalize
from .padic import FieldConfig, solve_norm_equation
from .quaternion import QuaternionElement

G1, GALPHA, GPI, GSKEW = "g1", "galpha", "gpi", "gskew"
_PLUS_GENS = (G1, GALPHA, GPI)


@dataclass(frozen=True)
class WittClassD:
    """Element of W_{eps,rho}(D) in generator coordinates (XOR group law)."""

    epsilon: int
    coords: frozenset

    def __post_init__(self):
        gens = set(_PLUS_GENS) if self.epsilon == 1 else {GSKEW}
        if not set(self.coords) <= gens:
            # sorted by repr: set order follows string hashing, and the
            # names need not all be strings
            names = ", ".join(sorted(map(repr, self.coords)))
            raise ValueError(f"bad coordinates {{{names}}} for eps={self.epsilon}")

    @staticmethod
    def zero(epsilon: int) -> WittClassD:
        return WittClassD(epsilon, frozenset())

    @staticmethod
    def of(epsilon: int, *names: str) -> WittClassD:
        return WittClassD(epsilon, frozenset(names))

    def is_hyperbolic(self) -> bool:
        return not self.coords

    def __add__(self, other: WittClassD) -> WittClassD:
        if not isinstance(other, WittClassD):
            return NotImplemented
        if other.epsilon != self.epsilon:
            raise EpsilonMismatch("cannot add Witt classes of different epsilon")
        return WittClassD(self.epsilon, self.coords ^ other.coords)

    def sorted_names(self) -> list[str]:
        order = {G1: 0, GALPHA: 1, GPI: 2, GSKEW: 0}
        return sorted(self.coords, key=lambda n: order[n])

    def __repr__(self):
        return "W{" + ",".join(self.sorted_names()) + f"|{self.epsilon:+d}}}"


def witt_add(c1: WittClassD, c2: WittClassD) -> WittClassD:
    return c1 + c2


def classify_line(d: QuaternionElement, epsilon: int) -> WittClassD:
    """Witt class of the rank-1 form <d>.

    eps = -1: every nonzero skew line is the one nontrivial class.
    eps = +1: scale by pi_F^(-floor(nu_D/2)); if nu_D = 1 remains the class
    is <pi_D>, otherwise it is decided by whether the residue of the L-unit
    part is a square in kappa_L.
    """
    if d.is_zero():
        raise IndistinguishableZero("cannot classify an indistinguishable zero")
    sym = d.symmetry_type()
    if epsilon == 1 and sym != "symmetric":
        raise WrongSymmetryType(f"eps=+1 needs a symmetric element, got {sym}")
    if epsilon == -1 and sym != "skew":
        raise WrongSymmetryType(f"eps=-1 needs a skew element, got {sym}")
    if epsilon == -1:
        return WittClassD.of(-1, GSKEW)
    v = d.nu_D()
    d = d.scale_f(d.cfg.f(d.cfg.p) ** (-(v // 2)))
    if d.nu_D() == 1:
        return WittClassD.of(1, GPI)
    a = d.a  # L-unit part; d = a (1 + small) mod nu_D
    if a.is_zero() or a.valuation() != 0:
        raise PrecisionExhausted("unit part not resolved at tracked precision")
    if a.residue_is_square():
        return WittClassD.of(1, G1)
    return WittClassD.of(1, GALPHA)


def class_of_form(form) -> WittClassD:
    """Diagonalize and XOR the line classes (hyperbolic pairs contribute 0)."""
    return class_of_diagonal(diagonalize(form))


def class_of_diagonal(diag) -> WittClassD:
    c = WittClassD.zero(diag.epsilon)
    for d in diag.entries:
        c = c + classify_line(d, diag.epsilon)
    return c


def is_isotropic(diag) -> bool:
    """Isotropy oracle for diagonal forms of rank <= 3.

    Rank 2 reduces to equality of line classes (scaling by -1 in F^x leaves
    classes fixed).  Rank 3 either contains an isotropic pair or has the
    three distinct generator classes; in the latter case isotropy would force
    a leading-residue norm equation s1 x^2 + s2 y^2 = 0 over kappa_L whose
    solvability is tested on residues.
    """
    if diag.hyperbolic_pairs:
        return True
    n = len(diag.entries)
    if n > 3:
        raise ValueError("isotropy oracle restricted to rank <= 3")
    if n <= 1:
        return False
    classes = [classify_line(d, diag.epsilon) for d in diag.entries]
    for i in range(n):
        for j in range(i + 1, n):
            if classes[i] == classes[j]:
                return True
    if n == 2:
        return False
    # three pairwise distinct classes: exactly {g1, galpha, gpi}.  A zero of
    # the form needs the two even-valuation entries to cancel to odd depth;
    # test the residue equation on kappa_L.
    evens = [d for d in diag.entries if d.nu_D() % 2 == 0]
    if len(evens) != 2:
        raise OracleInconclusive("unexpected valuation pattern in rank 3")
    units = []
    for d in evens:
        dd = d.scale_f(d.cfg.f(d.cfg.p) ** (-(d.nu_D() // 2)))
        if dd.a.is_zero() or dd.a.valuation() != 0:
            raise OracleInconclusive("residues not available at tracked precision")
        units.append(dd.a)
    # solvable iff -s1/s2 is a square in kappa_L
    ratio = -units[0] / units[1]
    return ratio.residue_is_square()


def witt_decompose(form: HermitianForm):
    """Witt decomposition: (witt_index, anisotropic DiagonalForm), the
    anisotropic part certified by the isotropy oracle."""
    diag = diagonalize(form)
    index = diag.hyperbolic_pairs
    # each line cancels against the earlier unpaired line of its class
    unpaired = []
    for d in diag.entries:
        c = classify_line(d, form.epsilon)
        mate = next((k for k, (ck, _) in enumerate(unpaired) if ck == c), None)
        if mate is None:
            unpaired.append((c, d))
        else:
            del unpaired[mate]
            index += 1
    rest = DiagonalForm(form.epsilon, tuple(d for _, d in unpaired), 0)
    if rest.entries and is_isotropic(rest):
        raise AssertionError("greedy cancellation left an isotropic part")
    return index, rest


_DIM_CACHE: dict = {}


def _representative(cfg: FieldConfig, epsilon: int, name: str) -> QuaternionElement:
    if epsilon == -1:
        return QuaternionElement.u_elem(cfg) * QuaternionElement.pi_D(cfg)
    if name == G1:
        return QuaternionElement.one(cfg)
    if name == GALPHA:
        return QuaternionElement.make(cfg, cfg.alpha)
    return QuaternionElement.pi_D(cfg)


def representative_form(cfg: FieldConfig, c: WittClassD):
    """An anisotropic diagonal representative of the class."""
    entries = tuple(_representative(cfg, c.epsilon, name) for name in c.sorted_names())
    return DiagonalForm(c.epsilon, entries, 0)


def _dim_table(cfg: FieldConfig, epsilon: int) -> dict:
    """Anisotropic dimensions of all classes, derived via the isotropy
    oracle on canonical representatives (computed once per config)."""
    key = (cfg.p, cfg.precision, epsilon)
    if key in _DIM_CACHE:
        return _DIM_CACHE[key]
    table = {frozenset(): 0}
    if epsilon == -1:
        table[frozenset({GSKEW})] = 1
    else:
        for k in (1, 2, 3):
            for names in combinations(_PLUS_GENS, k):
                c = WittClassD.of(1, *names)
                rep = representative_form(cfg, c)
                if is_isotropic(rep):
                    raise AssertionError(
                        "canonical representative unexpectedly isotropic")
                table[c.coords] = k
    _DIM_CACHE[key] = table
    return table


def anisotropic_dim(cfg: FieldConfig, c: WittClassD) -> int:
    return _dim_table(cfg, c.epsilon)[c.coords]


# ---------------------------------------------------------------------------
# construct-and-check equivalence oracle
# ---------------------------------------------------------------------------

def _reduce_symmetric(d: QuaternionElement):
    """Explicit y with rho(y) d y = rep, rep in {1, alpha, pi_D}.

    Steps: an exact pi_D-power scaling, a Newton absorption of the tail into
    the leading part, and a final unit normalization by a square root or a
    norm equation."""
    cfg = d.cfg
    y = QuaternionElement.one(cfg)
    v = d.nu_D()
    k = v // 2
    if k:
        s = QuaternionElement.pi_D(cfg) ** (-k)
        y = y * s
        d = d.scale_piD(k)
    if d.nu_D() == 0:
        t = QuaternionElement.make(cfg, d.a)
    else:
        t = QuaternionElement.make(cfg, 0, d.b)
    # Newton absorption: iterate y <- y (1 + z), z = -t^(-1) delta / 2
    e = d
    tinv = t.inv()
    half = cfg.f(1) / 2
    for _ in range(cfg.precision + 4):
        delta = e - t
        if delta.is_zero():
            break
        z = -(tinv * delta).scale_f(half)
        one_z = QuaternionElement.one(cfg) + z
        y = y * one_z
        e = one_z.rho() * e * one_z
    else:
        raise PrecisionExhausted("reduction iteration did not stabilize")
    if t.b.is_zero():  # unit case: t = a in L^x
        a = t.a
        if a.residue_is_square():
            w = (a.inv()).sqrt()
            rep = G1
        else:
            w = (cfg.alpha / a).sqrt()
            rep = GALPHA
        y = y * QuaternionElement.make(cfg, w)
    else:  # t = b pi_D with b in F^x a unit
        b = t.b.a
        w = solve_norm_equation(cfg.L_field, b.inv())
        y = y * QuaternionElement.make(cfg, w)
        rep = GPI
    return rep, y


def _reduce_skew(d: QuaternionElement):
    """Explicit y with rho(y) d y = u pi_D."""
    cfg = d.cfg
    y = QuaternionElement.one(cfg)
    v = d.nu_D()
    k = v // 2
    if k:
        y = y * QuaternionElement.pi_D(cfg) ** (-k)
        d = d.scale_piD(k)
    c = d.b.b  # d = (c u) pi_D up to indistinguishable parts
    w = solve_norm_equation(cfg.L_field, c.inv())
    y = y * QuaternionElement.make(cfg, w)
    return GSKEW, y


def equivalence_oracle(d: QuaternionElement, d2: QuaternionElement) -> bool:
    """Decide existence of y in D^x with rho(y) d y = d2, by explicit
    reduction of both sides to a canonical representative; a positive answer
    is certified by checking the composite witness.  Independent of
    classify_line's code path."""
    s1, s2 = d.symmetry_type(), d2.symmetry_type()
    if "neither" in (s1, s2) or s1 != s2:
        raise WrongSymmetryType("oracle needs two symmetric or two skew elements")
    if s1 == "symmetric":
        if d.nu_D() % 2 != d2.nu_D() % 2:
            # certified by the reduced norm: nu_F(nrd) has fixed parity on
            # each rho-congruence class
            return False
        r1, y1 = _reduce_symmetric(d)
        r2, y2 = _reduce_symmetric(d2)
    else:
        r1, y1 = _reduce_skew(d)
        r2, y2 = _reduce_skew(d2)
    if r1 != r2:
        return False
    y = y1 * y2.inv()
    witness = y.rho() * d * y
    if not (witness - d2).is_zero():
        raise OracleInconclusive("witness verification failed at tracked precision")
    return True
