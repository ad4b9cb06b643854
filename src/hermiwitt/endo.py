"""Token-level model of self-dual elementary endo-classes, Witt types,
endo-parameters with the lift/degree formulas, and enumeration/counting of
the intertwining classes sharing a given lift.

Tokens are opaque: a simple non-null class carries the numeric invariants
the machinery consumes (parities for the norm criterion, a tag deciding
comparability, the parity of its candidate anisotropic dimensions, and the
common trace class of its two odd towers).  The element-level bridge for
quadratic generators, which derives these tokens from element data, is
tests/test_acceptance.py::_build_element_level_instance; it is a
cross-check, not the token semantics.  The JSON form of tokens, parameters
and lifts lives in serialize.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd

from .errors import IncomparableTokens, InfeasibleLift, InvalidParameter
from .wittclass import WittClassD

DEG_D = 2  # reduced degree of D


def norm_containment(e_parity: int, f_parity: int) -> bool:
    """Norm-subgroup containment criterion: holds iff the ramification index
    and the inertia degree are both even."""
    return e_parity % 2 == 0 and f_parity % 2 == 0


@dataclass(frozen=True)
class EndoClassToken:
    """Opaque elementary self-dual endo-class.

    kind: 'simple_nonnull' | 'simple_null' | 'nonsimple_pair'.
    For simple non-null classes: e_parity/f_parity feed norm_containment,
    min_tag decides comparability of minimal subfields, aniso_parity is the
    forced parity of tower anisotropic dimensions, and wtd_odd is the common
    trace class (as coordinate names) of the two odd-dimension towers.
    """

    id: str
    kind: str
    degree: int
    e_parity: int = 0
    f_parity: int = 0
    min_tag: str = ""
    aniso_parity: int = 0
    wtd_odd: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.kind not in ("simple_nonnull", "simple_null", "nonsimple_pair"):
            raise InvalidParameter(f"unknown token kind {self.kind}")
        if self.kind == "simple_null" and self.degree != 1:
            raise InvalidParameter("a null class has degree 1")
        if self.kind == "simple_nonnull" and self.degree % 2:
            raise InvalidParameter(
                "a self-dual field extension != F has even degree")
        if self.degree < 1:
            raise InvalidParameter("degree must be positive")

    @property
    def div_factor(self) -> int:
        return DEG_D // gcd(self.degree, DEG_D)


HYP = "HYP"


@dataclass(frozen=True)
class WittType:
    """(rho, eps)-Witt type: the hyperbolic type 0, a tower token
    (diman, selector) over a non-null class, or an explicit Witt class for
    the null class."""

    beta: EndoClassToken | None   # None encodes beta = 0 (and the 0 type)
    tower: object                 # HYP | (diman, selector) | frozenset

    @staticmethod
    def hyperbolic() -> WittType:
        return WittType(None, HYP)

    @staticmethod
    def simple(token: EndoClassToken, diman: int, selector: int = 0) -> WittType:
        if token.kind != "simple_nonnull":
            raise InvalidParameter("tower tokens attach to simple non-null classes")
        if diman not in (1, 2):
            raise InvalidParameter("tower anisotropic dimension must be 1 or 2")
        if diman % 2 != token.aniso_parity % 2:
            raise InvalidParameter("tower parity contradicts the class invariant")
        if diman == 2:
            selector = 1  # the unique non-hyperbolic even tower
        elif selector not in (0, 1):
            raise InvalidParameter("selector must be a bit")
        return WittType(token, (diman, selector))

    @staticmethod
    def null(coords) -> WittType:
        coords = frozenset(coords)
        if not coords:
            return WittType.hyperbolic()
        return WittType(None, coords)

    @property
    def is_hyp(self) -> bool:
        return self.tower == HYP

    def diman(self) -> int:
        if self.is_hyp:
            return 0
        if isinstance(self.tower, tuple):
            return self.tower[0]
        return len(self.tower)  # structural rule; equals the derived table

    def wt_d(self, epsilon: int) -> WittClassD:
        """WT_D: the trace class of the type.  Hyperbolic maps to 0; both
        same-parity towers share the value, so even towers map to 0 and odd
        towers to the class declared on the token."""
        if self.is_hyp:
            return WittClassD.zero(epsilon)
        if isinstance(self.tower, frozenset):
            return WittClassD(epsilon, self.tower)
        diman, _ = self.tower
        if diman % 2 == 0:
            return WittClassD.zero(epsilon)
        return WittClassD(epsilon, self.beta.wtd_odd)


def witt_type_equiv(a: WittType, b: WittType, epsilon: int) -> bool:
    """Equivalence of pairs (beta, tower): both hyperbolic, or both non-null
    with equal trace classes and matching towers under the canonical
    parity-preserving correspondence, or both null with equal non-hyperbolic
    classes.  Raises IncomparableTokens when the comparability conditions
    for two non-null classes fail."""
    if a.is_hyp and b.is_hyp:
        return True
    if a.beta is not None and b.beta is not None:
        if a.beta.min_tag != b.beta.min_tag:
            raise IncomparableTokens("minimal subfields do not correspond")
        if (norm_containment(a.beta.e_parity, a.beta.f_parity)
                != norm_containment(b.beta.e_parity, b.beta.f_parity)):
            raise IncomparableTokens("norm containment condition differs")
        if a.wt_d(epsilon) != b.wt_d(epsilon):
            return False
        return a.tower == b.tower
    if a.beta is None and b.beta is None and not a.is_hyp and not b.is_hyp:
        return a.tower == b.tower
    return False


@dataclass(frozen=True)
class EndoParameter:
    """Finitely supported map c_- -> (f1, f2) with ambient data."""

    epsilon: int
    m: int                       # dim_D V
    h_class: WittClassD
    support: tuple               # tuple of (token, f1, WittType), id-sorted

    def __post_init__(self):
        ids = [t.id for t, _, _ in self.support]
        if len(set(ids)) != len(ids):
            raise InvalidParameter("duplicate token in support")
        if ids != sorted(ids):
            object.__setattr__(
                self, "support",
                tuple(sorted(self.support, key=lambda s: s[0].id)))


def _blocks(fm: EndoParameter):
    """(block id, token, f(c)) per simple block restriction c of c_-:
    f(c) = f1 on each half of a non-simple c_-, else
    2 f1 + diman(f2) * deg(D)/gcd."""
    for token, f1, f2 in fm.support:
        if token.kind == "nonsimple_pair":
            yield token.id + "#1", token, f1
            yield token.id + "#2", token, f1
        else:
            yield token.id, token, 2 * f1 + f2.diman() * token.div_factor


def lift(fm: EndoParameter) -> dict:
    """The GL-lift: block id -> f(c)."""
    return {bid: f for bid, _, f in _blocks(fm)}


def degree(fm: EndoParameter) -> int:
    """deg(f_-) = sum of f(c) deg(c) over the blocks."""
    return sum(f * token.degree for _, token, f in _blocks(fm))


def validate(fm: EndoParameter) -> tuple[bool, list[str]]:
    """Type-level invariants plus the two global constraints:
    deg(f_-) = 2m and sum of WT_D values = h_class."""
    diags: list[str] = []
    for token, f1, f2 in fm.support:
        if f1 < 0:
            diags.append(f"f1_negative:{token.id}")
        if token.kind == "nonsimple_pair":
            if not f2.is_hyp:
                diags.append(f"nonsimple_needs_zero_type:{token.id}")
            if f1 % token.div_factor:
                diags.append(f"divisibility:{token.id}")
        elif token.kind == "simple_null":
            if f2.beta is not None:
                diags.append(f"null_needs_zero_beta:{token.id}")
            if not f2.is_hyp and not isinstance(f2.tower, frozenset):
                diags.append(f"null_tower_must_be_class:{token.id}")
            if f1 % 2:
                diags.append(f"divisibility:{token.id}")
        else:
            if f2.is_hyp:
                if token.aniso_parity % 2:
                    diags.append(f"parity:{token.id}")
            elif f2.beta != token:
                diags.append(f"tower_not_for_class:{token.id}")
            elif f2.diman() % 2 != token.aniso_parity % 2:
                diags.append(f"parity:{token.id}")
    if degree(fm) != 2 * fm.m:
        diags.append("degree")
    total = WittClassD.zero(fm.epsilon)
    for _, _, f2 in fm.support:
        total = total + f2.wt_d(fm.epsilon)
    if total != fm.h_class:
        diags.append("witt_sum")
    return (not diags), diags


@dataclass(frozen=True)
class LiftEntry:
    token: EndoClassToken
    f: int  # GL-lift value on (one block of) the class


def enumerate_parameters(entries, epsilon: int, m: int,
                         h_class: WittClassD) -> list[EndoParameter]:
    """All valid endo-parameters with the given grouped lift and ambient
    Witt class.  The product runs over the (token, f1, f2) choices of the
    non-null classes: both same-parity towers of each simple non-null
    class, the hyperbolic type of each non-simple pair.  The null block,
    if any, has no choice: its type is the Witt class that the sum still
    lacks, and its f1 follows from f = 2 f1 + 2 diman, so an element
    whose f is odd or whose f1 is negative or odd has no null block and is
    skipped.  validate certifies each parameter that is kept."""
    nulls = [e for e in entries if e.token.kind == "simple_null"]
    if len(nulls) > 1:
        raise InvalidParameter("at most one null class can occur")
    choices: list[list[tuple]] = []
    for e in sorted(entries, key=lambda x: x.token.id):
        tok, f = e.token, e.f
        if f <= 0:
            raise InvalidParameter(f"lift value must be positive on support: {tok.id}")
        if tok.kind == "nonsimple_pair":
            if f % tok.div_factor:
                raise InfeasibleLift(f"divisibility fails on {tok.id}")
            choices.append([(tok, f, WittType.hyperbolic())])
        elif tok.kind == "simple_nonnull":
            if f % 2 != tok.aniso_parity % 2:
                raise InfeasibleLift(f"lift parity contradicts {tok.id}")
            if f % 2:
                choices.append([(tok, f // 2, WittType.simple(tok, 1, s))
                                for s in (0, 1)])
            else:
                choices.append([(tok, f // 2, WittType.hyperbolic()),
                                (tok, f // 2 - 1, WittType.simple(tok, 2))])
    out = []
    for support in itertools.product(*choices):
        used = WittClassD.zero(epsilon)
        for _, _, f2 in support:
            used = used + f2.wt_d(epsilon)
        if nulls:
            tok, f = nulls[0].token, nulls[0].f
            f2 = WittType.null((h_class + used).coords)
            f1 = f // 2 - f2.diman()
            if f % 2 or f1 < 0 or f1 % 2:
                continue
            support += ((tok, f1, f2),)
        elif used != h_class:
            continue
        fm = EndoParameter(epsilon, m, h_class, support)
        if validate(fm)[0]:
            out.append(fm)
    if not out:
        raise InfeasibleLift("no parity assignment matches the lift")
    out.sort(key=_param_sort_key)
    return out


def _param_sort_key(fm: EndoParameter):
    key = []
    for token, f1, f2 in fm.support:
        if f2.is_hyp:
            tow = (0, 0)
        elif isinstance(f2.tower, tuple):
            tow = (1, f2.tower[0], f2.tower[1])
        else:
            tow = (2, tuple(sorted(f2.tower)))
        key.append((token.id, f1, tow))
    return key


def count_parameters(entries, epsilon: int, m: int, h_class: WittClassD) -> int:
    return len(enumerate_parameters(entries, epsilon, m, h_class))


def closed_form_count(entries) -> int:
    """2^(#I_0) without a null block, 2^(#I_0 - 1) with one."""
    i0 = sum(1 for e in entries if e.token.kind in ("simple_nonnull", "simple_null"))
    has_null = any(e.token.kind == "simple_null" for e in entries)
    return 2 ** (i0 - (1 if has_null else 0))
