import random

import pytest

from hermiwitt.errors import IndistinguishableZero, PrecisionExhausted
from hermiwitt.padic import FElement, QuadExtElement, QuadExtField
from hermiwitt.quaternion import QuaternionElement as Q, congruent_mod_nuD, quat_mul
from hermiwitt import randgen as rg


def test_quat_mul_examples(cfg5):
    pi = Q.pi_D(cfg5)
    u = Q.u_elem(cfg5)
    # square of pi_D is the uniformizer of F
    assert (quat_mul(pi, pi) - cfg5.p).is_zero()
    assert quat_mul(u, pi).same(Q.make(cfg5, 0, cfg5.u()))
    assert quat_mul(pi, u).same(-quat_mul(u, pi))


def test_rho_examples(cfg5):
    pi, u = Q.pi_D(cfg5), Q.u_elem(cfg5)
    assert pi.rho().same(pi)
    assert u.rho().same(u)
    assert (u * pi).rho().same(-(u * pi))


def test_trd_nrd_examples(cfg5):
    one, pi, u = Q.one(cfg5), Q.pi_D(cfg5), Q.u_elem(cfg5)
    assert one.trd().same(2) and one.nrd().same(1)
    assert pi.trd().is_zero() and pi.nrd().same(-cfg5.p)
    assert u.trd().is_zero() and u.nrd().same(-cfg5.nonresidue_r)


def test_nu_D_examples(cfg5):
    pi, u = Q.pi_D(cfg5), Q.u_elem(cfg5)
    assert pi.nu_D() == 1
    assert (pi * pi).nu_D() == 2
    assert (u + pi).nu_D() == 0
    with pytest.raises(IndistinguishableZero):
        Q.zero(cfg5).nu_D()


def test_symmetry_type_examples(cfg5):
    assert (Q.one(cfg5) + Q.make(cfg5, 0, 3)).symmetry_type() == "symmetric"
    assert (Q.u_elem(cfg5) * Q.pi_D(cfg5)).symmetry_type() == "skew"
    u = Q.u_elem(cfg5)
    assert (u + u * Q.pi_D(cfg5)).symmetry_type() == "neither"


def test_congruence_examples(cfg5):
    one, pi = Q.one(cfg5), Q.pi_D(cfg5)
    assert congruent_mod_nuD(one, one + pi)
    assert congruent_mod_nuD(one, one + pi.scale_f(cfg5.pi()))
    assert not congruent_mod_nuD(pi, pi * pi)


def test_congruence_of_an_element_with_itself(cfg5):
    """congruent_mod_nuD(d, d) is True wherever nu_D(d) answers, at full
    precision and on coordinates known to fewer digits: d - d is 0 known to
    d's own digits, and nu_D certifies a valuation only below them.  The
    window check refuses a d2 whose digits end at or below nu_D(d):
    pi_F^3 (nu_D = 6) against 0 known to 3 digits of F (nu_D >= 6)."""
    r = random.Random(29)
    for d in (Q.one(cfg5), Q.pi_D(cfg5), Q.u_elem(cfg5) * Q.pi_D(cfg5),
              Q.one(cfg5).scale_f(cfg5.f(5 ** 5))):
        assert congruent_mod_nuD(d, d)
    checked = 0
    for _ in range(200):
        d = Q(*[cfg5.l(*[FElement._make(cfg5, r.randint(-1, 3), r.randint(1, 4),
                                        r.randint(4, 32)) if r.random() < 0.7
                         else FElement._zeroish(cfg5, r.randint(1, 32))
                         for _ in range(2)]) for _ in range(2)])
        try:
            d.nu_D()
        except (IndistinguishableZero, PrecisionExhausted):
            continue
        assert congruent_mod_nuD(d, d)
        checked += 1
    assert checked >= 100
    zero3 = cfg5.l(FElement._zeroish(cfg5, 3), FElement._zeroish(cfg5, 3))
    with pytest.raises(PrecisionExhausted, match="^congruence window exceeds precision$"):
        congruent_mod_nuD(Q.one(cfg5).scale_f(cfg5.f(5 ** 3)), Q(zero3, zero3))


def test_rho_antimultiplicative_seeded(cfg5):
    r = rg.rng(13)
    for _ in range(300):
        x, y = rg.rand_quat(cfg5, r), rg.rand_quat(cfg5, r)
        assert ((x * y).rho() - y.rho() * x.rho()).is_zero()
        assert x.rho().rho().same(x)


def test_nrd_trd_properties_seeded(cfg5):
    r = rg.rng(17)
    for _ in range(300):
        x, y = rg.rand_quat(cfg5, r), rg.rand_quat(cfg5, r)
        assert ((x * y).nrd() - x.nrd() * y.nrd()).is_zero()
        assert (x.trd() - x.rho().trd()).is_zero()
        assert (x.nrd() - x.rho().nrd()).is_zero()
        assert x.nu_D() == x.nrd().valuation()


def test_symmetric_skew_decomposition(cfg5):
    r = rg.rng(19)
    half = cfg5.f(1) / 2
    for _ in range(100):
        x = rg.rand_quat(cfg5, r)
        s = (x + x.rho()).scale_f(half)
        k = (x - x.rho()).scale_f(half)
        assert (s + k - x).is_zero()
        assert s.is_zero() or s.symmetry_type() == "symmetric"
        assert k.is_zero() or k.symmetry_type() == "skew"
    for b in (Q.one(cfg5), Q.u_elem(cfg5), Q.pi_D(cfg5)):
        assert b.symmetry_type() == "symmetric"
    assert (Q.u_elem(cfg5) * Q.pi_D(cfg5)).symmetry_type() == "skew"


def test_inverse_and_division(cfg5):
    r = rg.rng(23)
    one = Q.one(cfg5)
    for _ in range(50):
        x = rg.rand_quat(cfg5, r)
        assert (x * x.inv() - one).is_zero()
        assert (x.inv() * x - one).is_zero()


def test_json_roundtrip(cfg5):
    from hermiwitt import serialize as sz

    r = rg.rng(29)
    for _ in range(20):
        q = rg.rand_quat(cfg5, r)
        back = sz.quat_from_json(cfg5, sz.quat_to_json(q))
        assert back.same(q)


def test_trd_nrd_wrapper(cfg5):
    from hermiwitt.quaternion import trd_nrd

    t, n = trd_nrd(Q.pi_D(cfg5))
    assert t.is_zero() and n.same(-cfg5.p)


def test_arithmetic_builds_no_coordinate_objects(cfg5, monkeypatch):
    """D *, +, -, unary -, rho and conj, and E *, +, - and sigma run on the
    flat coordinate tuples: none builds an FElement, and none builds a
    QuadExtElement other than an E result."""
    r = rg.rng(31)
    x, y = rg.rand_quat(cfg5, r), rg.rand_quat(cfg5, r)
    fields = (cfg5.L_field, QuadExtField(cfg5, cfg5.pi(), "E"))
    es = [(f.el(3, 4), f.el(2, 7)) for f in fields]
    built = {FElement: 0, QuadExtElement: 0}

    def counting(cls, name):
        method = getattr(cls, name)

        def wrapper(self, *args):
            built[cls] += 1
            return method(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    counting(FElement, "__init__")
    counting(QuadExtElement, "__init__")
    counting(QuadExtElement, "_of")
    d_ops = [lambda: x * y, lambda: x + y, lambda: x - y, lambda: -x,
             lambda: x.rho(), lambda: x.conj()]
    e_ops = [op for a, b in es for op in (
        lambda a=a, b=b: a * b, lambda a=a, b=b: a + b,
        lambda a=a, b=b: a - b, lambda a=a: a.sigma())]
    for ops, results in ((d_ops, 0), (e_ops, 1)):
        for op in ops:
            built.update({FElement: 0, QuadExtElement: 0})
            op()
            assert built == {FElement: 0, QuadExtElement: results}


def test_inverse_divides_on_coordinates(cfg5, monkeypatch):
    """An L, E or D inverse divides its coordinates by the norm through the
    F kernel's division rule: no FElement division runs (at one per
    coordinate, L and E took 2, D took 4)."""
    calls = [0]
    div = FElement.__truediv__

    def counting(self, other):
        calls[0] += 1
        return div(self, other)

    monkeypatch.setattr(FElement, "__truediv__", counting)
    fields = (cfg5.L_field, QuadExtField(cfg5, cfg5.f(cfg5.nonresidue_r), "E"),
              QuadExtField(cfg5, cfg5.pi(), "E"))
    xs = [f.el(3, 4) for f in fields] + [Q.make(cfg5, cfg5.l(3, 4), cfg5.l(2, 7))]
    for x in xs:
        calls[0] = 0
        x.inv()
        assert calls[0] == 0
