import functools
import hashlib
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermiwitt.errors import (
    DivisionByIndistinguishableZero,
    HermiwittError,
    IndistinguishableZero,
    NotASquare,
    PrecisionExhausted,
    WrongBase,
)
from hermiwitt.padic import (
    FElement,
    FieldConfig,
    QuadExtElement,
    QuadExtField,
    _d_dot,
    _d_dot_tracked,
    _e_mul,
    _e_mul_tracked,
    _f_add,
    _f_lmul,
    _f_make,
    _f_neg,
    _f_sum,
    _f_zero,
    _is_prime,
    find_nonsquare_unit_L,
    legendre,
    norm_trace_L,
    solve_norm_equation,
    sqrt_mod_p,
    tau_conj,
)
from hermiwitt.quaternion import QuaternionElement as Q, congruent_mod_nuD
from oracle import (ExactD, coords, digest, exact_inverse, exact_rep, honest,
                    known_to, lift, rep_coords, truncated, vp_q)


# -- independent residue-field oracles used to freeze expected values --------

def fq_squares(p: int, r: int) -> set:
    """All squares of F_{p^2} = F_p[u]/(u^2 - r), by brute enumeration."""
    out = set()
    for a in range(p):
        for b in range(p):
            out.add(((a * a + r * b * b) % p, (2 * a * b) % p))
    return out


def fq_pow_is_square(pair, p: int, r: int) -> bool:
    """z^((p^2-1)/2) == 1 in F_{p^2}, by square-and-multiply on pairs."""
    def mul(x, y):
        return ((x[0] * y[0] + r * x[1] * y[1]) % p,
                (x[0] * y[1] + x[1] * y[0]) % p)

    acc, base, e = (1, 0), pair, (p * p - 1) // 2
    while e:
        if e & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        e >>= 1
    return acc == (1, 0)


# -- arithmetic ----------------------------------------------------------------

def test_field_arith_examples(cfg5):
    assert (cfg5.f(1) + cfg5.f(1)).same(2)
    assert (cfg5.pi() / cfg5.pi()).same(1)
    u = cfg5.u()
    prod = u * u
    assert prod.b.is_zero() and prod.a.same(cfg5.nonresidue_r)


def test_valuation_examples(cfg5):
    assert cfg5.f(1).valuation() == 0
    assert cfg5.f(125).valuation() == 3
    assert (cfg5.u().scale_f(cfg5.pi())).valuation() == 1


def test_valuation_of_zero_raises(cfg5):
    with pytest.raises(IndistinguishableZero):
        cfg5.f_zero().valuation()
    with pytest.raises(IndistinguishableZero):
        cfg5.L_field.zero().valuation()


def test_division_precision_loss(cfg5):
    # pi is stored mod p^N, so its unit part carries N-1 digits; dividing by
    # it costs the valuation shift plus that stored relative precision
    x = cfg5.f(1) / cfg5.pi()
    assert x.valuation() == -1 and x.prec == cfg5.precision - 2
    assert x.rel_prec == cfg5.precision - 1
    with pytest.raises(DivisionByIndistinguishableZero):
        cfg5.f(1) / cfg5.f_zero()
    deep = cfg5.f(1)
    with pytest.raises(PrecisionExhausted):
        for _ in range(cfg5.precision + 1):
            deep = deep / cfg5.pi()


def test_one_modular_inverse_per_divisor(cfg5, modular_inverses):
    """An inverse divides by one modular inverse of its norm's unit: a D
    inverse with four nonzero coordinates divides them all by its Nrd and
    takes 1 (one per coordinate took 4), an L or E inverse divides both
    coordinates by its norm and takes 1 (2 before).  F keeps no inverse on
    the divisor, so dividing three elements by the same d takes 3."""
    x = Q.make(cfg5, cfg5.l(3, 4), cfg5.l(2, 7))
    assert all(not c.is_zero() for c in coords(x.conj()))
    assert modular_inverses(x.inv) == 1
    for field in (cfg5.L_field, QuadExtField(cfg5, cfg5.pi(), "E")):
        assert modular_inverses(field.el(3, 4).inv) == 1
    d = cfg5.f(7) / cfg5.f(2)
    assert modular_inverses(lambda: [cfg5.f(k) / d for k in (1, 2, 3)]) == 3


def test_tau_examples(cfg5):
    u = cfg5.u()
    assert tau_conj(u).same(-u)
    assert tau_conj(cfg5.l(3, 0)).same(cfg5.l(3, 0))
    assert tau_conj(cfg5.l(1, 1)).same(cfg5.l(1, -1))
    with pytest.raises(WrongBase):
        tau_conj(QuadExtField(cfg5, cfg5.pi(), "E").one())


def test_norm_trace_examples(cfg5):
    r = cfg5.nonresidue_r
    n, t = norm_trace_L(cfg5.u())
    assert n.same(-r) and t.is_zero()
    n, t = norm_trace_L(cfg5.l(1, 0))
    assert n.same(1) and t.same(2)
    n, t = norm_trace_L(cfg5.l(1, 1))
    assert n.same(1 - r) and t.same(2)


def test_is_square_examples(cfg5):
    assert cfg5.f(4).is_square()
    assert not cfg5.pi().is_square()


def test_minus_one_is_square_in_L():
    # oracle first: -1 has residue pair (p-1, 0); exponentiation decides
    for p in (3, 5, 7, 13):
        cfg = FieldConfig(p, 32)
        assert fq_pow_is_square((p - 1, 0), p, cfg.nonresidue_r)
        assert cfg.l(-1, 0).is_square()


def test_sqrt_examples(cfg5, cfg7):
    assert cfg5.f(4).sqrt().same(2)
    # sign convention: the residue digit of the root is the smaller lift
    assert cfg7.f(9).sqrt().same(3)          # 3 < 7 - 3
    s5 = cfg5.f(9).sqrt()
    assert (s5 * s5).same(9) and s5.residue() == 2   # 2 < 5 - 2
    x = cfg5.f(1) + cfg5.pi()
    y = FieldConfig(5, 8).f(6).sqrt()
    assert (y * y - 6).is_zero()
    yy = x.sqrt()
    assert (yy * yy - x).is_zero()
    with pytest.raises(NotASquare):
        cfg5.pi().sqrt()


def test_sqrt_over_L_and_ramified(cfg5):
    w = cfg5.l(2, 3) * cfg5.l(2, 3)
    s = w.sqrt()
    assert (s * s - w).is_zero()
    E = QuadExtField(cfg5, cfg5.pi(), "E")
    z = E.el(3, 2) * E.el(3, 2)
    s = z.sqrt()
    assert (s * s - z).is_zero()


def test_find_nonsquare_unit_frozen_values():
    # frozen from the enumeration oracle: alpha = u when -1 is a square in F
    # (the skew family is then entirely non-square), else the first k + u
    expected = {3: (1, 1), 5: (0, 1), 7: (1, 1), 13: (0, 1)}
    for p, pair in expected.items():
        cfg = FieldConfig(p, 16)
        alpha = find_nonsquare_unit_L(cfg)
        assert alpha.residue_pair() == pair
        assert not alpha.is_square()
        assert pair not in fq_squares(p, cfg.nonresidue_r)
        # oracle agreement on the classifier itself
        assert not fq_pow_is_square(pair, p, cfg.nonresidue_r)


def test_skew_alpha_iff_minus_one_square():
    # a tau-skew non-square unit exists exactly when -1 is a square in F
    for p in (3, 5, 7, 11, 13, 17):
        cfg = FieldConfig(p, 16)
        r = cfg.nonresidue_r
        skew_nonsquares = [c for c in range(1, p)
                           if (0, c) not in fq_squares(p, r)]
        assert bool(skew_nonsquares) == (legendre(-1, p) == 1)
        alpha = find_nonsquare_unit_L(cfg)
        if legendre(-1, p) == 1:
            assert alpha.a.is_zero()   # skew choice honored


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=-10**6, max_value=10**6))
def test_valuation_additivity(n, m):
    cfg = FieldConfig(5, 32)
    if n == 0 or m == 0:
        return
    x, y = cfg.f(n), cfg.f(m)
    assert (x * y).valuation() == x.valuation() + y.valuation()
    s = x + y
    if not s.is_zero():
        assert s.valuation() >= min(x.valuation(), y.valuation())
        if x.valuation() != y.valuation():
            assert s.valuation() == min(x.valuation(), y.valuation())


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_sqrt_of_square_roundtrip(n):
    cfg = FieldConfig(7, 32)
    x = cfg.f(n)
    sq = x * x
    assert sq.is_square()
    y = sq.sqrt()
    assert (y * y - sq).is_zero()


def test_tonelli_shanks_against_enumeration():
    for p in (5, 13, 17, 29):
        squares = {a * a % p for a in range(1, p)}
        for a in squares:
            s = sqrt_mod_p(a, p)
            assert s * s % p == a


def test_is_prime_against_trial_division():
    """Miller-Rabin agrees with trial division below 20000, and on the
    strong pseudoprimes to the bases 2..7 and 2..23 (3215031751 and
    3825123056546413051, both composite)."""
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(20000) if _is_prime(n) != trial(n)] == []
    assert not _is_prime(3215031751) and not _is_prime(3825123056546413051)
    assert _is_prime(1000000000000000003) and _is_prime(2**61 - 1)


def test_norm_equation_solver(cfg5):
    import random

    r = random.Random(3)
    E_un = cfg5.L_field
    E_ram = QuadExtField(cfg5, cfg5.pi(), "E")
    for _ in range(50):
        w = cfg5.f(r.randrange(1, 5**6)).shift(2 * r.randint(-1, 1))
        if w.is_zero():
            continue
        if E_un.is_norm(w):
            y = solve_norm_equation(E_un, w)
            assert (y.norm() - w).is_zero()
        if E_ram.is_norm(w):
            y = solve_norm_equation(E_ram, w)
            assert (y.norm() - w).is_zero()
    with pytest.raises(NotASquare):
        solve_norm_equation(E_un, cfg5.pi())


def test_json_value_encoding(cfg5):
    from hermiwitt import serialize as sz

    x = cfg5.f(7).shift(-2)
    j = sz.f_to_json(x)
    assert j["base"] == "F" and j["val"] == -2
    back = sz.f_from_json(cfg5, j)
    assert back.same(x)
    assert sz.f_from_json(cfg5, "123").same(123)
    l = cfg5.l(3, 4)
    assert sz.l_from_json(cfg5, sz.l_to_json(l)).same(l)


def test_json_prec_roundtrip(cfg5):
    """f_from_json keeps the precision that f_to_json writes, capped at the
    configured precision, and refuses a malformed one."""
    from hermiwitt import serialize as sz

    reduced = [cfg5.f(7).shift(-2), cfg5.f(11) / cfg5.f(50),
               cfg5.f(125) + cfg5.f_zero().shift(-10),
               cfg5.f(3) * cfg5.f(2).shift(-7), cfg5.f_zero().shift(-5),
               cfg5.f(3).shift(-1) - cfg5.f(3).shift(-1)]
    for x in reduced:
        assert x.prec < cfg5.precision
        assert sz.f_from_json(cfg5, sz.f_to_json(x)) == x
    one = {"base": "F", "val": 0, "digits": [1], "prec": 99}
    assert sz.f_from_json(cfg5, one).prec == cfg5.precision
    zero = {"base": "F", "val": None, "digits": [], "prec": 99}
    assert sz.f_from_json(cfg5, zero).prec == cfg5.precision
    for bad in (0, -3, 1.5, "12", True, None):
        with pytest.raises(sz.MalformedInput):
            sz.f_from_json(cfg5, dict(one, prec=bad))
    with pytest.raises(sz.MalformedInput):
        sz.f_from_json(cfg5, {"base": "F", "val": 5, "digits": [1], "prec": 5})


def test_field_arith_dispatcher(cfg5):
    from hermiwitt.padic import field_arith

    assert field_arith(cfg5.f(1), cfg5.f(1), "add").same(2)
    assert field_arith(cfg5.pi(), cfg5.pi(), "div").same(1)
    u = cfg5.u()
    assert field_arith(u, u, "mul").same(cfg5.l(cfg5.nonresidue_r, 0))
    import pytest as _pytest

    with _pytest.raises(ValueError):
        field_arith(cfg5.f(1), cfg5.f(1), "pow")


def test_valuation_wrapper(cfg5):
    from hermiwitt.padic import valuation

    assert valuation(cfg5.f(125)) == 3
    assert valuation(cfg5.u()) == 0


def test_sqrt_at_minimal_relative_precision():
    # a square known to a single residue digit still has a square root
    from hermiwitt.padic import FElement

    cfg = FieldConfig(7, 32)
    y = FElement._make(cfg, 0, 4, 1)   # 4 + O(p)
    s = y.sqrt()
    assert s.rel_prec == 1 and (s * s - y).is_zero()
    # the smaller-lift sign convention still applies
    assert s.residue() == min(s.residue(), 7 - s.residue())


# -- pinned digits of the element layer -------------------------------------

def _pinned_f(cfg, r):
    """An F-element with a capped precision one time in three and
    indistinguishable from 0 one time in six, then often known to 1-2 digits
    only, so that valuations go uncertified."""
    prec = cfg.precision - (r.randint(1, 3) if r.random() < 0.33 else 0)
    if r.random() < 0.17:
        return FElement._zeroish(cfg, r.choice((1, 2, prec)))
    unit = r.randrange(1, cfg.ppow(cfg.precision))
    while unit % cfg.p == 0:
        unit += 1
    return FElement._make(cfg, r.randint(-1, 2), unit, prec)


def _element_ops(cfg, r, kind, x, y):
    """The operations of one algebra on x and y, as thunks."""
    s = _pinned_f(cfg, r)
    ops = [lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y,
           lambda: x.inv(), lambda: x ** 3, lambda: x ** -2, lambda: -x,
           lambda: x.valuation(), lambda: 3 * x, lambda: s * x,
           lambda: 2 - x, lambda: x * 5]
    if kind != "F":
        ops += [lambda: x.scale_f(s), lambda: x.same(y)]
    if kind in ("L", "E"):
        ops += [lambda: 1 / x, lambda: x.sigma(), lambda: x.norm(),
                lambda: x.trace(), lambda: x.unit_part(), lambda: x.sqrt(),
                lambda: (x * x).sqrt(), lambda: x.is_square()]
    if kind == "D":
        small = Q(x.a.scale_f(cfg.pi()), y.b).scale_f(cfg.f(cfg.p) ** 2)
        ops += [lambda: x.nu_D(), lambda: x.rho(), lambda: x.conj(),
                lambda: x.nrd(), lambda: x.trd(), lambda: x.symmetry_type(),
                lambda: x.scale_piD(1), lambda: x.scale_piD(2),
                lambda: congruent_mod_nuD(x, y),
                lambda: congruent_mod_nuD(x, x + small)]
    return ops


def _pinned_batch(pairs: int):
    out = []
    for p, N in ((3, 10), (5, 32), (13, 128)):
        cfg = FieldConfig(p, N)
        r = random.Random(p * 1000 + N)
        nonres = next(k for k in range(cfg.nonresidue_r + 1, 4 * p)
                      if legendre(k, p) == -1)
        fields = {"L": cfg.L_field,
                  "E": QuadExtField(cfg, cfg.f(nonres), "E"),
                  "R": QuadExtField(cfg, cfg.pi(), "E"),
                  "S": QuadExtField(cfg, cfg.f(nonres * p), "E")}
        make = {"F": lambda: _pinned_f(cfg, r),
                "D": lambda: Q(QuadExtElement(cfg.L_field, _pinned_f(cfg, r),
                                              _pinned_f(cfg, r)),
                               QuadExtElement(cfg.L_field, _pinned_f(cfg, r),
                                              _pinned_f(cfg, r)))}
        for name, field in fields.items():
            make[name] = lambda field=field: QuadExtElement(
                field, _pinned_f(cfg, r), _pinned_f(cfg, r))
        for name, new in make.items():
            kind = "E" if name in "ERS" else name
            for _ in range(pairs):
                x, y = new(), new()
                for op in _element_ops(cfg, r, kind, x, y):
                    try:
                        out.append(digest(op()))
                    except Exception as exc:
                        out.append(type(exc).__name__)
    return out


def test_element_arithmetic_pinned():
    """Every F-coordinate that F, L, ramified and unramified E and D compute
    on a seeded batch, or the class of the exception raised, hashes to the
    recorded digest: a rewrite of the element layer keeps every digit."""
    out = _pinned_batch(30)
    assert len(out) == 11700
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "addfe90687c814a14eeb701f4a5709860c34017cbb5d45d3cf2fd00946f25c43"


def _coarse_f(cfg, r, full=0.25):
    """An F-element of valuation -2..1 known to p^N with probability full
    and otherwise to p^1..p^3, or a zero known to 1-3 digits: a product of
    two such often has no digit left to claim."""
    if r.random() < 0.2:
        return FElement._zeroish(cfg, r.randint(1, 3))
    v = r.randint(-2, 1)
    unit = r.randrange(1, cfg.ppow(cfg.precision))
    while unit % cfg.p == 0:
        unit += 1
    prec = cfg.precision if r.random() < full else r.randint(max(1, v + 1), 3)
    return FElement._make(cfg, v, unit, prec)


def _refusal_batch(count: int):
    """Products, norms and inverses of L, unramified and ramified E and D on
    coarse draws, and D's dmat_solve on 2x2 systems of them, at (3, 10),
    (5, 32) and (13, 128): each outcome's digest, or the class and message
    of the refusal."""
    from hermiwitt.hermitian import dmat_solve

    out = []
    for p, N in ((3, 10), (5, 32), (13, 128)):
        cfg = FieldConfig(p, N)
        r = random.Random(p * 19 + N)
        fields = {"L": cfg.L_field,
                  "E_u": QuadExtField(cfg, cfg.f(cfg.nonresidue_r), "E"),
                  "E_pi": QuadExtField(cfg, cfg.pi(), "E")}
        make = {name: lambda field=field, full=0.25: QuadExtElement(
                    field, _coarse_f(cfg, r, full), _coarse_f(cfg, r, full))
                for name, field in fields.items()}
        make["D"] = lambda full=0.25: Q(make["L"](full=full), make["L"](full=full))
        thunks = []
        for new in make.values():
            for _ in range(count):
                x, y = new(), new()
                thunks += [lambda x=x, y=y: x * y, lambda x=x, y=y: y * x,
                           lambda x=x, y=y: x * y * x, lambda x=x: x.norm(),
                           lambda x=x: x.inv()]
        for _ in range(count):
            A = [[make["D"](0.8) for _ in range(2)] for _ in range(2)]
            B = [[make["D"](0.8)] for _ in range(2)]
            thunks.append(lambda A=A, B=B: dmat_solve(A, B))
        for fn in thunks:
            try:
                out.append(digest(fn()))
            except HermiwittError as exc:
                out.append((type(exc).__name__, str(exc)))
    return out


def test_refusal_messages_pinned():
    """On coarse inputs with negative valuations, the outcome of every L, E
    and D product, norm and inverse and of D's dmat_solve, with the class
    and the message of each refusal (the CLI prints the message), hashes to
    the recorded digest: a rewrite of the product kernel keeps which
    refusal comes first and what it says."""
    out = _refusal_batch(40)
    assert len(out) == 3 * (4 * 5 + 1) * 40
    refusals = [o for o in out if isinstance(o, tuple) and isinstance(o[0], str)]
    assert {"result precision <= 0", "zero known to <= 0 digits"} <= \
        {text for _, text in refusals}
    assert len(out) // 4 <= len(refusals) <= 3 * len(out) // 4
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "d987fcd8b5a2bf0e53434bf718bf8dddb39978f3eb6eb158b35de7cc971dab30"


def _dot_refusal_batch(count: int):
    """count length-2 to 4 D row_dots and count 2x2 by 2x2 D dmat_muls at
    (3, 10), (5, 32) and (13, 128), each on coordinates drawn coarse by
    _coarse_f with a per-dot probability in {0, 0.05, 0.2, 0.5} and
    otherwise fine (valuation -1..2 known to N-3..N, or a zero known to 3
    or more digits, which no product refuses); one dot in five ends with
    row[0] * -x[0], cancelling its first product.  Each outcome's digest,
    or the class and message of the refusal."""
    from hermiwitt.hermitian import dmat_mul, row_dot

    out = []
    for p, N in ((3, 10), (5, 32), (13, 128)):
        cfg = FieldConfig(p, N)
        r = random.Random(p * 29 + N)

        def fine():
            if r.random() < 0.17:
                return FElement._zeroish(cfg, r.randint(3, N))
            unit = r.randrange(1, cfg.ppow(N))
            while unit % p == 0:
                unit += 1
            return FElement._make(cfg, r.randint(-1, 2), unit, N - r.randint(0, 3))

        def quat(coarse):
            f = lambda: _coarse_f(cfg, r) if r.random() < coarse else fine()
            return Q(QuadExtElement(cfg.L_field, f(), f()),
                     QuadExtElement(cfg.L_field, f(), f()))

        thunks = []
        for _ in range(count):
            n, coarse = r.randint(2, 4), r.choice((0, 0.05, 0.2, 0.5))
            row, x = [quat(coarse) for _ in range(n)], [quat(coarse) for _ in range(n)]
            if r.random() < 0.2:
                row[-1], x[-1] = row[0], -x[0]
            thunks.append(lambda row=row, x=x: row_dot(row, x))
            coarse = r.choice((0, 0.05, 0.2, 0.5))
            A = [[quat(coarse) for _ in range(2)] for _ in range(2)]
            B = [[quat(coarse) for _ in range(2)] for _ in range(2)]
            thunks.append(lambda A=A, B=B: dmat_mul(A, B))
        for fn in thunks:
            try:
                out.append(digest(fn()))
            except HermiwittError as exc:
                out.append((type(exc).__name__, str(exc)))
    return out


def test_dot_refusal_messages_pinned():
    """The outcome of every D row_dot and dmat_mul above, with the class and
    the message of each refusal, hashes to the recorded digest: a dot that
    sums its products' terms in another bracketing keeps every digit, which
    refusal comes first and what it says."""
    out = _dot_refusal_batch(150)
    assert len(out) == 3 * 2 * 150
    refusals = [o for o in out if isinstance(o, tuple) and isinstance(o[0], str)]
    assert {"result precision <= 0", "zero known to <= 0 digits"} <= \
        {text for _, text in refusals}
    assert len(out) // 4 <= len(refusals) <= 3 * len(out) // 4
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "699c7af6d0fb19212e09034058ccd16c29ad2eeecf70f1a90514a96ccc6ca99a"


def test_d_dot_scales_after_summing():
    """B*tau(G) cancels here from valuation -2 to -1, and its pi_F scaling
    keeps one digit more on the sum than on its terms one by one: the fused
    D dot sums before scaling, as the product does, and gives x * y."""
    from hermiwitt.hermitian import row_dot

    cfg = FieldConfig(5, 32)
    f = lambda unit: FElement._make(cfg, -1, unit, 32)
    x = Q(cfg.L_field.zero(), QuadExtElement(cfg.L_field, f(1), f(1)))
    y = Q(cfg.L_field.zero(), QuadExtElement(cfg.L_field, f(6 * cfg.nonresidue_r), f(1)))
    z = Q.zero(cfg)
    assert (x * y).a.a.prec == 31
    assert digest(row_dot([x, z], [y, z])) == digest(x * y)


def test_elements_pickle_after_arithmetic(cfg5):
    """An element holds its field and its coordinate triples, and fields
    cache no product kernel: a pickled element round-trips and multiplies
    to the same digits."""
    x = Q.make(cfg5, cfg5.l(3, 4), cfg5.l(2, 7))
    y = x * x
    z = pickle.loads(pickle.dumps(y))
    assert digest(z) == digest(y) and digest(z * z) == digest(y * y)


# -- precision honesty of the element operations -------------------------------

KINDS = ["F", "L", "E_u", "E_pi", "D"]


def _draws(kind, p, N, count=150):
    """cfg, the number of F-coordinates, and count pairs of draws of one kind
    at (p, N), each draw an exact coordinate tuple and the tracked element
    that truncates it: one coordinate in six is a zero known to 1-2
    digits."""
    cfg = FieldConfig(p, N)
    r = random.Random(p * 7 + N)
    rr = cfg.nonresidue_r
    fields = {"L": cfg.L_field, "E_u": QuadExtField(cfg, cfg.f(rr), "E"),
              "E_pi": QuadExtField(cfg, cfg.pi(), "E")}
    width = {"F": 1, "D": 4}.get(kind, 2)

    def element():
        qs, fs = zip(*(truncated(cfg, r) for _ in range(width)))
        if kind == "F":
            return qs, fs[0]
        if kind == "D":
            return qs, Q(QuadExtElement(cfg.L_field, *fs[:2]),
                         QuadExtElement(cfg.L_field, *fs[2:]))
        return qs, QuadExtElement(fields[kind], *fs)

    return cfg, width, [(element(), element()) for _ in range(count)]


def _exact_product(kind, p, r, x, y):
    X, Y = exact_rep(kind, p, r, x), exact_rep(kind, p, r, y)
    M = [[sum(X[i][k] * Y[k][j] for k in range(len(Y))) for j in range(len(Y))]
         for i in range(len(X))]
    return rep_coords(kind, p, M)


def _exact_inverse(kind, p, r, x):
    """The exact inverse of x as a coordinate tuple; None if x is 0."""
    R = exact_inverse(exact_rep(kind, p, r, x))
    return None if R is None else rep_coords(kind, p, R)


def _exact_quotient(kind, p, r, x, y):
    """x * y^(-1) exactly; None if y is 0."""
    yinv = _exact_inverse(kind, p, r, y)
    return None if yinv is None else _exact_product(kind, p, r, x, yinv)


def _exact_norm(kind, p, r, x):
    """Nrd = N(a) - p*N(b) on D, a^2 - delta*b^2 on L and E."""
    if kind == "D":
        a0, a1, b0, b1 = x
        return a0 * a0 - r * a1 * a1 - p * (b0 * b0 - r * b1 * b1)
    return x[0] * x[0] - (p if kind == "E_pi" else r) * x[1] * x[1]


# the coordinate signs of the involutions: sigma on L and E, rho and conj on D
_SIGNS = {("bar", "D"): (1, 1, 1, -1), ("conj", "D"): (1, -1, -1, -1)}


def _assert_honest(kind, op, p, N):
    """Every F-coordinate that op claims to prec k, on 150 pairs of draws,
    agrees mod p^k with the exact result on the exact operands its inputs
    truncate; an F-scalar and an exponent -2 <= k <= 3 come from another
    stream, so the pairs are the same for every op.  A refusal (too few
    digits, or a divisor indistinguishable from 0) is no answer, and an
    exact 0 has no inverse to answer with."""
    cfg, width, draws = _draws(kind, p, N)
    rr = cfg.nonresidue_r
    r = random.Random(p * 11 + N)
    signs = _SIGNS.get((op, kind), (1, -1))
    checked = 0
    for (qx, x), (qy, y) in draws:
        qs, s = truncated(cfg, r)
        k = r.randint(-2, 3)
        run, exact = {
            "mul": (lambda: x * y, lambda: _exact_product(kind, p, rr, qx, qy)),
            "add": (lambda: x + y, lambda: [a + b for a, b in zip(qx, qy)]),
            "sub": (lambda: x - y, lambda: [a - b for a, b in zip(qx, qy)]),
            "neg": (lambda: -x, lambda: [-a for a in qx]),
            "scale_f": (lambda: x.scale_f(s), lambda: [a * qs for a in qx]),
            "shift": (lambda: x.shift(k), lambda: [a * Fraction(p) ** k for a in qx]),
            "bar": (lambda: x.bar(), lambda: [e * a for e, a in zip(signs, qx)]),
            "conj": (lambda: x.conj(), lambda: [e * a for e, a in zip(signs, qx)]),
            "inv": (lambda: x.inv(), lambda: _exact_inverse(kind, p, rr, qx)),
            "div": (lambda: x / y, lambda: _exact_quotient(kind, p, rr, qx, qy)),
            "norm": (lambda: x.norm(), lambda: [_exact_norm(kind, p, rr, qx)]),
            "trace": (lambda: x.trace(), lambda: [2 * qx[0]]),
        }[op]
        want = exact()
        # the two exact D oracles agree
        assert op != "mul" or kind != "D" or ExactD(p, rr).mul(qx, qy) == want
        try:
            z = run()
        except (PrecisionExhausted, DivisionByIndistinguishableZero):
            continue
        assert want is not None, (x, y)
        for c, q in zip(coords(z), want):
            assert honest(c, q, p), (x, y, c, q)
            checked += 1
    assert checked >= 75 * (1 if op in ("norm", "trace") else width)


@pytest.mark.parametrize("p,N", [(3, 10), (5, 32), (13, 128)])
@pytest.mark.parametrize("kind", KINDS)
def test_product_is_precision_honest(kind, p, N):
    """Every F-coordinate a product claims to prec k agrees mod p^k with the
    exact product of the exact operands that its factors truncate."""
    _assert_honest(kind, "mul", p, N)


@pytest.mark.parametrize("p,N", [(3, 10), (5, 32), (13, 128)])
@pytest.mark.parametrize("kind,op", [
    (kind, op) for op in ("add", "sub", "neg", "scale_f", "shift") for kind in KINDS]
    + [(kind, "bar") for kind in KINDS[1:]] + [("D", "conj")]
    + [(kind, op) for op in ("inv", "div") for kind in KINDS]
    + [(kind, op) for op in ("norm", "trace") for kind in KINDS[1:]])
def test_operation_is_precision_honest(kind, op, p, N):
    """The same for +, -, negation, scale_f by an F-element, shift by p^k,
    the involution (sigma on L and E, rho on D), conj on D, the inverse,
    the quotient, and the norm and trace down to F (Nrd and trd on D)."""
    _assert_honest(kind, op, p, N)


def test_kernel_results_are_canonical():
    """Every F-coordinate that +, -, *, /, inv, the norm, the trace,
    scale_f, shift, row_dot and dmat_mul return on the honesty draws is a
    canonical triple: a
    zero holds unit 0 and 0 < prec <= N, any other coordinate val < prec
    <= N and a unit 0 < unit < p^(prec - val) prime to p.  The product
    kernel leaves units unreduced between its own steps; none may leave
    it, since equality, hashing, division and serialization read the
    unit.  _f_make moves the powers of p out of a unit divisible by p into
    the valuation."""
    from hermiwitt.hermitian import dmat_mul, row_dot

    checked = 0
    for p, N in ((3, 10), (5, 32), (13, 128)):
        for kind in KINDS:
            cfg, _, draws = _draws(kind, p, N)
            r = random.Random(p * 23 + N)
            for (_, x), (_, y) in draws:
                s, k = truncated(cfg, r)[1], r.randint(-2, 3)
                ops = [lambda: x + y, lambda: x - y, lambda: x * y,
                       lambda: x / y, lambda: x.inv(), lambda: x.scale_f(s),
                       lambda: x.shift(k)]
                if kind != "F":
                    ops += [lambda: x.norm(), lambda: x.trace()]
                ops += [lambda: row_dot([x], [y]),
                        lambda: row_dot([x, y, x], [y, y, x]),
                        lambda: dmat_mul([[x, y], [y, x]], [[y, x], [x, y]])]
                for op in ops:
                    try:
                        z = op()
                    except (PrecisionExhausted, DivisionByIndistinguishableZero):
                        continue
                    for c in coords(z):
                        assert 0 < c.prec <= N, c
                        if c.val is None:
                            assert c.unit == 0, c
                        else:
                            assert c.val < c.prec and c.unit % p, c
                            assert 0 < c.unit < p ** (c.prec - c.val), c
                        checked += 1
    assert checked >= 30000
    assert _f_make(FieldConfig(5, 32), 0, 35, 32) == (1, 7, 32)



_SUM_CONFIGS = [FieldConfig(3, 10), FieldConfig(5, 32), FieldConfig(13, 128)]


@st.composite
def _sum_terms(draw):
    """A config and 2-6 terms for _f_sum.  A term is an F-triple like
    truncated's (valuation -1..2 known to N-3..N digits, or a zero known to
    1-2 or N digits), a lazy _f_lmul product of two such with its unit
    unreduced, positive or negated, or the negation of an earlier term, so
    that sums cancel."""
    cfg = draw(st.sampled_from(_SUM_CONFIGS))
    p, N = cfg.p, cfg.precision

    def triple():
        if draw(st.integers(0, 5)) == 0:
            return _f_zero(cfg, draw(st.sampled_from((1, 2, N))))
        unit = draw(st.integers(0, p ** (N - 1) - 1)) * p + draw(st.integers(1, p - 1))
        return _f_make(cfg, draw(st.integers(-1, 2)), unit, N - draw(st.integers(0, 3)))

    terms = []
    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(("triple", "lazy", "-lazy", "neg")))
        if kind == "neg" and terms:
            terms.append(_f_neg(cfg, draw(st.sampled_from(terms))))
        elif kind.endswith("lazy"):
            try:
                v, u, k = _f_lmul(cfg, triple(), triple())
            except PrecisionExhausted:
                continue
            terms.append((v, -u if kind == "-lazy" and v is not None else u, k))
        else:
            terms.append(triple())
    if len(terms) < 2:
        terms.append(triple())
    return cfg, terms


@settings(deadline=None)
@given(_sum_terms())
def test_f_sum_is_the_fold(case):
    """_f_sum reduces its terms once and gives exactly the triple that the
    left fold of _f_add gives: a sum's class mod p^(least precision) does
    not depend on its bracketing."""
    cfg, terms = case
    assert _f_sum(cfg, terms) == functools.reduce(
        lambda s, t: _f_add(cfg, s, t), terms)


@st.composite
def _kernel_operands(draw):
    """A config, a product kernel and its operands: _d_dot on 1-4 pairs of
    D-coordinates with u^2 = r, or _e_mul over L or over the ramified
    E = F(sqrt(p*r)), and an addend e of the product's width.  The constant
    r or delta is known to N digits or to N - 1.  The coordinates at a
    drawn set of places (none, one, or many) are of one kind that fails the
    integral-at-N guard: known to fewer digits, of negative valuation,
    zeros known to fewer digits, or of valuation -3..-1 known to 1-3
    digits, whose products can refuse.  The rest are integral and known to
    N digits, zeros too."""
    cfg = draw(st.sampled_from(_SUM_CONFIGS))
    p, N, r = cfg.p, cfg.precision, cfg.nonresidue_r

    def unit():
        return draw(st.integers(0, p ** (N - 1) - 1)) * p + draw(st.integers(1, p - 1))

    kind = draw(st.integers(0, 3))

    def off():
        if kind == 0:
            return _f_make(cfg, draw(st.integers(0, 2)), unit(), N - draw(st.integers(1, 3)))
        if kind == 1:
            return _f_make(cfg, draw(st.integers(-3, -1)), unit(), N)
        if kind == 2:
            return _f_zero(cfg, draw(st.integers(1, N - 1)))
        return _f_make(cfg, draw(st.integers(-3, -1)), unit(), draw(st.integers(1, 3)))

    def integral():
        if draw(st.integers(0, 4)) == 0:
            return _f_zero(cfg, N)
        return _f_make(cfg, draw(st.integers(0, 3)), unit(), N)

    known = N - draw(st.integers(0, 1))
    if draw(st.booleans()):
        kernel, tracked, n, width = _d_dot, _d_dot_tracked, draw(st.integers(1, 4)), 4
        const = _f_make(cfg, 0, r, known)
    else:
        kernel, tracked, n, width = _e_mul, _e_mul_tracked, 1, 2
        const = _f_make(cfg, draw(st.integers(0, 1)), r, known)
    places = draw(st.sets(st.integers(0, (2 * n + 1) * width - 1)))
    c = [off() if i in places else integral() for i in range((2 * n + 1) * width)]
    elements = [tuple(c[i:i + width]) for i in range(0, len(c), width)]
    x, y, e = elements[:n], elements[n:2 * n], elements[2 * n]
    if kernel is _e_mul:
        x, y = x[0], y[0]
    return cfg, kernel, tracked, const, x, y, e


def _outcome(kernel, *args):
    try:
        return kernel(*args)
    except HermiwittError as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(_kernel_operands())
def test_integral_products_are_the_tracked_path(case):
    """_d_dot and _e_mul, which multiply as integers mod p^N when every
    coordinate and the constant are integral and known to N digits, give
    the triples of their tracked paths, or the same refusal: on such inputs
    F's precision rule keeps N digits on every term, and a sum's class mod
    p^N does not depend on its bracketing."""
    cfg, kernel, tracked, const, x, y, _ = case
    assert _outcome(kernel, cfg, const, x, y) == _outcome(tracked, cfg, const, x, y)


@settings(deadline=None)
@given(_kernel_operands())
def test_fused_update_is_the_two_step(case):
    """_d_dot and _e_mul given an addend e, the fused elimination update,
    give the triples of the two steps, the product and then each output
    coordinate added to e's by _f_add, or the same refusal: the addend is
    one more term of the exact fold, and its integer enters the
    integral-at-N path only when e passes that path's guard too."""
    cfg, kernel, _, const, x, y, e = case

    def two_step():
        return tuple(_f_add(cfg, a, t) for a, t in zip(e, kernel(cfg, const, x, y)))

    assert _outcome(kernel, cfg, const, x, y, e) == _outcome(two_step)


# -- precision honesty of square roots and norm equations in L and E -------------

def _quad(cfg, kind):
    """(E = F[w], the integer w^2, v(w)) for L, E = F(u) and E = F(pi_D)."""
    if kind == "E_pi":
        return QuadExtField(cfg, cfg.pi(), "E"), cfg.p, Fraction(1, 2)
    delta = cfg.nonresidue_r
    E = cfg.L_field if kind == "L" else QuadExtField(cfg, cfg.f(delta), "E")
    return E, delta, Fraction(0)


def _vq(q, p):
    """The valuation of an exact rational coordinate; 0 has valuation inf."""
    return vp_q(q, p) if q else float("inf")


def _capped(cfg, r, q):
    """The F-element knowing the exact q to a capped precision: mod p^k for
    k = N - 0..3, or one time in six only 1-2 digits beyond its valuation
    (k >= 1 always)."""
    k = cfg.precision - r.randint(0, 3)
    if q and r.random() < 0.17:
        k = max(1, min(k, vp_q(q, cfg.p) + r.choice((1, 2))))
    return known_to(cfg, q, k)


def _claimed_to(y, vw):
    """m with v(Y - y_exact) >= m for the exact value y claims to know:
    each coordinate claims its digits mod p^prec, the second one times w."""
    return min(y.a.prec, y.b.prec + vw)


def _assert_root_honest(p, vw, y, value, target):
    """y claims an exact r with r^2 (or N(r)) = target to v(Y - r) >= m;
    value is Y^2 (or N(Y)) for the exact Y = lift(y).  The difference
    value - target factors through Y - r with a cofactor of valuation
    >= min(m, v(target)/2), so it must have valuation >= m + that: the
    check of every digit y claims that exact arithmetic allows."""
    m = _claimed_to(y, vw)
    diff = [a - b for a, b in zip(value, target)]
    got = min(_vq(diff[0], p), _vq(diff[1], p) + vw)
    vt = min(_vq(target[0], p), _vq(target[1], p) + vw)
    assert got >= m + min(m, vt / 2), (y, target, got, m, vt)


@pytest.mark.parametrize("p,N", [(3, 10), (5, 32), (13, 128)])
@pytest.mark.parametrize("kind", ["L", "E_u", "E_pi"])
def test_sqrt_is_precision_honest(kind, p, N):
    """x.sqrt() on x knowing the exact square q = z^2 to capped precisions:
    a root r of q has Y^2 - q = (Y - r)(Y + r), so a root claimed to
    v(Y - r) >= m gives v(Y^2 - q) >= m + min(m, v(q)/2), checked exactly.
    A refusal (too few digits) is no answer; NotASquare on a square is a
    wrong verdict."""
    cfg = FieldConfig(p, N)
    E, d, vw = _quad(cfg, kind)
    r = random.Random(p * 13 + N)

    def square(a, b):
        return a * a + d * b * b, 2 * a * b

    checked = 0
    for _ in range(150):
        q = square(truncated(cfg, r)[0], truncated(cfg, r)[0])
        x = QuadExtElement(E, _capped(cfg, r, q[0]), _capped(cfg, r, q[1]))
        try:
            y = x.sqrt()
        except PrecisionExhausted:
            continue
        _assert_root_honest(p, vw, y, square(*lift(y, p)), q)
        checked += 1
    assert checked >= 100


@pytest.mark.parametrize("p,N", [(3, 10), (5, 32), (13, 128)])
@pytest.mark.parametrize("kind", ["L", "E_u", "E_pi"])
def test_norm_equation_is_precision_honest(kind, p, N):
    """solve_norm_equation(E, w) on w knowing an exact target to a capped
    precision, the target a norm N(z) = a^2 - delta b^2 every other draw
    and a random coordinate otherwise: a solution r has N(Y) - N(r) =
    (Y - r) sigma(Y) + r sigma(Y - r), so a solution claimed to
    v(Y - r) >= m gives v(N(Y) - w) >= m + min(m, v(w)/2), checked
    exactly.  A non-norm must be refused with NotASquare."""
    cfg = FieldConfig(p, N)
    E, d, vw = _quad(cfg, kind)
    r = random.Random(p * 17 + N)

    def norm(a, b):
        return a * a - d * b * b, Fraction(0)

    checked = 0
    for t in range(150):
        a, b = truncated(cfg, r)[0], truncated(cfg, r)[0]
        target = norm(a, b) if t % 2 else (a, Fraction(0))
        w = _capped(cfg, r, target[0])
        try:
            y = solve_norm_equation(E, w)
        except NotASquare:
            assert not t % 2, (w, target)
            continue
        except PrecisionExhausted:
            continue
        _assert_root_honest(p, vw, y, norm(*lift(y, p)), target)
        checked += 1
    assert checked >= 100
