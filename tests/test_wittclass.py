import pytest

from hermiwitt.errors import EpsilonMismatch, IndistinguishableZero, WrongSymmetryType
from hermiwitt.hermitian import DiagonalForm, HermitianForm
from hermiwitt.padic import FieldConfig
from hermiwitt.quaternion import QuaternionElement as Q
from hermiwitt.wittclass import (
    WittClassD,
    anisotropic_dim,
    class_of_form,
    classify_line,
    equivalence_oracle,
    is_isotropic,
    representative_form,
    witt_add,
)
from hermiwitt import randgen as rg


def test_classify_generators(cfg5):
    one, pi = Q.one(cfg5), Q.pi_D(cfg5)
    alpha = Q.make(cfg5, cfg5.alpha)
    assert classify_line(one, 1) == WittClassD.of(1, "g1")
    assert classify_line(one.scale_f(cfg5.pi()), 1) == WittClassD.of(1, "g1")
    assert classify_line(pi, 1) == WittClassD.of(1, "gpi")
    assert classify_line(alpha, 1) == WittClassD.of(1, "galpha")
    skew = Q.u_elem(cfg5) * pi
    assert classify_line(skew, -1) == WittClassD.of(-1, "gskew")


def test_classify_congruent_to_alpha(cfg5):
    # alpha perturbed inside its nu_D-congruence class keeps the class
    # (alpha*(1 + pi_D p) itself is not symmetric, so the symmetric
    # perturbation alpha + p*pi_D is used and cross-checked with the oracle)
    alpha = Q.make(cfg5, cfg5.alpha)
    d = alpha + Q.pi_D(cfg5).scale_f(cfg5.pi())
    assert d.symmetry_type() == "symmetric"
    assert classify_line(d, 1) == WittClassD.of(1, "galpha")
    assert equivalence_oracle(alpha, d)


def test_classify_errors(cfg5):
    with pytest.raises(IndistinguishableZero):
        classify_line(Q.zero(cfg5), 1)
    with pytest.raises(WrongSymmetryType):
        classify_line(Q.one(cfg5), -1)
    with pytest.raises(WrongSymmetryType):
        classify_line(Q.u_elem(cfg5) * Q.pi_D(cfg5), 1)


def test_witt_add(cfg5):
    g1 = WittClassD.of(1, "g1")
    ga = WittClassD.of(1, "galpha")
    assert witt_add(g1, g1) == WittClassD.zero(1)
    assert witt_add(g1, ga) == WittClassD.of(1, "g1", "galpha")
    assert witt_add(WittClassD.zero(1), ga) == ga
    with pytest.raises(EpsilonMismatch):
        witt_add(g1, WittClassD.zero(-1))


def test_class_of_form_examples(cfg5):
    one, pi = Q.one(cfg5), Q.pi_D(cfg5)
    alpha = Q.make(cfg5, cfg5.alpha)
    assert class_of_form(HermitianForm.diagonal(1, [one, -one])).is_hyperbolic()
    f = HermitianForm.diagonal(1, [one, alpha, pi])
    assert class_of_form(f) == WittClassD.of(1, "g1", "galpha", "gpi")
    assert class_of_form(HermitianForm.hyperbolic_plane(cfg5, 1)).is_hyperbolic()
    assert class_of_form(HermitianForm.hyperbolic_plane(cfg5, -1)).is_hyperbolic()


def test_is_isotropic_examples(cfg5):
    one, pi = Q.one(cfg5), Q.pi_D(cfg5)
    assert is_isotropic(DiagonalForm(1, (one, -one), 0))
    assert not is_isotropic(DiagonalForm(1, (one, pi), 0))
    assert not is_isotropic(DiagonalForm(1, (one,), 0))
    alpha = Q.make(cfg5, cfg5.alpha)
    assert not is_isotropic(DiagonalForm(1, (one, alpha, pi), 0))
    assert is_isotropic(DiagonalForm(1, (one, -one, pi), 0))


def test_anisotropic_dim_table():
    # frozen from the startup derivation (the isotropy oracle on canonical
    # representatives); identical across the supported primes
    from hermiwitt.padic import FieldConfig

    for p in (3, 5, 7, 13):
        cfg = FieldConfig(p, 32)
        assert anisotropic_dim(cfg, WittClassD.zero(1)) == 0
        for g in ("g1", "galpha", "gpi"):
            assert anisotropic_dim(cfg, WittClassD.of(1, g)) == 1
        for pair in (("g1", "galpha"), ("g1", "gpi"), ("galpha", "gpi")):
            assert anisotropic_dim(cfg, WittClassD.of(1, *pair)) == 2
        assert anisotropic_dim(cfg, WittClassD.of(1, "g1", "galpha", "gpi")) == 3
        assert anisotropic_dim(cfg, WittClassD.zero(-1)) == 0
        assert anisotropic_dim(cfg, WittClassD.of(-1, "gskew")) == 1


def test_representative_forms_are_anisotropic(cfg5):
    for names in (("g1",), ("g1", "galpha"), ("g1", "galpha", "gpi")):
        rep = representative_form(cfg5, WittClassD.of(1, *names))
        assert not is_isotropic(rep)


def test_equivalence_oracle_examples(cfg5):
    one, pi = Q.one(cfg5), Q.pi_D(cfg5)
    r = rg.rng(61)
    for _ in range(20):
        x = rg.rand_f(cfg5, r)
        assert equivalence_oracle(one, one.scale_f(x * x))
    assert not equivalence_oracle(one, pi)
    # construct-and-check: rho(y) d y ~ d for random y
    for _ in range(50):
        d = rg.rand_symmetric(cfg5, r)
        y = rg.rand_quat(cfg5, r)
        assert equivalence_oracle(d, y.rho() * d * y)


def test_oracle_vs_classify_seeded(cfg5):
    r = rg.rng(67)
    for _ in range(100):
        d, d2 = rg.rand_symmetric(cfg5, r), rg.rand_symmetric(cfg5, r)
        same = classify_line(d, 1) == classify_line(d2, 1)
        assert equivalence_oracle(d, d2) == same
        assert is_isotropic(DiagonalForm(1, (d, -d2), 0)) == same


def test_skew_oracle_vs_classify_seeded():
    """The skew branch of equivalence_oracle (each side reduced to u pi_D by
    _reduce_skew, the witness checked) agrees with classify_line(., -1) on
    seeded skew pairs, and finds rho(y) d y equivalent to d, at p = 3, 5,
    7, 13 and at (13, 128)."""
    for p, N in ((3, 32), (5, 32), (7, 32), (13, 32), (13, 128)):
        cfg = FieldConfig(p, N)
        r = rg.rng(73 + p + N)
        for _ in range(40):
            d, d2 = rg.rand_skew(cfg, r), rg.rand_skew(cfg, r)
            same = classify_line(d, -1) == classify_line(d2, -1)
            assert equivalence_oracle(d, d2) == same
            y = rg.rand_quat(cfg, r)
            assert equivalence_oracle(d, y.rho() * d * y)


def test_scaling_invariance_seeded(cfg5):
    r = rg.rng(71)
    for _ in range(100):
        d = rg.rand_symmetric(cfg5, r)
        x = rg.rand_f(cfg5, r)
        assert classify_line(d, 1) == classify_line(d.scale_f(x), 1)
        dk = rg.rand_skew(cfg5, r)
        assert classify_line(dk, -1) == classify_line(dk.scale_f(x), -1)


def test_minus_one_class_discovered(cfg5):
    # <-1> = <1> is derived, not assumed
    assert classify_line(-Q.one(cfg5), 1) == WittClassD.of(1, "g1")


def test_rank3_certificate_against_enumeration():
    # independent oracle: a zero of <1, alpha, pi_D> would force a
    # leading-residue cancellation x^2 + alpha y^2 = 0 in kappa_L (the
    # leading residue of rho(x) d x is a square times the residue of d);
    # enumerate all residue pairs and confirm none cancels
    from hermiwitt.padic import FieldConfig

    for p in (3, 5, 7, 13):
        cfg = FieldConfig(p, 16)
        r = cfg.nonresidue_r
        alpha_res = cfg.alpha.residue_pair()

        def mul(x, y):
            return ((x[0] * y[0] + r * x[1] * y[1]) % p,
                    (x[0] * y[1] + x[1] * y[0]) % p)

        cancels = False
        for x0 in range(p):
            for x1 in range(p):
                if (x0, x1) == (0, 0):
                    continue
                sq_x = mul((x0, x1), (x0, x1))
                for y0 in range(p):
                    for y1 in range(p):
                        if (y0, y1) == (0, 0):
                            continue
                        term = mul(alpha_res, mul((y0, y1), (y0, y1)))
                        if (sq_x[0] + term[0]) % p == 0 and \
                                (sq_x[1] + term[1]) % p == 0:
                            cancels = True
        assert not cancels, f"p={p}: unexpected residue cancellation"
        # the runtime certificate agrees
        from hermiwitt.hermitian import DiagonalForm
        from hermiwitt.quaternion import QuaternionElement as Q

        rep = DiagonalForm(1, (Q.one(cfg), Q.make(cfg, cfg.alpha),
                               Q.pi_D(cfg)), 0)
        assert not is_isotropic(rep)
