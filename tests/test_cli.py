import hashlib
import io
import json
import os
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from hermiwitt import cli
from hermiwitt import errors as er
from hermiwitt import randgen as rg
from hermiwitt import serialize as sz
from hermiwitt import wittclass as wc
from hermiwitt.cli import run
from hermiwitt.hermitian import HermitianForm
from hermiwitt.padic import FieldConfig, QuadExtElement
from hermiwitt.quaternion import QuaternionElement as Q
from oracle import ExactD, known_to


def run_cli(capsys, *argv):
    rc = run(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_classify_example(capsys):
    rc, out = run_cli(capsys, "classify", "--epsilon", "1", "--element",
                      '{"a":{"a":"1","b":"0"},"b":{"a":"0","b":"0"}}')
    assert rc == 0
    doc = json.loads(out)
    assert doc["class"] == ["g1"] and doc["anisotropic_dim"] == 1


def test_classify_skew(capsys):
    rc, out = run_cli(capsys, "--prime", "7", "classify", "--epsilon", "-1",
                      "--element", '{"a":"0","b":{"a":"0","b":"1"}}')
    assert rc == 0
    assert json.loads(out)["class"] == ["gskew"]


def test_decompose(capsys):
    form = {"epsilon": 1, "rank": 2,
            "gram": [[{"a": "1", "b": "0"}, {"a": "0", "b": "0"}],
                     [{"a": "0", "b": "0"}, {"a": "-1", "b": "0"}]]}
    rc, out = run_cli(capsys, "decompose", "--form", json.dumps(form))
    assert rc == 0
    doc = json.loads(out)
    assert doc["witt_index"] == 1 and doc["witt_class"] == []


def test_decompose_rejects_non_hermitian(capsys):
    form = {"epsilon": 1, "rank": 2,
            "gram": [[{"a": "1"}, {"a": "2"}], [{"a": "3"}, {"a": "1"}]]}
    rc = run(["decompose", "--form", json.dumps(form)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("invalid:")


def test_decompose_reduced_precision_forms(capsys):
    """Forms that lost digits in arithmetic survive the JSON round trip:
    each decomposes, to the Witt class of the form itself."""
    cfg = FieldConfig(5, 32)
    r = rg.rng(7)
    for rank in range(1, 5):
        for t in range(20):
            form = rg.rand_form(cfg, r, 1 if t % 2 == 0 else -1, rank)
            rc, out = run_cli(capsys, "decompose", "--form",
                              json.dumps(sz.form_to_json(form)))
            assert rc == 0, (rank, t)
            assert json.loads(out)["witt_class"] == \
                wc.class_of_form(form).sorted_names()


def test_tower_rejects_non_hermitian(capsys):
    form = {"epsilon": 1, "rank": 2,
            "gram": [[{"a": "1"}, {"a": "2"}], [{"a": "3"}, {"a": "1"}]]}
    beta = {"a": "0", "b": {"a": "0", "b": "1"}}
    rc = run(["tower", "--form", json.dumps(form), "--beta", json.dumps(beta)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("invalid:")


def _f_elem(**kw):
    return {"a": {"a": dict({"base": "F"}, **kw), "b": "0"}, "b": "0"}


def _endo_doc(eps, wtd_odd, lift=False):
    """A one-token endo-parameter, or lift document, whose simple non-null
    token declares the odd-tower trace class wtd_odd."""
    tok = {"id": "c0", "kind": "simple_nonnull", "degree": 2, "e_parity": 0,
           "f_parity": 0, "min_tag": "m0", "aniso_parity": 1, "wtd_odd": wtd_odd}
    doc = {"epsilon": eps, "ambient": {"m": 1, "h_class": []}}
    if lift:
        return json.dumps(dict(doc, lift=[dict(tok, f=1)]))
    tower = {"beta": "token", "tower": {"diman": 1, "selector": 0}}
    return json.dumps(dict(doc, support=[dict(tok, f1=0, f2=tower)]))


@pytest.mark.parametrize("argv, err", [
    (["decompose", "--form", json.dumps(
        {"epsilon": 1, "gram": [[_f_elem(val=0, digits=["x"])]]})],
     "error: digit must be an integer, got 'x'"),
    (["decompose", "--form", json.dumps(
        {"epsilon": 1, "gram": [[_f_elem(val="x", digits=[1])]]})],
     "error: val must be an integer, got 'x'"),
    (["decompose", "--form", json.dumps({"epsilon": 2, "gram": [[{"a": "1"}]]})],
     "error: epsilon must be +1 or -1, got 2"),
    (["decompose", "--form", json.dumps({"epsilon": "x", "gram": [[{"a": "1"}]]})],
     "error: epsilon must be an integer, got 'x'"),
    (["transfer", "--form", json.dumps(
        {"epsilon": 2, "delta": "2", "t": 1, "H": [[{"a": "1", "b": "0"}]]})],
     "error: epsilon must be +1 or -1, got 2"),
    (["decompose", "--form", json.dumps({"epsilon": 1, "gram": []})],
     "error: gram must be a non-empty square matrix of the declared size"),
    (["tower", "--form", json.dumps({"epsilon": 1, "gram": []}),
     "--beta", json.dumps({"a": "0", "b": {"a": "0", "b": "1"}})],
     "error: gram must be a non-empty square matrix of the declared size"),
    (["transfer", "--form", json.dumps({"epsilon": 1, "delta": "2", "H": []})],
     "error: H must be a non-empty square matrix of the declared size"),
    (["transfer", "--form", json.dumps(
        {"epsilon": 1, "delta": "2", "H": [["1", "0"], ["0"]]})],
     "error: H must be a non-empty square matrix of the declared size"),
    (["transfer", "--form", json.dumps(
        {"epsilon": 1, "delta": "2", "H": [["1", "0"]]})],
     "error: H must be a non-empty square matrix of the declared size"),
    (["endo-validate", "--input", json.dumps(
        {"epsilon": "x", "ambient": {"m": 2, "h_class": []}, "support": []})],
     "error: epsilon must be an integer, got 'x'"),
    (["endo-validate", "--input", json.dumps(
        {"epsilon": 1, "ambient": {"m": 2, "h_class": ["bogus"]}, "support": []})],
     "error: h_class: bad coordinates {'bogus'} for eps=1"),
    (["endo-count", "--input", json.dumps(
        {"epsilon": 1, "ambient": {"m": "x", "h_class": []}, "lift": []})],
     "error: m must be an integer, got 'x'"),
    (["endo-validate", "--input", _endo_doc(1, ["bogus"])],
     "error: wtd_odd: bad coordinates {'bogus'} for eps=1"),
    (["endo-count", "--input", _endo_doc(-1, ["g1"], lift=True)],
     "error: wtd_odd: bad coordinates {'g1'} for eps=-1"),
    (["endo-enumerate", "--input", _endo_doc(1, "g1", lift=True)],
     "error: wtd_odd must be a list of generator names"),
    (["endo-validate", "--input", json.dumps(
        {"epsilon": 1, "ambient": {"m": 1, "h_class": []},
         "support": [{"id": "n", "kind": "simple_null", "degree": 1, "f1": 0,
                      "f2": {"beta": "ZERO", "tower": {"witt_class": ["bogus"]}}}]})],
     "error: witt_class: bad coordinates {'bogus'} for eps=1"),
    (["decompose", "--form", json.dumps(
        {"epsilon": 1, "gram": [[_f_elem(val=0, digits=[1.9])]]})],
     "error: digit must be an integer, got 1.9"),
    (["decompose", "--form", json.dumps(
        {"epsilon": 1, "gram": [[_f_elem(val=0.5, digits=[1])]]})],
     "error: val must be an integer, got 0.5"),
    (["decompose", "--form", json.dumps({"epsilon": True, "gram": [[{"a": "1"}]]})],
     "error: epsilon must be an integer, got True"),
    (["decompose", "--form", json.dumps(
        {"epsilon": 1, "gram": [[_f_elem(val=0, digits=[True])]]})],
     "error: digit must be an integer, got True"),
    (["decompose", "--form", json.dumps(
        {"epsilon": 1, "gram": [[_f_elem(val=0, digits="12")]]})],
     "error: digits must be a list"),
    (["decompose", "--form", json.dumps(
        {"epsilon": 1, "gram": [[_f_elem(val=0, digits=[7, 1], prec=3)]]})],
     "error: digit 7 is not in 0..4"),
    (["decompose", "--form", json.dumps(
        {"epsilon": 1, "gram": [[_f_elem(val=0, digits=[1, -3], prec=3)]]})],
     "error: digit -3 is not in 0..4"),
    (["transfer", "--form", json.dumps(
        {"epsilon": 1, "delta": "2", "t": 5, "H": [["1", "0"], ["0", "1"]]})],
     "error: H must be a non-empty square matrix of the declared size"),
    (["decompose", "--form", json.dumps(
        {"epsilon": 1, "gram": [[_f_elem(val=0, digits=[1, 2, 3, 4], prec=2)]]})],
     "error: 4 digits at val 0 exceed prec 2"),
    (["transfer", "--form", json.dumps(
        {"epsilon": 1, "delta": "2", "t": True, "H": [["1"]]})],
     "error: the declared size of H must be an integer, got True"),
    (["decompose", "--form", json.dumps({"epsilon": 1, "rank": True, "gram": [["1"]]})],
     "error: the declared size of gram must be an integer, got True"),
    (["decompose", "--form", json.dumps(
        {"epsilon": 1, "gram": [[_f_elem(val=None, digits=[1, 2, 3], prec=2)]]})],
     "error: a zero (val null) lists no digits"),
    (["decompose", "--form", json.dumps(
        {"epsilon": 1, "gram": [[_f_elem(val=0, digits=[0, 1])]]})],
     "error: unit part must not be divisible by p"),
    (["decompose", "--form", json.dumps(
        {"epsilon": 1, "gram": [[_f_elem(base="L", val=0, digits=[1])]]})],
     "error: expected base F"),
    (["endo-validate", "--input", json.dumps(
        {"epsilon": 1, "ambient": {"m": 2, "h_class": []}, "support": {}})],
     "error: support must be a list"),
    # two E(x)D forms that reach the E-form check: an entry indistinguishable
    # from zero, and an H that is not eps-hermitian
    (["transfer", "--form", json.dumps(
        {"epsilon": 1, "delta": "2",
         "H": [[{"a": {"val": None, "prec": 3}, "b": "0"}]]})],
     "error: H is not eps-hermitian nondegenerate over E"),
    (["transfer", "--form", json.dumps(
        {"epsilon": 1, "delta": "2", "t": 2, "H": [["1", "2"], ["3", "1"]]})],
     "error: H is not eps-hermitian nondegenerate over E"),
], ids=["digit", "val", "epsilon-2", "epsilon-x", "transfer-epsilon-2",
        "gram-empty", "tower-gram-empty", "H-empty", "H-ragged", "H-non-square",
        "endo-epsilon-x", "endo-h-class-bogus", "endo-m-x",
        "endo-wtd-odd-bogus", "endo-wtd-odd-g1-skew", "endo-wtd-odd-string",
        "endo-null-witt-class-bogus", "digit-float", "val-float",
        "epsilon-true", "digit-true", "digits-string", "digit-above-p",
        "digit-negative", "transfer-t-mismatch", "digits-beyond-prec",
        "transfer-t-true", "rank-true", "zero-with-digits",
        "unit-divisible-by-p", "base-L", "support-object",
        "transfer-H-zero", "transfer-H-non-hermitian"])
def test_malformed_json_exits_1(capsys, argv, err):
    rc = run(argv)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == err + "\n"


_NON_HERMITIAN = json.dumps({"epsilon": 1, "gram": [["1", "2"], ["3", "1"]]})


@pytest.mark.parametrize("argv, err", [
    (["decompose", "--form", _NON_HERMITIAN],
     "invalid: not an eps-hermitian Gram matrix"),
    (["tower", "--form", _NON_HERMITIAN, "--beta", '{"a":{"a":"0","b":"1"}}'],
     "invalid: not an eps-hermitian Gram matrix"),
], ids=["decompose", "tower"])
def test_invalid_form_refusals_pinned(capsys, argv, err):
    """A well-formed form that is not eps-hermitian exits 2, not 1."""
    rc = run(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == err + "\n"


def _l(x):
    """An L-element x or x[0] + x[1] u as JSON."""
    return str(x) if isinstance(x, int) else {"a": str(x[0]), "b": str(x[1])}


def _q(a, b):
    """The quaternion a + b pi_D as JSON."""
    return {"a": _l(a), "b": _l(b)}


def _e(a, b):
    """The E-element a + b w as JSON."""
    return {"a": str(a), "b": str(b)}


def _args(*docs):
    return [d if isinstance(d, str) else json.dumps(d, separators=(",", ":"))
            for d in docs]


def _at(p, N, *docs):
    """A request at --prime p --precision N."""
    return ["--prime", str(p), "--precision", str(N), *_args(*docs)]


# Fixed requests, each at its own (p, N), and the SHA-256 of their stdout.
# The tower requests are h = rho(S)^T diag(d) S with beta = S^-1 (beta0 I) S;
# they run h~_beta, F_e and the splitting, and the transfer requests run the
# splitting's inverse matrices and its nullspace vector.  The _13 requests
# run at (13, 128), the configuration of the towers and isometries
# workloads, with the p = 5 documents' multiples of 5 made multiples of 13.
PINNED = {
    "decompose_sym": (_at(5, 32, "decompose", "--form", {"epsilon": 1, "gram": [
        [_q((3, 1), 5), _q((1, 2), (4, 7)), _q(5, (0, 1))],
        [_q((1, 2), (4, -7)), _q(10, 1), _q((0, 3), 10)],
        [_q(5, (0, -1)), _q((0, 3), 10), _q((0, 1), 25)]]}),
        "740ec112806c2a964cda6e276908094a4825e390f2f9ce8f048628aa55a96bc9"),
    "decompose_skew": (_at(5, 32, "decompose", "--form", {"epsilon": -1, "gram": [
        [_q(0, (0, 1)), _q((2, 1), (1, 3))],
        [_q((-2, -1), (-1, 3)), _q(0, (0, 15))]]}),
        "c681fd52f34a606379fd26bbba91d2945cd9f1645e7f03cfdfaea171856d108b"),
    "tower_u": (_at(
        5, 32, "tower", "--form", {"epsilon": 1, "gram": [[_q(0, 1), _q(5, 1)],
                                                          [_q(5, 1), _q(10, 8)]]},
        "--beta", [[_q((0, 1), 0), _q(0, (0, 2))], [_q(0, 0), _q((0, 1), 0)]]),
        "52b73dc7e28ed66884926be95795ddb7cac1ba4c6fb2b5dec6dad2dddee10ad6"),
    "tower_upi": (_at(
        5, 32, "tower", "--form", {"epsilon": -1, "gram": [
            [_q(0, (0, 1)), _q(-10, (-2, 2))], [_q(10, (2, 2)), _q(0, (0, 15))]]},
        "--beta", [[_q(0, 1), _q((0, -10), (0, -2))], [_q(0, 0), _q(0, 1)]]),
        "64c9caf6c66f307e556037da490f1bc92e2d58e4b45f08e06bc064fa8d21ddd3"),
    "transfer_unram": (_at(5, 32, "transfer", "--form", {
        "epsilon": 1, "delta": "2", "t": 2,
        "H": [[_e(1, 0), _e(2, 1)], [_e(2, -1), _e(5, 0)]]}),
        "cc918825a6afa937130f6d8e2c7bd8a5ed4abd1399a3187f5861da5d9491a7e7"),
    "transfer_ram": (_at(5, 32, "transfer", "--form", {
        "epsilon": -1, "delta": "5", "t": 2,
        "H": [[_e(0, 1), _e(1, 2)], [_e(-1, 2), _e(0, 3)]]}),
        "1349674973dc1aec3e981558707cefe46ee903471dbed11b16a290a40085c195"),
    "decompose_sym_13": (_at(13, 128, "decompose", "--form", {"epsilon": 1, "gram": [
        [_q((3, 1), 13), _q((1, 2), (4, 7)), _q(13, (0, 1))],
        [_q((1, 2), (4, -7)), _q(26, 1), _q((0, 3), 26)],
        [_q(13, (0, -1)), _q((0, 3), 26), _q((0, 1), 169)]]}),
        "11899168eaa1863185648d59b799e70d67c1c81db02a8b0a5ce3f00ee7bd1930"),
    "tower_u_13": (_at(
        13, 128, "tower", "--form", {"epsilon": 1, "gram": [[_q(0, 1), _q(13, 1)],
                                                            [_q(13, 1), _q(26, 8)]]},
        "--beta", [[_q((0, 1), 0), _q(0, (0, 2))], [_q(0, 0), _q((0, 1), 0)]]),
        "52b73dc7e28ed66884926be95795ddb7cac1ba4c6fb2b5dec6dad2dddee10ad6"),
    "tower_upi_13": (_at(
        13, 128, "tower", "--form", {"epsilon": -1, "gram": [
            [_q(0, (0, 1)), _q(-26, (-2, 2))], [_q(26, (2, 2)), _q(0, (0, 39))]]},
        "--beta", [[_q(0, 1), _q((0, -26), (0, -2))], [_q(0, 0), _q(0, 1)]]),
        "64c9caf6c66f307e556037da490f1bc92e2d58e4b45f08e06bc064fa8d21ddd3"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_output(capsys, name):
    argv, digest = PINNED[name]
    rc, out = run_cli(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# decompose requests whose forms make diagonalize split a hyperbolic plane,
# a branch that no workload operation takes at seeds 1-3: <5> perp H at
# eps = 1 and the eps = -1 plane, with (witt_index, witt_class, SHA-256 of
# stdout).  CI runs the same two documents under two hash seeds.
HYPERBOLIC = {
    "sym": ('{"epsilon":1,"gram":[["0","1","0"],["1","0","0"],["0","0","5"]]}',
            1, ["g1"],
            "eeb8f41dc173d2f3ad7e85e4d39699cbeab0d377e83f03dd38e5b7c6c79ae2ab"),
    "skew": ('{"epsilon":-1,"gram":[["0","1"],["-1","0"]]}', 1, [],
             "c681fd52f34a606379fd26bbba91d2945cd9f1645e7f03cfdfaea171856d108b"),
}


@pytest.mark.parametrize("name", sorted(HYPERBOLIC))
def test_decompose_hyperbolic_pinned(capsys, name):
    form, index, cls, digest = HYPERBOLIC[name]
    rc, out = run_cli(capsys, *_at(5, 32, "decompose", "--form", form))
    assert rc == 0
    doc = json.loads(out)
    assert (doc["witt_index"], doc["witt_class"]) == (index, cls)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_decompose_lost_digits_exits_3(capsys):
    """A rank-3 eps = -1 form with zero diagonal, its coordinates known to
    4-6 digits: the elimination splits no plane and leaves a block
    indistinguishable from zero only because its entries lost digits.  The
    exact form is nondegenerate (one hyperbolic pair and an entry with
    nu_D = 7), so the request is inconclusive (exit 3), not invalid."""
    # exact (a0, a1, b0, b1) above the diagonal, each with its digits known
    upper = {(0, 1): ((73500, 292125, 5365, 265550), (4, 5, 4, 6)),
             (0, 2): ((1145875, 14258, 10652, 0), (4, 5, 5, 6)),
             (1, 2): ((51875, 0, 36250, 455375), (4, 6, 6, 4))}
    diag_caps = ((5, 5, 4, 4), (6, 5, 6, 6), (5, 6, 6, 6))
    cfg = FieldConfig(5, 8)
    X = ExactD(5, cfg.nonresidue_r)

    def tracked(x, caps):
        a0, a1, b0, b1 = (known_to(cfg, Fraction(q), k)
                          for q, k in zip(x, caps))
        return Q(QuadExtElement(cfg.L_field, a0, a1),
                 QuadExtElement(cfg.L_field, b0, b1))

    M = [[X.zero] * 3 for _ in range(3)]
    G = [[tracked(X.zero, diag_caps[i]) if i == j else None for j in range(3)]
         for i in range(3)]
    for (i, j), (x, caps) in upper.items():
        M[i][j] = tuple(Fraction(q) for q in x)
        M[j][i] = (-M[i][j][0], -M[i][j][1], -M[i][j][2], M[i][j][3])
        G[i][j] = tracked(x, caps)
        G[j][i] = -G[i][j].bar()
    _, entries = X.diagonalize(M, -1)
    assert [X.nu_D(e) for e in entries] == [7]
    form = json.dumps(sz.form_to_json(HermitianForm.from_rows(-1, G)))
    assert run(_at(5, 8, "decompose", "--form", form)) == 3
    assert capsys.readouterr().err == \
        "inconclusive: remaining block is indistinguishable from zero\n"


def _f_fields(doc):
    """Every F-element object in a JSON document."""
    if isinstance(doc, dict):
        if doc.get("base") == "F":
            return [doc]
        doc = list(doc.values())
    if isinstance(doc, list):
        return [f for x in doc for f in _f_fields(x)]
    return []


def test_transfer_split_follows_delta_precision(capsys):
    """The splitting is built for delta's digits and its precision: in one
    process, a transfer with delta known to 12 digits and one with delta
    exact print the same outputs in either order, and the first certifies
    no nonzero coordinate beyond delta's 12 digits."""
    H = [["1", "0"], ["0", "3"]]
    docs = [{"epsilon": 1, "delta": "2", "t": 2, "H": H},
            {"epsilon": 1, "t": 2, "H": H,
             "delta": {"base": "F", "val": 0, "digits": [2], "prec": 12}}]
    outs = []
    for doc in docs + docs:
        rc, out = run_cli(capsys, "--prime", "5", "--precision", "32",
                          "transfer", "--form", json.dumps(doc))
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[2] and outs[1] == outs[3]
    full, low = (_f_fields(json.loads(o)["form"]) for o in outs[:2])
    assert max(f["prec"] for f in full if f["val"] is not None) > 12
    assert max(f["prec"] for f in low if f["val"] is not None) <= 12


@pytest.mark.parametrize("delta,why", [
    ("125", "valuation 0 or 1, not 3"), ("25", "valuation 0 or 1, not 2"),
    ({"base": "F", "val": -1, "digits": [1]}, "valuation 0 or 1, not -1"),
    ("4", "unit square")], ids=["125", "25", "1/5", "4"])
def test_transfer_refuses_unnormalized_delta(capsys, delta, why):
    """delta is read as given: E = F(sqrt(delta)) needs a non-square unit
    or a delta of valuation 1, and any other delta exits 2 with the reason.
    Read in the field of a rescaled delta, the same H (b != 0) would be
    another form."""
    doc = {"epsilon": 1, "delta": delta, "t": 2,
           "H": [[_e(1, 0), _e(0, 1)], [_e(0, -1), _e(2, 0)]]}
    rc = run(["--prime", "5", "--precision", "32", "transfer", "--form",
              json.dumps(doc)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("invalid: ") and why in captured.err


def test_tower_and_transfer(capsys, tmp_path):
    form = {"epsilon": 1, "rank": 1, "gram": [[{"a": "1", "b": "0"}]]}
    beta = {"a": "0", "b": {"a": "0", "b": "1"}}   # u pi_D, skew for <1>
    rc, out = run_cli(capsys, "tower", "--form", json.dumps(form),
                      "--beta", json.dumps(beta))
    assert rc == 0
    doc = json.loads(out)
    assert doc["tower_class"]["anisotropic_dim"] == 1
    assert doc["trace_class"] == ["g1"]

    fpath = tmp_path / "ed.json"
    fpath.write_text(json.dumps(
        {"epsilon": 1, "delta": "2", "t": 2,
         "H": [[{"a": "0", "b": "0"}, {"a": "1", "b": "0"}],
               [{"a": "1", "b": "0"}, {"a": "0", "b": "0"}]]}))
    rc, out = run_cli(capsys, "transfer", "--form", f"@{fpath}")
    assert rc == 0
    assert json.loads(out)["class"] == []   # hyperbolic stays hyperbolic


def test_endo_commands(capsys):
    doc = {"epsilon": 1, "ambient": {"m": 2, "h_class": ["g1", "gpi"]},
           "lift": [
               {"id": "c1", "kind": "simple_nonnull", "degree": 2,
                "e_parity": 1, "f_parity": 0, "min_tag": "u",
                "aniso_parity": 1, "wtd_odd": ["g1"], "f": 1},
               {"id": "c2", "kind": "simple_nonnull", "degree": 2,
                "e_parity": 0, "f_parity": 1, "min_tag": "r",
                "aniso_parity": 1, "wtd_odd": ["gpi"], "f": 1}]}
    rc, out = run_cli(capsys, "endo-count", "--input", json.dumps(doc))
    assert rc == 0 and json.loads(out)["count"] == 4
    rc, out = run_cli(capsys, "endo-enumerate", "--input", json.dumps(doc))
    assert rc == 0
    params = json.loads(out)["parameters"]
    assert len(params) == 4
    rc, out = run_cli(capsys, "endo-validate", "--input", json.dumps(params[0]))
    assert rc == 0 and json.loads(out)["valid"]
    bad = dict(params[0])
    bad["ambient"] = {"m": 99, "h_class": params[0]["ambient"]["h_class"]}
    rc, out = run_cli(capsys, "endo-validate", "--input", json.dumps(bad))
    assert rc == 2
    assert "degree" in json.loads(out)["diagnostics"]


def test_endo_validate_negative_f1_exits_2(capsys):
    """A parameter with f1 = -1 parses, and endo-validate reports it as
    invalid with exit 2: f1_negative, and the degree it makes negative."""
    doc = json.loads(_endo_doc(1, ["g1"]))
    doc["ambient"]["h_class"] = ["g1"]
    doc["support"][0]["f1"] = -1
    rc, out = run_cli(capsys, "endo-validate", "--input", json.dumps(doc))
    assert rc == 2
    res = json.loads(out)
    assert res["valid"] is False
    assert res["diagnostics"] == ["f1_negative:c0", "degree"]
    assert res["degree"] == -2 and res["lift"] == {"c0": -1}


def test_endo_validate_tower_for_another_class_exits_2(capsys):
    """A simple non-null token whose Witt type is a tower over beta = 0, not
    over the token itself, is reported as tower_not_for_class with exit 2;
    f1 = 0, so the degree 2 falls short of 2m = 4."""
    doc = json.loads(_endo_doc(1, ["g1"]))
    doc["ambient"] = {"m": 2, "h_class": ["g1"]}
    doc["support"][0]["f2"] = {"beta": "ZERO", "tower": {"witt_class": ["g1"]}}
    rc, out = run_cli(capsys, "endo-validate", "--input", json.dumps(doc))
    assert rc == 2
    res = json.loads(out)
    assert res["valid"] is False
    assert res["diagnostics"] == ["tower_not_for_class:c0", "degree"]


# The exit code and stderr prefix of every library error class.
VERDICTS = {sz.MalformedInput: (1, "error")}
VERDICTS.update({cls: (3, "inconclusive") for cls in (
    er.PrecisionExhausted, er.OracleInconclusive, er.NoSimilitudeFound)})
VERDICTS.update({cls: (2, "invalid") for cls in (
    er.DegenerateForm, er.EpsilonMismatch, er.IndistinguishableZero,
    er.InvalidParameter, er.InfeasibleLift, er.IncomparableTokens,
    er.NotASquare, er.NotQuadratic, er.NotSkewAdjoint, er.Singular,
    er.WrongSymmetryType, er.DivisionByIndistinguishableZero)})
VERDICTS.update({cls: (2, "error") for cls in (
    er.WrongBase, er.NotSelfAdjoint, er.NotInD)})


def _error_classes(base=er.HermiwittError):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


def test_exit_codes(capsys, monkeypatch):
    # every concrete error class has its verdict in the table
    assert {c for c in _error_classes() if not c.__subclasses__()} <= set(VERDICTS)
    for cls, (code, label) in VERDICTS.items():
        def fail(cfg, args, cls=cls):
            raise cls("boom")

        monkeypatch.setitem(cli._COMMANDS, "classify", fail)
        rc = run(["classify", "--epsilon", "1", "--element", "1"])
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (code, "", f"{label}: boom\n"), cls
    monkeypatch.undo()

    rc, _ = run_cli(capsys, "classify", "--epsilon", "1", "--element", "garbage")
    assert rc == 1
    rc, _ = run_cli(capsys, "classify", "--epsilon", "1", "--element",
                    '{"a":"0","b":"0"}')
    assert rc == 2
    rc, _ = run_cli(capsys, "nonsense")
    assert rc == 1
    rc, _ = run_cli(capsys, "--prime", "4", "classify", "--epsilon", "1",
                    "--element", '{"a":"1","b":"0"}')
    assert rc == 1
    rc, _ = run_cli(capsys, "--precision", "4", "classify", "--epsilon", "1",
                    "--element", '{"a":"1","b":"0"}')
    assert rc == 1


def test_byte_identical_output(capsys):
    args = ("classify", "--epsilon", "1", "--element", '{"a":"7","b":"0"}')
    rc1, out1 = run_cli(capsys, *args)
    rc2, out2 = run_cli(capsys, *args)
    assert rc1 == rc2 == 0 and out1 == out2


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HERMIWITT_PRECISION", "16")
    from hermiwitt.cli import build_parser

    args = build_parser().parse_args(["selftest"])
    assert args.precision == 16


def test_precision_env_read_on_every_run(capsys, monkeypatch):
    """Each run() call takes its default precision from HERMIWITT_PRECISION
    as it is at that call."""
    form = json.dumps({"epsilon": 1, "gram": [["1"]]})
    for prec in (16, 20):
        monkeypatch.setenv("HERMIWITT_PRECISION", str(prec))
        rc, out = run_cli(capsys, "decompose", "--form", form)
        assert rc == 0
        assert json.loads(out)["anisotropic"][0]["a"]["a"]["prec"] == prec


def test_missing_at_file_is_malformed(capsys):
    rc, _ = run_cli(capsys, "classify", "--epsilon", "1", "--element",
                    "@/nonexistent/path.json")
    assert rc == 1


# One well-formed document per subcommand, for the fuzz below.
_TOKENS = [{"id": f"c{i}", "kind": "simple_nonnull", "degree": 2,
            "e_parity": i % 2, "f_parity": 0, "min_tag": "m",
            "aniso_parity": 1, "wtd_odd": [g]} for i, g in ((1, "g1"), (2, "gpi"))]
_NULL = {"id": "n", "kind": "simple_null", "degree": 1}
_LIFT = {"epsilon": 1, "ambient": {"m": 4, "h_class": ["g1", "gpi"]},
         "lift": [dict(_TOKENS[0], f=1), dict(_TOKENS[1], f=1), dict(_NULL, f=4)]}
FUZZ_SEEDS = {
    "classify": ("--epsilon", "1", "--element", _q((3, 2), 5)),
    "decompose": ("--form", {"epsilon": 1, "rank": 2, "gram": [
        [_q(1, 0), _q((1, 2), (4, 7))], [_q((1, 2), (4, -7)), _q(-1, 0)]]}),
    "tower": ("--form", {"epsilon": 1, "rank": 1, "gram": [[_q(1, 0)]]},
              "--beta", _q(0, (0, 1))),
    "transfer": ("--form", {"epsilon": 1, "delta": "2", "t": 2, "H": [
        [_e(0, 0), {"a": {"base": "F", "val": 0, "digits": [1], "prec": 12},
                    "b": "0"}],
        [_e(1, 0), _e(0, 0)]]}),
    "endo-validate": ("--input", {
        "epsilon": 1, "ambient": {"m": 3, "h_class": ["g1", "gpi", "galpha"]},
        "support": [
            dict(_TOKENS[0], f1=0, f2={"beta": "token",
                                       "tower": {"diman": 1, "selector": 0}}),
            dict(_TOKENS[1], f1=0, f2={"beta": "token",
                                       "tower": {"diman": 1, "selector": 1}}),
            dict(_NULL, f1=0, f2={"beta": "ZERO",
                                  "tower": {"witt_class": ["galpha"]}})]}),
    "endo-enumerate": ("--input", _LIFT),
    "endo-count": ("--input", _LIFT),
}
_ATOMS = (None, True, False, 0, 1, -1, 2, 10**6, -10**6, 1.5, "", "x", "1",
          "-3", [], {}, [1], {"a": 1}, "HYP", "ZERO", "token")


def _mutate(x, r):
    """x with random damage: each node is replaced by an atom or wrapped,
    with probability 1/8; each key of an object is deleted with probability
    0.15; each element of a list is dropped or repeated with probability 0.1."""
    if r.random() < 1 / 8:
        if r.random() < 0.5:
            return r.choice(_ATOMS)
        return r.choice(([x], {"a": x}, [x, x]))
    if isinstance(x, dict):
        return {k: _mutate(v, r) for k, v in x.items() if r.random() >= 0.15}
    if isinstance(x, list):
        out = []
        for v in x:
            u = r.random()
            if u >= 0.05:
                out.append(_mutate(v, r))
            if u < 0.1:
                out.append(_mutate(v, r))
        return out
    return x


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = run(argv)
    return rc, out.getvalue(), err.getvalue()


def test_fuzz_seed_documents_are_answered():
    for cmd, args in FUZZ_SEEDS.items():
        rc, out, err = _outcome(["--prime", "5", "--precision", "16", cmd,
                                 *_args(*args)])
        assert (rc, err) == (0, ""), (cmd, err)


STDERR_PREFIXES = {1: ("error:",), 2: ("error:", "invalid:"),
                   3: ("inconclusive:",)}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(hs.sampled_from(sorted(FUZZ_SEEDS)), hs.randoms(use_true_random=False))
def test_fuzz_malformed_documents(cmd, r):
    """Damaged documents never raise out of run(): each gets an exit code
    in {0, 1, 2, 3}, at most one JSON line on stdout, the stderr prefix of
    its exit code, and the same outcome when run again."""
    args = FUZZ_SEEDS[cmd]
    argv = ["--prime", "5", "--precision", "16", cmd,
            *_args(*args[:-1], _mutate(args[-1], r))]
    rc, out, err = _outcome(argv)
    assert rc in (0, 1, 2, 3)
    assert out == "" or "\n" not in out[:-1] and out.endswith("\n")
    if rc == 0:
        json.loads(out)
        assert err == ""
    elif out:
        assert rc == 2 and cmd == "endo-validate"
        assert json.loads(out)["valid"] is False and err == ""
    else:
        assert err.startswith(STDERR_PREFIXES[rc]), err
    assert _outcome(argv) == (rc, out, err)


@pytest.mark.parametrize("argv", [["--help"], ["decompose", "-h"]])
def test_help_is_returned_not_raised(capsys, argv):
    """argparse exits after printing the help; run returns that status."""
    rc, out = run_cli(capsys, *argv)
    assert rc == 0
    assert out.startswith("usage: hermiwitt")


def test_large_prime_answers_quickly(capsys):
    """A prime near 10^18 is certified by Miller-Rabin, not trial division:
    the request answers within 2 s (an alarm stops it otherwise)."""
    def too_slow(signum, frame):
        raise TimeoutError("classify at p = 10^18 + 3 took over 2 s")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        rc, out = run_cli(capsys, "--prime", "1000000000000000003", "classify",
                          "--epsilon", "1", "--element", '"1"')
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert (rc, out) == (0, '{"anisotropic_dim":1,"class":["g1"]}\n')


@pytest.mark.parametrize("prime", [
    "1000000000000000001",  # 101 * 9901 * 999999000001
    "318665857834031151167461",  # strong pseudoprime to the first 12 primes
    "3317044064679887385961981",  # Miller-Rabin's exactness bound
], ids=["composite-1e18", "psi12", "mr-bound"])
def test_composite_or_huge_prime_exits_1(capsys, prime):
    rc = run(["--prime", prime, "classify", "--epsilon", "1", "--element", '"1"'])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: p must be")


def test_error_text_is_independent_of_hash_seed():
    """A bad h_class names its coordinates in one order whatever the
    interpreter's string hashing: two processes under PYTHONHASHSEED 1 and
    2 give the same exit code and stderr."""
    doc = '{"epsilon":1,"ambient":{"m":1,"h_class":["g1","x","gpi"]},"lift":[]}'
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "hermiwitt.cli", "endo-count", "--input", doc],
            env=env, capture_output=True, text=True, timeout=60)
        runs.append((proc.returncode, proc.stderr))
    assert runs[0] == runs[1]
    assert runs[0][0] == 1 and "bad coordinates" in runs[0][1]
