"""Tests of the benchmark's own arithmetic, inputs, answer checks and tracer.

Run from the root of the repository::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

import pytest

import check
import gen
import run
from zd import SplitMix64, Zd, nonresidue, squares_mod

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRIMES = (3, 5, 7, 13)


def rand_elems(zd, count, seed=1):
    rng = SplitMix64(seed)
    return [gen.rand_quat(rng, zd) for _ in range(count)]


# -- zd: hand-worked cases and brute force over residues ----------------------------

@pytest.mark.parametrize("p", PRIMES)
def test_relations_of_D(p):
    zd = Zd(p, 6)
    P = zd.P
    assert zd.mul(zd.PI, zd.PI) == (p, 0, 0, 0)
    assert zd.mul(zd.U, zd.U) == (zd.r, 0, 0, 0)
    assert zd.mul(zd.PI, zd.U) == (0, 0, 0, P - 1)       # pi u = tau(u) pi
    assert zd.mul(zd.U, zd.PI) == zd.UPI
    assert zd.rho(zd.UPI) == (0, 0, 0, P - 1)            # u pi_D is skew


@pytest.mark.parametrize("p", PRIMES)
def test_ring_laws(p):
    zd = Zd(p, 8)
    xs = rand_elems(zd, 12, seed=p)
    for x, y, z in zip(xs[0::3], xs[1::3], xs[2::3]):
        assert zd.mul(zd.mul(x, y), z) == zd.mul(x, zd.mul(y, z))
        assert zd.rho(zd.mul(x, y)) == zd.mul(zd.rho(y), zd.rho(x))
        assert zd.nrd(zd.mul(x, y)) == zd.nrd(x) * zd.nrd(y) % zd.P
    u = gen.rand_unit_quat(SplitMix64(p), zd)
    assert zd.mul(u, zd.inv_unit(u)) == zd.ONE


@pytest.mark.parametrize("p", PRIMES)
def test_nonresidue_and_fp2_squares_by_brute_force(p):
    assert nonresidue(p) not in squares_mod(p)
    assert all(r in squares_mod(p) for r in range(1, nonresidue(p)))
    zd = Zd(p, 1)
    squares = {zd._fp2_mul((a, b), (a, b))
               for a in range(p) for b in range(p) if (a, b) != (0, 0)}
    assert len(squares) == (p * p - 1) // 2
    for a, b in itertools.product(range(p), repeat=2):
        if (a, b) != (0, 0):
            assert zd.fp2_is_square(a, b) == ((a, b) in squares)


@pytest.mark.parametrize("p", PRIMES)
def test_line_class_hand_worked(p):
    zd = Zd(p, 10)
    alpha = gen.rand_nonsquare_unit(SplitMix64(p), zd)
    assert zd.line_class(zd.ONE, 1) == "g1"
    assert zd.line_class(alpha, 1) == "galpha"
    assert zd.line_class(zd.PI, 1) == "gpi"
    assert zd.line_class(zd.scale(p, zd.ONE), 1) == "g1"       # p = rho(pi) pi
    assert zd.line_class(zd.scale(p, zd.PI), 1) == "gpi"
    assert zd.line_class(zd.UPI, -1) == "gskew"
    assert zd.line_class(zd.UPI, 1) is None                    # not symmetric
    assert zd.line_class(zd.ONE, -1) is None                   # not skew
    assert zd.line_class(zd.ZERO, 1) is None
    # the leading term decides: 1 + pi_D is congruent to 1
    assert zd.line_class(zd.add(zd.ONE, zd.PI), 1) == "g1"


@pytest.mark.parametrize("p", PRIMES)
def test_line_entries_have_the_class_of_r(p):
    zd = Zd(p, 12)
    rng = SplitMix64(7 * p)
    for eps in (1, -1):
        for _ in range(30):
            d, cls = gen.line_entry(rng, zd, eps)
            assert zd.line_class(d, eps) == cls


def test_unipotent_inverse_and_invertible():
    zd = Zd(5, 10)
    rng = SplitMix64(3)
    S = gen.rand_upper_unipotent(rng, zd, 4)
    assert zd.mat_mul(S, zd.unipotent_inverse(S)) == zd.identity(4)
    M = zd.congruence(gen.rand_invertible(rng, zd, 3),
                      zd.diag([zd.ONE, zd.PI, zd.U]))
    assert M == [[zd.rho(M[j][i]) for j in range(3)] for i in range(3)]


# -- gen: inputs from the seed alone -------------------------------------------------

@pytest.mark.parametrize("workload", tuple(gen.CONFIGS))
def test_inputs_depend_on_the_seed_alone(workload):
    a, b = gen.make(workload, 5), gen.make(workload, 5)
    assert json.dumps(a) == json.dumps(b)
    assert json.dumps(a[1]) != json.dumps(gen.make(workload, 6)[1])
    assert len(a[1]) == len(a[2]) == gen.ROUND.get(workload, len(gen.SMALL_ROUND))


def test_generation_imports_nothing_from_hermiwitt():
    code = ("import sys, gen, check\n"
            "[gen.make(w, 1) for w in gen.CONFIGS]\n"
            "print(any(m.split('.')[0] == 'hermiwitt' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=os.path.dirname(__file__),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _brute_force_count(doc) -> int:
    """Endo-parameters with the document's lift, by trying every tower."""
    eps = doc["epsilon"]
    gens = gen._gens(eps)
    per_token = []
    for tok in doc["lift"]:
        f, opts = tok["f"], []
        if tok["kind"] == "nonsimple_pair":
            opts.append((f, set()))
        elif tok["kind"] == "simple_nonnull":
            for diman, count in ((0, 1), (1, 2), (2, 1)):
                if diman % 2 == tok["aniso_parity"] and (f - diman) % 2 == 0 \
                        and f - diman >= 0:
                    wt = set(tok["wtd_odd"]) if diman == 1 else set()
                    opts += [((f - diman) // 2, wt)] * count
        else:
            for k in range(len(gens) + 1):
                for cls in itertools.combinations(gens, k):
                    f1 = f // 2 - k
                    if f % 2 == 0 and f1 >= 0 and f1 % 2 == 0:
                        opts.append((f1, set(cls)))
        per_token.append(opts)
    h = set(doc["ambient"]["h_class"])
    return sum(1 for combo in itertools.product(*per_token)
               if check.xor(c for _, wt in combo for c in wt) == h)


def test_closed_form_count_matches_brute_force():
    rng = SplitMix64(11)
    for i in range(60):
        doc, expect = gen.lift_doc(rng, 1 if i % 2 else -1, 2 + i % 3, i % 4 >= 2)
        assert _brute_force_count(doc) == expect["count"]


# -- checks against the program, and corrupted answers -----------------------------------

@pytest.fixture(scope="module")
def runner():
    sys.path.insert(0, os.path.dirname(__file__))
    import worker

    return worker.Runner


def _outputs(runner_cls, workload, n):
    p, N, _ = gen.CONFIGS[workload]
    warm, ops, expects = gen.make(workload, 3)
    r = runner_cls(ROOT, p, N)
    ops, expects = ops[:n], expects[:n]
    results = [r.run(r.prepare(op)) for op in ops]
    report = {"results": [[[rc, r.render(raw), 1]] for rc, raw in results]}
    return Zd(p, N), ops, expects, report


def _corrupt(kind, doc):
    if kind == "decompose":
        doc["witt_class"] = sorted(set(doc["witt_class"]) ^ {"g1"})
    elif kind == "tower":
        doc["trace_class"] = sorted(set(doc["trace_class"]) ^ {"gpi"})
    elif kind == "classify":
        doc["class"] = ["g1"] if doc["class"] != ["g1"] else ["galpha"]
    elif kind == "isometry":
        doc["g"][0][0]["a"]["a"]["digits"][0] ^= 1
    elif kind == "endo-validate":
        doc["degree"] += 2
    else:
        doc["count"] += 1
    return json.dumps(doc)


@pytest.mark.parametrize("workload,n", [("decompose", 2), ("towers", 4),
                                        ("isometries", 1), ("small", 20)])
def test_program_answers_pass_and_corrupted_answers_fail(runner, workload, n):
    zd, ops, expects, report = _outputs(runner, workload, n)
    assert run.grade(zd, ops, expects, report) == (n, 0, 0, [])
    for i, op in enumerate(ops):
        rc, text, _ = report["results"][i][0]
        bad = list(report["results"])
        bad[i] = [[rc, text, 2], [rc, _corrupt(op["kind"], json.loads(text)), 1]]
        attempted, failed, wrong, _ = run.grade(zd, ops, expects, {"results": bad})
        assert (attempted, failed, wrong) == (n + 2, 1, 1), op["kind"]
    bad = [[[2, "invalid: refused\n", 1]]] + report["results"][1:]
    assert run.grade(zd, ops, expects, {"results": bad})[1:3] == (1, 0)


def _quat_doc(coords, prec):
    """Quaternion document with (val, digits) or None per coordinate."""
    return {x: {y: {"base": "F", "val": None if c is None else c[0],
                    "digits": [] if c is None else c[1], "prec": prec}
                for y, c in zip("ab", pair)}
            for x, pair in zip("ab", (coords[:2], coords[2:]))}


def test_anisotropic_entries_are_classified_by_the_benchmark():
    zd = Zd(5, 8)
    one = _quat_doc([(0, [1]), None, None, None], 8)
    expect = {"eps": 1, "rank": 3, "classes": ["g1", "g1", "gpi"]}
    doc = {"witt_class": ["gpi"], "witt_index": 1, "anisotropic": [one]}
    assert check.check_decompose(zd, expect, doc) == \
        "anisotropic entries have classes ['g1']"
    # an entry of negative valuation, p^-1 u pi_D, is scaled by p^2 first
    skew = _quat_doc([None, None, None, (-1, [1, 3])], 7)
    expect = {"eps": -1, "rank": 3, "classes": ["gskew"] * 3}
    doc = {"witt_class": ["gskew"], "witt_index": 1, "anisotropic": [skew]}
    assert check.check_decompose(zd, expect, doc) is None


# -- the tracer ------------------------------------------------------------------------

def test_tracer_patches_every_binding_and_restores_them(runner):
    p, N, _ = gen.CONFIGS["towers"]
    r = runner(ROOT, p, N)
    import trace_layers
    from hermiwitt import hermitian, morita, padic, quaternion
    from hermiwitt.padic import FElement

    before = (morita.dmat_inv, morita.vec_apply, quaternion.tau_conj,
              hermitian.tau_conj, FElement.__radd__)
    tracer = trace_layers.Tracer()
    tracer.install()
    try:
        assert morita.dmat_inv is hermitian.dmat_inv is not before[0]
        assert quaternion.tau_conj is padic.tau_conj is not before[2]
        assert FElement.__radd__ is FElement.__add__ is not before[4]
        ops = gen.make("towers", 3)[1]
        tracer.mark()
        rc, out = r.run(ops[0])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert before == (morita.dmat_inv, morita.vec_apply, quaternion.tau_conj,
                      hermitian.tau_conj, FElement.__radd__)
    layers = tracer.per_op(1)
    assert {m for m, *_ in trace_layers.LAYERS} == set(layers)
    assert layers["morita.split_calls"]["value"] == 1
    assert layers["morita.cmat_inv_calls"]["value"] >= 1
    assert layers["hermitian.dmat_inv_calls"]["value"] >= 1
    assert layers["quaternion.mul_calls"]["value"] > 0
    assert layers["morita.compute_htilde_beta_ms"]["value"] > 0
    assert layers["endo.validate_ms"]["value"] == 0
    names = tracer.names
    assert all(-1 <= parent < i for i, (_, _, _, parent) in enumerate(tracer.spans))
    assert "morita.compute_htilde_beta" in names


def test_self_time_subtracts_children():
    import trace_layers

    tracer = trace_layers.Tracer()
    tracer.names = ["cli.run", "cli.build_parser"]
    tracer.spans = [[0, 0, 10_000_000, -1], [1, 1_000_000, 4_000_000, 0]]
    layers = tracer.per_op(1)
    assert layers["cli.run.self_ms"]["value"] == 7.0
    assert layers["cli.build_parser_ms"]["value"] == 3.0


# -- reference: scaling times by the reference computation ----------------------------

def test_scaling_by_the_local_reference():
    import reference

    lat = [2_000_000] * 20
    # the reference reads the nominal time for ten operations, then twice it
    refs = [1_000] * 10 + [2_000] * 10
    out = reference.scaled_ms(lat, refs, nominal_ns=1_000)
    assert out[:10 - reference.HALF] == [2.0] * (10 - reference.HALF)
    assert out[10 + reference.HALF:] == [1.0] * (10 - reference.HALF)
    # a single stray reference time around an operation does not move it
    refs[3] = 50
    assert reference.scaled_ms(lat, refs, nominal_ns=1_000)[3] == 2.0


def test_reference_is_the_same_computation_for_every_run():
    import reference

    a, b = reference.Reference(13, 128), reference.Reference(13, 128)
    assert a.A == b.A and a.nominal_ns == reference.NOMINAL_MS[(13, 128)] * 1e6
    assert a.time_ns() > 0
    assert {(p, N) for p, N, _ in gen.CONFIGS.values()} <= set(reference.NOMINAL_MS)
