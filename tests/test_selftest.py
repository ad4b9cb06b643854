import hashlib
import random

from hermiwitt import randgen as rg
from hermiwitt import selftest as st

# run_all's records at p = 5, N = 32 with seed 7, in suite order
RECORDS_5_32_SEED7 = [
    {"name": "padic_arith", "passed": 2000, "failed": 0},
    {"name": "padic_tau_norm", "passed": 3000, "failed": 0},
    {"name": "padic_squares", "passed": 900, "failed": 0},
    {"name": "quaternion_rho", "passed": 2000, "failed": 0},
    {"name": "quaternion_nrd", "passed": 2000, "failed": 0},
    {"name": "quaternion_decomp", "passed": 602, "failed": 0},
    {"name": "hermitian_congruence", "passed": 500, "failed": 0},
    {"name": "hermitian_hyperbolic", "passed": 100, "failed": 0},
    {"name": "hermitian_nrd1", "passed": 400, "failed": 0},
    {"name": "hermitian_twist", "passed": 200, "failed": 0},
    {"name": "hermitian_trace_lift", "passed": 1020, "failed": 0},
    {"name": "wittclass_closure", "passed": 3, "failed": 0},
    {"name": "wittclass_scaling", "passed": 1000, "failed": 0},
    {"name": "wittclass_congruence", "passed": 500, "failed": 0},
    {"name": "wittclass_oracle", "passed": 1000, "failed": 0, "inconclusive": 0},
    {"name": "wittclass_form_invariance", "passed": 200, "failed": 0},
    {"name": "morita_phi_relations", "passed": 4, "failed": 0},
    {"name": "morita_fe_sums", "passed": 100, "failed": 0},
    {"name": "morita_independence", "passed": 100, "failed": 0},
    {"name": "morita_trl", "passed": 60, "failed": 0},
    {"name": "endo_count_closed_form", "passed": 400, "failed": 0},
    {"name": "endo_equiv_relation", "passed": 381, "failed": 0},
    {"name": "endo_selector_flip", "passed": 410, "failed": 0},
]

# sha256 over each suite's name and the end state of every seeded generator
# it drew from, at p = 5, N = 32 with seed 7
STREAMS_5_32_SEED7 = (
    "a5323376783f40eb8b728ce083904dd242eda2b2653bca2d1f32f04203d9daf4")


def test_all_suites_pass(cfg5, monkeypatch):
    """Every suite passes at (5, 32) with seed 7 with exactly its pinned
    record, and each suite's seeded generators end where they are pinned to
    end: every suite passes, so counts alone cannot show that a suite still
    draws the same inputs.  A generator still in its seed state drew nothing
    and is skipped."""
    made = []
    real_rng = rg.rng

    def rng(seed):
        made.append((seed, real_rng(seed)))
        return made[-1][1]

    drawn = []

    def traced(fn):
        def run(cfg, seed):
            start = len(made)
            try:
                return fn(cfg, seed)
            finally:
                drawn.append((fn.__name__, made[start:]))
        run.__name__ = fn.__name__
        return run

    monkeypatch.setattr(rg, "rng", rng)
    monkeypatch.setattr(st, "ALL_SUITES", [traced(fn) for fn in st.ALL_SUITES])
    results = st.run_all(cfg5, seed=7)
    assert len(results) == len(st.ALL_SUITES)
    bad = [r for r in results if r["failed"]]
    assert not bad, bad
    names = {r["name"] for r in results}
    # one suite per invariant family of every module
    for prefix in ("padic", "quaternion", "hermitian", "wittclass",
                   "morita", "endo"):
        assert any(n.startswith(prefix) for n in names)
    assert results == RECORDS_5_32_SEED7
    digest = hashlib.sha256()
    for name, gens in drawn:
        digest.update(name.encode())
        for seed, g in gens:
            state = g.getstate()
            if state != random.Random(seed).getstate():
                digest.update(repr(state).encode())
    assert digest.hexdigest() == STREAMS_5_32_SEED7


def test_suites_deterministic(cfg3):
    a = st.padic_arith(cfg3, 5)
    b = st.padic_arith(cfg3, 5)
    assert a == b
