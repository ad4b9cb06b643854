"""Seeded input documents for the four workloads, with their expected answers.

Imports nothing from hermiwitt: every input is built with the exact
arithmetic of ``zd`` and handed to the program only as JSON, and every
expected answer follows from how the input was built.

``make(workload, seed)`` returns ``(warmup, ops, expects)``: one warm-up
operation of each input kind, one round of timed operations, and for each
timed operation the data its answer check needs.
"""

from __future__ import annotations

import json
import zlib
from math import gcd

from zd import SplitMix64, Zd

# workload -> (p, N, rank); the CLI default is p = 5, N = 32
CONFIGS = {
    "decompose": (5, 32, 5),
    "towers": (13, 128, 3),
    "isometries": (13, 128, 3),
    "small": (5, 32, 1),
}
# operations in one round; the small workload's round is SMALL_ROUND
ROUND = {"decompose": 16, "towers": 8, "isometries": 16}


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def qjson(q) -> dict:
    return {"a": {"a": str(q[0]), "b": str(q[1])},
            "b": {"a": str(q[2]), "b": str(q[3])}}


def mjson(M) -> list:
    return [[qjson(q) for q in row] for row in M]


def form_json(eps: int, M) -> dict:
    return {"epsilon": eps, "rank": len(M), "gram": mjson(M)}


def _cli(zd: Zd, *args) -> list:
    return ["--prime", str(zd.p), "--precision", str(zd.N), *args]


# -- random exact elements ----------------------------------------------------

def rand_unit_int(rng: SplitMix64, zd: Zd) -> int:
    while True:
        x = rng.below(zd.P)
        if x % zd.p:
            return x


def rand_scalar(rng: SplitMix64, zd: Zd) -> int:
    """x in O_F of valuation 0 or 1."""
    x = rand_unit_int(rng, zd)
    return x * zd.p % zd.P if rng.below(4) == 0 else x


def rand_quat(rng: SplitMix64, zd: Zd):
    return tuple(rng.below(zd.P) for _ in range(4))


def rand_unit_quat(rng: SplitMix64, zd: Zd):
    while True:
        q = rand_quat(rng, zd)
        if q[0] % zd.p or q[1] % zd.p:
            return q


def rand_nonsquare_unit(rng: SplitMix64, zd: Zd):
    """alpha: a unit of L whose residue is a non-square in F_{p^2}."""
    while True:
        a0, a1 = rng.below(zd.P), rng.below(zd.P)
        if (a0 % zd.p or a1 % zd.p) and not zd.fp2_is_square(a0, a1):
            return (a0, a1, 0, 0)


def rand_upper_unipotent(rng: SplitMix64, zd: Zd, n: int):
    S = zd.identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            S[i][j] = rand_quat(rng, zd)
    return S


def rand_invertible(rng: SplitMix64, zd: Zd, n: int):
    """An integral S with integral inverse: lower times upper unipotent."""
    U = rand_upper_unipotent(rng, zd, n)
    Lo = zd.mat_rho_t(rand_upper_unipotent(rng, zd, n))
    return zd.mat_mul(Lo, U)


def line_entry(rng: SplitMix64, zd: Zd, eps: int):
    """d = x rho(y) r y with x in O_F, y a unit of O_D, and r one of 1,
    alpha, pi_D (eps = +1) or u pi_D (eps = -1); <d> has the class of r."""
    if eps == 1:
        cls = rng.choice(("g1", "galpha", "gpi"))
        r = {"g1": zd.ONE, "galpha": rand_nonsquare_unit(rng, zd),
             "gpi": zd.PI}[cls]
    else:
        cls, r = "gskew", zd.UPI
    x = rand_scalar(rng, zd)
    y = rand_unit_quat(rng, zd)
    return zd.scale(x, zd.mul(zd.rho(y), zd.mul(r, y))), cls


# -- decompose ----------------------------------------------------------------

def decompose_op(rng: SplitMix64, zd: Zd, eps: int, rank: int):
    entries, classes = zip(*(line_entry(rng, zd, eps) for _ in range(rank)))
    S = rand_invertible(rng, zd, rank)
    M = zd.congruence(S, zd.diag(list(entries)))
    op = {"kind": "decompose",
          "argv": _cli(zd, "decompose", "--form", _dumps(form_json(eps, M)))}
    return op, {"eps": eps, "rank": rank, "classes": list(classes)}


# -- towers -------------------------------------------------------------------

# (beta0, eps, r0): every eps-symmetric element anticommuting with beta0 is
# an F-multiple of r0
TOWER_CASES = (
    (Zd.U, 1, Zd.PI),
    (Zd.U, -1, Zd.UPI),
    (Zd.PI, 1, Zd.U),
    (Zd.PI, -1, Zd.UPI),
)


def tower_op(rng: SplitMix64, zd: Zd, case: int, rank: int):
    """h = rho(S)^T diag(d) S and beta = S^-1 (beta0 I) S with S unipotent.
    Since Tr_{lambda_beta} o h~_beta = h, the trace class is the class of h."""
    beta0, eps, r0 = TOWER_CASES[case]
    entries = [zd.scale(rand_scalar(rng, zd), r0) for _ in range(rank)]
    S = rand_upper_unipotent(rng, zd, rank)
    M = zd.congruence(S, zd.diag(entries))
    B = zd.mat_mul(zd.unipotent_inverse(S),
                   zd.mat_mul(zd.diag([beta0] * rank), S))
    op = {"kind": "tower",
          "argv": _cli(zd, "tower", "--form", _dumps(form_json(eps, M)),
                       "--beta", _dumps(mjson(B)))}
    classes = [zd.line_class(d, eps) for d in entries]
    return op, {"eps": eps, "rank": rank, "classes": classes}


# -- isometries -----------------------------------------------------------------

def isometry_op(rng: SplitMix64, zd: Zd, rank: int):
    """h = rho(S)^T diag(d) S with symmetric units d, so h^-1 is exact and
    integral; X = Y - sigma_h(Y) with Y in pi_D M_n(O_D) is sigma_h-skew."""
    entries = []
    for _ in range(rank):
        a = rand_unit_quat(rng, zd)
        entries.append((a[0], a[1], rng.below(zd.P), 0))
    S = rand_upper_unipotent(rng, zd, rank)
    Sinv = zd.unipotent_inverse(S)
    M = zd.congruence(S, zd.diag(entries))
    Minv = zd.mat_mul(Sinv, zd.mat_mul(
        zd.diag([zd.inv_unit(d) for d in entries]), zd.mat_rho_t(Sinv)))
    p = zd.p
    Y = [[(p * rng.below(zd.P) % zd.P, p * rng.below(zd.P) % zd.P,
           rng.below(zd.P), rng.below(zd.P)) for _ in range(rank)]
         for _ in range(rank)]
    X = zd.mat_sub(Y, zd.mat_mul(Minv, zd.mat_mul(zd.mat_rho_t(Y), M)))
    op = {"kind": "isometry", "form": form_json(1, M), "X": mjson(X)}
    return op, {"h": M, "X": X}


# -- small: classify and endo requests ----------------------------------------------

def classify_op(rng: SplitMix64, zd: Zd, eps: int):
    d, cls = line_entry(rng, zd, eps)
    op = {"kind": "classify",
          "argv": _cli(zd, "classify", "--epsilon", str(eps),
                       "--element", _dumps(qjson(d)))}
    return op, {"classes": [cls]}


def _gens(eps: int):
    return ("g1", "galpha", "gpi") if eps == 1 else ("gskew",)


def _subset(rng: SplitMix64, eps: int) -> set:
    return {g for g in _gens(eps) if rng.below(2)}


def div_factor(degree: int) -> int:
    """deg(D) / gcd(degree, deg(D)) with deg(D) = 2."""
    return 2 // gcd(degree, 2)


def endo_tokens(rng: SplitMix64, eps: int, k: int, with_null: bool):
    kinds = ["simple_null"] if with_null else []
    while len(kinds) < k:
        kinds.append(rng.choice(("simple_nonnull", "simple_nonnull",
                                 "nonsimple_pair")))
    tokens = []
    for i, kind in enumerate(kinds):
        tok = {"id": f"c{i}", "kind": kind}
        if kind == "simple_nonnull":
            tok.update(degree=2 * (1 + rng.below(3)), e_parity=rng.below(2),
                       f_parity=rng.below(2), min_tag=f"m{rng.below(3)}",
                       aniso_parity=rng.below(2),
                       wtd_odd=sorted(_subset(rng, eps)))
        else:
            tok["degree"] = 1 if kind == "simple_null" else 1 + rng.below(3)
        tokens.append(tok)
    return tokens


def lift_doc(rng: SplitMix64, eps: int, k: int, with_null: bool):
    """A feasible lift: the Witt sum is met by the odd non-null towers, or
    pinned on the null block.  Every non-null class then has two towers of
    its parity, so the count is 2^#I0, or 2^(#I0 - 1) with a null block."""
    tokens = endo_tokens(rng, eps, k, with_null)
    used, lift, degree = set(), {}, 0
    for tok in tokens:
        if tok["kind"] == "simple_nonnull":
            f = (1 + 2 * rng.below(3) if tok["aniso_parity"]
                 else 2 + 2 * rng.below(2))
            if f % 2:
                used ^= set(tok["wtd_odd"])
            degree += f * tok["degree"]
        elif tok["kind"] == "nonsimple_pair":
            f = div_factor(tok["degree"]) * (1 + rng.below(3))
            degree += 2 * f * tok["degree"]
        else:
            continue
        lift[tok["id"]] = f
    h = used
    for tok in tokens:
        if tok["kind"] == "simple_null":
            need = _subset(rng, eps)
            h = used ^ need
            f1 = 2 * rng.below(2) or (0 if need else 2)
            f = 2 * (f1 + len(need))
            lift[tok["id"]] = f
            degree += f
    i0 = sum(1 for t in tokens if t["kind"] != "nonsimple_pair")
    count = 2 ** (i0 - (1 if with_null else 0))
    doc = {"epsilon": eps, "ambient": {"m": degree // 2, "h_class": sorted(h)},
           "lift": [dict(tok, f=lift[tok["id"]]) for tok in tokens]}
    return doc, {"eps": eps, "count": count, "lift": lift, "m": degree // 2,
                 "h_class": sorted(h)}


def parameter_doc(rng: SplitMix64, eps: int, k: int, with_null: bool):
    """A valid endo-parameter: degree 2m and Witt sum h_class by construction."""
    tokens = endo_tokens(rng, eps, k, with_null)
    support, lift, degree, h = [], {}, 0, set()
    hyp = {"beta": "ZERO", "tower": "HYP"}
    for tok in tokens:
        if tok["kind"] == "nonsimple_pair":
            f1 = div_factor(tok["degree"]) * (1 + rng.below(2))
            f2 = hyp
            lift[tok["id"] + "#1"] = lift[tok["id"] + "#2"] = f1
            degree += 2 * f1 * tok["degree"]
        else:
            if tok["kind"] == "simple_nonnull":
                if tok["aniso_parity"]:
                    diman = 1
                    f2 = {"beta": "token",
                          "tower": {"diman": 1, "selector": rng.below(2)}}
                    h ^= set(tok["wtd_odd"])
                else:
                    diman = 2 * rng.below(2)
                    f2 = {"beta": "token", "tower": {"diman": 2}} if diman else hyp
                f1 = rng.below(3) or (0 if diman else 1)
            else:
                cls = _subset(rng, eps)
                diman = len(cls)
                f2 = ({"beta": "ZERO", "tower": {"witt_class": sorted(cls)}}
                      if cls else hyp)
                h ^= cls
                f1 = 2 * rng.below(2) or (0 if cls else 2)
            f = 2 * f1 + diman * div_factor(tok["degree"])
            lift[tok["id"]] = f
            degree += f * tok["degree"]
        support.append(dict(tok, f1=f1, f2=f2))
    doc = {"epsilon": eps, "ambient": {"m": degree // 2, "h_class": sorted(h)},
           "support": support}
    return doc, {"degree": degree, "lift": lift}


def endo_op(rng: SplitMix64, zd: Zd, cmd: str, i: int):
    eps = 1 if i % 2 == 0 else -1
    k = 2 + i % 3
    with_null = (i // 2) % 2 == 1
    if cmd == "endo-validate":
        doc, expect = parameter_doc(rng, eps, k, with_null)
    else:
        doc, expect = lift_doc(rng, eps, k, with_null)
    op = {"kind": cmd, "argv": _cli(zd, cmd, "--input", _dumps(doc))}
    return op, expect


SMALL_KINDS = ("classify+", "classify-", "endo-enumerate", "endo-count",
               "endo-validate")
# one round of the small workload: 8 classify and 4 of each endo command
SMALL_ROUND = ("classify+", "classify-", "endo-enumerate", "classify+",
               "classify-", "endo-count", "classify+", "classify-",
               "endo-validate", "classify+", "classify-", "endo-enumerate",
               "endo-count", "endo-validate", "endo-enumerate", "endo-count",
               "endo-validate", "endo-enumerate", "endo-count", "endo-validate")


def small_op(rng: SplitMix64, zd: Zd, kind: str, i: int):
    if kind.startswith("classify"):
        return classify_op(rng, zd, 1 if kind.endswith("+") else -1)
    return endo_op(rng, zd, kind, i)


# -- entry point ----------------------------------------------------------------

def make(workload: str, seed: int):
    p, N, rank = CONFIGS[workload]
    zd = Zd(p, N)
    rng = SplitMix64(seed ^ (zlib.crc32(workload.encode()) << 32))
    if workload == "decompose":
        build = lambda i: decompose_op(rng, zd, 1 if i % 2 == 0 else -1, rank)
        kinds = 2
    elif workload == "towers":
        build = lambda i: tower_op(rng, zd, i % len(TOWER_CASES), rank)
        kinds = len(TOWER_CASES)
    elif workload == "isometries":
        build = lambda i: isometry_op(rng, zd, rank)
        kinds = 1
    elif workload == "small":
        warm = [small_op(rng, zd, kind, i)[0] for i, kind in enumerate(SMALL_KINDS)]
        pairs = [small_op(rng, zd, kind, i) for i, kind in enumerate(SMALL_ROUND)]
        return warm, [o for o, _ in pairs], [e for _, e in pairs]
    else:
        raise KeyError(workload)
    warm = [build(i)[0] for i in range(kinds)]
    pairs = [build(i) for i in range(ROUND[workload])]
    return warm, [o for o, _ in pairs], [e for _, e in pairs]
