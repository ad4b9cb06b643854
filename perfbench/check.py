"""Answer checks that do not depend on the program.

Each check takes the expected data that ``gen`` recorded while building an
input, and the program's output text, and returns None when the answer is
right or a short reason when it is not.  The checks use ``zd`` only; they
import nothing from hermiwitt.
"""

from __future__ import annotations

import json

from gen import div_factor
from zd import Zd


def xor(classes) -> set:
    acc = set()
    for c in classes:
        acc ^= {c}
    return acc


def f_value(zd: Zd, doc, shift: int = 0):
    """(integer, precision) of p^shift times an F-element document, or None
    when that is not integral."""
    prec = int(doc["prec"]) + shift
    if doc["val"] is None:
        return 0, prec
    val = int(doc["val"]) + shift
    if val < 0:
        return None
    unit = sum(int(d) * zd.p**i for i, d in enumerate(doc["digits"]))
    return unit * zd.p**val % zd.p**prec, prec


def quat_value(zd: Zd, doc, shift: int = 0):
    """(4-tuple, precision) of p^shift times a quaternion document, or None."""
    coords = [f_value(zd, doc[x][y], shift) for x in "ab" for y in "ab"]
    if None in coords:
        return None
    return tuple(c for c, _ in coords), min(k for _, k in coords)


def line_class_of(zd: Zd, doc, eps: int):
    """The class of the line <d> for a quaternion document d.  Scaling by
    p^2 = rho(p) p keeps the class, so d is first made integral that way."""
    vals = [doc[x][y]["val"] for x in "ab" for y in "ab"]
    low = min((int(v) for v in vals if v is not None), default=0)
    qv = quat_value(zd, doc, 2 * ((1 - low) // 2) if low < 0 else 0)
    return None if qv is None else zd.line_class(qv[0], eps, qv[1])


def check_decompose(zd: Zd, expect, doc):
    want = xor(expect["classes"])
    if sorted(doc["witt_class"]) != sorted(want):
        return f"witt_class {doc['witt_class']} != {sorted(want)}"
    if doc["witt_index"] != (expect["rank"] - len(want)) // 2:
        return f"witt_index {doc['witt_index']}"
    aniso = doc["anisotropic"]
    if len(aniso) != len(want):
        return f"{len(aniso)} anisotropic entries for class {sorted(want)}"
    got = [line_class_of(zd, e, expect["eps"]) for e in aniso]
    if None in got or len(set(got)) != len(got) or set(got) != want:
        return f"anisotropic entries have classes {got}"
    return None


def check_tower(zd: Zd, expect, doc):
    tc = doc["tower_class"]
    if tc["rank_parity"] != expect["rank"] % 2:
        return f"rank_parity {tc['rank_parity']}"
    # an anisotropic hermitian form over (E, sigma_E) has dimension <= 2,
    # so an odd rank leaves exactly one anisotropic dimension
    if expect["rank"] % 2 and tc["anisotropic_dim"] != 1:
        return f"anisotropic_dim {tc['anisotropic_dim']} at odd rank"
    want = xor(expect["classes"])
    if sorted(doc["trace_class"]) != sorted(want):
        return f"trace_class {doc['trace_class']} != {sorted(want)}"
    return None


def check_isometry(zd: Zd, expect, doc):
    """Nrd(g) = 1 mod p^(N-8), rho(g)^T h g = h and g (1 - X) = 1 + X, the
    last two with the benchmark's own arithmetic on g's digits."""
    if doc["is_isometry"] is not True:
        return "is_isometry is false"
    bound = zd.N - 8
    nrd = f_value(zd, doc["nrd"])
    if nrd is None or nrd[1] < bound or (nrd[0] - 1) % zd.p**bound:
        return f"Nrd(g) = {doc['nrd']} is not 1 mod p^{bound}"
    g, k = [], zd.N
    for row in doc["g"]:
        g_row = []
        for e in row:
            qv = quat_value(zd, e)
            if qv is None:
                return "g is not integral"
            g_row.append(qv[0])
            k = min(k, qv[1])
        g.append(g_row)
    if k < bound:
        return f"g is known to p^{k} only"
    pk = zd.p**k

    def same(A, B):
        return all((x - y) % pk == 0 for ra, rb in zip(A, B)
                   for qa, qb in zip(ra, rb) for x, y in zip(qa, qb))

    h, X = expect["h"], expect["X"]
    if not same(zd.congruence(g, h), h):
        return "rho(g)^T h g != h"
    I = zd.identity(len(h))
    if not same(zd.mat_mul(g, zd.mat_sub(I, X)), zd.mat_add(I, X)):
        return "g (1 - X) != 1 + X"
    return None


def check_classify(zd: Zd, expect, doc):
    if doc != {"class": expect["classes"], "anisotropic_dim": 1}:
        return f"classify gave {doc}, expected {expect['classes']}"
    return None


def _diman(f2) -> int:
    tower = f2["tower"]
    if tower == "HYP":
        return 0
    if "witt_class" in tower:
        return len(tower["witt_class"])
    return int(tower["diman"])


def _wt_d(item) -> set:
    """The trace class of a support item's Witt type."""
    tower = item["f2"]["tower"]
    if tower == "HYP":
        return set()
    if "witt_class" in tower:
        return set(tower["witt_class"])
    return set(item["wtd_odd"]) if int(tower["diman"]) % 2 else set()


def lift_of(param) -> dict:
    """f = f1 on a non-simple class, 2 f1 + diman(f2) deg(D)/gcd otherwise."""
    out = {}
    for item in param["support"]:
        if item["kind"] == "nonsimple_pair":
            out[item["id"]] = item["f1"]
        else:
            out[item["id"]] = (2 * item["f1"]
                               + _diman(item["f2"]) * div_factor(item["degree"]))
    return out


def check_enumerate(zd: Zd, expect, doc):
    if doc["count"] != expect["count"] or len(doc["parameters"]) != expect["count"]:
        return f"count {doc['count']} != 2^#I0 form {expect['count']}"
    seen = set()
    for param in doc["parameters"]:
        if lift_of(param) != expect["lift"]:
            return f"parameter lift {lift_of(param)} != {expect['lift']}"
        amb = param["ambient"]
        if param["epsilon"] != expect["eps"] or amb["m"] != expect["m"] \
                or sorted(amb["h_class"]) != expect["h_class"]:
            return f"ambient data {amb} changed"
        if xor(c for item in param["support"] for c in _wt_d(item)) \
                != set(expect["h_class"]):
            return "Witt sum differs from h_class"
        seen.add(json.dumps(param, sort_keys=True))
    if len(seen) != expect["count"]:
        return "enumerated parameters repeat"
    return None


def check_count(zd: Zd, expect, doc):
    if doc != {"count": expect["count"]}:
        return f"count {doc} != 2^#I0 form {expect['count']}"
    return None


def check_validate(zd: Zd, expect, doc):
    if doc["valid"] is not True or doc["diagnostics"]:
        return f"valid parameter refused: {doc['diagnostics']}"
    if doc["degree"] != expect["degree"] or doc["lift"] != expect["lift"]:
        return f"degree {doc['degree']} / lift {doc['lift']} differ"
    return None


CHECKS = {
    "decompose": check_decompose,
    "tower": check_tower,
    "isometry": check_isometry,
    "classify": check_classify,
    "endo-enumerate": check_enumerate,
    "endo-count": check_count,
    "endo-validate": check_validate,
}


def check(zd: Zd, kind: str, expect, rc: int, out: str):
    """None when the operation succeeded with the right answer; otherwise
    (is it a wrong answer rather than an error, reason)."""
    if rc != 0:
        return False, f"exit {rc}: {out.strip()[-300:]}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return True, f"output is not JSON: {out[:200]!r}"
    try:
        reason = CHECKS[kind](zd, expect, doc)
    except (KeyError, TypeError, ValueError) as ex:
        reason = f"malformed answer: {ex!r}"
    return None if reason is None else (True, reason)
