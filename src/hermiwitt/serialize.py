"""JSON encoding of every document the library reads or writes: field
elements, quaternions, forms, E(x)D forms, endo-parameters and lifts.

All big integers are serialized as strings.  F-elements are emitted as
{"base": "F", "val": v, "digits": [d0, ...], "prec": k} with base-p digits
of the unit part, little-endian, and the absolute precision k; on input an
element that gives k lists at most k - val digits, a zero (val null) lists
none, k is capped at the configured precision and may be omitted for full
precision, and a bare integer string is accepted as shorthand.  L-elements
(and E-elements) are {"a": <F>, "b": <F>}, quaternions {"a": <L>, "b":
<L>}, forms {"epsilon": e, "rank": n, "gram": [[...]]}.  A reader checks each
piece of a document before it uses it, most through _field and _items, so a
missing or ill-typed piece raises MalformedInput.
"""

from __future__ import annotations

from .endo import EndoClassToken, EndoParameter, LiftEntry, WittType
from .errors import DegenerateForm, MalformedInput
from .hermitian import HermitianForm
from .morita import EDForm, split
from .padic import FElement, FieldConfig, QuadExtElement, QuadExtField
from .quaternion import QuaternionElement
from .wittclass import WittClassD


def _field(obj, key: str, what: str):
    """obj[key], where obj must be an object that has the key."""
    if not isinstance(obj, dict):
        raise MalformedInput(f"{what} must be an object")
    if key not in obj:
        raise MalformedInput(f"{what} lacks {key!r}")
    return obj[key]


def _items(obj, what: str) -> list:
    """obj, which must be a list."""
    if not isinstance(obj, list):
        raise MalformedInput(f"{what} must be a list")
    return obj


def _int(x, what: str) -> int:
    """x as an int: a JSON integer or an integer string, not a bool or a
    float, which int() would silently truncate."""
    if isinstance(x, (bool, float)):
        raise MalformedInput(f"{what} must be an integer, got {x!r}")
    try:
        return int(x)
    except (TypeError, ValueError) as ex:
        raise MalformedInput(f"{what} must be an integer, got {x!r}") from ex


def _epsilon(obj, what: str) -> int:
    eps = _int(_field(obj, "epsilon", what), "epsilon")
    if eps not in (1, -1):
        raise MalformedInput(f"epsilon must be +1 or -1, got {eps}")
    return eps


def _square(rows, what: str, n=None) -> list:
    """rows, checked to be a non-empty square list of lists, with n rows
    when n, the declared size, is given."""
    if n is not None:
        n = _int(n, f"the declared size of {what}")
    elif isinstance(rows, list):
        n = len(rows)
    if not (isinstance(rows, list) and rows and len(rows) == n
            and all(isinstance(r, list) and len(r) == n for r in rows)):
        raise MalformedInput(f"{what} must be a non-empty square matrix"
                             " of the declared size")
    return rows


def f_to_json(x: FElement) -> dict:
    if x.is_zero():
        return {"base": "F", "val": None, "digits": [], "prec": x.prec}
    return {"base": "F", "val": x.val, "digits": x.digits(), "prec": x.prec}


def f_from_json(cfg: FieldConfig, obj) -> FElement:
    if isinstance(obj, bool):
        raise MalformedInput("boolean is not a field element")
    if isinstance(obj, int):
        return cfg.f(obj)
    if isinstance(obj, str):
        try:
            return cfg.f(int(obj, 10))
        except ValueError as ex:
            raise MalformedInput(f"bad integer literal {obj!r}") from ex
    if not isinstance(obj, dict):
        raise MalformedInput("F-element must be an object, int or string")
    if obj.get("base", "F") != "F":
        raise MalformedInput("expected base F")
    val = obj.get("val")
    digits = obj.get("digits", [])
    if not isinstance(digits, list):
        raise MalformedInput("digits must be a list")
    if val is None:
        if digits:
            raise MalformedInput("a zero (val null) lists no digits")
        x = cfg.f_zero()
    else:
        unit = 0
        for i, d in enumerate(digits):
            d = _int(d, "digit")
            if not 0 <= d < cfg.p:
                raise MalformedInput(f"digit {d} is not in 0..{cfg.p - 1}")
            unit += d * cfg.p**i
        if unit % cfg.p == 0:
            raise MalformedInput("unit part must not be divisible by p")
        val = _int(val, "val")
        x = cfg.f(unit).shift(val)
    if "prec" not in obj:
        return x
    prec = obj["prec"]
    if isinstance(prec, bool) or not isinstance(prec, int) or prec < 1:
        raise MalformedInput(f"prec must be a positive integer, got {prec!r}")
    if val is not None and val >= prec:
        raise MalformedInput("val must be below prec")
    if val is not None and len(digits) > prec - val:
        raise MalformedInput(
            f"{len(digits)} digits at val {val} exceed prec {prec}")
    # adding O(p^prec) caps the absolute precision at prec
    return x + cfg.f_zero().shift(prec - cfg.precision)


def l_to_json(x: QuadExtElement) -> dict:
    return {"a": f_to_json(x.a), "b": f_to_json(x.b)}


def l_from_json(cfg: FieldConfig, obj) -> QuadExtElement:
    return e_from_json(cfg.L_field, obj)


def e_from_json(field: QuadExtField, obj) -> QuadExtElement:
    """An element of L or E, named by field.name in the error message."""
    cfg = field.cfg
    if isinstance(obj, (int, str)):
        return field.from_f(f_from_json(cfg, obj))
    if not isinstance(obj, dict) or "a" not in obj:
        raise MalformedInput(
            f"{field.name}-element must be {{'a': ..., 'b': ...}}")
    return field.el(f_from_json(cfg, obj["a"]), f_from_json(cfg, obj.get("b", 0)))


def quat_to_json(q: QuaternionElement) -> dict:
    return {"a": l_to_json(q.a), "b": l_to_json(q.b)}


def quat_from_json(cfg: FieldConfig, obj) -> QuaternionElement:
    if isinstance(obj, (int, str)):
        return QuaternionElement.make(cfg, l_from_json(cfg, obj))
    if not isinstance(obj, dict) or "a" not in obj:
        raise MalformedInput("quaternion must be {'a': <L>, 'b': <L>}")
    return QuaternionElement(l_from_json(cfg, obj["a"]),
                             l_from_json(cfg, obj.get("b", 0)))


def form_to_json(form: HermitianForm) -> dict:
    return {"epsilon": form.epsilon, "rank": form.rank,
            "gram": [[quat_to_json(e) for e in row] for row in form.gram]}


def form_from_json(cfg: FieldConfig, obj) -> HermitianForm:
    if not isinstance(obj, dict) or "gram" not in obj or "epsilon" not in obj:
        raise MalformedInput("form must carry 'epsilon' and 'gram'")
    eps = _epsilon(obj, "form")
    gram = _square(obj["gram"], "gram", obj.get("rank"))
    rows = [[quat_from_json(cfg, e) for e in r] for r in gram]
    return HermitianForm.from_rows(eps, rows)


def beta_from_json(cfg: FieldConfig, obj, rank: int):
    """A quaternion (acting diagonally) or an explicit rank x rank matrix."""
    if isinstance(obj, list):
        return [[quat_from_json(cfg, e) for e in r]
                for r in _square(obj, "beta matrix", rank)]
    return quat_from_json(cfg, obj)


def edform_to_json(ed) -> dict:
    return {"epsilon": ed.epsilon,
            "delta": f_to_json(ed.split.E.delta),
            "t": ed.t,
            "H": [[l_to_json(x) for x in row] for row in ed.H]}


def edform_from_json(cfg: FieldConfig, obj):
    if not isinstance(obj, dict) or "H" not in obj or "delta" not in obj:
        raise MalformedInput("E(x)D form must carry 'delta' and 'H'")
    delta = f_from_json(cfg, obj["delta"])
    data = split(cfg, delta)
    H = tuple(tuple(e_from_json(data.E, x) for x in row)
              for row in _square(obj["H"], "H", obj.get("t")))
    try:
        return EDForm(data, _epsilon(obj, "E(x)D form"), H)
    except DegenerateForm as ex:
        raise MalformedInput(str(ex)) from ex


def token_to_json(tok: EndoClassToken) -> dict:
    out = {"id": tok.id, "kind": tok.kind, "degree": tok.degree}
    if tok.kind == "simple_nonnull":
        out.update({"e_parity": tok.e_parity, "f_parity": tok.f_parity,
                    "min_tag": tok.min_tag, "aniso_parity": tok.aniso_parity,
                    "wtd_odd": sorted(tok.wtd_odd)})
    return out


def _witt_class(names, epsilon: int, what: str) -> WittClassD:
    """names, a list of generator names of the epsilon Witt group, as a
    class of that group."""
    if not isinstance(names, list):
        raise MalformedInput(f"{what} must be a list of generator names")
    try:
        return WittClassD(epsilon, frozenset(names))
    except (TypeError, ValueError) as ex:
        raise MalformedInput(f"{what}: {ex}") from ex


def token_from_json(d, epsilon: int) -> EndoClassToken:
    return EndoClassToken(
        id=str(_field(d, "id", "token")), kind=_field(d, "kind", "token"),
        degree=_int(_field(d, "degree", "token"), "degree"),
        e_parity=_int(d.get("e_parity", 0), "e_parity"),
        f_parity=_int(d.get("f_parity", 0), "f_parity"),
        min_tag=str(d.get("min_tag", "")),
        aniso_parity=_int(d.get("aniso_parity", 0), "aniso_parity"),
        wtd_odd=_witt_class(d.get("wtd_odd", []), epsilon, "wtd_odd").coords)


def witt_type_to_json(f2: WittType) -> dict:
    if f2.is_hyp:
        return {"beta": "ZERO" if f2.beta is None else "token", "tower": "HYP"}
    if isinstance(f2.tower, frozenset):
        return {"beta": "ZERO", "tower": {"witt_class": sorted(f2.tower)}}
    d, s = f2.tower
    tower = {"diman": d} if d == 2 else {"diman": d, "selector": s}
    return {"beta": "token", "tower": tower}


def witt_type_from_json(d, token: EndoClassToken | None,
                        epsilon: int) -> WittType:
    tower = _field(d, "tower", "f2")
    if tower == "HYP":
        return WittType.hyperbolic()
    if d.get("beta") == "ZERO":
        return WittType.null(_witt_class(
            _field(tower, "witt_class", "tower"), epsilon, "witt_class").coords)
    return WittType.simple(token, _int(_field(tower, "diman", "tower"), "diman"),
                           _int(tower.get("selector", 0), "selector"))


def parameter_to_json(fm: EndoParameter) -> dict:
    supp = []
    for token, f1, f2 in fm.support:
        item = token_to_json(token)
        item["f1"] = f1
        item["f2"] = witt_type_to_json(f2)
        supp.append(item)
    return {"epsilon": fm.epsilon,
            "ambient": {"m": fm.m, "h_class": fm.h_class.sorted_names()},
            "support": supp}


def _ambient_from_json(d):
    """(epsilon, m, h_class) of a parameter or lift document."""
    eps = _epsilon(d, "document")
    amb = _field(d, "ambient", "document")
    h = _witt_class(_field(amb, "h_class", "ambient"), eps, "h_class")
    return eps, _int(_field(amb, "m", "ambient"), "m"), h


def parameter_from_json(d) -> EndoParameter:
    eps, m, h = _ambient_from_json(d)
    supp = []
    for item in _items(_field(d, "support", "document"), "support"):
        tok = token_from_json(item, eps)
        f2 = witt_type_from_json(_field(item, "f2", "token"), tok, eps)
        supp.append((tok, _int(_field(item, "f1", "token"), "f1"), f2))
    return EndoParameter(eps, m, h, tuple(supp))


def lift_from_json(d):
    eps, m, h = _ambient_from_json(d)
    entries = [LiftEntry(token_from_json(item, eps),
                         _int(_field(item, "f", "token"), "f"))
               for item in _items(_field(d, "lift", "document"), "lift")]
    return entries, eps, m, h
