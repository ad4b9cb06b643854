"""JSON encoding of field elements, quaternions and forms.

All big integers are serialized as strings.  F-elements are emitted as
{"base": "F", "val": v, "digits": [d0, ...], "prec": k} with base-p digits
of the unit part, little-endian, and the absolute precision k; on input k
is capped at the configured precision and may be omitted for full
precision, and a bare integer string is accepted as shorthand.  L-elements
(and E-elements) are {"a": <F>, "b": <F>}, quaternions {"a": <L>, "b": <L>},
forms {"epsilon": e, "rank": n, "gram": [[...]]}.
"""

from __future__ import annotations

from .errors import HermiwittError
from .hermitian import HermitianForm
from .padic import FElement, FieldConfig, QuadExtElement, QuadExtField
from .quaternion import QuaternionElement


class MalformedInput(HermiwittError):
    pass


def _int(x, what: str) -> int:
    """x as an int: a JSON integer or an integer string, not a bool or a
    float, which int() would silently truncate."""
    if isinstance(x, (bool, float)):
        raise MalformedInput(f"{what} must be an integer, got {x!r}")
    try:
        return int(x)
    except (TypeError, ValueError) as ex:
        raise MalformedInput(f"{what} must be an integer, got {x!r}") from ex


def _epsilon(obj: dict) -> int:
    eps = _int(obj["epsilon"], "epsilon")
    if eps not in (1, -1):
        raise MalformedInput(f"epsilon must be +1 or -1, got {eps}")
    return eps


def _square(rows, what: str, n=None) -> list:
    """rows, checked to be a non-empty square list of lists, with n rows
    when n is given."""
    if n is None and isinstance(rows, list):
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
        x = cfg.f_zero()
    else:
        unit = 0
        for i, d in enumerate(digits):
            unit += _int(d, "digit") * cfg.p**i
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
    # adding O(p^prec) caps the absolute precision at prec
    return x + cfg.f_zero().shift(prec - cfg.precision)


def l_to_json(x: QuadExtElement) -> dict:
    return {"a": f_to_json(x.a), "b": f_to_json(x.b)}


def l_from_json(cfg: FieldConfig, obj) -> QuadExtElement:
    if isinstance(obj, (int, str)):
        return cfg.l(f_from_json(cfg, obj), 0)
    if not isinstance(obj, dict) or "a" not in obj:
        raise MalformedInput("L-element must be {'a': ..., 'b': ...}")
    return cfg.l(f_from_json(cfg, obj["a"]), f_from_json(cfg, obj.get("b", 0)))


def e_from_json(field: QuadExtField, obj) -> QuadExtElement:
    cfg = field.cfg
    if isinstance(obj, (int, str)):
        return field.from_f(f_from_json(cfg, obj))
    if not isinstance(obj, dict) or "a" not in obj:
        raise MalformedInput("E-element must be {'a': ..., 'b': ...}")
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
    eps = _epsilon(obj)
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
    from .morita import EDForm, split_for_delta

    if not isinstance(obj, dict) or "H" not in obj or "delta" not in obj:
        raise MalformedInput("E(x)D form must carry 'delta' and 'H'")
    delta = f_from_json(cfg, obj["delta"])
    data = split_for_delta(cfg, delta)
    H = [[e_from_json(data.E, x) for x in row] for row in _square(obj["H"], "H")]
    ed = EDForm(data, _epsilon(obj), tuple(tuple(r) for r in H))
    if not ed.validate():
        raise MalformedInput("H is not eps-hermitian nondegenerate over E")
    return ed
