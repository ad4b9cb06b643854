"""Command-line front end with JSON I/O.

Exit codes: 0 success, 1 malformed input, 2 validation failure,
3 precision or oracle inconclusiveness.  The error class decides the code
and the stderr label (errors.py); serialize reads every JSON document.
Identical (config, seed, input) produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import HermiwittError, MalformedInput
from .padic import FieldConfig
from . import endo as en
from . import morita as mo
from . import selftest as st
from . import serialize as sz
from . import wittclass as wc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # malformed command line counts as malformed input, not exit 2
        raise MalformedInput(message)


def _load_json(text: str):
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as ex:
            raise MalformedInput(f"cannot read {text[1:]!r}: {ex}") from ex
    try:
        return json.loads(text)
    except json.JSONDecodeError as ex:
        raise MalformedInput(f"bad JSON: {ex}") from ex


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


def _env_precision() -> int:
    return sz._int(os.environ.get("HERMIWITT_PRECISION", "32"),
                   "HERMIWITT_PRECISION")


def build_parser() -> _Parser:
    p = _Parser(prog="hermiwitt", description=__doc__)
    p.add_argument("--prime", type=int, default=5)
    p.add_argument("--precision", type=int, default=_env_precision())
    p.add_argument("--seed", type=int, default=1)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="Witt class of a rank-1 form <d>")
    c.add_argument("--epsilon", type=int, choices=(1, -1), required=True)
    c.add_argument("--element", required=True, help="quaternion JSON or @file")

    d = sub.add_parser("decompose", help="Witt decomposition of a form")
    d.add_argument("--form", required=True, help="form JSON or @file")

    t = sub.add_parser("tower", help="Witt tower of (beta, h)")
    t.add_argument("--form", required=True)
    t.add_argument("--beta", required=True)

    tr = sub.add_parser("transfer", help="trace transfer of an E(x)D form")
    tr.add_argument("--form", required=True, help="E(x)D form JSON or @file")

    for name in ("endo-validate", "endo-enumerate", "endo-count"):
        e = sub.add_parser(name)
        e.add_argument("--input", required=True)

    s = sub.add_parser("selftest", help="run every invariant suite")
    return p


def _cfg(args) -> FieldConfig:
    if args.prime < 3:
        raise MalformedInput("--prime must be an odd prime >= 3")
    if args.precision < 8:
        raise MalformedInput("--precision must be at least 8")
    try:
        return FieldConfig(args.prime, args.precision)
    except ValueError as ex:
        raise MalformedInput(str(ex)) from ex


def _cmd_classify(cfg, args):
    d = sz.quat_from_json(cfg, _load_json(args.element))
    cls = wc.classify_line(d, args.epsilon)
    _emit({"class": cls.sorted_names(),
           "anisotropic_dim": wc.anisotropic_dim(cfg, cls)})


def _cmd_decompose(cfg, args):
    form = sz.form_from_json(cfg, _load_json(args.form))
    index, aniso = wc.witt_decompose(form)
    _emit({"witt_index": index,
           "anisotropic": [sz.quat_to_json(e) for e in aniso.entries],
           "witt_class": wc.class_of_diagonal(aniso).sorted_names()})


def _cmd_tower(cfg, args):
    form = sz.form_from_json(cfg, _load_json(args.form))
    beta = sz.beta_from_json(cfg, _load_json(args.beta), form.rank)
    tower = mo.witt_tower_of(form, beta)
    cls = tower.class_at_e1
    _emit({"tower_class": {"rank_parity": cls.rank_parity,
                           "disc_is_norm": cls.i_is_norm,
                           "anisotropic_dim": cls.anisotropic_dim},
           "trace_class": tower.trace_class().sorted_names()})


def _cmd_transfer(cfg, args):
    ed = sz.edform_from_json(cfg, _load_json(args.form))
    out = mo.trace_transfer(ed)
    _emit({"form": sz.form_to_json(out),
           "class": wc.class_of_form(out).sorted_names()})


def _cmd_endo_validate(cfg, args):
    fm = sz.parameter_from_json(_load_json(args.input))
    ok, diags = en.validate(fm)
    _emit({"valid": ok, "diagnostics": diags,
           "degree": en.degree(fm), "lift": en.lift(fm)})
    return 0 if ok else 2


def _cmd_endo_enumerate(cfg, args):
    entries, eps, m, h = sz.lift_from_json(_load_json(args.input))
    out = en.enumerate_parameters(entries, eps, m, h)
    _emit({"count": len(out),
           "parameters": [sz.parameter_to_json(fm) for fm in out]})


def _cmd_endo_count(cfg, args):
    entries, eps, m, h = sz.lift_from_json(_load_json(args.input))
    _emit({"count": en.count_parameters(entries, eps, m, h)})


def _cmd_selftest(cfg, args):
    results = st.run_all(cfg, args.seed)
    ok = all(r["failed"] == 0 for r in results)
    _emit({"ok": ok, "prime": cfg.p, "seed": args.seed, "suites": results})
    return 0 if ok else 2


_COMMANDS = {
    "classify": _cmd_classify,
    "decompose": _cmd_decompose,
    "tower": _cmd_tower,
    "transfer": _cmd_transfer,
    "endo-validate": _cmd_endo_validate,
    "endo-enumerate": _cmd_endo_enumerate,
    "endo-count": _cmd_endo_count,
    "selftest": _cmd_selftest,
}


def run(argv) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as ex:    # argparse exits after printing the help
            return ex.code
        cfg = _cfg(args)
        rc = _COMMANDS[args.command](cfg, args)
        return rc or 0
    except HermiwittError as ex:
        print(f"{ex.label}: {ex}", file=sys.stderr)
        return ex.exit_code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
