"""Spans and call counters around hermiwitt's layers, installed from outside.

``Tracer.install()`` wraps, from this file alone:

* every public function defined at module level in a hermiwitt module, and
  ``morita._build_split`` (the split cache's miss path), with a span
  recorder that keeps name, start, end and parent;
* the hottest leaf helpers and the element classes' arithmetic methods with
  a call counter only, because a span per F-multiply would outweigh the
  work it measures.

A wrapped function is replaced in every namespace that binds it: its
defining module, each ``from ... import`` copy in another module (the
``dmat_inv``, ``dmat_mul`` and ``vec_apply`` bindings in ``morita``,
``tau_conj`` in ``quaternion`` and ``hermitian``, ...) and the package's
re-exports.  ``uninstall()`` restores every replaced name.  Spans stay in
memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

PACKAGE = "hermiwitt"
MODULES = ("padic", "quaternion", "hermitian", "wittclass", "morita", "endo",
           "serialize", "cli")
EXTRA_SPANS = ("morita._build_split",)
# called tens of thousands of times per operation: counted, not spanned
COUNTED_FUNCTIONS = ("padic.tau_conj", "padic.legendre", "padic.valuation",
                     "hermitian.row_dot", "morita.row_dot_e",
                     "morita.vec_apply_f")
COUNTED_METHODS = {
    ("padic", "FElement"): ("__mul__", "__add__", "__truediv__"),
    ("padic", "QuadExtElement"): ("__mul__",),
    ("quaternion", "QuaternionElement"): ("__mul__", "inv", "nu_D"),
    ("hermitian", "HermitianForm"): ("evaluate",),
}

_PARSE = tuple(f"serialize.{k}_from_json"
               for k in ("f", "l", "e", "quat", "form", "beta", "edform"))
_EMIT = tuple(f"serialize.{k}_to_json"
              for k in ("f", "l", "quat", "form", "edform"))

# (metric, unit, how, names): "calls" counts calls, "ms" sums the time of
# the outermost span of the group, "self_ms" sums span time minus the time
# of the spans directly under it, "total" counts over the whole traced
# process including its warm-up.  All but "total" are per operation.
LAYERS = (
    ("cli.build_parser_ms", "ms", "ms", ("cli.build_parser",)),
    ("cli.run.self_ms", "ms", "self_ms", ("cli.run",)),
    ("serialize.parse_ms", "ms", "ms", _PARSE),
    ("serialize.emit_ms", "ms", "ms", _EMIT),
    ("hermitian.validate_calls", "count", "calls", ("hermitian.validate",)),
    ("hermitian.diagonalize_ms", "ms", "ms", ("hermitian.diagonalize",)),
    ("hermitian.evaluate_calls", "count", "calls",
     ("hermitian.HermitianForm.evaluate",)),
    ("hermitian.dmat_inv_calls", "count", "calls", ("hermitian.dmat_inv",)),
    ("hermitian.dmat_inv_ms", "ms", "ms", ("hermitian.dmat_inv",)),
    ("hermitian.lmat_det_ms", "ms", "ms", ("hermitian.lmat_det",)),
    ("hermitian.reduced_norm_ms", "ms", "ms", ("hermitian.reduced_norm",)),
    ("hermitian.cayley_isometry_ms", "ms", "ms", ("hermitian.cayley_isometry",)),
    ("wittclass.classify_line_calls", "count", "calls",
     ("wittclass.classify_line",)),
    ("wittclass.is_isotropic_ms", "ms", "ms", ("wittclass.is_isotropic",)),
    ("wittclass.class_of_form_ms", "ms", "ms", ("wittclass.class_of_form",)),
    ("morita.split_calls", "count", "calls", ("morita.split",)),
    ("morita.split_builds", "count", "total", ("morita._build_split",)),
    ("morita.compute_htilde_beta_ms", "ms", "ms", ("morita.compute_htilde_beta",)),
    ("morita.functor_Fe_ms", "ms", "ms", ("morita.functor_Fe",)),
    ("morita.e_witt_class_ms", "ms", "ms", ("morita.e_witt_class",)),
    ("morita.trace_transfer_ms", "ms", "ms", ("morita.trace_transfer",)),
    ("morita.cmat_inv_calls", "count", "calls", ("morita.cmat_inv",)),
    ("morita.cmat_inv_ms", "ms", "ms", ("morita.cmat_inv",)),
    ("endo.enumerate_parameters_ms", "ms", "ms", ("endo.enumerate_parameters",)),
    ("endo.validate_ms", "ms", "ms", ("endo.validate",)),
    ("quaternion.mul_calls", "count", "calls",
     ("quaternion.QuaternionElement.__mul__",)),
    ("quaternion.inv_calls", "count", "calls", ("quaternion.QuaternionElement.inv",)),
    ("quaternion.nu_D_calls", "count", "calls",
     ("quaternion.QuaternionElement.nu_D",)),
    ("padic.f_mul_calls", "count", "calls", ("padic.FElement.__mul__",)),
    ("padic.f_add_calls", "count", "calls", ("padic.FElement.__add__",)),
    ("padic.f_div_calls", "count", "calls", ("padic.FElement.__truediv__",)),
    ("padic.l_mul_calls", "count", "calls", ("padic.QuadExtElement.__mul__",)),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []    # [name id, start ns, end ns, parent]
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.patches: list[tuple] = []      # (namespace, attribute, original)
        self.mark_span = 0
        self.mark_counts: dict[str, int] = {}
        self.active = [True]                # cleared while recording pauses

    # -- wrappers -----------------------------------------------------------
    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        active = self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            rec = [nid, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _counter(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])
        active = self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[0]:
                cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ---------------------------------------------------
    def install(self):
        mods = {m: sys.modules[f"{PACKAGE}.{m}"] for m in MODULES}
        wrapped = {}    # id(original) -> wrapper
        counted = {f"{PACKAGE}.{n}" for n in COUNTED_FUNCTIONS}
        extra = {f"{PACKAGE}.{n}" for n in EXTRA_SPANS}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if not isinstance(obj, types.FunctionType) \
                        or obj.__module__ != mod.__name__:
                    continue
                full = f"{mod.__name__}.{attr}"
                name = f"{short}.{attr}"
                if full in counted:
                    wrapped[id(obj)] = self._counter(name, obj)
                elif not attr.startswith("_") or full in extra:
                    wrapped[id(obj)] = self._span(name, obj)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self.patches.append((ns, attr, obj))
                    setattr(ns, attr, w)
        for (short, cls_name), methods in COUNTED_METHODS.items():
            cls = getattr(mods[short], cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]
                w = self._counter(f"{short}.{cls_name}.{meth}", orig)
                # aliases such as __radd__ = __add__ share the counter
                for attr, obj in list(vars(cls).items()):
                    if obj is orig:
                        self.patches.append((cls, attr, obj))
                        setattr(cls, attr, w)

    def uninstall(self):
        for ns, attr, obj in reversed(self.patches):
            setattr(ns, attr, obj)
        self.patches.clear()

    def untraced(self, fn):
        """fn with recording paused while it runs."""
        def call(*args):
            self.active[0] = False
            try:
                return fn(*args)
            finally:
                self.active[0] = True

        return call

    def mark(self):
        """Start of the timed operations: later figures exclude the warm-up."""
        self.mark_span = len(self.spans)
        self.mark_counts = {k: c[0] for k, c in self.counts.items()}

    # -- figures ------------------------------------------------------------------
    def per_op(self, ops: int) -> dict:
        spans, names = self.spans, self.names
        first = self.mark_span
        by_name: dict[str, list[int]] = {}
        child_ns: dict[int, int] = {}
        for i in range(first, len(spans)):
            nid, start, end, parent = spans[i]
            by_name.setdefault(names[nid], []).append(i)
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        out = {}
        for metric, unit, how, group in LAYERS:
            if how == "total":
                value = sum(1 for s in spans if names[s[0]] in group)
            elif how == "calls":
                value = sum(len(by_name.get(n, ())) for n in group)
                value += sum(self.counts.get(n, [0])[0] - self.mark_counts.get(n, 0)
                             for n in group)
                value /= ops
            else:
                total = 0
                for n in group:
                    for i in by_name.get(n, ()):
                        s = spans[i]
                        if how == "self_ms":
                            total += s[2] - s[1] - child_ns.get(i, 0)
                        elif not self._inside(i, group):
                            total += s[2] - s[1]
                value = total / 1e6 / ops
            out[metric] = {"value": value, "unit": unit}
        return out

    def _inside(self, i: int, group) -> bool:
        """Whether a span of the same group encloses span i."""
        spans, names = self.spans, self.names
        parent = spans[i][3]
        while parent >= 0:
            if names[spans[parent][0]] in group:
                return True
            parent = spans[parent][3]
        return False

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "timed_from": self.mark_span,
                       "spans": self.spans,
                       "counts": {k: c[0] for k, c in self.counts.items()}},
                      fh, separators=(",", ":"))
