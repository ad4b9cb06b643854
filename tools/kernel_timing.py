"""Per-call time of the L/E and D product kernels of one checkout.

Usage, from anywhere::

    python3 tools/kernel_timing.py ROOT

ROOT is the root of a hermiwitt checkout; its ``src/hermiwitt/padic.py`` and
``morita.py`` are imported and timed in this process.  At (p, N) = (5, 32)
and (13, 128) the script times ``_d_dot`` on one pair and on three pairs of
D-coordinate tuples, and ``_e_mul`` on pairs of L-coordinates (w^2 = the
nonresidue r).
It times the elimination update e - c*f too, over D (``d_update_1pair``)
and over L (``e_update``): as one kernel call given -c and the addend e,
and as the two steps ``*_2step``, the product c*f and then each coordinate
negated and added to e's, as ``QuadExt.__sub__`` does.  A checkout whose
kernels take no addend times the two steps only.  ``phi_Eu`` and
``phi_Epi`` time the splitting isomorphism Phi, ``SplitData.to_matrix`` on a
tensor of four E-elements, for E = F(sqrt(r)) and E = F(sqrt(p)).  Every
case runs on two kinds of seeded operands:

- ``integral``: every coordinate a p-adic unit known to N digits;
- ``prec_below_N``: the same units known to N - 1 digits.

A round times one batch of calls of every case in turn, so that a drift in
the machine's speed falls on all cases alike, and the printed figure is the
median over the rounds of each case's time per call, in microseconds.  The
one line printed is a JSON object: the checkout, the Python version, the
rounds and the batch size, and ``us`` by configuration and case.
"""

from __future__ import annotations

import inspect
import json
import os
import platform
import random
import statistics
import sys
import time

CONFIGS = ((5, 32), (13, 128))
ROUNDS = 41
BATCH = 64


def _operands(padic, morita, cfg, prec: int, rng: random.Random):
    """BATCH operand tuples per kernel: (r, xs, ys) for the one- and
    three-pair D dots, (d, x, y) for the L product, those plus the addend e
    for the updates, and (SplitData, tensor) for Phi."""
    p, N = cfg.p, cfg.precision

    def unit():
        return padic._f_make(cfg, 0, rng.randrange(p ** (N - 1)) * p + rng.randint(1, p - 1), prec)

    def coords(n):
        return tuple(unit() for _ in range(n))

    def tensor(E):
        return tuple(padic.QuadExtElement(
            E, *[padic.FElement(cfg, *t) for t in coords(2)]) for _ in range(4))

    r = cfg.L_field.delta._t
    ops = {
        "d_dot_1pair": [(r, [coords(4)], [coords(4)]) for _ in range(BATCH)],
        "d_dot_3pair": [(r, [coords(4) for _ in range(3)], [coords(4) for _ in range(3)])
                        for _ in range(BATCH)],
        "e_mul": [(r, coords(2), coords(2)) for _ in range(BATCH)],
        "d_update_1pair": [(r, [coords(4)], [coords(4)], coords(4)) for _ in range(BATCH)],
        "e_update": [(r, coords(2), coords(2), coords(2)) for _ in range(BATCH)],
    }
    for name, delta in (("phi_Eu", cfg.f(cfg.nonresidue_r)), ("phi_Epi", cfg.pi())):
        data = morita.split(cfg, delta)
        ops[name] = [(data, tensor(data.E)) for _ in range(BATCH)]
    return ops


def _phi(cfg, data, ten):
    return data.to_matrix(ten)


def _two_step(padic, kernel):
    """e - c*f in two steps: the product, then e + (-t) coordinate by
    coordinate."""
    def update(cfg, k, x, y, e):
        t = kernel(cfg, k, x, y)
        return tuple(padic._f_add(cfg, a, padic._f_neg(cfg, b)) for a, b in zip(e, t))
    return update


def timings(padic, morita) -> dict:
    """{"p,N": {"kernel/operands": median µs per call}} for padic's kernels
    and morita's Phi."""
    kernels = {"d_dot_1pair": padic._d_dot, "d_dot_3pair": padic._d_dot,
               "e_mul": padic._e_mul,
               "d_update_1pair_2step": _two_step(padic, padic._d_dot),
               "e_update_2step": _two_step(padic, padic._e_mul),
               "phi_Eu": _phi, "phi_Epi": _phi}
    if "e" in inspect.signature(padic._d_dot).parameters:
        kernels.update(d_update_1pair=padic._d_dot, e_update=padic._e_mul)
    cases = []
    for p, N in CONFIGS:
        cfg = padic.FieldConfig(p, N)
        rng = random.Random(p * 1000 + N)
        for kind, prec in (("integral", N), ("prec_below_N", N - 1)):
            for name, args in _operands(padic, morita, cfg, prec, rng).items():
                for k in (name, name + "_2step"):
                    if k in kernels:
                        cases.append((f"{p},{N}", f"{k}/{kind}", kernels[k], cfg, args))
    samples = {(c, name): [] for c, name, *_ in cases}
    for _ in range(ROUNDS):
        for c, name, kernel, cfg, args in cases:
            t0 = time.perf_counter()
            for a in args:
                kernel(cfg, *a)
            samples[c, name].append((time.perf_counter() - t0) / BATCH * 1e6)
    out = {}
    for (c, name), xs in samples.items():
        out.setdefault(c, {})[name] = round(statistics.median(xs), 2)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    root = os.path.abspath(argv[0])
    if not os.path.isfile(os.path.join(root, "src", "hermiwitt", "__init__.py")):
        print(f"error: {root} is not a hermiwitt checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from hermiwitt import morita, padic

    print(json.dumps({"root": root, "python": platform.python_version(),
                      "rounds": ROUNDS, "batch": BATCH,
                      "us": timings(padic, morita)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
