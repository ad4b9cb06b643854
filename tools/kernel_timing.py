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
negated and added to e's, as ``QuadExt.__sub__`` does.  ``phi_Eu`` and
``phi_Epi`` time the splitting isomorphism Phi, ``SplitData.to_matrix`` on a
tensor of four E-elements, for E = F(sqrt(r)) and E = F(sqrt(p)).  Every
case runs on two kinds of seeded operands:

- ``integral``: every coordinate a p-adic unit known to N digits;
- ``prec_below_N``: the same units known to N - 1 digits.

The cases named ``<workload>_d_dot`` and ``<workload>_e_mul`` replay the
kernel calls that a benchmark workload makes itself: its warm-up and one
round at seed 1 run once through ``perfbench/worker.py``'s ``Runner``
(nothing under ``perfbench/`` is written), every ``_d_dot`` and ``_e_mul``
call that answers is recorded, and a seeded sample of BATCH calls of each
group is timed.  A call is ``negative_val`` when an operand, constant or
addend has a coordinate of negative valuation, else ``integral`` when every
one is known to N digits, else ``prec_below_N``; a group the workload never
calls is left out.  The synthetic operands alone can mislead: a kernel can
read faster on them and slower on what the workloads pass.

A round times one batch of calls of every case in turn, so that a drift in
the machine's speed falls on all cases alike, and the printed figure is the
median over the rounds of each case's time per call, in microseconds.  The
one line printed is a JSON object: the checkout, the Python version, the
rounds and the batch size, and ``us`` by configuration and case.
"""

from __future__ import annotations

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
WORKLOADS = ("decompose", "towers", "isometries", "small")
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


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


def _triples(args):
    """Every F-triple in a kernel call's arguments: the constant, each
    coordinate of the operands and of the addend."""
    for a in args:
        if a is None:
            continue
        if isinstance(a[0], (tuple, list)):
            yield from _triples(a)
        else:
            yield a


def _group(cfg, args) -> str:
    """negative_val, integral (at N) or prec_below_N: see the docstring."""
    ts = list(_triples(args))
    if any(v is not None and v < 0 for v, _, _ in ts):
        return "negative_val"
    return "integral" if all(k == cfg.precision for _, _, k in ts) else "prec_below_N"


def _calls_of(padic, run) -> dict:
    """{kernel name: [(cfg, *args), ...]}: the _d_dot and _e_mul calls that
    answer while run() runs.  Every module of the checkout that binds a
    kernel gets a recording wrapper until run returns."""
    calls, patched = {}, []
    for name in ("_d_dot", "_e_mul"):
        kernel, seen = getattr(padic, name), calls.setdefault(name, [])

        def recording(cfg, *args, kernel=kernel, seen=seen):
            result = kernel(cfg, *args)
            seen.append((cfg, *args))
            return result

        for mod in [m for n, m in sys.modules.items() if n.startswith("hermiwitt")]:
            if getattr(mod, name, None) is kernel:
                patched.append((mod, name, kernel))
                setattr(mod, name, recording)
    try:
        run()
    finally:
        for mod, name, kernel in patched:
            setattr(mod, name, kernel)
    return calls


def _captured(padic, rng: random.Random) -> list:
    """(config, case, kernel, calls) for the kernel calls of each workload's
    warm-up and first round at seed 1, BATCH calls of each group sampled."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(padic.__file__))))
    path = sys.path[:]
    sys.path.insert(0, PERFBENCH)
    try:
        import gen
        from worker import Runner

        out = []
        for workload in WORKLOADS:
            p, N, _ = gen.CONFIGS[workload]
            runner = Runner(root, p, N)
            warmup, ops, _ = gen.make(workload, 1)
            calls = _calls_of(padic, lambda: [runner.run(runner.prepare(op))
                                              for op in warmup + ops])
            for name, seen in calls.items():
                groups = {}
                for call in seen:
                    groups.setdefault(_group(call[0], call[1:]), []).append(call)
                for kind, group in sorted(groups.items()):
                    out.append((f"{p},{N}", f"{workload}{name}/{kind}", getattr(padic, name),
                                rng.sample(group, min(BATCH, len(group)))))
        return out
    finally:
        sys.path[:] = path


def timings(padic, morita) -> dict:
    """{"p,N": {"kernel/operands": median µs per call}} for padic's kernels
    on seeded and on captured operands, and morita's Phi."""
    kernels = {"d_dot_1pair": padic._d_dot, "d_dot_3pair": padic._d_dot,
               "e_mul": padic._e_mul,
               "d_update_1pair": padic._d_dot, "e_update": padic._e_mul,
               "d_update_1pair_2step": _two_step(padic, padic._d_dot),
               "e_update_2step": _two_step(padic, padic._e_mul),
               "phi_Eu": _phi, "phi_Epi": _phi}
    cases = []
    for p, N in CONFIGS:
        cfg = padic.FieldConfig(p, N)
        rng = random.Random(p * 1000 + N)
        for kind, prec in (("integral", N), ("prec_below_N", N - 1)):
            for name, args in _operands(padic, morita, cfg, prec, rng).items():
                for k in (name, name + "_2step"):
                    if k in kernels:
                        cases.append((f"{p},{N}", f"{k}/{kind}", kernels[k],
                                      [(cfg, *a) for a in args]))
    cases += _captured(padic, random.Random(1))
    samples = {(c, name): [] for c, name, *_ in cases}
    for _ in range(ROUNDS):
        for c, name, kernel, calls in cases:
            t0 = time.perf_counter()
            for a in calls:
                kernel(*a)
            samples[c, name].append((time.perf_counter() - t0) / len(calls) * 1e6)
    out = {}
    for (c, name), xs in samples.items():
        out.setdefault(c, {})[name] = round(statistics.median(xs), 2)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
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
