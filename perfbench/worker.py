"""One workload's operations against hermiwitt, in a process of its own.

Started by run.py, which writes one job line on stdin.  The worker puts the
checkout's ``src`` first on ``sys.path``, imports hermiwitt, runs one
warm-up operation of each input kind and prints ``ready``.  That line ends
the set-up time that run.py measures.  A ``probe`` job exits there.  A
``timed`` or ``traced`` job then runs whole rounds of its operations, one at
a time, until ``seconds`` have passed, and prints one JSON line with each
operation's latency and output and the time of the reference computation
run right after it (``reference``).  A ``traced`` job installs the tracer
before the warm-up and also reports the per-layer figures.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback
from array import array

from reference import Reference

HERE = os.path.dirname(os.path.abspath(__file__))


def _import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import hermiwitt

    if not os.path.abspath(hermiwitt.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"hermiwitt was imported from {hermiwitt.__file__}, "
                          f"not from {src}")
    from hermiwitt import cli, hermitian, serialize
    from hermiwitt.padic import FieldConfig

    return cli, hermitian, serialize, FieldConfig


class Runner:
    """Runs single operations; a library error that escapes is a failure."""

    def __init__(self, root: str, p: int, N: int):
        self.cli, self.hm, self.sz, FieldConfig = _import_program(root)
        self.cfg = FieldConfig(p, N)

    def prepare(self, op):
        """Parse an isometry job's documents; outside the timed span."""
        if op["kind"] != "isometry":
            return op
        sz = self.sz
        return {"kind": "isometry",
                "form": sz.form_from_json(self.cfg, op["form"]),
                "X": [[sz.quat_from_json(self.cfg, e) for e in row]
                      for row in op["X"]]}

    def run(self, op):
        """Returns (exit code, raw result); ``render`` turns the raw result
        into text outside the timed span."""
        saved = sys.stdout, sys.stderr
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        try:
            if op["kind"] == "isometry":
                hm = self.hm
                g = hm.cayley_isometry(op["X"], op["form"])
                return 0, (g, hm.is_isometry(g, op["form"]), hm.reduced_norm(g))
            rc = self.cli.run(op["argv"])
            return rc, out if rc == 0 else err
        except Exception:
            err.write(traceback.format_exc())
            return -1, err
        finally:
            sys.stdout, sys.stderr = saved

    def render(self, raw) -> str:
        if isinstance(raw, io.StringIO):
            return raw.getvalue()
        g, ok, nrd = raw
        sz = self.sz
        return json.dumps({"is_isometry": ok, "nrd": sz.f_to_json(nrd),
                           "g": [[sz.quat_to_json(q) for q in row] for row in g]})


def timed_rounds(runner: Runner, ops, seconds: float, ref: Reference,
                 tracer=None):
    """Whole rounds of ``ops`` until ``seconds`` have passed.

    Returns the latencies, the reference time after each operation and, for
    each operation of the round, its distinct (exit code, output) pairs
    with their counts.  Outputs are rendered between operations, outside
    the latency span and with the tracer paused, and kept once per
    distinct text, so memory does not grow with the number of rounds.
    """
    lat, refs = array("q"), array("q")
    seen = [{} for _ in ops]
    render = tracer.untraced(runner.render) if tracer else runner.render
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    while True:
        for op, outs in zip(ops, seen):
            t0 = clock()
            rc, raw = runner.run(op)
            lat.append(clock() - t0)
            key = (rc, render(raw))
            outs[key] = outs.get(key, 0) + 1
            refs.append(ref.time_ns())
        if clock() >= deadline:
            return lat, refs, [[[rc, text, n] for (rc, text), n in outs.items()]
                         for outs in seen]


def main() -> int:
    job = json.loads(sys.stdin.readline())
    proto = sys.stdout
    tracer = None
    runner = Runner(job["root"], job["p"], job["N"])
    if job["mode"] == "traced":
        sys.path.insert(0, HERE)
        import trace_layers

        tracer = trace_layers.Tracer()
        tracer.install()
    warm = [runner.run(runner.prepare(op)) for op in job["warmup"]]
    print("ready", file=proto, flush=True)
    if job["mode"] == "probe":
        return 0
    ops = [runner.prepare(op) for op in job["ops"]]
    if tracer:
        tracer.mark()
    lat, refs, results = timed_rounds(runner, ops, job["seconds"],
                                      Reference(job["p"], job["N"]), tracer)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()
    report = {"latencies_ns": list(lat), "refs_ns": list(refs),
              "results": results,
              "warmup_rcs": [rc for rc, _ in warm],
              "peak_rss_kb": peak_rss_kb}
    if tracer:
        report["layers"] = tracer.per_op(len(lat))
        tracer.write(job["trace_file"])
    print(json.dumps(report), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
