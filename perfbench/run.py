"""Benchmark of hermiwitt: one entry point for the four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 24 --trace 0

Workloads: decompose, towers, isometries, small (see README.md).  The inputs
come from ``--seed`` alone (``gen``), the program sees them only as JSON, and
every answer is checked by ``check`` with the benchmark's own arithmetic.
One caller drives the program one operation at a time (a closed loop) in a
worker process (``worker``).

``--trace 0`` reports the end-to-end metrics: throughput and latency over
``--seconds`` of whole rounds of operations, set-up time (median of five
fresh processes, each from its start through the import and the warm-up)
and peak memory.  Times are scaled by a reference computation timed right
after each operation (``reference``), because the CPU's speed on a shared
virtual machine moves raw times by 15-45% between runs of the same code;
the raw figures are printed as ``wall.*`` and carry no bound.
``--trace 1`` runs ``--seconds / 2`` untraced, then
``--seconds / 2`` with the tracer installed, and reports the per-layer
figures per operation plus the tracing overhead.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results and spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
from reference import Reference, scaled_ms  # noqa: E402
from zd import Zd  # noqa: E402

SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


class Worker:
    """A worker process; the clock for set-up starts before it is spawned."""

    def __init__(self, root: str, job: dict, deadline: float):
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")], cwd=root,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.proc.stdin.write(json.dumps(job) + "\n")
            self.proc.stdin.close()
            line = self._read(self.proc.stdout.readline)
        except BaseException:
            self._stop()
            raise
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            self._stop()
            raise WorkerError("worker did not finish its set-up")

    def _read(self, fn):
        """fn() with the process killed when the run's deadline passes."""
        timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0),
                                self.proc.kill)
        timer.start()
        try:
            return fn()
        finally:
            timer.cancel()

    def _stop(self):
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def finish(self):
        """The worker's report, or None for a probe."""
        try:
            text = self._read(self.proc.stdout.read)
            self.proc.wait()
        finally:
            self._stop()
        if self.proc.returncode != 0:
            raise WorkerError(f"worker exited with {self.proc.returncode}")
        return json.loads(text) if text.strip() else None


def grade(zd: Zd, ops, expects, report):
    """(attempted, failed, wrong answers, reasons) over the timed operations.
    Each distinct output of an operation is checked once and counted as
    often as it occurred."""
    attempted = failed = wrong = 0
    reasons = []
    for i, outs in enumerate(report["results"]):
        for rc, out, n in outs:
            attempted += n
            verdict = check.check(zd, ops[i]["kind"], expects[i], rc, out)
            if verdict is not None:
                failed += n
                wrong += n * verdict[0]
                reasons.append(f"op {i}: {verdict[1]}")
    return attempted, failed, wrong, reasons


def scaled(report, ref: Reference) -> list:
    """The report's latencies in ms, scaled to the nominal reference."""
    return scaled_ms(report["latencies_ns"], report["refs_ns"], ref.nominal_ns)


def per_s(lat_ms) -> float:
    """Operations completed per second of time spent in operations."""
    return len(lat_ms) / (sum(lat_ms) / 1e3)


def end_to_end(report, setups, ref: Reference) -> tuple[dict, dict]:
    """The bounded metrics, from times scaled to the nominal reference, and
    the same figures in raw wall time, which carry no bound.  A set-up is
    short and mostly process start and module loading, and references
    timed just around it tracked it badly, so the set-up times are scaled
    by the median reference time of the timed run that follows them, which
    tracks the speed phase they ran in."""
    lat = scaled(report, ref)
    raw = [x / 1e6 for x in report["latencies_ns"]]
    ref_ns = statistics.median(report["refs_ns"])
    metrics = {
        "ops_per_s": {"value": per_s(lat), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
        "latency_p90_ms": {"value": statistics.quantiles(lat, n=10)[8],
                           "unit": "ms"},
        "setup_s": {"value": statistics.median(setups) * ref.nominal_ns / ref_ns,
                    "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_kb"] / 1024, "unit": "MB"},
    }
    info = {
        "wall.ops_per_s": {"value": per_s(raw), "unit": "1/s"},
        "wall.latency_p50_ms": {"value": statistics.median(raw), "unit": "ms"},
        "wall.latency_p90_ms": {"value": statistics.quantiles(raw, n=10)[8],
                                "unit": "ms"},
        "wall.setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall.reference_ms": {"value": ref_ns / 1e6, "unit": "ms"},
    }
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(gen.CONFIGS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    info = {}

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hermiwitt", "__init__.py")):
        print("error: run from the root of a hermiwitt checkout "
              "(src/hermiwitt is missing)", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"

    warmup, ops, expects = gen.make(args.workload, args.seed)
    p, N, _ = gen.CONFIGS[args.workload]
    zd = Zd(p, N)
    ref = Reference(p, N)
    job = {"root": root, "p": p, "N": N, "warmup": warmup, "ops": ops,
           "seconds": args.seconds}
    try:
        if args.trace == 0:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                w = Worker(root, dict(job, mode="probe"), deadline)
                w.finish()
                setups.append(w.setup_s)
            w = Worker(root, dict(job, mode="timed"), deadline)
            setups.append(w.setup_s)
            reports = [w.finish()]
            metrics, info = end_to_end(reports[0], setups, ref)
        else:
            half = args.seconds / 2
            w = Worker(root, dict(job, mode="timed", seconds=half), deadline)
            plain = w.finish()
            w = Worker(root, dict(job, mode="traced", seconds=half,
                                  trace_file=os.path.join(out_dir, f"trace-{tag}.json")),
                       deadline)
            traced = w.finish()
            reports = [plain, traced]
            metrics = dict(traced["layers"])
            metrics["trace.overhead_pct"] = {
                "value": 100 * (1 - per_s(scaled(traced, ref))
                                / per_s(scaled(plain, ref))),
                "unit": "%"}
    except (WorkerError, OSError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    for report in reports:
        if any(report["warmup_rcs"]):
            print(f"error: warm-up failed with exit codes {report['warmup_rcs']}",
                  file=sys.stderr)
            return 1

    attempted = failed = wrong = 0
    for report in reports:
        a, f, wr, reasons = grade(zd, ops, expects, report)
        attempted, failed, wrong = attempted + a, failed + f, wrong + wr
        for r in reasons[:5]:
            print(f"failed: {r}", file=sys.stderr)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(out_dir, f"result-{tag}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(result, unbounded=info), fh, indent=1)
    for name, m in {**metrics, **info}.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
