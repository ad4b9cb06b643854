"""One digest of what the benchmark's workloads print, for byte-identity checks.

Usage, from anywhere::

    python3 tools/workload_digest.py ROOT

ROOT is the root of a hermiwitt checkout.  The inputs come from this
checkout's ``perfbench/gen.py``; every warm-up and timed operation of the
four workloads at seeds 1-3 runs against ``ROOT/src`` through
``perfbench/worker.py``'s ``Runner``, one at a time in this process.  The
one line printed is the sha256 over each operation's exit code and output
(stdout, or stderr on a nonzero exit; for an escaped exception, its last
line, since a traceback names the checkout's paths).  Two checkouts that
print the same digest answered every operation byte for byte alike.
Nothing under ``perfbench/`` is written.

``tools/workload_digest.expected`` holds the digest of the current tree, and
CI fails when this script prints another.  A change that moves a printed
digit, or a message, re-pins that file and says in CHANGES.md which
outputs moved and why; any other change leaves it as it is.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import gen  # noqa: E402
from worker import Runner  # noqa: E402

SEEDS = (1, 2, 3)


def digest(root: str) -> tuple[str, int]:
    """(hex digest, number of operations) for the checkout at root."""
    h, count = hashlib.sha256(), 0
    for workload in ("decompose", "towers", "isometries", "small"):
        p, N, _ = gen.CONFIGS[workload]
        runner = Runner(root, p, N)
        for seed in SEEDS:
            warmup, ops, _ = gen.make(workload, seed)
            for op in warmup + ops:
                rc, raw = runner.run(runner.prepare(op))
                text = runner.render(raw)
                if rc == -1:
                    text = text.rstrip().splitlines()[-1]
                h.update(json.dumps([workload, seed, rc, text]).encode())
                h.update(b"\n")
                count += 1
    return h.hexdigest(), count


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    root = os.path.abspath(argv[0])
    if not os.path.isfile(os.path.join(root, "src", "hermiwitt", "__init__.py")):
        print(f"error: {root} is not a hermiwitt checkout", file=sys.stderr)
        return 2
    hexdigest, count = digest(root)
    print(hexdigest)
    print(f"{count} operations", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
