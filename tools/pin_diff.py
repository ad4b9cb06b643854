"""Name the pinned outcomes that moved between two checkouts.

Usage, from anywhere::

    python3 tools/pin_diff.py OLD [NEW]

OLD and NEW are roots of hermiwitt checkouts that have ``tests/pins.py``;
NEW defaults to the checkout this script is in.  Each checkout's registry
of pins runs against its own ``src``, in its own process, both at once.
For each pin, the outcomes that moved are listed by index and label,
grouped by (old kind → new kind).  A kind is ``answer``, the class of a
refusal, or, for an answer that holds a refusal, the kinds of its parts.
Where a pin's inputs were cut from inputs built at 4N (its builder has an
``at_4N``), each new answer is also compared with the outcome at 4N.

Like diff, it exits 0 when no outcome moved, 1 when one did (or a count or
the set of pins changed), and 2 when the tool itself failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# run in a checkout's root with its src and tests, then HERE, first on the path
CHILD = ("import json, sys; sys.path[:0] = sys.argv[1:]; import pin_diff; "
         "json.dump(pin_diff.{}, sys.stdout)")


def kind(o, refused):
    """'answer', a refusal's class name, or '(k1, k2, ...)' for a tuple
    one of whose parts holds a refusal."""
    if isinstance(o, refused):
        return o[0]
    parts = [kind(x, refused) for x in o] if isinstance(o, tuple) else []
    return f"({', '.join(parts)})" if any(k != "answer" for k in parts) else "answer"


def rows(pairs):
    """[label, kind, repr] of each (label, outcome) pair: the repr only
    tells two outcomes apart, and the kind comes from the outcome."""
    import pins

    return [[" ".join(map(str, label)), kind(o, pins.Refused), repr(o)]
            for label, o in pairs]


def dump():
    """Every pin's rows, and the names of the pins with inputs cut from 4N."""
    import pins

    builders = {name: pins.builder(path) for name, (path, *_) in pins.PINS.items()}
    return {"pins": {name: rows(build()) for name, build in builders.items()},
            "at_4N": [name for name, build in builders.items()
                      if hasattr(build, "at_4N")]}


def at_4N(name, indices):
    """The rows of the outcomes at 4N of one pin's inputs at these indices."""
    import pins

    return rows(((), o) for o in pins.builder(pins.PINS[name][0]).at_4N(indices))


def _moved(a, b):
    """{(old kind, new kind): indices} of the rows of b that differ from a's."""
    groups = {}
    for i, (x, y) in enumerate(zip(a, b)):
        if x[1:] != y[1:]:
            groups.setdefault((x[1], y[1]), []).append(i)
    return groups


def _note(ref, row):
    if ref is None:
        return ""
    return "; equals the answer at 4N" if ref[1:] == row[1:] \
        else f"; at 4N: {ref[1]}, not equal"


def report(old, new, refs=None):
    """(lines, pins changed) for two {name: rows}; refs maps a pin's name to
    a function from indices to the rows at 4N of those inputs."""
    refs, lines, changed = refs or {}, [], 0
    for name in {**old, **new}:
        a, b = old.get(name), new.get(name)
        if a is None or b is None:
            lines.append(f"{name}: only in {'NEW' if a is None else 'OLD'}")
            changed += 1
            continue
        if len(a) != len(b):
            lines.append(f"{name}: count {len(a)} → {len(b)}")
            changed += 1
            continue
        groups = _moved(a, b)
        changed += bool(groups)
        lines.append(f"{name}: {sum(map(len, groups.values()))} of {len(a)} moved")
        answers = [i for idx in groups.values() for i in idx if b[i][1] == "answer"]
        ref = {} if name not in refs or not answers else \
            dict(zip(answers, refs[name](answers)))
        for (k0, k1), idx in groups.items():
            lines.append(f"  {k0} → {k1}: {len(idx)}")
            lines += [f"    #{i} {b[i][0]}{_note(ref.get(i), b[i])}" for i in idx]
    lines.append(f"{changed} of {len({**old, **new})} pins changed")
    return lines, changed


def _start(tree, call):
    paths = [os.path.join(tree, "src"), os.path.join(tree, "tests"), HERE]
    return subprocess.Popen([sys.executable, "-c", CHILD.format(call), *paths],
                            cwd=tree, stdout=subprocess.PIPE, text=True)


def _results(trees, calls):
    """What each call prints in its checkout, all run at once."""
    procs = [_start(tree, call) for tree, call in zip(trees, calls)]
    outs = [proc.communicate()[0] for proc in procs]
    for proc, tree in zip(procs, trees):
        if proc.returncode:
            raise RuntimeError(f"the registry of {tree} exited {proc.returncode}")
    return [json.loads(out) for out in outs]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    trees = [os.path.abspath(t) for t in [*argv, os.path.dirname(HERE)][:2]]
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "tests", "pins.py")):
            print(f"error: {tree} has no tests/pins.py", file=sys.stderr)
            return 2
    try:
        old, new = _results(trees, ["dump()"] * 2)
        refs = {name: lambda idx, name=name: _results(
                    trees[1:], [f"at_4N({name!r}, {idx!r})"])[0]
                for name in new["at_4N"]}
        lines, changed = report(old["pins"], new["pins"], refs)
    except Exception as exc:  # any failure of the tool is exit 2, not a moved outcome
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
