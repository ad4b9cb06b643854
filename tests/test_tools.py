import importlib.util
from pathlib import Path

import pins
from hermiwitt import morita, padic

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_kernel_timing_runs(monkeypatch):
    """tools/kernel_timing.py's timings on this tree's own padic and morita,
    one round of batches of two: every seeded case and the captured calls
    of each workload time to a positive number at both configurations, so
    a change to a kernel's signature, to morita.split or to the workloads'
    runner shows here.  small's few kernel calls are left out of the check:
    whether it makes any depends on the module caches other tests fill."""
    kt = _load("kernel_timing")
    monkeypatch.setattr(kt, "ROUNDS", 1)
    monkeypatch.setattr(kt, "BATCH", 2)
    us = kt.timings(padic, morita)
    assert sorted(us) == ["13,128", "5,32"]
    for cases in us.values():
        assert all(type(t) is float and t > 0 for t in cases.values())
        for kind in ("integral", "prec_below_N"):
            assert {f"d_dot_1pair/{kind}", f"d_update_1pair/{kind}",
                    f"e_update_2step/{kind}", f"phi_Epi/{kind}"} <= set(cases)
    names = {name.split("/")[0] for cases in us.values() for name in cases}
    for workload in ("decompose", "towers", "isometries"):
        assert {f"{workload}_d_dot", f"{workload}_e_mul"} & names


def test_kernel_timing_usage(capsys):
    """On a wrong argument count, tools/kernel_timing.py exits 2 and prints
    its usage: the heading and the command line under it."""
    assert _load("kernel_timing").main([]) == 2
    assert "python3 tools/kernel_timing.py ROOT" in capsys.readouterr().err


def test_pin_diff_names_each_moved_outcome(monkeypatch, capsys):
    """tools/pin_diff.py's rows and report on refusal_messages's outcomes,
    built here as its child processes build them.  The table against itself
    moves nothing.  An answer turned into a refusal, and a tower answer into
    one whose trace class is refused, move under those kinds; the other way
    round, each new answer is compared with its outcome at 4N.  A changed
    count is reported as one."""
    pd = _load("pin_diff")
    pairs = pins.builder(pins.PINS["refusal_messages"][0])()
    old = pd.rows(pairs)
    assert pd.report({"r": old}, {"r": old}) == (
        ["r: 0 of 2520 moved", "0 of 1 pins changed"], 0)
    assert pd.report({"r": old}, {"r": old[1:]}) == (
        ["r: count 2520 → 2519", "1 of 1 pins changed"], 1)

    i, j = [k for k, (_, o) in enumerate(pairs) if not isinstance(o, pins.Refused)][:2]
    refused = pins.Refused(("PrecisionExhausted", "result precision <= 0"))
    answered, moved = list(pairs), list(pairs)
    answered[j] = (pairs[j][0], ((1, True, 1), ["g1"]))
    moved[i] = (pairs[i][0], refused)
    moved[j] = (pairs[j][0], ((1, True, 1), refused))
    answered, moved = pd.rows(answered), pd.rows(moved)
    assert pd.report({"r": answered}, {"r": moved}) == ([
        "r: 2 of 2520 moved",
        "  answer → PrecisionExhausted: 1", f"    #{i} (3, 10)",
        "  answer → (answer, PrecisionExhausted): 1", f"    #{j} (3, 10)",
        "1 of 1 pins changed"], 1)
    # at 4N, input i is refused and input j gets the answer at N
    at_4N = {"r": lambda idx: [moved[i] if k == i else answered[k] for k in idx]}
    assert pd.report({"r": moved}, {"r": answered}, at_4N)[0][1:5] == [
        "  PrecisionExhausted → answer: 1",
        f"    #{i} (3, 10); at 4N: PrecisionExhausted, not equal",
        "  (answer, PrecisionExhausted) → answer: 1",
        f"    #{j} (3, 10); equals the answer at 4N"]

    # a child that prints something other than JSON is a failure of the
    # tool, exit 2, never exit 1 for a moved outcome
    monkeypatch.setattr(pd, "CHILD", "print({!r})")
    assert pd.main([str(TOOLS.parent)]) == 2
    assert "JSONDecodeError" in capsys.readouterr().err


def test_pin_diff_names_a_moved_workload_operation():
    """tools/pin_diff.py's report on workload_outputs's rows: an operation
    whose answer turns into exit 3 is listed under answer → exit 3 by its
    workload, seed, index and subcommand."""
    pd = _load("pin_diff")
    pairs = pins.builder(pins.PINS["workload_outputs"][0])()
    i = next(k for k, (label, _) in enumerate(pairs) if label[:3] == ("towers", 2, 5))
    moved = list(pairs)
    moved[i] = (pairs[i][0], pins.Refused(
        ("exit 3", "inconclusive: remaining block is indistinguishable from zero")))
    assert pd.report({"w": pd.rows(pairs)}, {"w": pd.rows(moved)}) == ([
        "w: 1 of 216 moved", "  answer → exit 3: 1", f"    #{i} towers 2 5 tower",
        "1 of 1 pins changed"], 1)
