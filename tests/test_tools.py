import importlib.util
from pathlib import Path

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
